"""Self-test of the benchmark at a tiny input size (about two minutes).

    python3 perfbench/selftest.py

Checks that:
- a clean run passes the output check and prints exactly the end-to-end
  metrics of BENCHMARK.json, each with its unit;
- a traced run prints exactly the per-layer metrics, each with its unit;
- a deliberately perturbed output (one transcript changed, one window row
  dropped) fails the check;
- the reference depends on the seed, so an output cannot match the
  reference of another seed by accident;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)
WORK = os.path.join(ROOT, ".pbw")


def run(*extra: str, cwd: str = ROOT) -> tuple[int, str]:
    p = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--seed", "3", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return p.returncode, p.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def expect_metrics(res: dict, spec: list) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want, f"metrics {got} != {want}"
    for k, v in res["metrics"].items():
        assert isinstance(v["value"], (int, float)), (k, v)


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(WORK, exist_ok=True)

    code, out = run("--workload", "replicate_local", "--trace", "0", "--tiny")
    res = result(out)
    assert code == 0 and res["correct"] and res["failed"] == 0, out
    expect_metrics(res, bench["end_to_end"])
    print("clean run: correct, end-to-end metrics and units as declared")

    code, out = run("--workload", "replicate_store30", "--trace", "1", "--tiny")
    res = result(out)
    assert code == 0 and res["correct"], out
    expect_metrics(res, bench["per_layer"])
    assert res["metrics"]["fs.put_per_epoch"]["value"] > 0, out
    print("traced run: correct, per-layer metrics and units as declared")

    for how in ("transcript", "window_row"):
        code, out = run("--workload", "replicate_local", "--trace", "0",
                        "--tiny", "--perturb", how)
        res = result(out)
        assert code == 0 and not res["correct"] and res["failed"] > 0, out
        print(f"perturbed output ({how}): check fails")

    from perfbench.check import table_digest
    from perfbench.streams import build_inputs, reference

    digests = []
    for seed in (3, 4):
        with tempfile.TemporaryDirectory(dir=WORK) as d:
            ref = reference(build_inputs(d, seed, 256, 2), dedup=False)
        digests.append(table_digest(ref["replicated"]))
    assert digests[0] != digests[1], "reference does not depend on the seed"
    print("reference depends on the seed")

    with tempfile.TemporaryDirectory(dir=WORK) as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = run("--workload", "replicate_local", "--trace", "0",
                        cwd=d)
        assert code != 0 and not out.strip().startswith("{"), (code, out)
    print("without the program: non-zero exit, no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
