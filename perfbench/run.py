"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The inputs are generated here, in this
process, from ``--seed``; every measurement runs in a fresh child process
with its own Ray session (``perfbench/cycle.py``), under a time limit, and
its work dir is deleted afterwards.

``--trace 0`` prints the end-to-end metrics: it measures set-up in two
set-up-only processes, then one process drains the backlog repeatedly
until ``--seconds`` of ``run()`` time and the workload's ``min_drains``
drains are measured, and reports medians over the drains.  ``--trace 1`` prints the per-layer
metrics: one untraced drain, then one traced drain, each in its own
process.

An operation is an epoch commit, a read-back or a set-up; it fails when
it raises, runs past the time limit or fails the output check (a failed
drain counts all of its epochs and its read-back as failed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import uuid

import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.streams import build_inputs, reference  # noqa: E402
from perfbench.tracer import load_spans  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    N_CLIPS,
    TINY_CLIPS,
    TINY_VERSIONS,
    VERSIONS,
    WORKLOADS,
)

DEADLINE_S = 165          # the whole run must end within 180 s
SETUP_PROBES = 2          # plus the set-up of each drain
WORK_BASE = os.path.join(ROOT, ".pbw")
# Ray's session dir holds AF_UNIX sockets, whose paths are limited to 107
# bytes; the session dir name and socket name take up to 64 of them
RAY_TMP_MAX = 43


def _program_digest() -> str:
    """Hash of the program's source, so that stored digests of another
    version of the program are never compared with this one's."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "hydra_ray")
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(f.encode() + fh.read())
    return h.hexdigest()[:16]


def _live_in_session(sid: int) -> list[int]:
    """Processes of session ``sid`` that have not exited (a zombie has
    exited; only its reaping by init is pending)."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(name))
    return pids


def _kill_session(sid: int) -> None:
    """Kill every process left in session ``sid`` and wait until all have
    exited."""
    while left := _live_in_session(sid):
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        time.sleep(0.05)


class Runner:
    def __init__(self, args):
        self.args = args
        self.work = WORKLOADS[args.workload]
        self.dir = os.path.join(WORK_BASE, f"{os.getpid()}-{uuid.uuid4().hex[:6]}")
        self.inputs = os.path.join(self.dir, "in")
        self.deadline = time.monotonic() + DEADLINE_S
        self.ray_tmp = os.path.join(WORK_BASE, f"r{os.getpid()}")
        if len(self.ray_tmp) > RAY_TMP_MAX:
            # the checkout path is too long for Ray's socket paths: use a
            # short private dir instead, deleted like the rest
            self.ray_tmp = tempfile.mkdtemp(prefix="pbw")
        self.n_cycle = 0

    def cycle(self, mode: str, trace: int = 0, max_drains: int = 0) -> dict:
        """Spawn one cycle process; its result dict, or an error entry."""
        self.n_cycle += 1
        cdir = os.path.join(self.dir, f"c{self.n_cycle}")
        os.makedirs(cdir)
        env = dict(os.environ, PYTHONPATH=ROOT,
                   PERFBENCH_METER_DIR=os.path.join(cdir, "meter"))
        env.pop("PERFBENCH_TRACE_DIR", None)
        if trace:
            env["PERFBENCH_TRACE_DIR"] = os.path.join(cdir, "trace")
            os.makedirs(env["PERFBENCH_TRACE_DIR"])
        result = os.path.join(cdir, "result.json")
        cmd = [sys.executable, "-m", "perfbench.cycle",
               "--workload", self.work.name, "--mode", mode,
               "--inputs", self.inputs, "--work", cdir,
               "--token", uuid.uuid4().hex[:12],
               "--trace", str(trace), "--result", result,
               "--perturb", self.args.perturb,
               "--seconds", repr(self.args.seconds),
               "--deadline", repr(self.deadline - 10)]
        if max_drains:
            cmd += ["--max-drains", str(max_drains)]
        cmd += ["--ray-tmp", self.ray_tmp]
        timeout = self.deadline - time.monotonic()
        if timeout <= 5:
            return {"error": "no time left before the run's time limit"}
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT,
                                env=env, start_new_session=True,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        err, hung = "", False
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            hung = True
        finally:
            _kill_session(proc.pid)
        try:
            # a hung process leaves the drains it finished
            with open(result) as f:
                res = json.load(f)
        except (OSError, ValueError):
            res = {}
        if hung:
            proc.communicate()
            res["error"] = (f"{mode} process ran past the time limit "
                            f"({timeout:.0f} s) and was killed")
        elif not res:
            res["error"] = (f"process exited {proc.returncode} without a "
                            f"result: {err[-2000:]}")
        if trace and "error" not in res:
            res["spans"] = load_spans(env["PERFBENCH_TRACE_DIR"])
        shutil.rmtree(cdir, ignore_errors=True)
        print(f"# {mode} process{' (traced)' if trace else ''}: "
              f"{time.monotonic() - t_spawn:.1f} s wall"
              + (f", setup_s {res['setup_s']:.2f} s" if "setup_s" in res else "")
              + "".join(f"; drain {d['run_s']:.2f} s (commit intervals "
                        f"{', '.join(f'{x:.3f}' for x in d['commit_intervals_s'])}"
                        f" s), read-backs "
                        f"{', '.join(f'{x:.2f}' for x in d['readback_s'])} s"
                        for d in res.get("drains", ())))
        return res

    def prepare(self) -> dict:
        n, v = (TINY_CLIPS, TINY_VERSIONS) if self.args.tiny else (N_CLIPS, VERSIONS)
        os.makedirs(self.inputs)
        inputs = build_inputs(self.inputs, self.args.seed, n, v)
        ref = reference(inputs, self.work.dedup)
        for name in ("replicated", "windows", "sessions"):
            pq.write_table(ref[name],
                           os.path.join(self.inputs, f"ref_{name}.parquet"))
        with open(os.path.join(self.inputs, "ref.json"), "w") as f:
            json.dump({"lineage": ref["lineage"], "kept": ref["kept"]}, f)
        return {"clips": n, "versions": v, "kept": ref["kept"]}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        shutil.rmtree(self.ray_tmp, ignore_errors=True)


def _cross_backend(runner: Runner, digests: dict) -> list[str]:
    """replicate_local and replicate_store30 must commit identical
    outputs for the same seed: store this run's digests and compare them
    with the other backend's, when that run exists."""
    pair = {"replicate_local": "replicate_store30",
            "replicate_store30": "replicate_local"}
    other = pair.get(runner.work.name)
    if other is None or runner.args.perturb:
        return []
    d = os.path.join(WORK_BASE, "digests")
    os.makedirs(d, exist_ok=True)
    key = f"{_program_digest()}-{runner.args.seed}-{int(runner.args.tiny)}"
    with open(os.path.join(d, f"{key}-{runner.work.name}.json"), "w") as f:
        json.dump(digests, f)
    try:
        with open(os.path.join(d, f"{key}-{other}.json")) as f:
            theirs = json.load(f)
    except OSError:
        return []
    return [f"{name} digest differs from {other}'s for the same seed"
            for name in digests if theirs.get(name) != digests[name]]


def _fs_counts(res: dict, spans: list | None, phase: str) -> dict:
    """Storage ops by class during ``phase`` ("run" or "readback"): from
    the metered op log when the backend is metered, else from the fs
    spans (the driver's only, for the read-back)."""
    if res.get("meter_run"):
        before = res["meter_setup" if phase == "run" else "meter_run"]
        after = res[f"meter_{phase}"]
        return {op: n - before.get(op, 0) for op, n in after.items()}
    t0, t1 = res[f"{phase}_t0"], res[f"{phase}_t1"]
    out: dict = {}
    for s in spans or []:
        if (s["name"].startswith("fs.") and t0 <= s["t0"] <= t1
                and (phase == "run" or s["pid"] == res["pid"])):
            out[s["name"][3:]] = out.get(s["name"][3:], 0) + 1
    return out


def per_layer(proc: dict, untraced_run_s: float, n_clips: int) -> dict:
    spans = proc["spans"]
    driver = proc["pid"]
    res = dict(proc["drains"][0], pid=driver)
    r0, r1 = res["run_t0"], res["run_t1"]
    b0, b1 = res["readback_t0"], res["readback_t1"]
    reads = len(res["readback_s"])
    epochs = res["epochs"]

    def sel(name, lo=r0, hi=r1, pid=None, not_pid=None):
        return [s for s in spans if s["name"] == name and lo <= s["t0"] <= hi
                and (pid is None or s["pid"] == pid)
                and (not_pid is None or s["pid"] != not_pid)]

    def busy(ss):
        return sum((s["t1"] - s["t0"] for s in ss), 0.0)

    dec = sel("decode.batch") + sel("audio.decode_batch", not_pid=driver)
    ingest = sel("state.ingest")
    rows_by_part: dict = {}
    for s in ingest:
        rows_by_part[s["part"]] = rows_by_part.get(s["part"], 0) + s["n"]
    close = sel("state.close")
    close_by_epoch: dict = {}
    for s in close:
        close_by_epoch[s["epoch"]] = max(close_by_epoch.get(s["epoch"], 0.0),
                                         s["t1"] - s["t0"])
    save = sel("state.save")
    stage = sel("lancelite.stage")
    fs_run = [s for s in spans if s["name"].startswith("fs.")
              and r0 <= s["t0"] <= r1]
    ops = _fs_counts(res, spans, "run")
    rb_ops = _fs_counts(res, spans, "readback")
    m = res["run_metrics"]
    mean_rows = (sum(rows_by_part.values()) / len(rows_by_part)
                 if rows_by_part else 0.0)
    out = {
        "decode.rows": (sum(s["n"] for s in dec), "count"),
        "decode.busy_s": (busy(dec), "s"),
        "state.ingest_rows": (sum(s["n"] for s in ingest), "count"),
        "state.ingest_busy_s": (busy(ingest), "s"),
        "state.close_busy_s": (busy(close), "s"),
        "state.close_max_s": (sum(close_by_epoch.values()), "s"),
        "state.partition_skew": (
            max(rows_by_part.values()) / mean_rows if mean_rows else 0.0,
            "ratio"),
        "state.save_busy_s": (busy(save), "s"),
        "state.ckpt_bytes": (sum(s.get("b", 0) for s in save), "bytes"),
        "dedup_index.resolve_busy_s": (busy(sel("dedup_index.resolve")), "s"),
        "neardup_index.resolve_busy_s": (busy(sel("neardup_index.resolve")),
                                         "s"),
        "neardup_index.commit_busy_s": (busy(sel("neardup_index.commit")),
                                        "s"),
        "dedup.drop_ratio": (1.0 - m["clips_in"] / n_clips, "ratio"),
        "lancelite.frags_staged": (len(stage), "count"),
        "lancelite.stage_bytes": (sum(s["b"] for s in stage), "bytes"),
        "lancelite.stage_busy_s": (busy(stage), "s"),
        "lancelite.commits_per_epoch": (
            len(sel("lancelite.commit")) / epochs, "1/epoch"),
        "lancelite.commit_busy_s": (busy(sel("lancelite.commit")), "s"),
        "fs.busy_s": (busy(fs_run), "s"),
        "lancelite.read_busy_s": (
            busy(sel("lancelite.read", b0, b1, pid=driver)) / reads, "s"),
        "audio.decode_batch_s": (
            busy(sel("audio.decode_batch", b0, b1, pid=driver)) / reads, "s"),
        "fs.readback_ops": (sum(rb_ops.values()) / reads, "count"),
        "replicate.driver_cpu_s": (res["driver_cpu_s"], "s"),
        "host.rss_hwm_mb": (proc["rss_hwm_mb"], "MB"),
        "trace.overhead_s": (res["run_s"] - untraced_run_s, "s"),
    }
    for op in ("put", "get", "head", "list", "delete"):
        out[f"fs.{op}_per_epoch"] = (ops.get(op, 0) / epochs, "1/epoch")
    return out


def _tally(proc: dict, versions: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one run process.  A drain is
    versions + 1 epochs (with the flush epoch) and a read-back; a drain
    that fails the check fails all of them; a process that raises or runs
    past its time limit fails one more drain."""
    per_drain = versions + 1 + 1
    drains = proc.get("drains", [])
    problems = [p for d in drains for p in d["problems"]]
    attempted = per_drain * len(drains)
    failed = per_drain * sum(1 for d in drains if d["problems"])
    if "error" in proc:
        attempted, failed = attempted + per_drain, failed + per_drain
        problems.append(proc["error"].strip().splitlines()[-1])
    return attempted, failed, problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # self-test only: tiny inputs, and a deliberate output corruption
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--perturb", default="", help=argparse.SUPPRESS)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "hydra_ray", "__init__.py")):
        print("perfbench: the hydra_ray package is not in this checkout",
              file=sys.stderr)
        return 2

    # a terminated run still stops its processes and deletes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(args)
    try:
        t = time.monotonic()
        info = runner.prepare()
        info["prepare_s"] = time.monotonic() - t
        print(f"# {args.workload} seed={args.seed}: {info['clips']} clips in "
              f"{info['versions']} versions, {info['kept']} kept, generated in "
              f"{info['prepare_s']:.1f} s; "
              f"{runner.work.num_cpus()} Ray CPUs on "
              f"{len(os.sched_getaffinity(0))} CPU(s)")
        attempted = failed = 0
        problems: list[str] = []
        if args.trace:
            plain = runner.cycle("run", max_drains=1)
            traced = runner.cycle("run", trace=1, max_drains=1)
            for proc in (plain, traced):
                a, f, pr = _tally(proc, info["versions"])
                attempted, failed, problems = attempted + a, failed + f, problems + pr
            if not plain.get("drains") or not traced.get("drains"):
                raise RuntimeError("; ".join(problems))
            metrics = per_layer(traced, plain["drains"][0]["run_s"],
                                info["clips"])
        else:
            setups = []
            for _ in range(SETUP_PROBES):
                proc = runner.cycle("setup")
                attempted += 1
                if "error" in proc:
                    failed += 1
                    problems.append(proc["error"].strip().splitlines()[-1])
                else:
                    setups.append(proc["setup_s"])
            proc = runner.cycle("run")
            a, f, pr = _tally(proc, info["versions"])
            attempted, failed, problems = attempted + a, failed + f, problems + pr
            if "setup_s" in proc:
                setups.append(proc["setup_s"])
            drains = proc.get("drains")
            if not drains:
                raise RuntimeError("; ".join(problems))
            for d in drains:
                mismatch = [] if d["problems"] else _cross_backend(
                    runner, d["digests"])
                if mismatch:
                    failed += info["versions"] + 2
                    problems += mismatch
            metrics = {
                "clips_per_s": (statistics.median(
                    info["clips"] / d["run_s"] for d in drains), "1/s"),
                "epoch_p50_s": (statistics.median(
                    x for d in drains for x in d["commit_intervals_s"]), "s"),
                "readback_s": (statistics.median(
                    x for d in drains for x in d["readback_s"]), "s"),
                "setup_s": (statistics.median(setups), "s"),
            }
            fs_ops = _fs_counts(dict(drains[0], pid=proc["pid"]), None, "run")
            print(f"# {len(drains)} drain(s), {len(setups)} set-ups; "
                  f"failed_share {failed / attempted:.4f} "
                  f"({failed}/{attempted} operations); "
                  f"storage ops per drain: {fs_ops or 'not metered'}")
            for k, (v, u) in metrics.items():
                print(f"# {k} = {v:.4f} {u}")
        for pr in problems:
            print(f"# FAILED: {pr}")
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }))
        return 0
    except Exception as e:  # report, never print a partial result
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        runner.close()


if __name__ == "__main__":
    sys.exit(main())
