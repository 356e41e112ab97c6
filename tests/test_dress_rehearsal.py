"""Multi-node dress rehearsal (VERDICT r3 #6): the flagship streaming
pipeline runs as a DETACHED DRIVER against a real TWO-NODE local Ray
cluster (`ray start --head` + a second raylet) on the rename-free
strict:// storage backend, with partition-state actors SPREAD across
both nodes — and produces output byte-identical to a plain in-process
single-node run.

`ray job submit` itself needs the ray[default] dashboard stack, which
this sandbox doesn't ship; a subprocess driver that `ray.init
(address=...)`-connects to the running cluster is exactly what the job
server does under the hood, so this is the faithful stand-in for the
BASELINE.json `ray job submit` invocation.

Teardown kills ONLY the cluster's own daemons (matched by the unique
GCS port or temp dir in their cmdlines) — never the pytest session's
local-mode raylet.
"""

import json
import os
import signal
import subprocess
import sys
import time
import uuid

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DRIVER = r"""
import json, sys, time
import ray

addr, root, mode = sys.argv[1], sys.argv[2], sys.argv[3]
if mode == "cluster":
    ray.init(address=addr, ignore_reinit_error=True, logging_level="ERROR")
    # wait until both raylets registered
    for _ in range(60):
        if sum(1 for n in ray.nodes() if n["Alive"]) >= 2:
            break
        time.sleep(0.5)
    assert sum(1 for n in ray.nodes() if n["Alive"]) >= 2, "second node missing"
else:
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

from hydra_ray.pipelines.replicate import ReplicateConfig, ReplicatePipeline
from hydra_ray.synth import synth_clips_table, synth_updates_table
from hydra_ray.table import Table

N = 600
clips = synth_clips_table(N)
ct = Table.create(f"{root}/clips", schema=clips.schema)
for v in range(4):
    ct.append(clips.slice(v * (N // 4), N // 4))
upd = synth_updates_table(N)
ut = Table.create(f"{root}/updates", schema=upd.schema)
step = -(-upd.num_rows // 4)
for v in range(4):
    ut.append(upd.slice(v * step, min(step, upd.num_rows - v * step)))

cfg = ReplicateConfig(num_partitions=6, actor_num_cpus=0.25,
                      window_size_ms=10_000, session_gap_ms=5_000)
pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out", cfg,
                         f"{root}/updates")
pipe.run()

nodes = sorted(set(pipe.actor_nodes))
repl = Table(f"{root}/out/replicated").to_arrow()
df = repl.select(["seq", "clip_id", "transcript", "deleted"]).to_pandas()
df = df.sort_values("seq").reset_index(drop=True)
import pandas as pd
sig = [int(repl.num_rows), int(pd.util.hash_pandas_object(df).sum() % (1 << 63))]
print(json.dumps({"sig": sig, "actor_nodes": nodes}))
ray.shutdown()
"""


def _port_tagged_pids(port: int, tempdir: str) -> list[int]:
    """PIDs of THIS cluster's daemons only: match the explicit
    gcs_server_port= / gcs-address=…:<port> substrings or the cluster's
    unique ``--temp-dir`` (the head's autoscaler monitor carries only
    the latter, and so do the raylets and agents, whose gcs-address is
    the node IP, where that is not 127.0.0.1); a bare digit match could
    catch the pytest session's own Ray processes through an unrelated
    port or path containing the digits."""
    out = subprocess.run(["pgrep", "-af", "ray"], capture_output=True,
                         text=True).stdout
    tags = (f"gcs_server_port={port}", f"gcs-address=127.0.0.1:{port}",
            tempdir)
    pids = []
    for line in out.splitlines():
        pid, _, cmd = line.partition(" ")
        if any(t in cmd for t in tags):
            pids.append(int(pid))
    return pids


def test_two_node_cluster_driver_matches_single_node(tmp_path):
    port = 6500 + os.getpid() % 900
    env = dict(os.environ, PYTHONPATH=REPO)
    env.pop("RAY_ADDRESS", None)
    tempdir = f"/tmp/hydra_dress_{uuid.uuid4().hex[:8]}"
    started = False
    try:
        head = subprocess.run(
            ["ray", "start", "--head", f"--port={port}", "--num-cpus=4",
             "--include-dashboard=false", f"--temp-dir={tempdir}"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if head.returncode != 0:
            pytest.skip(f"ray start --head failed: {head.stderr[-300:]}")
        started = True
        worker = subprocess.run(
            ["ray", "start", f"--address=127.0.0.1:{port}", "--num-cpus=4"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert worker.returncode == 0, worker.stderr[-500:]

        driver_py = tmp_path / "driver.py"
        driver_py.write_text(DRIVER)

        # the "job submit" stand-in: a detached driver process against
        # the cluster, strict:// (object-store shim) storage end to end
        cl = subprocess.run(
            [sys.executable, str(driver_py), f"127.0.0.1:{port}",
             f"strict://{tmp_path}/cluster", "cluster"],
            env=env, capture_output=True, text=True, timeout=420,
        )
        assert cl.returncode == 0, (cl.stdout[-800:], cl.stderr[-1500:])
        cluster = json.loads(cl.stdout.strip().splitlines()[-1])

        # reference: plain in-process single-node run, local backend
        lo = subprocess.run(
            [sys.executable, str(driver_py), "-",
             str(tmp_path / "single"), "single"],
            env=env, capture_output=True, text=True, timeout=420,
        )
        assert lo.returncode == 0, (lo.stdout[-800:], lo.stderr[-1500:])
        single = json.loads(lo.stdout.strip().splitlines()[-1])

        # byte-identical replicated output across cluster/backends
        assert cluster["sig"] == single["sig"]
        # partition-state actors actually SPREAD over both nodes
        assert len(cluster["actor_nodes"]) >= 2, cluster["actor_nodes"]
    finally:
        if started:
            for pid in _port_tagged_pids(port, tempdir):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            subprocess.run(["rm", "-rf", tempdir], check=False)
