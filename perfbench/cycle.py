"""One measured cycle in a fresh process with its own Ray session.

``--mode setup`` measures set-up only: process start (the parent's spawn
time) to a constructed ``ReplicatePipeline`` (imports, ``ray.init``, sink
creation).  ``--mode run`` then drains the backlog with ``run()`` into a
fresh output root, again and again in the same Ray session, until
``--seconds`` of ``run()`` time and the workload's ``min_drains`` drains
are measured.  After each
drain it reads the commit stamps of the ``replicated`` sink, reads the
output back with ``read_replicated`` three times (one reader, closed
loop), checks it against the reference and deletes it.  The result is written as JSON to
``--result`` after every drain.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback

from . import tracer
from .workloads import WORKLOADS

# Ray's default object store is 30 % of host memory; the pipeline keeps
# only acks and routers there, and a small store keeps the run's memory
# footprint and its start and teardown small on a shared host
OBJECT_STORE_BYTES = 512 << 20
READBACKS = 3


def _session_pids() -> list[int]:
    """This process and the Ray processes it started (same session)."""
    sid = os.getsid(0)
    pids = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                if os.getsid(int(name)) == sid:
                    pids.append(int(name))
            except OSError:
                continue
    return pids


def rss_hwm_mb() -> float:
    total_kb = 0
    for pid in _session_pids():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def _commit_intervals(out_root: str) -> list[float]:
    """Seconds between consecutive commits of the replicated sink, from
    the ``ts_ms`` stamp of every committed manifest version (version 0 is
    the sink's creation)."""
    from hydra_ray.table import Table

    t = Table(os.path.join(out_root, "replicated"))
    stamps = [t._manifest(v).ts_ms for v in range(1, t.latest_version() + 1)]
    return [(b - a) / 1000.0 for a, b in zip(stamps, stamps[1:])]


def _perturb(out: dict, how: str) -> None:
    """Self-test only: corrupt one value of the committed output."""
    import pyarrow as pa

    if how == "transcript":
        t = out["replicated"]
        col = t["transcript"].to_pylist()
        col[0] = (col[0] or "") + "!"
        out["replicated"] = t.set_column(
            t.column_names.index("transcript"), "transcript",
            pa.array(col, pa.string()))
    elif how == "window_row":
        out["windows"] = out["windows"].slice(1)
    else:
        raise ValueError(f"unknown perturbation {how!r}")


def run_cycle(args, res: dict) -> None:
    """Fill ``res`` in place, so that the drains finished before an error
    are kept."""
    import ray

    work = WORKLOADS[args.workload]
    tracer.configure_process()
    if args.trace:
        tracer.install(flush_outermost=False)
    from hydra_ray.pipelines.replicate import ReplicatePipeline

    env = {k: os.environ[k] for k in (tracer.METER_ENV, tracer.TRACE_ENV,
                                      "PYTHONPATH") if k in os.environ}
    ray.init(
        address="local",
        num_cpus=work.num_cpus(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=args.ray_tmp,
        runtime_env={"worker_process_setup_hook": "perfbench.tracer.worker_setup",
                     "env_vars": env},
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    res.update(pid=os.getpid(), drains=[])

    def pipeline(k: int):
        """The k-th drain's pipeline, on a fresh output root."""
        token = f"{args.token}d{k}"
        out_root = work.out_root(os.path.join(args.work, f"out{k}"), token)
        return ReplicatePipeline(
            os.path.join(args.inputs, "clips"), out_root, work.config(),
            os.path.join(args.inputs, "updates")), token

    pipe, token = pipeline(0)
    res["setup_s"] = time.monotonic() - args.t_spawn
    if args.mode == "setup":
        return
    if args.trace:
        orig = ReplicatePipeline._shutdown_actors

        def shutdown_actors(self):
            handles = self.actors + self.dedup_shards + self.neardup_shards
            res["rss_hwm_mb"] = rss_hwm_mb()
            ray.get([h.__ray_call__.remote(tracer.flush_actor)
                     for h in handles])
            orig(self)

        ReplicatePipeline._shutdown_actors = shutdown_actors
    measured = 0.0
    while True:
        t = time.monotonic()
        res["drains"].append(drain(args, pipe, token))
        _save(args.result, res)
        measured += res["drains"][-1]["run_s"]
        n = len(res["drains"])
        if ((measured >= args.seconds and n >= work.min_drains)
                or n >= args.max_drains
                or time.monotonic() + 1.5 * (time.monotonic() - t)
                > args.deadline):
            break
        pipe, token = pipeline(len(res["drains"]))
    if args.trace:
        res["rss_hwm_mb"] = max(res.get("rss_hwm_mb", 0.0), rss_hwm_mb())
        tracer.flush()


def drain(args, pipe, token: str) -> dict:
    """Drain the backlog with ``pipe.run()``, read the output back, check
    it, and delete it."""
    import pyarrow.parquet as pq

    from hydra_ray.pipelines.replicate import read_lineage, read_replicated
    from hydra_ray.table import Table

    from .check import check_outputs, table_digest

    out_root = pipe.out_root
    d = {"meter_setup": _meter_counts(token)}
    cpu0 = time.process_time()
    t0 = time.monotonic()
    metrics = pipe.run()
    t1 = time.monotonic()
    d.update(run_t0=t0, run_t1=t1, run_s=t1 - t0,
             driver_cpu_s=time.process_time() - cpu0,
             run_metrics=metrics, epochs=int(metrics["epochs"]))
    d["commit_intervals_s"] = _commit_intervals(out_root)
    d["meter_run"] = _meter_counts(token)
    # the first read of a drain faults in fresh memory for the decoded
    # payload and alone spread by up to 40 % between runs: time READBACKS
    # reads, one after another, and report each
    d["readback_t0"] = time.monotonic()
    d["readback_s"] = []
    for _ in range(READBACKS):
        t2 = time.monotonic()
        readback = read_replicated(out_root)
        d["readback_s"].append(time.monotonic() - t2)
    d["readback_t1"] = time.monotonic()
    d["meter_readback"] = _meter_counts(token)
    out = {
        name: Table(os.path.join(out_root, name)).to_arrow()
        for name in ("replicated", "windows", "sessions")
    }
    out["readback"] = readback
    out["lineage"] = read_lineage(out_root)
    ref = {name: pq.read_table(os.path.join(args.inputs, f"ref_{name}.parquet"))
           for name in ("replicated", "windows", "sessions")}
    with open(os.path.join(args.inputs, "ref.json")) as f:
        ref.update(json.load(f))
    if args.perturb:
        _perturb(out, args.perturb)
    d["problems"] = check_outputs(out, ref)
    d["digests"] = {name: table_digest(out[name])
                    for name in ("replicated", "windows", "sessions",
                                 "readback")}
    from hydra_ray.fs import resolve

    shutil.rmtree(resolve(out_root)[1])
    return d


def _save(path: str, res: dict) -> None:
    with open(path + ".tmp", "w") as f:
        json.dump(res, f)
    os.replace(path + ".tmp", path)


def _meter_counts(token: str) -> dict:
    from hydra_ray.fs import meter_counts

    return meter_counts(token)


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--ray-tmp", required=True)
    p.add_argument("--token", required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--perturb", default="")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--max-drains", type=int, default=1_000_000)
    p.add_argument("--deadline", type=float, required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()
    res: dict = {}
    try:
        run_cycle(args, res)
    except Exception:
        res["error"] = traceback.format_exc(limit=8)
    _save(args.result, res)
    # no ray.shutdown(): the parent kills this process's whole session
    # (Ray included) and waits for it, which takes far less time
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0 if "error" not in res else 1)


if __name__ == "__main__":
    main()

