"""Spans around calls into the program's layers, in every process.

Nothing in ``hydra_ray`` is edited: ``install()`` replaces each traced
function or method with a wrapper, in the driver and — through Ray's
``worker_process_setup_hook`` (``worker_setup`` below) — in every Ray
worker, before any task or actor runs.  Names are wrapped where the caller
looks them up: methods on their class, ``hydra_ray.audio.decode_batch`` on
its module (the read path and the fingerprint pass import it at call
time; ``stages.decode`` binds its own copy at import, which the
``AudioDecoder.__call__`` span covers).

A span is ``{"name", "pid", "t0", "t1"}`` plus, when the wrapped call
receives them, ``epoch``, ``part`` (partition), ``n`` (rows) and ``b``
(bytes).  Times are ``time.monotonic()``, which is one clock for all
processes on the host.  A call nested in a span of the same layer is not
recorded again (``MeteredStrictFS.put`` calls ``StrictObjectFS.put``).

Spans stay in memory.  Task workers write theirs out when their outermost
span ends (a worker may never run another call); actors are written out by
``ReplicatePipeline._shutdown_actors`` just before it kills them; the
driver writes out at the end of the cycle.

Every process also points the metered backend's op log at
``PERFBENCH_METER_DIR`` so that a run writes only inside its work dir.
"""

from __future__ import annotations

import functools
import json
import os
import re
import threading
import time

TRACE_ENV = "PERFBENCH_TRACE_DIR"
METER_ENV = "PERFBENCH_METER_DIR"

_spans: list[dict] = []
_depth = threading.local()

FS_OPS = {
    "put": "put", "put_table": "put", "adopt_file": "put",
    "get": "get", "get_table": "get",
    "exists": "head", "size": "head",
    "isdir": "list", "list_dir": "list",
    "delete": "delete", "delete_tree": "delete",
}


def _rows(t) -> int:
    return int(t.num_rows)


def _epoch_from_dir(path: str):
    m = re.search(r"e(\d+)/?$", str(path))
    return int(m.group(1)) if m else None


def _dir_bytes(path: str) -> int:
    from hydra_ray.fs import resolve

    _, local = resolve(path)
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(local) for f in files)


# (module, attribute path, span name, fields(args, result) -> dict).
# stages.decode is imported (by the first entry) before audio.decode_batch
# is replaced, so AudioDecoder keeps calling the unwrapped kernel and its
# rows are not counted twice.
SPECS = [
    ("hydra_ray.stages.decode", "AudioDecoder.__call__", "decode.batch",
     lambda a, r: {"n": _rows(a[1])}),
    ("hydra_ray.audio", "decode_batch", "audio.decode_batch",
     lambda a, r: {"n": len(a[0])}),
    ("hydra_ray.state.store", "PartitionState.ingest_clips", "state.ingest",
     lambda a, r: {"n": _rows(a[1]), "part": a[0].partition}),
    ("hydra_ray.state.store", "PartitionState.ingest_updates", "state.ingest",
     lambda a, r: {"n": _rows(a[1]), "part": a[0].partition}),
    ("hydra_ray.state.store", "PartitionState.close_epoch", "state.close",
     lambda a, r: {"epoch": a[1], "part": a[0].partition}),
    ("hydra_ray.state.store", "PartitionState.save", "state.save",
     lambda a, r: {"epoch": _epoch_from_dir(a[1]), "part": a[0].partition,
                   "b": _dir_bytes(a[1])}),
    ("hydra_ray.state.dedup_index", "DedupIndexState.resolve",
     "dedup_index.resolve", lambda a, r: {"epoch": a[1]}),
    ("hydra_ray.state.neardup_index", "NearDupIndexState.resolve",
     "neardup_index.resolve", lambda a, r: {"epoch": a[1]}),
    ("hydra_ray.state.neardup_index", "NearDupIndexState.commit",
     "neardup_index.commit", lambda a, r: {"epoch": a[1]}),
    ("hydra_ray.table.lancelite", "Table.stage_fragment", "lancelite.stage",
     lambda a, r: {"epoch": a[2], "n": _rows(a[1]), "b": int(r.bytes)}),
    ("hydra_ray.table.lancelite", "Table.commit_epoch", "lancelite.commit",
     lambda a, r: {"epoch": a[2]}),
    ("hydra_ray.table.lancelite", "Table.to_arrow", "lancelite.read",
     lambda a, r: {"n": _rows(r)}),
]


def _in_actor() -> bool:
    import ray

    return ray.get_runtime_context().get_actor_id() is not None


def _wrap(fn, name: str, fields, flush_outermost: bool):
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        depth = getattr(_depth, layer, 0)
        if depth:
            return fn(*args, **kwargs)
        setattr(_depth, layer, 1)
        t0 = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.monotonic()
            setattr(_depth, layer, 0)
        span = {"name": name, "pid": os.getpid(), "t0": t0, "t1": t1}
        span.update(fields(args, result))
        _spans.append(span)
        if flush_outermost and not any(
                getattr(_depth, k, 0) for k in vars(_depth)) and not _in_actor():
            flush()
        return result

    return traced


def install(flush_outermost: bool) -> None:
    """Wrap every traced layer entry point in this process, once."""
    import importlib

    from hydra_ray import fs

    for mod_name, attr, name, fields in SPECS:
        mod = importlib.import_module(mod_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        setattr(owner, fn_name,
                _wrap(getattr(owner, fn_name), name, fields, flush_outermost))
    for cls in (fs.StorageFS, fs.LocalFS, fs.StrictObjectFS,
                fs.MeteredStrictFS):
        for meth, op in FS_OPS.items():
            if meth in cls.__dict__:
                setattr(cls, meth, _wrap(cls.__dict__[meth], f"fs.{op}",
                                         lambda a, r: {}, flush_outermost))


def flush() -> int:
    """Append this process's buffered spans to its file; return the pid."""
    d = os.environ.get(TRACE_ENV)
    if d and _spans:
        with open(os.path.join(d, f"{os.getpid()}.jsonl"), "a") as f:
            for s in _spans:
                f.write(json.dumps(s) + "\n")
        _spans.clear()
    return os.getpid()


def flush_actor(_instance) -> int:
    """Run inside an actor through ``handle.__ray_call__``."""
    return flush()


def configure_process() -> None:
    meter = os.environ.get(METER_ENV)
    if meter:
        from hydra_ray import fs

        fs._METER_BASE = meter


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: runs in every worker at start."""
    configure_process()
    if os.environ.get(TRACE_ENV):
        install(flush_outermost=True)


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as f:
            spans += [json.loads(line) for line in f if line.strip()]
    return spans
