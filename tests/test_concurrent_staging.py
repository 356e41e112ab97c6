"""An epoch's fragment PUTs are in flight together (Ray-free).

A state host's close stages every slot's sink fragments concurrently, and
an ingest task's router stages its per-partition payload fragments
concurrently.  The barrier tests hold the first two ``put_table`` calls
until both have arrived: serial staging never sends the second while the
first waits, so the barrier times out and breaks."""

import itertools
import os
import threading

import pyarrow as pa

from hydra_ray.fs import LocalFS
from hydra_ray.pipelines.replicate import _Router, sink_names
from hydra_ray.state.store import WATERMARK_MAX, StateHost
from hydra_ray.synth import synth_clips_table
from hydra_ray.table import Table

import tests.test_replicate as tr


def _barrier_puts(monkeypatch, n: int = 2):
    """The first ``n`` ``LocalFS.put_table`` calls wait for each other
    (5 s timeout); later calls pass straight through."""
    barrier = threading.Barrier(n, timeout=5)
    calls = itertools.count()
    put_table = LocalFS.put_table

    def gated(self, *args, **kwargs):
        if next(calls) < n:
            barrier.wait()
        return put_table(self, *args, **kwargs)

    monkeypatch.setattr(LocalFS, "put_table", gated)


def _payload(n: int, p: int) -> pa.Table:
    return pa.table({"seq": pa.array(range(p * n, (p + 1) * n), pa.int64()),
                     "bytes": pa.array([b"x" * 16] * n, pa.binary())})


def test_one_slot_close_stages_its_fragments_concurrently(tmp_path,
                                                          monkeypatch):
    sinks = {s: Table.create(str(tmp_path / s)).uri
             for s in sink_names(tr.cfg())}
    ck = str(tmp_path / "ck")
    host = StateHost([("p", 0)], tr.cfg(), sinks, ck, ck)
    light = synth_clips_table(8, hot_fraction=0.0).drop_columns(["bytes"])
    host.ingest([(("p", 0), "clips", light)], -(1 << 62), 0)
    _barrier_puts(monkeypatch)
    [res] = host.close([("p", 0)], 0, WATERMARK_MAX)
    assert {"replicated", "windows"} <= set(res["staged"]), res["staged"]
    # every fragment is the slot's, in the sinks' own tables
    for name, frag in res["staged"].items():
        assert frag["partition"] == 0 and frag["epoch"] == 0
        t = Table(sinks[name])
        assert t.fs.exists(os.path.join(t.root, frag["path"]))


def test_router_flush_stages_partitions_concurrently(tmp_path, monkeypatch):
    payload = Table.create(str(tmp_path / "payload"))
    router = _Router(None, "clips", 0, "clip_id", 4,
                     payload_root=payload.uri, epoch=3)
    router._pending = {p: [_payload(5, p)] for p in (2, 0, 1)}
    _barrier_puts(monkeypatch)
    frags = router.flush()
    assert sorted(frags) == [0, 1, 2]
    assert not router._pending


def test_router_flush_reads_the_schema_once(tmp_path, meter_tok):
    """P payload fragments cost P data PUTs and ONE schema read (a LIST
    and a GET of the manifest log), however many threads stage them."""
    from hydra_ray.fs import meter_counts, metered_root

    P = 6
    tok = meter_tok("flush")
    # 20 ms per op: the schema read is still in flight when the other
    # threads start, as on a real object store
    payload = Table.create(metered_root(str(tmp_path / "payload"), token=tok,
                                        latency_ms=20))
    router = _Router(None, "clips", 0, "clip_id", P,
                     payload_root=payload.uri, epoch=0)
    router._pending = {p: [_payload(4, p), _payload(4, p + P)]
                       for p in range(P)}

    def classify(path):
        return ("manifest" if "/_versions" in path
                else "data" if "/data/" in path else "other")

    before = meter_counts(tok, classify)
    frags = router.flush()
    after = meter_counts(tok, classify)
    delta = {k: n - before.get(k, 0) for k, n in after.items()
             if n != before.get(k, 0)}
    assert delta == {("list", "manifest"): 1, ("get", "manifest"): 1,
                     ("put", "data"): P}, delta
    assert sorted(frags) == list(range(P))
