"""Pluggable storage (`hydra_ray.fs`): LocalFS vs the StrictObjectFS
object-store shim, and the lancelite commit protocol replayed verbatim
against the shim (no rename, no in-place overwrite anywhere)."""

import os

import pyarrow as pa
import pytest

from hydra_ray.fs import LocalFS, StrictObjectFS, resolve, with_scheme
from hydra_ray.table import Table

import tests.test_lancelite as tl


# ---------------------------------------------------------------- fs unit
def test_resolve_schemes(tmp_path):
    fs, base = resolve(str(tmp_path))
    assert isinstance(fs, LocalFS) and base == str(tmp_path)
    fs2, base2 = resolve(f"strict://{tmp_path}")
    assert isinstance(fs2, StrictObjectFS) and base2 == str(tmp_path)
    assert with_scheme(fs2, base2) == f"strict://{tmp_path}"
    assert with_scheme(fs, base) == str(tmp_path)
    # scheme survives os.path.join on derived paths
    fs3, base3 = resolve(os.path.join(f"strict://{tmp_path}", "sub", "t"))
    assert isinstance(fs3, StrictObjectFS)
    assert base3 == str(tmp_path / "sub" / "t")


@pytest.mark.parametrize("fs", [LocalFS(), StrictObjectFS()])
def test_put_modes(tmp_path, fs):
    p = str(tmp_path / "obj")
    assert fs.put(p, b"one") is True
    assert fs.get(p) == b"one"
    # create on an existing key raises (conditional PUT loses)
    with pytest.raises(FileExistsError):
        fs.put(p, b"two")
    # create_or_skip reports the loss without raising
    assert fs.put(p, b"two", mode="create_or_skip") is False
    assert fs.get(p) == b"one"
    fs.delete(p)
    assert not fs.exists(p)
    fs.delete(p)  # idempotent


def test_local_overwrite_allowed_strict_forbidden(tmp_path):
    p = str(tmp_path / "obj")
    lfs = LocalFS()
    lfs.put(p, b"a")
    assert lfs.put(p, b"b", mode="overwrite") is True
    assert lfs.get(p) == b"b"
    sfs = StrictObjectFS()
    with pytest.raises(PermissionError, match="overwrite"):
        sfs.put(p, b"c", mode="overwrite")
    assert lfs.get(p) == b"b"
    assert not hasattr(sfs, "rename")  # no rename API exists on the shim


@pytest.mark.parametrize("fs", [LocalFS(), StrictObjectFS()])
def test_put_table_atomic_object(tmp_path, fs):
    t = pa.table({"k": pa.array([1, 2, 3], pa.int64())})
    p = str(tmp_path / "f.parquet")
    n = fs.put_table(t, p)
    assert n == fs.size(p) > 0
    assert fs.get_table(p).equals(t)
    assert fs.get_table(p, columns=["k"]).num_rows == 3
    # write-once: a second PUT of the same fragment key raises
    with pytest.raises(FileExistsError):
        fs.put_table(t, p)


@pytest.mark.parametrize("fs", [LocalFS(), StrictObjectFS()])
def test_adopt_file(tmp_path, fs):
    src = str(tmp_path / "local.bin")
    with open(src, "wb") as f:
        f.write(b"payload")
    dest = str(tmp_path / "adopted" / "obj.bin")
    fs.adopt_file(src, dest)
    assert fs.get(dest) == b"payload"
    assert not os.path.exists(src)


def test_no_tmp_litter(tmp_path):
    """Temp objects used for atomic visibility never survive a put."""
    for fs in (LocalFS(), StrictObjectFS()):
        d = tmp_path / fs.__class__.__name__
        d.mkdir()
        fs.put(str(d / "a"), b"x")
        fs.put(str(d / "a"), b"y", mode="create_or_skip")
        assert sorted(os.listdir(d)) == ["a"]


# ------------------------------------- lancelite protocol on the shim
class _SchemePath:
    """tmp_path stand-in whose rendered paths carry the strict:// scheme,
    so the existing lancelite tests run verbatim against the shim."""

    def __init__(self, base: str):
        self._base = base

    def __truediv__(self, name: str) -> "_SchemePath":
        return _SchemePath(os.path.join(self._base, name))

    def __str__(self) -> str:
        return f"strict://{self._base}"

    def __fspath__(self) -> str:  # os.path.join(tmp_path, ...) callers
        return f"strict://{self._base}"


_STRICT_LANCE_TESTS = [
    "test_create_append_read",
    "test_delta_reads",
    "test_2pc_commit_and_idempotence",
    "test_crash_between_prepare_and_commit",
    "test_epoch_lineage_properties",
    "test_evolution_add_nullable_ok",
    "test_savemode_semantics",
    "test_upsert_and_delete_by_key",
    "test_compact_merges_preserving_versions",
    "test_compact_keyed_preserves_mvcc_and_tombstones",
]


@pytest.mark.parametrize("name", _STRICT_LANCE_TESTS)
def test_lancelite_protocol_on_strict_backend(name, tmp_path):
    getattr(tl, name)(_SchemePath(str(tmp_path)))


def test_streaming_exactly_once_on_strict_backend(tmp_path, ray_session):
    """The FULL streaming pipeline — sources, 2PC epoch sink, checkpoint
    chains, lineage log — runs on the object-store shim (no rename / no
    overwrite anywhere), crashes mid-epoch, resumes, and produces output
    byte-identical to a clean run on the LOCAL backend."""
    import tests.test_replicate as tr
    from hydra_ray.pipelines.replicate import CrashPoint, ReplicatePipeline

    # clean run, local backend
    lroot = str(tmp_path / "local")
    tr.build_sources(lroot)
    ReplicatePipeline(f"{lroot}/clips", f"{lroot}/out", tr.cfg(),
                      f"{lroot}/updates").run()
    clean_sig = tr._content_signature(f"{lroot}/out")

    # crash + resume, strict backend end to end (sources included)
    sroot = f"strict://{tmp_path}/strictish"
    tr.build_sources(sroot)
    crash = ReplicatePipeline(f"{sroot}/clips", f"{sroot}/out",
                              tr.cfg(crash_at=(2, "before_main_commit")),
                              f"{sroot}/updates")
    with pytest.raises(CrashPoint):
        crash.run()
    ReplicatePipeline(f"{sroot}/clips", f"{sroot}/out", tr.cfg(),
                      f"{sroot}/updates").run()
    assert tr._content_signature(f"{sroot}/out") == clean_sig
    # lineage side log readable from the strict tree
    from hydra_ray.pipelines.replicate import read_lineage

    lineage = read_lineage(f"{sroot}/out")
    assert lineage and all("epoch" in e for e in lineage)


def test_strict_commit_race_and_gc(tmp_path):
    """Version race + orphan GC purely on conditional-PUT semantics."""
    root = f"strict://{tmp_path}/t"
    t = Table.create(root)
    a = Table(root)
    b = Table(root)
    a.append(tl._tbl(3))
    b.append(tl._tbl(2, 3))          # optimistic retry past a's version
    assert Table(root).count_rows() == 5
    # a crashed writer leaves an unreferenced object; gc removes it,
    # committed fragments survive
    t.stage_fragment(tl._tbl(4), epoch=0, partition=0)
    n_data = len(t.fs.list_dir(os.path.join(t.root, "data")))
    assert t.gc_staged() == 1
    assert len(t.fs.list_dir(os.path.join(t.root, "data"))) == n_data - 1
    assert Table(root).count_rows() == 5


# --------------------------------------------- dim_join broadcast bound
def test_dim_join_fallback_equals_broadcast(ray_session):
    """dim_join's partitioned fallback (bound=0) must produce exactly the
    broadcast path's rows for every join kind (VERDICT r3 #5)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from hydra_ray.stages.join import dim_join

    rng = np.random.default_rng(7)
    left = pd.DataFrame({
        "k": rng.integers(0, 50, 2000),
        "v": np.arange(2000),
    })
    dim = pd.DataFrame({
        "k": np.arange(0, 60, 2),       # half the keys match
        "name": [f"d{i}" for i in range(0, 60, 2)],
    })

    for how in ("inner", "left", "semi", "anti"):
        d = dim if how in ("inner", "left") else dim[["k"]]
        a = dim_join(rd.from_pandas(left).repartition(4),
                     rd.from_pandas(d).repartition(2), on="k", how=how,
                     broadcast_max_rows=10_000).to_pandas()
        b = dim_join(rd.from_pandas(left).repartition(4),
                     rd.from_pandas(d).repartition(2), on="k", how=how,
                     broadcast_max_rows=0).to_pandas()
        key = [c for c in ("k", "v") if c in a.columns]
        a = a.sort_values(key, kind="mergesort").reset_index(drop=True)
        b = b.sort_values(key, kind="mergesort").reset_index(drop=True)
        pd.testing.assert_frame_equal(a[sorted(a.columns)],
                                      b[sorted(b.columns)],
                                      check_dtype=False)


# ------------------------------------------ object-store realism (r4 #5)
def _classify_for(base):
    """Classify metered op paths under ``base``: manifest-log objects vs
    data-plane objects vs everything else (checkpoints, lineage...)."""
    def classify(path):
        if not path.startswith(base):
            return None
        if "/_versions/" in path:
            return "manifest"
        if "/data/" in path and path.endswith(".parquet"):
            return "data"
        return "other"
    return classify


def test_metered_latency_and_log(tmp_path, meter_tok):
    """The metered shim injects per-op latency and logs every primitive
    op with cross-process-aggregatable counters."""
    import time

    from hydra_ray.fs import meter_counts, metered_root, resolve

    root = metered_root(str(tmp_path / "m"), token=meter_tok("lat20"),
                        latency_ms=20)
    fs, base = resolve(root)
    t0 = time.time()
    fs.put(os.path.join(base, "a"), b"x")
    assert fs.get(os.path.join(base, "a")) == b"x"
    assert fs.exists(os.path.join(base, "a"))
    elapsed = time.time() - t0
    assert elapsed >= 0.05  # 3 ops x 20 ms injected
    counts = meter_counts(root.split("-")[1])
    assert counts["put"] == 1 and counts["get"] == 1 and counts["head"] == 1


def test_epoch_commit_op_complexity(tmp_path, meter_tok):
    """An epoch commit must be O(1) manifest ops + O(fragments) data
    PUTs — measured, not assumed: the SAME manifest-op counts at 2 and
    8 fragments (a chatty protocol would scale them)."""
    from hydra_ray.fs import meter_counts, metered_root

    results = {}
    for nfrag in (2, 8):
        tok = meter_tok(f"epoch{nfrag}")
        root = metered_root(str(tmp_path / f"t{nfrag}"), token=tok)
        t = Table.create(root)
        staged = [
            t.stage_fragment(tl._tbl(4, i), epoch=0, partition=i)
            for i in range(nfrag)
        ]
        base_counts = meter_counts(tok, _classify_for(str(tmp_path)))
        assert t.commit_epoch("p", 0, staged) is True
        counts = meter_counts(tok, _classify_for(str(tmp_path)))
        delta = {k: counts.get(k, 0) - base_counts.get(k, 0)
                 for k in set(counts) | set(base_counts)}
        results[nfrag] = delta
    for nfrag, delta in results.items():
        # exactly one manifest PUT (the commit point)...
        assert delta[("put", "manifest")] == 1, delta
        # ...a small constant number of manifest reads (snapshot + retry
        # machinery) and NO data-plane reads during commit
        assert delta.get(("get", "manifest"), 0) <= 3, delta
        assert delta.get(("get", "data"), 0) == 0, delta
        assert delta.get(("put", "data"), 0) == 0, delta
    # manifest-op counts are IDENTICAL across fragment scales
    m2 = {k: v for k, v in results[2].items() if k[1] == "manifest"}
    m8 = {k: v for k, v in results[8].items() if k[1] == "manifest"}
    assert m2 == m8, (m2, m8)


def test_gc_staged_op_count(tmp_path, meter_tok):
    """Orphan GC at every ``run()`` start costs one LIST of the manifest
    log and one of ``data/`` per sink table, nothing more."""
    from hydra_ray.fs import meter_counts, metered_root

    tok = meter_tok("gcstaged")
    t = Table.create(metered_root(str(tmp_path / "t"), token=tok))
    before = meter_counts(tok)
    assert t.gc_staged() == 0
    after = meter_counts(tok)
    assert after.get("list", 0) - before.get("list", 0) == 2


def test_streaming_epoch_and_sink_op_complexity(tmp_path, ray_session,
                                                 meter_tok):
    """The headline streaming pipeline and the partitioned sink must
    keep their MANIFEST op counts independent of the data volume: run
    each at n and ~2n rows (same epoch/partition structure) and assert
    identical manifest-class counts.  At 100 ms object-store round
    trips, any per-batch manifest traffic this catches would dominate
    the epoch wall-clock."""
    import ray.data as rd
    import tests.test_replicate as tr
    from hydra_ray.fs import meter_counts, metered_root
    from hydra_ray.pipelines.replicate import ReplicatePipeline
    from hydra_ray.synth import synth_clips_table, synth_updates_table
    from hydra_ray.sinks import write_partitioned

    # ---- headline pipeline at two scales, same epoch count
    pipe_counts = {}
    for n_clips in (400, 800):
        tok = meter_tok(f"repl{n_clips}")
        root = metered_root(str(tmp_path / f"r{n_clips}"), token=tok)
        clips = synth_clips_table(n_clips)
        ct = Table.create(f"{root}/clips", schema=clips.schema)
        step = n_clips // tr.VERSIONS
        for v in range(tr.VERSIONS):
            ct.append(clips.slice(v * step, step))
        upd = synth_updates_table(n_clips)
        ut = Table.create(f"{root}/updates", schema=upd.schema)
        ustep = -(-upd.num_rows // tr.VERSIONS)
        for v in range(tr.VERSIONS):
            ut.append(upd.slice(v * ustep,
                                min(ustep, upd.num_rows - v * ustep)))
        ReplicatePipeline(f"{root}/clips", f"{root}/out", tr.cfg(),
                          f"{root}/updates").run()
        counts = meter_counts(
            tok, _classify_for(str(tmp_path / f"r{n_clips}" / "out")))
        pipe_counts[n_clips] = {
            k: v for k, v in counts.items() if k[1] == "manifest"}
        # sanity: the run committed epochs at all
        assert pipe_counts[n_clips].get(("put", "manifest"), 0) >= tr.VERSIONS
    assert pipe_counts[400] == pipe_counts[800], pipe_counts

    # ---- partitioned sink at two scales, same partition count
    sink_counts = {}
    for n in (2_000, 4_000):
        tok = meter_tok(f"sink{n}")
        root = metered_root(str(tmp_path / f"s{n}"), token=tok)
        ds = rd.range(n).map_batches(
            lambda b: pa.table({"k": b["id"], "v": b["id"]}),
            batch_format="pyarrow")
        write_partitioned(ds, root, key_col="k", num_partitions=8)
        counts = meter_counts(tok)
        # drop pure data-plane ops Ray writes locally; keep fs-API ops
        sink_counts[n] = counts
    assert sink_counts[2_000] == sink_counts[4_000], sink_counts


def test_streaming_under_injected_latency(tmp_path, ray_session, meter_tok):
    """The whole streaming pipeline on a metered backend with 5 ms
    per-op latency: output byte-identical to the local run and wall
    clock bounded — the latency-tolerance consequence of the O(1)
    manifest-ops-per-commit protocol (at ~60 metadata ops/epoch, 5 ms
    injected adds ~0.3 s/epoch; a per-batch-chatty protocol would blow
    far past the bound)."""
    import time

    import tests.test_replicate as tr
    from hydra_ray.fs import metered_root
    from hydra_ray.pipelines.replicate import ReplicatePipeline

    lroot = str(tmp_path / "plain")
    tr.build_sources(lroot)
    t0 = time.time()
    ReplicatePipeline(f"{lroot}/clips", f"{lroot}/out", tr.cfg(),
                      f"{lroot}/updates").run()
    base = time.time() - t0
    sig = tr._content_signature(f"{lroot}/out")

    mroot = metered_root(str(tmp_path / "lat"), token=meter_tok("lat5"),
                         latency_ms=5)
    tr.build_sources(mroot)
    t0 = time.time()
    ReplicatePipeline(f"{mroot}/clips", f"{mroot}/out", tr.cfg(),
                      f"{mroot}/updates").run()
    lat = time.time() - t0
    assert tr._content_signature(f"{mroot}/out") == sig
    # generous bound: protocol overhead must stay small-multiple, not
    # per-row/per-batch explosive (host noise makes tight bounds flaky)
    assert lat < base * 3 + 10, (base, lat)


def test_metered_log_thread_safe(tmp_path, meter_tok):
    """Threads of one process share a metered backend's op log (the
    driver's concurrent sink commits do): every op of every thread is
    counted exactly once, starting from the lazy first open."""
    import sys
    import threading

    from hydra_ray.fs import meter_counts, metered_root

    root = metered_root(str(tmp_path / "m"), token=meter_tok("threads"))
    tok = root.split("-")[1]
    fs, base = resolve(root)
    n_threads, n_ops = 16, 300
    start = threading.Barrier(n_threads)

    def work(i):
        p = os.path.join(base, f"t{i}")
        start.wait()
        fs.put(p, b"x")
        for _ in range(n_ops):
            fs.exists(p)

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert meter_counts(tok) == {"put": n_threads,
                                 "head": n_threads * n_ops}


def test_checkpoint_gc_issues_deletes_only(tmp_path, ray_session, meter_tok):
    """Checkpoint GC runs in each partition, dedup-shard and neardup-shard
    actor from what it wrote: no HEAD/LIST on ``_checkpoints/`` at any
    epoch (the same zero at 3 and 6 source versions), and exactly one
    DELETE per epoch dir that leaves retention."""
    from hydra_ray.fs import meter_counts, metered_root
    from hydra_ray.pipelines.replicate import (
        ReplicateConfig,
        ReplicatePipeline,
    )
    from hydra_ray.synth import synth_clips_table

    c = ReplicateConfig(
        num_partitions=2, join_window_ms=5_000, allowed_lateness_ms=2_000,
        window_size_ms=10_000, actor_num_cpus=0.25,
        full_checkpoint_every=2, keep_checkpoints=2,
        dedup=True, num_dedup_shards=2, neardup=True, num_neardup_shards=2,
    )
    dirs = ["p0000", "p0001", "d0000", "d0001", "n0000", "n0001"]
    for versions in (3, 6):
        tok = meter_tok(f"ckgc{versions}")
        root = str(tmp_path / f"v{versions}")
        clips = synth_clips_table(20 * versions)
        ct = Table.create(f"{root}/clips", schema=clips.schema)
        for v in range(versions):
            ct.append(clips.slice(v * 20, 20))
        out = metered_root(f"{root}/out", token=tok)
        ReplicatePipeline(f"{root}/clips", out, c).run()
        ck = os.path.join(root, "out", "_checkpoints")

        counts = meter_counts(
            tok, lambda p: p if p.startswith(ck + "/") else None)
        probes = {k: n for k, n in counts.items() if k[0] in ("head", "list")}
        assert probes == {}, probes
        # epochs 0..versions (the last is the flush epoch), full snapshots
        # at even epochs; after the last epoch everything older than the
        # newest full at or below the last committed epoch is gone
        last = versions
        base = max(e for e in range(0, last) if e % 2 == 0)
        expect = sorted(os.path.join(ck, d, f"e{e:06d}")
                        for d in dirs for e in range(base))
        deleted = {p: n for (op, p), n in counts.items() if op == "delete"}
        assert deleted == dict.fromkeys(expect, 1)
        # O(1) ops per actor per epoch: at most a data object + the pickle
        puts: dict = {}
        for (op, p), n in counts.items():
            if op == "put":
                edir = os.path.dirname(p)
                puts[edir] = puts.get(edir, 0) + n
        assert sorted(puts) == sorted(os.path.join(ck, d, f"e{e:06d}")
                                      for d in dirs for e in range(last + 1))
        assert max(puts.values()) <= 2, puts
        for d in dirs:
            assert sorted(os.listdir(os.path.join(ck, d))) == [
                f"e{e:06d}" for e in range(base, last + 1)]
