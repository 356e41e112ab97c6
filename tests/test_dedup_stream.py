"""Cross-epoch streaming content dedup (state/dedup_index.py).

Unit tier: DedupIndexState resolve/checkpoint semantics with no Ray.
Pipeline tier: replicate runs with cfg.dedup=True over clips with
planted exact-duplicate payloads (synth_wave is periodic with period
lcm(64, 6, 4, 16) = 192, so row i and row i+192 share identical bytes
— FIXTURES.md documents the periodicity).  Oracle = pandas min-seq
winner per distinct ``bytes`` payload.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from hydra_ray.pipelines.replicate import (
    CrashPoint,
    ReplicateConfig,
    ReplicatePipeline,
    read_lineage,
)
from hydra_ray.state.dedup_index import (
    DedupIndexState,
    content_hash_of,
    in_sorted,
)
from hydra_ray.synth import synth_clips_table, synth_updates_table
from hydra_ray.table import Table

# ----------------------------------------------------------------- unit tier


def test_in_sorted_membership():
    arr = np.array([2, 5, 9], dtype=np.uint64)
    vals = np.array([0, 2, 3, 5, 9, 11], dtype=np.uint64)
    assert in_sorted(arr, vals).tolist() == [False, True, False, True, True, False]
    assert in_sorted(np.empty(0, np.uint64), vals).sum() == 0
    assert in_sorted(arr, np.empty(0, np.uint64)).shape == (0,)


def test_content_hash_matches_batch_dedup():
    """Streaming and batch dedup must agree on content identity."""
    from hydra_ray.stages.dedup import add_content_hash

    t = pa.table({"bytes": pa.array([b"a", b"bb", b"a"], pa.large_binary())})
    h_stream = content_hash_of(t, ("bytes",))
    h_batch = add_content_hash(t, ["bytes"])["content_hash"].to_numpy()
    assert (h_stream.astype(np.int64) == h_batch).all()
    assert h_stream[0] == h_stream[2] and h_stream[0] != h_stream[1]


def _entry(pairs):
    h = np.array([p[0] for p in pairs], np.uint64)
    s = np.array([p[1] for p in pairs], np.int64)
    return h, s, None


def test_resolve_min_seq_winner_order_independent():
    """Within an epoch the min-seq copy per hash wins, regardless of the
    order (or task split) in which stashes arrived."""
    for order in ([0, 1], [1, 0]):
        st = DedupIndexState(0)
        stashes = [[(10, 7), (20, 3)], [(10, 2), (20, 9), (30, 5)]]
        drop, stats = st.resolve(0, [_entry(stashes[i]) for i in order])
        assert drop.tolist() == [7, 9]  # seq 2 wins hash 10, seq 3 wins hash 20
        assert stats == {"dropped": 2, "new": 3}


def test_resolve_cross_epoch():
    st = DedupIndexState(0)
    drop, _ = st.resolve(0, [_entry([(10, 0), (20, 1)])])
    assert drop.tolist() == []
    drop, stats = st.resolve(1, [_entry([(10, 3), (30, 4)])])
    assert drop.tolist() == [3]  # hash 10 seen in epoch 0; hash 30 new via seq 4
    assert stats["new"] == 1
    assert st.seen(np.array([10, 20, 30, 40], np.uint64)).tolist() == [
        True,
        True,
        True,
        False,
    ]


def test_checkpoint_full_delta_chain_restore(tmp_path):
    st = DedupIndexState(0)
    st.resolve(0, [_entry([(10, 0), (20, 1)])])
    st.save(str(tmp_path / "e0"), full=True)
    st.resolve(1, [_entry([(30, 2), (10, 3)])])
    st.save(str(tmp_path / "e1"), full=False)
    st.resolve(2, [_entry([(40, 4)])])
    st.save(str(tmp_path / "e2"), full=False)

    fresh = DedupIndexState(0)
    fresh.restore_chain(str(tmp_path / "e0"), [str(tmp_path / "e1"), str(tmp_path / "e2")])
    probe = np.array([10, 20, 30, 40, 50], np.uint64)
    assert fresh.seen(probe).tolist() == st.seen(probe).tolist() == [
        True,
        True,
        True,
        True,
        False,
    ]
    assert fresh.n_hashes() == 4


def test_compaction_preserves_membership():
    st = DedupIndexState(0)
    rng = np.random.default_rng(7)
    all_h = rng.choice(10_000, size=600, replace=False).astype(np.uint64)
    for e in range(12):  # > _MAX_RUNS → triggers compaction
        st.resolve(e, [_entry(
            [(int(h), int(h)) for h in all_h[e * 50 : (e + 1) * 50]])])
    assert len(st.runs) <= 9
    assert st.seen(all_h).all()
    assert st.n_hashes() == 600


# ------------------------------------------------------------- pipeline tier

# 256 rows: rows 192..255 are exact byte duplicates of rows 0..63.
N_CLIPS = 256
VERSIONS = 4


def build_sources(root):
    clips = synth_clips_table(N_CLIPS)
    ct = Table.create(f"{root}/clips", schema=clips.schema)
    step = N_CLIPS // VERSIONS
    for v in range(VERSIONS):
        ct.append(clips.slice(v * step, step))
    upd = synth_updates_table(N_CLIPS)
    ut = Table.create(f"{root}/updates", schema=upd.schema)
    ustep = -(-upd.num_rows // VERSIONS)
    for v in range(VERSIONS):
        ut.append(upd.slice(v * ustep, min(ustep, upd.num_rows - v * ustep)))
    return clips, upd


def cfg(**kw):
    base = dict(
        num_partitions=4,
        join_window_ms=60_000,
        allowed_lateness_ms=30_000,
        window_size_ms=10_000,
        session_gap_ms=5_000,
        sliding_size_ms=20_000,
        sliding_slide_ms=10_000,
        actor_num_cpus=0.25,
        dedup=True,
        num_dedup_shards=3,
    )
    base.update(kw)
    return ReplicateConfig(**base)


def _oracle_winners(clips: pa.Table) -> list[int]:
    df = clips.select(["bytes", "seq"]).to_pandas()
    return sorted(df.groupby("bytes", sort=False)["seq"].min().tolist())


@pytest.fixture(scope="module")
def dedup_run(tmp_path_factory, ray_session):
    root = str(tmp_path_factory.mktemp("dedup"))
    clips, upd = build_sources(root)
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out", cfg(), f"{root}/updates")
    metrics = pipe.run()
    return root, clips, upd, metrics


def _sig(out_root):
    repl = Table(f"{out_root}/replicated").to_arrow()
    df = repl.select(["seq", "clip_id", "transcript", "deleted"]).to_pandas()
    df = df.sort_values("seq").reset_index(drop=True)
    return repl.num_rows, pd.util.hash_pandas_object(df).sum()


def test_dedup_oracle(dedup_run):
    root, clips, upd, metrics = dedup_run
    winners = _oracle_winners(clips)
    assert len(winners) < N_CLIPS  # fixture really plants duplicates
    repl = Table(f"{root}/out/replicated").to_arrow()
    got = sorted(repl.column("seq").to_pylist())
    n_late = metrics.get("clips_late", 0)
    if n_late == 0:
        assert got == winners
    else:  # late winners route to DLQ, never resurrect a duplicate
        assert set(got) <= set(winners)
        assert len(got) + n_late == len(winners)
    assert metrics["dedup_dropped"] == N_CLIPS - len(winners)
    assert metrics["dedup_new_hashes"] == len(winners)
    # per-epoch drop counts live in the lineage side log and add up
    lineage = read_lineage(f"{root}/out")
    assert sum(e.get("dedup_dropped", 0) for e in lineage) == metrics["dedup_dropped"]


def test_dedup_shard_count_independence(tmp_path, ray_session, dedup_run):
    """num_dedup_shards is state layout, not semantics: 1 shard and 5
    shards must produce identical replicated content."""
    clean = _sig(f"{dedup_run[0]}/out")
    for shards in (1, 5):
        root = str(tmp_path / f"s{shards}")
        build_sources(root)
        pipe = ReplicatePipeline(
            f"{root}/clips",
            f"{root}/out",
            cfg(num_dedup_shards=shards),
            f"{root}/updates",
        )
        pipe.run()
        assert _sig(f"{root}/out") == clean, shards


def test_dedup_crash_resume(tmp_path, ray_session, dedup_run):
    """Crash mid-run: the seen set restores from full+delta checkpoints
    and the replayed epoch re-resolves to byte-identical output."""
    clean = _sig(f"{dedup_run[0]}/out")
    root = str(tmp_path)
    build_sources(root)
    crash_cfg = cfg(crash_at=(2, "before_main_commit"), full_checkpoint_every=2)
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out", crash_cfg, f"{root}/updates")
    with pytest.raises(CrashPoint):
        pipe.run()
    pipe2 = ReplicatePipeline(
        f"{root}/clips", f"{root}/out", cfg(full_checkpoint_every=2), f"{root}/updates"
    )
    metrics = pipe2.run()
    assert _sig(f"{root}/out") == clean
    winners = _oracle_winners(dedup_run[1])
    total_dropped = sum(
        e.get("dedup_dropped", 0) for e in read_lineage(f"{root}/out")
    )
    assert total_dropped == N_CLIPS - len(winners)


def test_dedup_off_is_passthrough(tmp_path, ray_session):
    root = str(tmp_path)
    clips, _ = build_sources(root)
    pipe = ReplicatePipeline(
        f"{root}/clips", f"{root}/out", cfg(dedup=False), f"{root}/updates"
    )
    metrics = pipe.run()
    repl = Table(f"{root}/out/replicated").to_arrow()
    assert repl.num_rows + metrics.get("clips_late", 0) == N_CLIPS


# ------------------------------------------------------- retention horizon


def test_retention_evicts_and_readmits():
    """retention_ms bounds the seen set: an entry first seen below
    wm − retention evicts, identical content re-admits afterwards, and
    within the horizon dedup still drops."""
    st = DedupIndexState(0, retention_ms=1_000)
    drop, _ = st.resolve(0, [([10], [0], [100])], wm=0)
    assert drop.tolist() == [] and st.n_hashes() == 1
    # within horizon: duplicate drops
    drop, _ = st.resolve(1, [([10], [1], [600])], wm=500)
    assert drop.tolist() == [1]
    # horizon passes the first-seen anchor (ts=100 < 1300-1000): evicted,
    # the same content re-admits as a fresh first copy
    drop, stats = st.resolve(2, [([10], [2], [1400])], wm=1300)
    assert drop.tolist() == [] and stats["new"] == 1
    assert st.n_hashes() == 1
    assert st.metrics["dedup_evicted"] == 1
    # anchor is FIRST-seen: the ts=600 duplicate did not refresh it


def test_retention_checkpoint_restore_consistent(tmp_path):
    """Full+delta checkpoints carry the first-seen timestamps; a restore
    followed by a resolve evicts to the same horizon as the uninterrupted
    state."""
    st = DedupIndexState(0, retention_ms=1_000)
    st.resolve(0, [([10, 20], [0, 1], [100, 900])], wm=0)
    st.save(str(tmp_path / "e0"), full=True)
    st.resolve(1, [([30], [2], [1_200])], wm=1_000)
    st.save(str(tmp_path / "e1"), full=False)

    st2 = DedupIndexState(0, retention_ms=1_000)
    st2.restore_chain(str(tmp_path / "e0"), [str(tmp_path / "e1")])
    # resolve at a horizon that evicts ts=100 but keeps 900/1200 — both
    # the restored and the live state make identical decisions
    for s in (st, st2):
        drop, _ = s.resolve(
            2, [([10, 20, 30], [7, 8, 9], [1_500, 1_500, 1_500])], wm=1_400)
        assert drop.tolist() == [8, 9], drop  # 10 re-admitted, 20/30 dup
        assert s.n_hashes() == 3


def test_pipeline_retention_readmits_periodic_dups(tmp_path, ray_session):
    """End-to-end: the periodic synth payloads (identical every 192 rows,
    19 200 ms apart) are dropped with an unbounded seen set but RE-ADMITTED
    when the retention horizon is shorter than the repeat distance."""
    clips = synth_clips_table(576)  # 3 copies of each distinct payload

    def run(tag, retention):
        root = str(tmp_path / tag)
        ct = Table.create(f"{root}/clips", schema=clips.schema)
        for v in range(3):
            ct.append(clips.slice(v * 192, 192))
        pipe = ReplicatePipeline(
            f"{root}/clips", f"{root}/out",
            cfg(dedup=True, dedup_retention_ms=retention,
                allowed_lateness_ms=1_000))
        m = pipe.run()
        return m.get("dedup_dropped", 0), m.get("replicated_out", 0)

    dropped_inf, out_inf = run("forever", 0)
    # horizon = wm − retention and wm lags by lateness, so an epoch's
    # anchors clear the horizon only partially by the next epoch's
    # resolve — re-admission is partial and exactly complementary
    dropped_ttl, out_ttl = run("ttl", 5_000)   # ≪ 19 200 ms repeat distance
    assert dropped_inf == 384 and out_inf == 192
    assert 0 < dropped_ttl < dropped_inf
    assert out_ttl == 576 - dropped_ttl and out_ttl > out_inf
