"""Hot-key salting wired into the streaming pipeline (north-rule skew).

A strongly-skewed fixture (90% of rows on 10 clip_ids) must spread across
state actors once the sticky hot set kicks in, while every semantic oracle
(join enrichment, windows, sessions, compacted view, exactly-once resume)
stays byte-identical to the unsalted semantics.
"""

from dataclasses import replace

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
from hydra_ray.synth import (
    UPDATE_SCHEMA,
    synth_clips_table,
    synth_updates_table,
)
from hydra_ray.table import Table

N_CLIPS = 800
VERSIONS = 4
HOT_FRACTION = 0.9


def build_sources(root):
    clips = synth_clips_table(N_CLIPS, hot_fraction=HOT_FRACTION)
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
    return ReplicateConfig(
        num_partitions=4,
        join_window_ms=60_000,
        allowed_lateness_ms=30_000,
        window_size_ms=10_000,
        session_gap_ms=5_000,
        sliding_size_ms=20_000,
        sliding_slide_ms=10_000,
        actor_num_cpus=0.25,
        hot_key_threshold=0.01,
        n_salts=4,
        **kw,
    )


@pytest.fixture(scope="module")
def hot_run(tmp_path_factory, ray_session):
    root = str(tmp_path_factory.mktemp("salt"))
    clips, upd = build_sources(root)
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out", cfg(), f"{root}/updates")
    metrics = pipe.run()
    return root, clips, upd, pipe, metrics


def test_hot_keys_detected_and_persisted(hot_run):
    root, *_ = hot_run
    state = Table(f"{root}/out/replicated").pipeline_state("replicate")
    hot = state.get("hot_keys", [])
    # the 10 reused ids carry ~90% of rows — all should be sticky-hot
    assert len(hot) >= 8, hot
    assert all(h.startswith("clip-0000000") for h in hot)


def test_clip_spread_bounded(hot_run):
    """Per-partition replicated-row spread ≤ 2× the median (VERDICT.md
    acceptance): without salting one home partition would hold ~90%."""
    root, *_ = hot_run
    repl = Table(f"{root}/out/replicated").to_arrow().to_pandas()
    per_part = repl.groupby("partition").size()
    med = per_part.median()
    assert per_part.max() <= 2 * med, per_part.to_dict()


def test_counts_and_uniqueness(hot_run):
    root, clips, upd, pipe, metrics = hot_run
    repl = Table(f"{root}/out/replicated").to_arrow()
    assert repl.num_rows + metrics.get("clips_late", 0) == N_CLIPS
    assert repl.column("seq").to_pandas().is_unique


def test_join_oracle_salted(hot_run):
    from tests.test_replicate import _oracle

    root, clips, upd, pipe, metrics = hot_run
    lineage = read_lineage(f"{root}/out")
    import tests.test_replicate as tr

    saved = tr.N_CLIPS
    tr.N_CLIPS = N_CLIPS
    try:
        cdf, udf, ok = _oracle(clips, upd, lineage)
    finally:
        tr.N_CLIPS = saved
    repl = (
        Table(f"{root}/out/replicated")
        .to_arrow()
        .select(["seq", "transcript", "deleted", "epoch"])
        .to_pandas()
        .sort_values("seq")
        .reset_index(drop=True)
    )
    ref = (
        ok[["seq", "final_transcript", "deleted", "emit_epoch"]]
        .sort_values("seq")
        .reset_index(drop=True)
    )
    assert len(repl) == len(ref)
    assert (repl["transcript"].fillna("∅") == ref["final_transcript"].fillna("∅")).all()
    assert (repl["deleted"] == ref["deleted"]).all()
    assert repl["epoch"].tolist() == ref["emit_epoch"].tolist()


def test_window_oracle_salted(hot_run):
    """Hot-key windows merge across salt partitions: exactly one output row
    per (clip_id, window) with the global count."""
    from tests.test_replicate import _oracle

    root, clips, upd, pipe, metrics = hot_run
    lineage = read_lineage(f"{root}/out")
    import tests.test_replicate as tr

    saved = tr.N_CLIPS
    tr.N_CLIPS = N_CLIPS
    try:
        cdf, _, _ = _oracle(clips, upd, lineage)
    finally:
        tr.N_CLIPS = saved
    ok = cdf[~cdf["late"]]
    ref = (
        ok.assign(window_start=(ok["ms"] // 10_000) * 10_000)
        .groupby(["clip_id", "window_start"])
        .agg(n_clips=("seq", "size"), sum_dur_ms=("dur_ms", "sum"))
        .reset_index()
        .sort_values(["clip_id", "window_start"])
        .reset_index(drop=True)
    )
    got = (
        Table(f"{root}/out/windows")
        .to_arrow()
        .to_pandas()
        .sort_values(["clip_id", "window_start"])
        .reset_index(drop=True)
    )
    assert len(got) == len(ref), (len(got), len(ref))
    pd.testing.assert_frame_equal(
        got[["clip_id", "window_start", "n_clips", "sum_dur_ms"]],
        ref.astype({"sum_dur_ms": "int64"}),
        check_dtype=False,
    )


def test_session_oracle_salted(hot_run):
    from hydra_ray.stages.windows import sessionize_sorted
    from tests.test_replicate import _oracle

    root, clips, upd, pipe, metrics = hot_run
    lineage = read_lineage(f"{root}/out")
    import tests.test_replicate as tr

    saved = tr.N_CLIPS
    tr.N_CLIPS = N_CLIPS
    try:
        cdf, _, _ = _oracle(clips, upd, lineage)
    finally:
        tr.N_CLIPS = saved
    ok = cdf[~cdf["late"]]
    rows = []
    for cid, g in ok.groupby("clip_id"):
        ms = np.sort(g["ms"].to_numpy())
        sid = sessionize_sorted(ms, 5_000)
        g = g.sort_values("ms")
        for s in np.unique(sid):
            sel = g[sid == s]
            rows.append(
                (cid, int(sel["ms"].iloc[0]), int(sel["ms"].iloc[-1]),
                 len(sel), int(sel["dur_ms"].sum()))
            )
    ref = pd.DataFrame(
        rows, columns=["clip_id", "session_start", "session_end", "n_clips", "sum_dur_ms"]
    ).sort_values(["clip_id", "session_start"]).reset_index(drop=True)
    got = (
        Table(f"{root}/out/sessions")
        .to_arrow()
        .to_pandas()
        .sort_values(["clip_id", "session_start"])
        .reset_index(drop=True)
    )
    assert len(got) == len(ref), (len(got), len(ref))
    pd.testing.assert_frame_equal(got[ref.columns.tolist()], ref, check_dtype=False)


def test_view_oracle_salted(hot_run):
    """Compacted view: hot keys appear exactly once (home partition only)."""
    from tests.test_replicate import _oracle

    root, clips, upd, pipe, metrics = hot_run
    lineage = read_lineage(f"{root}/out")
    import tests.test_replicate as tr

    saved = tr.N_CLIPS
    tr.N_CLIPS = N_CLIPS
    try:
        _, udf, _ = _oracle(clips, upd, lineage)
    finally:
        tr.N_CLIPS = saved
    live = udf[~udf["late"]].copy()
    live = live.sort_values(["clip_id", "ms", "revision"], kind="mergesort")
    ref = live.drop_duplicates(subset=["clip_id"], keep="last")
    got = (
        Table(f"{root}/out/views")
        .to_arrow()
        .to_pandas()
        .sort_values("clip_id")
        .reset_index(drop=True)
    )
    ref = ref.sort_values("clip_id").reset_index(drop=True)
    assert got["clip_id"].is_unique
    assert got["clip_id"].tolist() == ref["clip_id"].tolist()
    assert (
        got["transcript"].fillna("∅").tolist() == ref["transcript"].fillna("∅").tolist()
    )


def test_exactly_once_salted(tmp_path, ray_session, hot_run):
    """Crash+resume under salting reproduces the clean salted run exactly
    (hot set restored from the commit, buffers re-copied idempotently)."""
    from tests.test_replicate import _content_signature

    clean_sig = _content_signature(f"{hot_run[0]}/out")
    root = str(tmp_path)
    build_sources(root)
    pipe = ReplicatePipeline(
        f"{root}/clips", f"{root}/out", cfg(crash_at=(2, "after_prepare")),
        f"{root}/updates",
    )
    with pytest.raises(CrashPoint):
        pipe.run()
    pipe2 = ReplicatePipeline(f"{root}/clips", f"{root}/out", cfg(), f"{root}/updates")
    pipe2.run()
    assert _content_signature(f"{root}/out") == clean_sig


def _hot_turn_sources(root):
    """Key K turns hot at the end of epoch 0; its only update arrives in
    epoch 1 (home partition only, K not yet salted there) and joins K's
    epoch-2 clips, which are salted."""
    K = "clip-turns-hot"
    base = synth_clips_table(100, hot_fraction=0.0)

    def clips(lo, keys, ts_s):
        t = base.slice(lo, len(keys))
        t = t.set_column(t.schema.get_field_index("clip_id"), "clip_id",
                         pa.array(keys, pa.string()))
        return t.set_column(
            t.schema.get_field_index("event_ts"), "event_ts",
            pa.array(np.asarray(ts_s, np.int64) * 1000, pa.timestamp("ms")))

    def updates(seq0, keys, ts_s, text):
        n = len(keys)
        return pa.table({
            "clip_id": pa.array(keys, pa.string()),
            "transcript": pa.array([text] * n, pa.string()),
            "revision": pa.array([1] * n, pa.int32()),
            "event_ts": pa.array(np.asarray(ts_s, np.int64) * 1000,
                                 pa.timestamp("ms")),
            "seq": pa.array(np.arange(seq0, seq0 + n), pa.int64()),
        }, schema=UPDATE_SCHEMA)

    other = [f"other-{i:03d}" for i in range(50)]
    ct = Table.create(f"{root}/clips", schema=base.schema)
    ct.append(clips(0, [K] * 40 + other[:20], range(0, 60)))
    ct.append(clips(60, other[20:40], range(100, 120)))
    ct.append(clips(80, [K] * 10 + other[40:50], range(200, 220)))
    ut = Table.create(f"{root}/updates", schema=UPDATE_SCHEMA)
    ut.append(updates(0, [f"unrelated-{i}" for i in range(5)],
                      range(10, 15), "unrelated"))
    ut.append(updates(5, [K], [215], "K updated"))
    ut.append(updates(6, [f"unrelated-{i}" for i in range(5, 10)],
                      range(210, 215), "unrelated"))
    return K


def test_key_turning_hot_keeps_pipelined_epoch_updates(tmp_path, ray_session):
    """A key that turns hot while the next epoch is already launched:
    that epoch routes its update home only, and the copy to the salt
    partitions must still include it, so the salted run joins every
    clip exactly as the unsalted run does."""
    out = {}
    for name, threshold in (("salted", 0.1), ("unsalted", 0.0)):
        root = str(tmp_path / name)
        K = _hot_turn_sources(root)
        c = replace(cfg(), hot_key_threshold=threshold)
        ReplicatePipeline(f"{root}/clips", f"{root}/out", c,
                          f"{root}/updates").run()
        out[name] = (Table(f"{root}/out/replicated").to_arrow().select(
            ["seq", "clip_id", "partition", "transcript"]).to_pandas()
            .sort_values("seq").reset_index(drop=True))
    salted, unsalted = out["salted"], out["unsalted"]
    k_late = unsalted[(unsalted["clip_id"] == K) & (unsalted["seq"] >= 80)]
    assert len(k_late) == 10 and (k_late["transcript"] == "K updated").all()
    # K's epoch-2 clips really were spread over salt partitions
    ks = salted[(salted["clip_id"] == K) & (salted["seq"] >= 80)]
    assert ks["partition"].nunique() > 1
    pd.testing.assert_frame_equal(salted[["seq", "transcript"]],
                                  unsalted[["seq", "transcript"]])


def test_salted_partials_merge_equals_unsalted_close():
    """Ray-free: one batch split over n_salts partitions, each closed
    with every key hot, then merged by ``close_hot_partials`` (the
    driver's path) gives the same windows, sliding and sessions tables —
    and the same still-open sessions — as one unsalted partition's
    close, with all four window sketches and the session sample on."""
    import pyarrow as pa

    from hydra_ray.state.store import (
        PartitionState,
        _session_rows_table,
        close_hot_partials,
    )

    c = cfg(window_sample_k=3, window_distinct_k=4, window_mode_k=3,
            window_top_k=2, session_sample_k=3)
    rng = np.random.default_rng(7)
    n = 300
    keys = np.array([f"k{i}" for i in range(6)], dtype=object)
    batch = pa.table({
        "clip_id": pa.array(rng.choice(keys, n), pa.string()),
        "event_ts": pa.array(rng.integers(0, 120_000, n), pa.timestamp("ms")),
        "dur_ms": pa.array(rng.integers(100, 5_000, n), pa.int64()),
        "seq": pa.array(np.arange(n), pa.int64()),
        "content_h": pa.array(rng.integers(0, 6, n).astype(np.uint64)),
    })
    wm0, wm, epoch = -(1 << 62), 70_000, 3

    ref = PartitionState(0, c)
    ref.ingest_clips(batch, wm0)
    names = ("windows", "sliding", "sessions")

    def close(st, hot=frozenset()):
        return [fn(epoch, wm, hot) for fn in (
            st._close_windows, st._close_sliding, st._close_sessions)]

    ref_out = {name: t for name, (t, _) in zip(names, close(ref))}

    salt = rng.integers(0, c.n_salts, n)
    partials = []
    for s in range(c.n_salts):
        st = PartitionState(s, c)
        st.ingest_clips(batch.filter(pa.array(salt == s)), wm0)
        partial = {}
        for name, (cold, part) in zip(names, close(st, frozenset(keys))):
            assert cold is None, name                 # every key is hot
            if part is not None:
                partial[f"hot_{name}"] = part
        partials.append(partial)
    got, scratch = close_hot_partials(partials, c, epoch, wm)

    assert set(got) == set(ref_out) == {"windows", "sliding", "sessions"}
    for name, tbl in ref_out.items():
        assert tbl.num_rows > 0, name
        assert set(got[name]["partition"].to_pylist()) == {-1}
        assert got[name].drop_columns(["partition"]).equals(
            tbl.drop_columns(["partition"])), name
    assert {"p50_dur_ms", "distinct_content", "mode_h", "top_durs"} <= set(
        got["windows"].column_names)
    assert "p50_dur_ms" in got["sessions"].column_names

    def open_rows(st):
        return _session_rows_table(
            [(k, *s) for k in sorted(st.sessions) for s in st.sessions[k]],
            c.session_sample_k)

    assert open_rows(ref).num_rows > 0
    assert open_rows(scratch).equals(open_rows(ref))
    assert scratch.metrics["windows_closed"] == ref.metrics["windows_closed"]
