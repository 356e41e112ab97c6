"""Streaming replication pipeline: join/window oracles + exactly-once.

FIXTURES.md F4: the pandas oracle recomputes emission/join/window results
from the committed per-epoch lineage (wm_prev / wm_close per epoch), and
the exactly-once oracle compares a clean run against crash+resume runs.
"""

import os
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
    sink_names,
)
from hydra_ray.stages.windows import sessionize_sorted
from hydra_ray.synth import synth_clips_table, synth_updates_table
from hydra_ray.table import Table

N_CLIPS = 800
VERSIONS = 4
W = 60_000
LATENESS = 30_000


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
    return ReplicateConfig(**{
        "num_partitions": 4,
        "join_window_ms": W,
        "allowed_lateness_ms": LATENESS,
        "window_size_ms": 10_000,
        "session_gap_ms": 5_000,
        "sliding_size_ms": 20_000,
        "sliding_slide_ms": 10_000,
        "actor_num_cpus": 0.25,
        **kw,
    })


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory, ray_session):
    root = str(tmp_path_factory.mktemp("repl"))
    clips, upd = build_sources(root)
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out", cfg(), f"{root}/updates")
    metrics = pipe.run()
    return root, clips, upd, pipe, metrics


def _epoch_of(lineage, source, version):
    """Which epoch ingested `version` of `source` (versions are 1-based)."""
    for ent in lineage:
        lo, hi = ent[source]
        if lo < version <= hi:
            return ent["epoch"]
    return None


def _oracle(clips: pa.Table, upd: pa.Table, lineage):
    """Pandas recomputation of the full replication semantics."""
    cdf = clips.to_pandas()
    cdf["ms"] = cdf["event_ts"].astype("int64")
    step = N_CLIPS // VERSIONS
    cdf["version"] = cdf.index // step + 1
    cdf["epoch"] = cdf["version"].map(lambda v: _epoch_of(lineage, "clips", v))
    wm_prev = {e["epoch"]: e["wm_prev"] for e in lineage}
    wm_close = {e["epoch"]: e["wm_close"] for e in lineage}
    cdf["late"] = cdf["ms"] < cdf["epoch"].map(wm_prev)

    udf = upd.to_pandas()
    udf["ms"] = udf["event_ts"].astype("int64")
    ustep = -(-len(udf) // VERSIONS)
    udf["version"] = udf.index // ustep + 1
    udf["epoch"] = udf["version"].map(lambda v: _epoch_of(lineage, "updates", v))
    udf["late"] = udf["ms"] < udf["epoch"].map(wm_prev)

    epochs = sorted(wm_close.keys())

    def emit_epoch(row):
        for e in epochs:
            if e >= row["epoch"] and wm_close[e] > row["ms"] + W:
                return e
        return epochs[-1]  # flush epoch

    ok = cdf[~cdf["late"]].copy()
    ok["emit_epoch"] = ok.apply(emit_epoch, axis=1)

    live_upd = udf[~udf["late"]]
    upd_by_key: dict = {}
    for r in live_upd.itertuples():
        upd_by_key.setdefault(r.clip_id, []).append((r.ms, r.revision, r.transcript, r.epoch))

    final_txt, deleted = [], []
    for r in ok.itertuples():
        best = None
        for u in upd_by_key.get(r.clip_id, ()):
            # half-open join bound [c.ts, c.ts + W) — matches the batch
            # interval_join convention
            if r.ms <= u[0] < r.ms + W and u[3] <= r.emit_epoch:
                if best is None or (u[0], u[1]) > (best[0], best[1]):
                    best = u
        if best is None:
            final_txt.append(r.transcript)
            deleted.append(False)
        else:
            final_txt.append(best[2] if isinstance(best[2], str) else None)
            deleted.append(not isinstance(best[2], str))
    ok["final_transcript"] = final_txt
    ok["deleted"] = deleted
    return cdf, udf, ok


def test_counts_add_up(clean_run):
    root, clips, upd, pipe, metrics = clean_run
    repl = Table(f"{root}/out/replicated").to_arrow()
    dlq = Table(f"{root}/out/dlq").to_arrow()
    n_late_clips = metrics.get("clips_late", 0)
    assert repl.num_rows + n_late_clips == N_CLIPS
    dlq_df = dlq.to_pandas()
    assert (dlq_df[dlq_df["source"] == "clips"]["reason"] == "late").sum() == n_late_clips
    assert metrics.get("updates_late", 0) > 0  # engineered late updates exist
    # replicated rows are unique by seq (each clip exactly once)
    assert repl.column("seq").to_pandas().is_unique
    # payload fragments cover exactly the emitted rows; join is 1:1
    from hydra_ray.pipelines.replicate import read_replicated
    from hydra_ray.table import Table as LTable

    payload = LTable(f"{root}/out/payload").to_arrow()
    assert payload.num_rows == repl.num_rows
    joined = read_replicated(f"{root}/out")
    assert joined.num_rows == repl.num_rows
    assert joined.column("n_samples").null_count == 0


def test_join_oracle(clean_run):
    root, clips, upd, pipe, metrics = clean_run
    lineage = read_lineage(f"{root}/out")
    cdf, udf, ok = _oracle(clips, upd, lineage)

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
    assert len(repl) == len(ref), (len(repl), len(ref))
    assert repl["seq"].tolist() == ref["seq"].tolist()
    mismatch = repl["transcript"].fillna("∅") != ref["final_transcript"].fillna("∅")
    assert mismatch.sum() == 0, repl[mismatch].head().to_dict()
    assert (repl["deleted"] == ref["deleted"]).all()
    assert repl["epoch"].tolist() == ref["emit_epoch"].tolist()


def test_window_oracle(clean_run):
    root, clips, upd, pipe, metrics = clean_run
    lineage = read_lineage(f"{root}/out")
    cdf, _, _ = _oracle(clips, upd, lineage)
    ok = cdf[~cdf["late"]]
    ref = (
        ok.assign(window_start=(ok["ms"] // 10_000) * 10_000)
        .groupby(["clip_id", "window_start"])
        .agg(n_clips=("seq", "size"), sum_dur_ms=("dur_ms", "sum"))
        .reset_index()
    )
    got = (
        Table(f"{root}/out/windows")
        .to_arrow()
        .to_pandas()
        .sort_values(["clip_id", "window_start"])
        .reset_index(drop=True)
    )
    ref = ref.sort_values(["clip_id", "window_start"]).reset_index(drop=True)
    assert len(got) == len(ref)
    pd.testing.assert_frame_equal(
        got[["clip_id", "window_start", "n_clips", "sum_dur_ms"]],
        ref.astype({"sum_dur_ms": "int64"}),
        check_dtype=False,
    )


def test_sliding_oracle(clean_run):
    root, clips, upd, pipe, metrics = clean_run
    lineage = read_lineage(f"{root}/out")
    cdf, _, _ = _oracle(clips, upd, lineage)
    ok = cdf[~cdf["late"]]
    size, slide = 20_000, 10_000
    parts = []
    for j in range(size // slide):
        p = ok.copy()
        p["window_start"] = (p["ms"] // slide) * slide - j * slide
        parts.append(p)
    ref = (
        pd.concat(parts)
        .groupby(["clip_id", "window_start"])
        .agg(n_clips=("seq", "size"), sum_dur_ms=("dur_ms", "sum"))
        .reset_index()
        .sort_values(["clip_id", "window_start"])
        .reset_index(drop=True)
    )
    got = (
        Table(f"{root}/out/sliding")
        .to_arrow()
        .to_pandas()
        .sort_values(["clip_id", "window_start"])
        .reset_index(drop=True)
    )
    assert len(got) == len(ref)
    pd.testing.assert_frame_equal(
        got[["clip_id", "window_start", "n_clips", "sum_dur_ms"]],
        ref.astype({"sum_dur_ms": "int64"}),
        check_dtype=False,
    )


def test_compacted_view_oracle(clean_run):
    """The materialized latest-transcript view (T2 compacted topic):
    last-write-wins by (ts, revision), including tombstones as nulls."""
    root, clips, upd, pipe, metrics = clean_run
    lineage = read_lineage(f"{root}/out")
    _, udf, _ = _oracle(clips, upd, lineage)
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
    assert len(got) == len(ref)
    assert got["clip_id"].tolist() == ref["clip_id"].tolist()
    assert (
        got["transcript"].fillna("∅").tolist()
        == ref["transcript"].fillna("∅").tolist()
    )
    assert got["revision"].tolist() == ref["revision"].tolist()


def test_session_oracle(clean_run):
    root, clips, upd, pipe, metrics = clean_run
    lineage = read_lineage(f"{root}/out")
    cdf, _, _ = _oracle(clips, upd, lineage)
    ok = cdf[~cdf["late"]]
    rows = []
    for cid, g in ok.groupby("clip_id"):
        ms = np.sort(g["ms"].to_numpy())
        sid = sessionize_sorted(ms, 5_000)
        g = g.sort_values("ms")
        for s in np.unique(sid):
            sel = g[sid == s]
            rows.append(
                (cid, int(sel["ms"].iloc[0]), int(sel["ms"].iloc[-1]), len(sel), int(sel["dur_ms"].sum()))
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
    assert len(got) == len(ref)
    pd.testing.assert_frame_equal(got[ref.columns.tolist()], ref, check_dtype=False)


def test_live_views_without_early_fire(clean_run, capsys):
    """An ``early_fire=False`` run has no live sinks: the live readers and
    ``state --table *_live`` show the exact finals, none provisional."""
    from hydra_ray.__main__ import main
    from hydra_ray.pipelines.replicate import (
        read_sessions_live,
        read_windows_live,
    )

    out = f"{clean_run[0]}/out"
    assert not os.path.exists(f"{out}/windows_live")
    views = {"windows_live": (read_windows_live(out), "windows",
                              "window_start"),
             "sliding_live": (read_windows_live(out, kind="sliding"),
                              "sliding", "window_start"),
             "sessions_live": (read_sessions_live(out), "sessions",
                               "session_start")}
    for table, (view, sink, start) in views.items():
        final = (Table(f"{out}/{sink}").to_arrow().to_pandas()
                 .sort_values(["clip_id", start]).reset_index(drop=True))
        assert len(view) == len(final) > 0
        assert not view["provisional"].any()
        cols = [c for c in view.columns if c != "provisional"]
        pd.testing.assert_frame_equal(view[cols], final[cols],
                                      check_dtype=False)
        assert main(["state", "--out", out, "--table", table,
                     "--session-gap-ms", "5000", "--sliding-ms", "20000",
                     "--sliding-slide-ms", "10000"]) == 0
        assert "provisional" in capsys.readouterr().out


def _content_signature(out_root):
    repl = Table(f"{out_root}/replicated").to_arrow()
    df = repl.select(["seq", "clip_id", "transcript", "deleted"]).to_pandas()
    df = df.sort_values("seq").reset_index(drop=True)
    win = Table(f"{out_root}/windows").to_arrow().to_pandas()
    win = win.sort_values(["clip_id", "window_start"]).reset_index(drop=True)
    return (
        repl.num_rows,
        pd.util.hash_pandas_object(df).sum(),
        len(win),
        pd.util.hash_pandas_object(win[["clip_id", "window_start", "n_clips"]]).sum(),
    )


def _one_partition_host(tmp_path):
    """A state host running partition slot 0 alone → (handle, slot)."""
    from hydra_ray.state.store import StateHostActor

    sinks = {s: Table.create(str(tmp_path / s)).root
             for s in sink_names(cfg())}
    ck = str(tmp_path / "ck")
    host = StateHostActor().options(num_cpus=0).remote(
        [("p", 0)], cfg(), sinks, ck, ck)
    return host, ("p", 0)


def test_epoch_stash_isolation(tmp_path, ray_session):
    """Pipelined ingests for epoch e+1 must NOT enter close(e) state or
    its checkpoint (they replay from source after a crash)."""
    import ray

    host, p0 = _one_partition_host(tmp_path)
    light = synth_clips_table(6, hot_fraction=0.0).drop_columns(["bytes"])
    wm = -(1 << 62)
    ray.get(host.ingest.remote([(p0, "clips", light.slice(0, 3))], wm, 1))
    ray.get(host.ingest.remote([(p0, "clips", light.slice(3, 3))], wm, 2))  # pipelined
    [r1] = ray.get(host.close.remote([p0], 1, wm))
    assert r1["metrics"]["clips_in"] == 3  # epoch-2 stash untouched
    ray.get(host.checkpoint.remote([p0], 1))
    # crash: restore drops the stash; replayed ingest must not double-count
    ray.get(host.restore.remote([p0], 1))
    ray.get(host.ingest.remote([(p0, "clips", light.slice(3, 3))], wm, 2))
    [r2] = ray.get(host.close.remote([p0], 2, wm))
    assert r2["metrics"]["clips_in"] == 6
    ray.kill(host)


def _count_launches(pipe) -> list:
    """Record each ``_launch_ingest`` call as (epoch, clips_from, clips_to)."""
    launches = []
    launch = pipe._launch_ingest

    def counted(epoch, clips_from, clips_to, *rest):
        launches.append((epoch, clips_from, clips_to))
        return launch(epoch, clips_from, clips_to, *rest)

    pipe._launch_ingest = counted
    return launches


def test_epoch_slice_fixed_at_prelaunch(tmp_path, ray_session):
    """A clips version appended while epoch 0 finishes does not widen the
    already pre-launched epoch 1: that epoch keeps the slice chosen at its
    launch, the next epoch takes the new version, and every clip is
    committed exactly once."""
    root = str(tmp_path)
    clips = synth_clips_table(400)
    ct = Table.create(f"{root}/clips", schema=clips.schema)
    for v in range(3):
        ct.append(clips.slice(v * 100, 100))
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out",
                             cfg(max_versions_per_epoch=2))
    launches = _count_launches(pipe)
    finish = pipe._finish_epoch

    def finish_and_grow(epoch, *rest, **kw):
        if epoch == 0:
            ct.append(clips.slice(300, 100))
        return finish(epoch, *rest, **kw)

    pipe._finish_epoch = finish_and_grow
    metrics = pipe.run()
    assert launches == [(0, 0, 2), (1, 2, 3), (2, 3, 4)]
    slices = [tuple(e["clips"]) for e in read_lineage(f"{root}/out")]
    assert slices[:3] == [(0, 2), (2, 3), (3, 4)]
    assert slices[0][0] == 0 and slices[-1][1] == 4
    assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))
    repl = Table(f"{root}/out/replicated").to_arrow()
    assert repl.column("seq").to_pandas().is_unique
    assert repl.num_rows + metrics.get("clips_late", 0) == 400


def test_max_epochs_launches_no_further_epoch(tmp_path, ray_session):
    """run(max_epochs=1) launches epoch 0 only: no pre-launch of an epoch
    the run will not finish."""
    root = str(tmp_path)
    clips = synth_clips_table(200)
    ct = Table.create(f"{root}/clips", schema=clips.schema)
    for v in range(2):
        ct.append(clips.slice(v * 100, 100))
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out", cfg())
    launches = _count_launches(pipe)
    pipe.run(max_epochs=1)
    assert launches == [(0, 0, 1)]


@pytest.mark.parametrize("num_partitions,hosts", [(4, 2), (8, 3)])
def test_run_starts_one_process_per_host(tmp_path, ray_session,
                                         num_partitions, hosts):
    """Partitions and dedup/near-dup shards are slots of a CPU-sized host
    pool: 0.25 CPU per partition + 0.1 per shard (4 + 4 shards) gives
    ⌈1.8⌉ = 2 and ⌈2.8⌉ = 3 state processes, not one per slot."""
    import ray

    c = replace(cfg(dedup=True, neardup=True), num_partitions=num_partitions)
    root = str(tmp_path)
    clips = synth_clips_table(240)
    ct = Table.create(f"{root}/clips", schema=clips.schema)
    for v in range(2):
        ct.append(clips.slice(v * 120, 120))
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out", c)
    pids = set()
    orig = ReplicatePipeline._shutdown_actors

    def shutdown(self):
        handles = self.actors + self.dedup_shards + self.neardup_shards
        pids.update(ray.get([h.__ray_call__.remote(lambda _self: os.getpid())
                             for h in handles]))
        orig(self)

    ReplicatePipeline._shutdown_actors = shutdown
    try:
        pipe.run()
    finally:
        ReplicatePipeline._shutdown_actors = orig
    assert len(pids) == hosts
    assert Table(f"{root}/out/replicated").count_rows() > 0
    from hydra_ray.state.store import host_layout

    assert len(host_layout(c)) == hosts


@pytest.mark.parametrize("num_partitions,actor_cpus,hosts",
                         [(8, 0.25, 3), (8, 1.0, 9), (8, 0.375, 4)])
def test_host_layout_caps_host_reservation(num_partitions, actor_cpus,
                                           hosts):
    """No host reserves more than max(1, largest slot CPUs), so a cluster
    of 1-CPU nodes that could place one process per slot can place every
    host; the slots' total reservation is unchanged and each slot is on
    exactly one host."""
    from hydra_ray.state.store import host_layout, slot_num_cpus

    c = replace(cfg(dedup=True, neardup=True), num_partitions=num_partitions,
                actor_num_cpus=actor_cpus)
    layout = host_layout(c)
    assert len(layout) == hosts
    loads = [sum(slot_num_cpus(c, s) for s in h) for h in layout]
    assert max(loads) <= max(1.0, actor_cpus) + 1e-9
    slots = [s for h in layout for s in h]
    assert len(slots) == len(set(slots)) == (
        num_partitions + c.num_dedup_shards + c.num_neardup_shards)
    assert sum(loads) == pytest.approx(
        sum(slot_num_cpus(c, s) for s in slots))


def _sink_digest(out_root):
    """(rows, content hash) of the replicated, windows and sessions
    sinks, independent of fragment order."""
    keys = {"replicated": ["seq"], "windows": ["clip_id", "window_start"],
            "sessions": ["clip_id", "session_start"]}
    out = {}
    for sink, by in keys.items():
        df = Table(f"{out_root}/{sink}").to_arrow().to_pandas()
        df = df.sort_values(by, kind="mergesort").reset_index(drop=True)
        out[sink] = (len(df), int(pd.util.hash_pandas_object(df).sum()))
    return out


def test_host_count_does_not_change_output(tmp_path, ray_session):
    """actor_num_cpus only changes how many hosts run the 8 partitions
    (0.125 → 1 host, 0.375 → 4 of 0.75 CPU): the outputs are identical,
    and a crash under one layout resumes under the other to the clean
    signature."""
    from hydra_ray.state.store import host_layout

    digests, sigs = [], []
    for cpus, hosts in ((0.125, 1), (0.375, 4)):
        c = replace(cfg(), num_partitions=8, actor_num_cpus=cpus)
        assert len(host_layout(c)) == hosts
        root = str(tmp_path / f"h{hosts}")
        build_sources(root)
        ReplicatePipeline(f"{root}/clips", f"{root}/out", c,
                          f"{root}/updates").run()
        digests.append(_sink_digest(f"{root}/out"))
        sigs.append(_content_signature(f"{root}/out"))
    assert digests[0] == digests[1]
    assert sigs[0] == sigs[1]
    root = str(tmp_path / "crash")
    build_sources(root)
    with pytest.raises(CrashPoint):
        ReplicatePipeline(f"{root}/clips", f"{root}/out",
                          replace(cfg(crash_at=(2, "before_main_commit")),
                                  num_partitions=8, actor_num_cpus=0.125),
                          f"{root}/updates").run()
    ReplicatePipeline(f"{root}/clips", f"{root}/out",
                      replace(cfg(), num_partitions=8, actor_num_cpus=0.375),
                      f"{root}/updates").run()
    assert _content_signature(f"{root}/out") == sigs[0]
    assert _sink_digest(f"{root}/out") == digests[0]


def test_read_replicated_inflight(tmp_path, ray_session):
    """Reading the output mid-run (finalize rows without their payload
    flush) yields null-padded heavy columns, not an error."""
    from hydra_ray.pipelines.replicate import read_replicated

    root = str(tmp_path)
    build_sources(root)
    # short horizon so rows emit before the flush epoch
    c = ReplicateConfig(
        num_partitions=4, join_window_ms=5_000, allowed_lateness_ms=2_000,
        window_size_ms=10_000, actor_num_cpus=0.25,
    )
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out", c, f"{root}/updates")
    pipe.run(max_epochs=3)  # mid-run: some epochs closed, no final flush
    repl = Table(f"{root}/out/replicated").to_arrow()
    assert repl.num_rows > 0
    joined = read_replicated(f"{root}/out")
    assert joined.num_rows == repl.num_rows
    # finish the run: every visible row now has its payload
    pipe2 = ReplicatePipeline(f"{root}/clips", f"{root}/out", c, f"{root}/updates")
    pipe2.run()
    joined2 = read_replicated(f"{root}/out")
    assert joined2.column("n_samples").null_count == 0


@pytest.mark.parametrize("crash_point", ["after_prepare", "before_main_commit", "before_close"])
def test_exactly_once_crash_resume(tmp_path, ray_session, clean_run, crash_point):
    clean_root = clean_run[0]
    clean_sig = _content_signature(f"{clean_root}/out")

    root = str(tmp_path)
    build_sources(root)
    crash_cfg = cfg(crash_at=(2, crash_point))
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out", crash_cfg, f"{root}/updates")
    with pytest.raises(CrashPoint):
        pipe.run()
    # resume with a fresh driver (no crash hook)
    pipe2 = ReplicatePipeline(f"{root}/clips", f"{root}/out", cfg(), f"{root}/updates")
    pipe2.run()
    sig = _content_signature(f"{root}/out")
    assert sig == clean_sig
    # per-partition epoch lineage contiguous
    frags = Table(f"{root}/out/replicated").fragments()
    epochs = sorted({f.epoch for f in frags})
    assert epochs == list(range(min(epochs), max(epochs) + 1))


def test_keep_one_checkpoint_crash_resume(tmp_path, ray_session, clean_run):
    """keep_checkpoints=1 keeps the last COMMITTED epoch's chain until
    the main commit: a crash just before it (on a full-snapshot epoch)
    resumes to the clean run's output."""
    clean_sig = _content_signature(f"{clean_run[0]}/out")
    root = str(tmp_path)
    build_sources(root)
    crash_cfg = cfg(full_checkpoint_every=2, keep_checkpoints=1,
                    crash_at=(2, "before_main_commit"))
    with pytest.raises(CrashPoint):
        ReplicatePipeline(f"{root}/clips", f"{root}/out", crash_cfg,
                          f"{root}/updates").run()
    ReplicatePipeline(f"{root}/clips", f"{root}/out",
                      cfg(full_checkpoint_every=2, keep_checkpoints=1),
                      f"{root}/updates").run()
    assert _content_signature(f"{root}/out") == clean_sig
    with pytest.raises(ValueError, match="keep_checkpoints"):
        ReplicatePipeline(f"{root}/clips", f"{root}/out2",
                          cfg(keep_checkpoints=0), f"{root}/updates")


def test_checkpoint_failure_beside_aux_commits(tmp_path, ray_session,
                                              clean_run):
    """Epoch 2's checkpoint fails while the aux commits it overlaps land:
    run() raises, the main sink stays at epoch 1, and a resume (the aux
    sinks already hold epoch 2) reaches the clean output."""
    clean_sig = _content_signature(f"{clean_run[0]}/out")
    root = str(tmp_path)
    build_sources(root)
    # a regular file where partition 0's epoch-2 checkpoint dir goes
    blocker = f"{root}/out/_checkpoints/p0000/e000002"
    os.makedirs(os.path.dirname(blocker))
    open(blocker, "w").close()
    with pytest.raises(Exception, match="e000002"):
        ReplicatePipeline(f"{root}/clips", f"{root}/out", cfg(),
                          f"{root}/updates").run()
    assert Table(f"{root}/out/replicated").committed_epoch("replicate") == 1
    assert Table(f"{root}/out/windows").committed_epoch("replicate") == 2
    os.remove(blocker)
    ReplicatePipeline(f"{root}/clips", f"{root}/out", cfg(),
                      f"{root}/updates").run()
    assert _content_signature(f"{root}/out") == clean_sig


def test_resume_with_changed_checkpoint_cadence(tmp_path, ray_session,
                                                clean_run):
    """GC follows the snapshots actually written, not the configured
    cadence: epochs 0-2 checkpoint as full 0 + deltas 1, 2; a resume with
    full_checkpoint_every=2 writes epoch 3 as a delta on that chain and
    crashes before committing it.  Inferring "2 is full" from the new
    cadence would delete the chain of committed epoch 2."""
    clean_sig = _content_signature(f"{clean_run[0]}/out")
    root = str(tmp_path)
    build_sources(root)
    for c in (cfg(full_checkpoint_every=3, crash_at=(3, "before_close")),
              cfg(full_checkpoint_every=2,
                  crash_at=(3, "before_main_commit"))):
        with pytest.raises(CrashPoint):
            ReplicatePipeline(f"{root}/clips", f"{root}/out", c,
                              f"{root}/updates").run()
    ReplicatePipeline(f"{root}/clips", f"{root}/out",
                      cfg(full_checkpoint_every=2), f"{root}/updates").run()
    assert _content_signature(f"{root}/out") == clean_sig


def test_resume_refuses_missing_checkpoint(tmp_path, ray_session):
    """A committed epoch whose partition checkpoint chain is gone must
    fail the resume loudly, never restart that partition empty."""
    import shutil

    root = str(tmp_path)
    build_sources(root)
    with pytest.raises(CrashPoint):
        ReplicatePipeline(f"{root}/clips", f"{root}/out",
                          cfg(crash_at=(2, "before_close")),
                          f"{root}/updates").run()
    # committed epoch 1 = full 0 + delta 1; drop the delta
    shutil.rmtree(f"{root}/out/_checkpoints/p0001/e000001")
    with pytest.raises(RuntimeError, match="no restorable"):
        ReplicatePipeline(f"{root}/clips", f"{root}/out", cfg(),
                          f"{root}/updates").run()


def test_long_run_bounded_manifest_and_delta_resume(tmp_path, ray_session):
    """Many-epoch run: per-epoch lineage lives in the side log (manifest
    properties stay O(1)), checkpoints between full snapshots are deltas,
    GC keeps only the restorable chain, and a crash on a DELTA epoch
    resumes through full+delta restore to the clean run's output."""
    import json as _json
    import os as _os

    n, versions = 240, 30
    clips = synth_clips_table(n)
    upd = synth_updates_table(n)

    def build(root):
        ct = Table.create(f"{root}/clips", schema=clips.schema)
        step = n // versions
        for v in range(versions):
            ct.append(clips.slice(v * step, step))
        ut = Table.create(f"{root}/updates", schema=upd.schema)
        ustep = -(-upd.num_rows // versions)
        for v in range(versions):
            lo = v * ustep
            if lo < upd.num_rows:
                ut.append(upd.slice(lo, min(ustep, upd.num_rows - lo)))

    c = ReplicateConfig(
        num_partitions=2, join_window_ms=5_000, allowed_lateness_ms=2_000,
        window_size_ms=10_000, actor_num_cpus=0.25, full_checkpoint_every=5,
        keep_checkpoints=3,
    )
    root = str(tmp_path / "clean")
    _os.makedirs(root)
    build(root)
    ReplicatePipeline(f"{root}/clips", f"{root}/out", c, f"{root}/updates").run()

    lineage = read_lineage(f"{root}/out")
    assert len(lineage) == versions + 1  # one per epoch + flush
    assert [e["epoch"] for e in lineage] == list(range(versions + 1))
    # manifest properties stay small at any horizon
    props = Table(f"{root}/out/replicated").properties()
    assert len(_json.dumps(props)) < 16_000
    # delta checkpoints were written and GC kept a restorable chain
    pdir = _os.path.join(f"{root}/out", "_checkpoints", "p0000")
    entries = sorted(_os.listdir(pdir))
    kinds = {
        e: ("full" if _os.path.exists(_os.path.join(pdir, e, "state.pkl")) else "delta")
        for e in entries
    }
    assert "delta" in kinds.values() and "full" in kinds.values()
    oldest = min(int(e[1:]) for e in entries)
    assert kinds[f"e{oldest:06d}"] == "full"  # chain starts at a full snapshot

    sig_clean = _content_signature(f"{root}/out")

    # crash on an epoch whose checkpoint is a DELTA (17 % 5 != 0)
    root2 = str(tmp_path / "crash")
    _os.makedirs(root2)
    build(root2)
    c_crash = ReplicateConfig(
        num_partitions=2, join_window_ms=5_000, allowed_lateness_ms=2_000,
        window_size_ms=10_000, actor_num_cpus=0.25, full_checkpoint_every=5,
        keep_checkpoints=3, crash_at=(18, "before_close"),
    )
    with pytest.raises(CrashPoint):
        ReplicatePipeline(f"{root2}/clips", f"{root2}/out", c_crash, f"{root2}/updates").run()
    ReplicatePipeline(f"{root2}/clips", f"{root2}/out", c, f"{root2}/updates").run()
    assert _content_signature(f"{root2}/out") == sig_clean


def test_compaction_preserves_replicated_output(clean_run):
    """Post-run sink compaction (maintenance) must not change what
    read_replicated returns — byte-identical join, far fewer fragments."""
    from hydra_ray.pipelines.replicate import read_replicated
    from hydra_ray.table import Table as LTable

    root = clean_run[0]
    before = read_replicated(f"{root}/out").to_pandas().sort_values("seq")
    shrunk = 0
    for name in ("replicated", "payload", "views", "dlq"):
        t = LTable(f"{root}/out/{name}")
        n0 = len(t.fragments())
        if t.compact(target_rows=10**9) is not None:
            shrunk += n0 - len(t.fragments())
        assert t.count_rows() == sum(f.rows for f in t.fragments())
    assert shrunk > 0  # per-(partition, epoch) fragments actually merged
    after = read_replicated(f"{root}/out").to_pandas().sort_values("seq")
    pd.testing.assert_frame_equal(
        before.reset_index(drop=True), after.reset_index(drop=True)
    )


def test_periodic_sink_compaction_preserves_output(tmp_path, ray_session, clean_run):
    """compact_sinks_every: maintenance bin-packing mid-run must not
    change any sink's content, and must actually shrink fragment counts."""
    clean_sig = _content_signature(f"{clean_run[0]}/out")
    root = str(tmp_path)
    build_sources(root)
    pipe = ReplicatePipeline(
        f"{root}/clips", f"{root}/out", cfg(compact_sinks_every=2),
        f"{root}/updates",
    )
    pipe.run()
    assert _content_signature(f"{root}/out") == clean_sig
    # payload is the fragmented sink here: an uncompacted run leaves one
    # fragment per (partition, epoch) = 4 x VERSIONS = 16 (don't compare
    # against clean_run: test_compaction_preserves_replicated_output
    # compacts those sinks in place)
    compacted = len(Table(f"{root}/out/payload").fragments())
    assert compacted == cfg().num_partitions  # 16 fragments bin-packed to 4


def test_streaming_audio_features_on_payload(ray_session, tmp_path):
    """ReplicateConfig(audio_features=True): per-clip features computed in
    the decode task ride the payload fragments and surface through
    read_replicated, matching the batch audio_features kernel exactly."""
    from hydra_ray.pipelines.replicate import read_replicated
    from hydra_ray.stages.audio_features import audio_features
    from hydra_ray.stages.decode import AudioDecoder

    root = str(tmp_path)
    clips = synth_clips_table(200)
    ct = Table.create(f"{root}/clips", schema=clips.schema)
    for v in range(2):
        ct.append(clips.slice(v * 100, 100))
    pipe = ReplicatePipeline(
        f"{root}/clips", f"{root}/out", cfg(audio_features=True))
    metrics = pipe.run()
    out = read_replicated(f"{root}/out")
    for c in ("rms", "peak", "zero_cross_rate", "clip_ratio", "dom_freq_hz"):
        assert c in out.column_names
    # reference: decode the same source rows directly and run the kernel
    dec = AudioDecoder()(clips)
    import pyarrow.compute as pc

    dec = dec.filter(pc.is_null(dec["decode_error"]))
    ref = audio_features(dec.select(["seq", "pcm", "sr_hz"]))
    ref_df = ref.to_pandas().set_index("seq")
    got = out.select(
        ["seq", "rms", "peak", "zero_cross_rate", "clip_ratio", "dom_freq_hz"]
    ).to_pandas().set_index("seq")
    joined = got.join(ref_df, rsuffix="_ref").dropna()
    assert len(joined) == len(got)  # every emitted row has features
    for c in ("rms", "peak", "zero_cross_rate", "clip_ratio", "dom_freq_hz"):
        assert np.allclose(joined[c], joined[f"{c}_ref"], atol=1e-12), c

    # default off: no feature columns on the payload
    pipe2 = ReplicatePipeline(f"{root}/clips", f"{root}/out2", cfg())
    pipe2.run()
    out2 = read_replicated(f"{root}/out2")
    assert "rms" not in out2.column_names


def test_payload_transform_trim_silence(ray_session, tmp_path):
    """ReplicateConfig(payload_transform=trim_payload): silence-padded
    clips stage trimmed payload fragments (curation at ingest), exactly
    matching the batch trim_silence kernel on the decoded rows."""
    from hydra_ray.audio import encode_pcm16
    from hydra_ray.pipelines.replicate import read_replicated, trim_payload
    from hydra_ray.stages.audio_curation import trim_silence
    from hydra_ray.stages.decode import AudioDecoder

    root = str(tmp_path)
    base = synth_clips_table(60)
    sr = 16_000
    frame = sr * 20 // 1000
    rng = np.random.default_rng(3)
    cols = {n: base[n].to_pylist() for n in base.column_names}
    tone = (0.5 * np.sin(2 * np.pi * 330 * np.arange(sr // 2) / sr)
            ).astype(np.float32)
    padded = set()
    for i in range(0, 60, 3):     # every third clip: silence-padded pcm16
        pad = np.zeros(int(rng.integers(2, 6)) * frame, np.float32)
        wave = np.r_[pad, tone, pad]
        cols["bytes"][i] = encode_pcm16(wave)
        cols["codec"][i] = "pcm16"
        cols["sr_hz"][i] = sr
        padded.add(cols["seq"][i])
    clips = pa.table(cols, schema=base.schema)
    ct = Table.create(f"{root}/clips", schema=clips.schema)
    ct.append(clips)

    pipe = ReplicatePipeline(
        f"{root}/clips", f"{root}/out", cfg(payload_transform=trim_payload))
    pipe.run()
    out = read_replicated(f"{root}/out")
    assert "trimmed_ms" in out.column_names
    got = out.select(["seq", "n_samples", "trimmed_ms"]).to_pandas() \
             .set_index("seq")

    dec = AudioDecoder()(clips)
    import pyarrow.compute as pc

    dec = dec.filter(pc.is_null(dec["decode_error"]))
    ref = trim_silence(dec.select(["seq", "pcm", "sr_hz"]))
    ref_ns = dict(zip(ref["seq"].to_pylist(),
                      pc.list_value_length(ref["pcm"]).to_pylist()))
    ref_tms = dict(zip(ref["seq"].to_pylist(), ref["trimmed_ms"].to_pylist()))
    assert len(got) == len(ref_ns)
    for seq, row in got.iterrows():
        assert row["n_samples"] == ref_ns[seq], seq
        assert row["trimmed_ms"] == ref_tms[seq], seq
    # padded clips actually lost their padding
    assert all(got.loc[s, "trimmed_ms"] > 0 for s in padded)

    # --- features + transform compose: features must describe the
    # TRANSFORMED (stored) payload, not the as-decoded clip (ADVICE r2)
    pipe2 = ReplicatePipeline(
        f"{root}/clips", f"{root}/out2",
        cfg(payload_transform=trim_payload, audio_features=True))
    pipe2.run()
    out2 = read_replicated(f"{root}/out2")
    got2 = out2.select(["seq", "rms", "zero_cross_rate", "dom_freq_hz"]) \
               .to_pandas().set_index("seq")
    from hydra_ray.stages.audio_features import audio_features

    ref2 = audio_features(ref.select(["seq", "pcm", "sr_hz"]))
    ref2_df = ref2.to_pandas().set_index("seq")
    joined = got2.join(ref2_df, rsuffix="_ref").dropna()
    assert len(joined) == len(got2)
    for c in ("rms", "zero_cross_rate", "dom_freq_hz"):
        assert np.allclose(joined[c], joined[f"{c}_ref"], atol=1e-12), c
    # the padded clips' post-trim rms differs from their pre-trim rms
    pre = audio_features(dec.select(["seq", "pcm", "sr_hz"])) \
        .to_pandas().set_index("seq")
    for s in padded:
        assert got2.loc[s, "rms"] > pre.loc[s, "rms"]


def test_streaming_fbank_on_payload(ray_session, tmp_path):
    """ReplicateConfig(audio_fbank=True): pooled log-mel features ride
    the payload fragments (mixed native sample rates handled per-rate),
    matching the batch audio_fbank kernel exactly; composes with the
    payload transform (features describe the TRANSFORMED audio)."""
    from hydra_ray.pipelines.replicate import read_replicated, trim_payload
    from hydra_ray.stages.audio_curation import trim_silence
    from hydra_ray.stages.audio_features import audio_fbank
    from hydra_ray.stages.decode import AudioDecoder

    root = str(tmp_path)
    clips = synth_clips_table(150)
    ct = Table.create(f"{root}/clips", schema=clips.schema)
    for v in range(2):
        ct.append(clips.slice(v * 75, 75))
    pipe = ReplicatePipeline(
        f"{root}/clips", f"{root}/out", cfg(audio_fbank=True))
    pipe.run()
    out = read_replicated(f"{root}/out")
    for c in ("fbank_mean", "fbank_std", "n_frames"):
        assert c in out.column_names

    import pyarrow.compute as pc

    dec = AudioDecoder()(clips)
    dec = dec.filter(pc.is_null(dec["decode_error"]))
    ref = audio_fbank(dec.select(["seq", "pcm", "sr_hz"]))
    ref_mean = np.asarray(
        ref["fbank_mean"].combine_chunks().flatten()).reshape(-1, 16)
    ref_by_seq = dict(zip(ref["seq"].to_pylist(), ref_mean))
    ref_nf = dict(zip(ref["seq"].to_pylist(), ref["n_frames"].to_pylist()))

    got_seq = out["seq"].to_pylist()
    got_mean = np.asarray(
        out["fbank_mean"].combine_chunks().flatten()).reshape(-1, 16)
    got_nf = out["n_frames"].to_pylist()
    assert len(got_seq) == len(ref_by_seq)
    for s, m, k in zip(got_seq, got_mean, got_nf):
        assert k == ref_nf[s], s
        assert np.allclose(m, ref_by_seq[s], atol=1e-5), s

    # composes with a payload transform: fbank over the TRIMMED pcm
    pipe2 = ReplicatePipeline(
        f"{root}/clips", f"{root}/out2",
        cfg(audio_fbank=True, payload_transform=trim_payload))
    pipe2.run()
    out2 = read_replicated(f"{root}/out2")
    trimmed = trim_silence(dec.select(["seq", "pcm", "sr_hz"]))
    ref2 = audio_fbank(trimmed.select(["seq", "pcm", "sr_hz"]))
    r2_mean = np.asarray(
        ref2["fbank_mean"].combine_chunks().flatten()).reshape(-1, 16)
    r2_by_seq = dict(zip(ref2["seq"].to_pylist(), r2_mean))
    g2_seq = out2["seq"].to_pylist()
    g2_mean = np.asarray(
        out2["fbank_mean"].combine_chunks().flatten()).reshape(-1, 16)
    for s, m in zip(g2_seq, g2_mean):
        assert np.allclose(m, r2_by_seq[s], atol=1e-5), s


def test_history_truncation_preserves_output(tmp_path, ray_session, clean_run):
    """keep_history_versions bounds every sink's manifest log mid-stream
    without changing any output (maintenance runs between epochs)."""
    clean_sig = _content_signature(f"{clean_run[0]}/out")
    root = str(tmp_path)
    build_sources(root)
    c = cfg(compact_sinks_every=2, keep_history_versions=3)
    ReplicatePipeline(f"{root}/clips", f"{root}/out", c,
                      f"{root}/updates").run()
    assert _content_signature(f"{root}/out") == clean_sig
    import os

    for sink in ("replicated", "windows"):
        t = Table(f"{root}/out/{sink}")
        versions = [n for n in t.fs.list_dir(
            os.path.join(t.root, "_versions")) if n.endswith(".json")]
        # bounded: 3 kept at the last tick + (epoch + compaction)
        # versions appended since — far below the ~20 an unbounded
        # 8-epoch run accumulates
        assert len(versions) <= 8, len(versions)


def test_quantized_pcm_staging_bit_exact(tmp_path, ray_session, clean_run):
    """Transform-path fragments store the transformed audio encoded:
    int16-grid rows as pcm16 (2 B/sample), no decoded pcm column, and
    read_replicated reconstructs bit-identically: the trim_payload
    config's joined pcm must equal decode + trim of the source rows
    (the per-row verify-by-roundtrip rule guarantees it)."""
    import numpy as np
    import pyarrow.compute as pc

    from hydra_ray.audio import decode_batch
    from hydra_ray.pipelines.replicate import read_replicated, trim_payload
    from hydra_ray.stages.audio_curation import trim_silence
    from hydra_ray.table import Table as LTable

    root = str(tmp_path)
    build_sources(root)
    pipe = ReplicatePipeline(
        f"{root}/clips", f"{root}/out", cfg(payload_transform=trim_payload),
        f"{root}/updates",
    )
    pipe.run()
    # one payload layout: encoded audio plus the transform's column
    payload = LTable(f"{root}/out/payload").to_arrow()
    assert payload.column_names == ["seq", "bytes", "codec", "sr_hz",
                                    "n_samples", "trimmed_ms"]
    q = pc.equal(payload["codec"], "pcm16")
    assert pc.sum(pc.cast(q, pa.int64())).as_py() > 0, \
        "no rows staged as pcm16 — grid check broken?"
    q16 = payload.filter(q)
    assert pc.equal(pc.binary_length(q16["bytes"]),
                    pc.multiply(pc.cast(q16["n_samples"], pa.int64()),
                                2)).to_numpy(zero_copy_only=False).all()

    out = read_replicated(f"{root}/out")
    assert "bytes" not in out.column_names
    # oracle: decode + trim the source clips directly
    clips = LTable(f"{root}/clips").to_arrow()
    pcm, err = decode_batch(clips["bytes"].combine_chunks(),
                            clips["codec"], clips["sr_hz"])
    okm = pc.is_null(err).to_numpy(zero_copy_only=False)
    dec = pa.table({"seq": clips["seq"], "pcm": pcm,
                    "sr_hz": clips["sr_hz"]}).filter(pa.array(okm))
    ref = trim_silence(dec.select(["seq", "pcm", "sr_hz"]))

    def row_span(col, i):
        # Arrow-side per-row span (no pcm to_pylist — CLAUDE.md rule)
        arr = col.combine_chunks()
        offs = arr.offsets.to_numpy(zero_copy_only=False)
        vals = np.asarray(arr.values, dtype=np.float32)
        return vals[offs[i]:offs[i + 1]]

    ref_pos = {s: j for j, s in enumerate(ref["seq"].to_pylist())}
    got_seq = out["seq"].to_pylist()
    # bit-exact per-row equality on a deterministic sample of rows
    idx = np.linspace(0, len(got_seq) - 1, 40).astype(int)
    for i in idx:
        g = row_span(out["pcm"], int(i))
        r = row_span(ref["pcm"], ref_pos[got_seq[int(i)]])
        assert np.array_equal(g.view(np.uint32), r.view(np.uint32)), i


def test_read_replicated_raises_on_corruption_at_rest(tmp_path, clean_run):
    """A committed payload fragment whose wav header was damaged after
    the commit fails the read loudly instead of returning empty audio."""
    import shutil

    import pyarrow.parquet as pq

    from hydra_ray.pipelines.replicate import read_replicated

    out = str(tmp_path / "out")
    shutil.copytree(f"{clean_run[0]}/out", out)
    shown = set(Table(f"{out}/replicated").to_arrow()["seq"].to_pylist())
    for frag in Table(f"{out}/payload").fragments():
        path = os.path.join(out, "payload", frag.path)
        heavy = pq.read_table(path)
        rows = [i for i, (s, c) in enumerate(zip(
            heavy["seq"].to_pylist(), heavy["codec"].to_pylist()))
            if c == "wav" and s in shown]
        if rows:
            break
    raw = heavy["bytes"].to_pylist()
    assert raw[rows[0]][:4] == b"RIFF"
    raw[rows[0]] = b"RIFX" + raw[rows[0]][4:]
    i = heavy.column_names.index("bytes")
    pq.write_table(heavy.set_column(
        i, heavy.field(i), pa.array(raw, heavy.field(i).type)), path)
    with pytest.raises(ValueError, match="re-decode failed for 1 rows.*RIFF"):
        read_replicated(out)


def test_state_store_imports_without_pandas():
    """A state host's module imports without pandas (0.3 s of a host's
    start); the check runs in a fresh interpreter."""
    import subprocess
    import sys

    code = ("import sys, hydra_ray.state.store; "
            "sys.exit('pandas' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True,
                       cwd=os.path.dirname(os.path.dirname(__file__)))
    assert r.returncode == 0, r.stderr or "pandas was imported"


def test_reconstruct_pcm_refuses_mixed_fragments(tmp_path):
    """A payload table holding decoded ``pcm`` fragments (the layout
    transformed payloads had before every payload staged encoded) fails
    the read loudly instead of nulling those rows."""
    from hydra_ray.audio import encode
    from hydra_ray.pipelines.replicate import read_replicated

    root = str(tmp_path)
    raw = encode(np.zeros(50, np.float32), "pcm16", 8000)
    payload = Table.create(f"{root}/payload")
    payload.append(pa.table({
        "seq": pa.array([1], pa.int64()),
        "bytes": pa.array([raw], pa.large_binary()),
        "codec": pa.array(["pcm16"], pa.string()),
        "sr_hz": pa.array([8000], pa.int32()),
        "n_samples": pa.array([50], pa.int32()),
    }))
    payload.append(pa.table({
        "seq": pa.array([2], pa.int64()),
        "pcm": pa.array([[0.5]], pa.large_list(pa.float32())),
        "n_samples": pa.array([1], pa.int32()),
        "pcm_q": pa.nulls(1, pa.large_list(pa.int16())),
    }))
    Table.create(f"{root}/replicated").append(
        pa.table({"seq": pa.array([1, 2], pa.int64())}))
    with pytest.raises(ValueError, match="decoded 'pcm' fragments"):
        read_replicated(root)


def test_resume_with_another_transform_reads_every_row(
        tmp_path, ray_session, clean_run):
    """An out root resumed with a different payload_transform holds
    source-encoded and transform-encoded fragments side by side; both
    are the one payload layout, so every emitted row reads back with its
    audio."""
    import pyarrow.compute as pc

    from hydra_ray.pipelines.replicate import read_replicated, trim_payload

    root = str(tmp_path)
    build_sources(root)
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out",
                             cfg(crash_at=(2, "before_close")),
                             f"{root}/updates")
    with pytest.raises(CrashPoint):
        pipe.run()
    ReplicatePipeline(f"{root}/clips", f"{root}/out",
                      cfg(payload_transform=trim_payload),
                      f"{root}/updates").run()
    assert _content_signature(f"{root}/out") == \
        _content_signature(f"{clean_run[0]}/out")
    payload = Table(f"{root}/out/payload").to_arrow()
    # both kinds of fragment were committed
    assert payload["trimmed_ms"].null_count > 0
    assert payload.num_rows - payload["trimmed_ms"].null_count > 0
    out = read_replicated(f"{root}/out")
    assert out.num_rows == Table(f"{root}/out/replicated").count_rows()
    assert out["pcm"].null_count == 0
    assert pc.equal(pc.cast(pc.list_value_length(out["pcm"]), pa.int32()),
                    out["n_samples"]).to_numpy(zero_copy_only=False).all()


def test_transform_length_mismatch_raises_at_staging():
    """A payload_transform whose n_samples disagrees with its pcm length
    fails when its rows stage, not later at read time."""
    import pyarrow.compute as pc

    from hydra_ray.pipelines.replicate import _Router
    from hydra_ray.stages.decode import AudioDecoder

    def off_by_one(heavy):
        i = heavy.column_names.index("n_samples")
        return heavy.set_column(i, "n_samples",
                                pc.add(heavy["n_samples"], 1))

    batch = AudioDecoder(keep_bytes=True)(synth_clips_table(8))
    rows = np.flatnonzero(pc.is_null(batch["decode_error"]).to_numpy(
        zero_copy_only=False))
    router = _Router(None, "clips", 0, "clip_id", 4,
                     payload_transform=off_by_one)
    with pytest.raises(ValueError, match="n_samples"):
        router._payload_slice(batch, rows)
