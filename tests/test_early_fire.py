"""Incremental (early-fire) window emission: windows_live upserts the
current cross-partition totals of every touched open cell each epoch;
read_windows_live overlays exact close-time finals with the latest
provisionals and converges to the windows sink as the stream drains."""

import pandas as pd
import pyarrow as pa
import pytest

import tests.test_replicate as tr
from hydra_ray.pipelines.replicate import (
    CrashPoint,
    ReplicatePipeline,
    read_lineage,
    read_windows_live,
)
from hydra_ray.table import Table


def _admitted_cells(root, lineage, up_to_epoch, size=10_000):
    """Oracle: per-cell counts over every row ADMITTED (non-late at its
    ingest epoch) by the end of ``up_to_epoch`` — provisional ∪ final
    totals must equal this exactly, however the engine splits them."""
    clips = Table(f"{root}/clips")
    rows = []
    for ent in lineage:
        if ent["epoch"] > up_to_epoch:
            continue
        lo, hi = ent["clips"]
        if hi <= lo:
            continue
        at = clips.to_arrow(after_version=lo, version=hi)
        from hydra_ray.stages.windows import ts_to_ms

        t = at.to_pandas()
        ts = pd.Series(ts_to_ms(at["event_ts"]), index=t.index)
        adm = t[ts >= ent["wm_prev"]].copy()
        adm["ms"] = ts[ts >= ent["wm_prev"]]
        rows.append(adm)
    df = pd.concat(rows, ignore_index=True)
    df["window_start"] = (df["ms"] // size) * size
    return df.groupby(["clip_id", "window_start"]).agg(
        n_clips=("seq", "size"), sum_dur_ms=("dur_ms", "sum")).reset_index()


def test_early_fire_convergence_and_midrun_totals(tmp_path, ray_session):
    root = str(tmp_path)
    tr.build_sources(root)
    c = tr.cfg(early_fire=True)
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out", c,
                             f"{root}/updates")
    pipe.run(max_epochs=3)

    live = read_windows_live(f"{root}/out")
    prov = live[live["provisional"]]
    assert len(prov) > 0, "no provisional rows mid-run"

    # provisional ∪ final == the admitted-rows oracle, exactly
    lineage = read_lineage(f"{root}/out")
    oracle = _admitted_cells(root, lineage, up_to_epoch=max(
        e["epoch"] for e in lineage))
    got = live[["clip_id", "window_start", "n_clips", "sum_dur_ms"]]
    merged = got.merge(oracle, on=["clip_id", "window_start"],
                       how="outer", suffixes=("_got", "_ref"),
                       indicator=True)
    assert (merged["_merge"] == "both").all(), merged[
        merged["_merge"] != "both"].head()
    assert (merged["n_clips_got"] == merged["n_clips_ref"]).all()
    assert (merged["sum_dur_ms_got"] == merged["sum_dur_ms_ref"]).all()

    # drain: live view converges to exactly the windows sink
    ReplicatePipeline(f"{root}/clips", f"{root}/out", c,
                      f"{root}/updates").run()
    live2 = read_windows_live(f"{root}/out")
    assert not live2["provisional"].any()
    final = Table(f"{root}/out/windows").to_arrow().to_pandas()
    final = final[["clip_id", "window_start", "window_end", "n_clips",
                   "sum_dur_ms"]].sort_values(
        ["clip_id", "window_start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        live2.drop(columns=["provisional"]), final)


def test_early_fire_crash_resume_identical(tmp_path, ray_session):
    """Replay idempotence: a crash between prepare and commit, then
    resume, yields a windows_live history whose coherent view equals a
    clean run's (replayed epochs re-stage identical provisional rows;
    the epoch commit no-ops the duplicate)."""
    root = str(tmp_path)
    tr.build_sources(root)
    c = tr.cfg(early_fire=True)
    clean_root = f"{root}/clean"
    tr.build_sources(clean_root)
    ReplicatePipeline(f"{clean_root}/clips", f"{clean_root}/out", c,
                      f"{clean_root}/updates").run()
    clean = read_windows_live(f"{clean_root}/out")

    crash = ReplicatePipeline(
        f"{root}/clips", f"{root}/out",
        tr.cfg(early_fire=True, crash_at=(2, "before_main_commit")),
        f"{root}/updates")
    with pytest.raises(CrashPoint):
        crash.run()
    ReplicatePipeline(f"{root}/clips", f"{root}/out", c,
                      f"{root}/updates").run()
    got = read_windows_live(f"{root}/out")
    pd.testing.assert_frame_equal(got, clean)


def test_early_fire_sliding_convergence(tmp_path, ray_session):
    """Sliding-window live tier: provisional rows mid-run, exact
    convergence to the sliding sink after drain."""
    root = str(tmp_path)
    tr.build_sources(root)
    c = tr.cfg(early_fire=True)  # cfg() has sliding_size_ms=20_000
    ReplicatePipeline(f"{root}/clips", f"{root}/out", c,
                      f"{root}/updates").run(max_epochs=3)
    live = read_windows_live(f"{root}/out", kind="sliding")
    assert live["provisional"].any(), "no provisional sliding rows"
    # each row should appear in up to size/slide = 2 sliding cells
    ReplicatePipeline(f"{root}/clips", f"{root}/out", c,
                      f"{root}/updates").run()
    live2 = read_windows_live(f"{root}/out", kind="sliding")
    assert not live2["provisional"].any()
    final = Table(f"{root}/out/sliding").to_arrow().to_pandas()
    final = final[["clip_id", "window_start", "window_end", "n_clips",
                   "sum_dur_ms"]].sort_values(
        ["clip_id", "window_start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        live2.drop(columns=["provisional"]), final)


def test_early_fire_sessions_match_queryable_state(tmp_path, ray_session):
    """Sessions live tier: the latest provisional snapshot must equal
    the OFFLINE queryable state's open sessions at the same epoch (an
    independent path through the checkpoint chain), restricted to keys
    touched since their last change; after drain only finals remain and
    they equal the sessions sink."""
    from hydra_ray.pipelines.replicate import read_sessions_live
    from hydra_ray.state.query import read_state

    root = str(tmp_path)
    tr.build_sources(root)
    c = tr.cfg(early_fire=True)  # cfg() has session_gap_ms=5_000
    ReplicatePipeline(f"{root}/clips", f"{root}/out", c,
                      f"{root}/updates").run(max_epochs=3)

    live = read_sessions_live(f"{root}/out")
    prov = live[live["provisional"]]
    assert len(prov) > 0

    state = read_state(f"{root}/out/_checkpoints", c)
    open_sess = state["sessions"].to_pandas()
    ref = open_sess.rename(columns={
        "t_start": "session_start", "t_end": "session_end",
        "cnt": "n_clips"})
    ref = ref[["clip_id", "session_start", "session_end", "n_clips",
               "sum_dur_ms"]]
    # every provisional row IS an open session in the committed state
    merged = prov.drop(columns=["provisional"]).merge(
        ref, on=list(ref.columns), how="left", indicator=True)
    assert (merged["_merge"] == "both").all(), merged[
        merged["_merge"] != "both"].head()

    # drain → finals only, equal to the sessions sink
    ReplicatePipeline(f"{root}/clips", f"{root}/out", c,
                      f"{root}/updates").run()
    live2 = read_sessions_live(f"{root}/out")
    assert not live2["provisional"].any()
    final = Table(f"{root}/out/sessions").to_arrow().to_pandas()
    final = final[["clip_id", "session_start", "session_end", "n_clips",
                   "sum_dur_ms"]].sort_values(
        ["clip_id", "session_start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        live2.drop(columns=["provisional"]), final)


def test_sessions_live_keeps_idle_open_session(tmp_path, ray_session):
    """An open session stays in ``read_sessions_live`` after an epoch that
    brought its key no events: every epoch renders every open session,
    not only the keys it touched."""
    from hydra_ray.pipelines.replicate import (
        ReplicateConfig,
        read_sessions_live,
    )
    from hydra_ray.synth import BASE_TS_MS, synth_clips_table

    root = str(tmp_path)
    clips = synth_clips_table(3)
    clips = clips.set_column(
        clips.schema.get_field_index("clip_id"), "clip_id",
        pa.array(["idle", "busy", "busy"], pa.string()),
    ).set_column(
        clips.schema.get_field_index("event_ts"), "event_ts",
        pa.array([BASE_TS_MS + d for d in (0, 1_000, 2_000)],
                 clips.schema.field("event_ts").type),
    )
    ct = Table.create(f"{root}/clips", schema=clips.schema)
    ct.append(clips.slice(0, 2))        # epoch 0: idle + busy
    ct.append(clips.slice(2, 1))        # epoch 1: busy only
    c = ReplicateConfig(num_partitions=2, session_gap_ms=5_000,
                        actor_num_cpus=0.25, early_fire=True,
                        hot_key_threshold=0.0)
    ReplicatePipeline(f"{root}/clips", f"{root}/out", c).run(max_epochs=2)

    live = read_sessions_live(f"{root}/out")
    prov = live[live["provisional"]].set_index("clip_id")
    assert sorted(prov.index) == ["busy", "idle"], live
    assert prov.loc["idle", "n_clips"] == 1
    assert prov.loc["busy", "n_clips"] == 2

    # drain: both sessions close, only finals remain
    ReplicatePipeline(f"{root}/clips", f"{root}/out", c).run()
    live2 = read_sessions_live(f"{root}/out")
    assert not live2["provisional"].any()
    assert sorted(live2["clip_id"]) == ["busy", "idle"]
