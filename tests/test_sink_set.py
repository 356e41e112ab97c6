"""The config decides which sink tables exist: ``sink_names(cfg)`` lists
them, the pipeline creates, GCs and commits only those, a state host
refuses an output it has no sink for, and a resume that switches a
feature on fast-forwards its sink to the main sink's epoch."""

import os

import pandas as pd
import pytest

import tests.test_replicate as tr
from hydra_ray.pipelines.replicate import ReplicatePipeline, sink_names
from hydra_ray.state.store import WATERMARK_MAX, PartitionState, StateHost
from hydra_ray.synth import synth_clips_table
from hydra_ray.table import Table
from tests.test_manifest_contention import _inject_before_first_put, _tbl
from tests.test_storagefs import _classify_for

# the bench headline: tumbling windows and sessions, no sliding windows
HEADLINE = dict(sliding_size_ms=0, sliding_slide_ms=0)
ALWAYS = ("replicated", "payload", "dlq", "views")


def test_sink_names_follow_the_config():
    assert sink_names(tr.cfg(**HEADLINE)) == (
        "replicated", "payload", "windows", "sessions", "dlq", "views")
    assert set(sink_names(tr.cfg(window_size_ms=0, session_gap_ms=0,
                                 **HEADLINE))) == set(ALWAYS)
    every = sink_names(tr.cfg(early_fire=True, changelog=True,
                              funnel_steps=("clip", "update")))
    assert len(every) == len(set(every)) == 12
    assert every[0] == ReplicatePipeline.MAIN


def test_bad_config_raises_before_any_storage(tmp_path):
    out = tmp_path / "out"
    for bad in (dict(neardup=True, neardup_bands=4, neardup_max_hamming=4),
                dict(neardup=True, neardup_signature="minhash",
                     neardup_bands=4, neardup_min_band_matches=5),
                dict(keep_checkpoints=0)):
        with pytest.raises(ValueError):
            ReplicatePipeline(str(tmp_path / "clips"), str(out),
                              tr.cfg(**bad))
    assert not out.exists()


def test_host_close_names_a_missing_sink(tmp_path):
    """A host given fewer sink roots than its config emits fails the
    close and names the sink, rather than dropping the rows."""
    c = tr.cfg()
    sinks = {s: Table.create(str(tmp_path / s)).uri
             for s in sink_names(c) if s != "sliding"}
    ck = str(tmp_path / "ck")
    host = StateHost([("p", 0)], c, sinks, ck, ck)
    light = synth_clips_table(8, hot_fraction=0.0).drop_columns(["bytes"])
    host.ingest([(("p", 0), "clips", light)], -(1 << 62), 0)
    with pytest.raises(RuntimeError, match="'sliding'"):
        host.close([("p", 0)], 0, WATERMARK_MAX)


@pytest.mark.parametrize("early_fire", [False, True])
def test_only_enabled_sinks_are_written(tmp_path, ray_session, meter_tok,
                                        early_fire):
    """Every enabled sink costs one manifest PUT at create and one per
    committed epoch; a disabled sink costs nothing and leaves no object."""
    from hydra_ray.fs import meter_counts, metered_root

    root = str(tmp_path)
    tr.build_sources(root)
    out = tmp_path / "out"
    tok = meter_tok("sinkset")
    c = tr.cfg(early_fire=early_fire, **HEADLINE)
    names = sink_names(c)
    m = ReplicatePipeline(f"{root}/clips", metered_root(str(out), token=tok),
                          c, f"{root}/updates").run()
    counts = meter_counts(tok, _classify_for(str(out)))
    assert counts[("put", "manifest")] == len(names) * (m["epochs"] + 1)
    assert set(os.listdir(out)) == set(names) | {"_checkpoints", "_lineage"}
    extra = set(names) - set(sink_names(tr.cfg(**HEADLINE)))
    assert extra == ({"windows_live", "sessions_live"} if early_fire
                     else set())


def test_resume_with_a_feature_toggled(tmp_path, ray_session):
    """Changelog off for epochs 0-1, on for 2, off for 3, on for the rest
    of the stream: no epoch gap, the same replicated/windows output as a
    clean run, and the re-enabled epochs' changelog rows equal a run that
    had it on throughout."""
    root = str(tmp_path)
    tr.build_sources(root)

    def run(out, changelog, max_epochs=None):
        return ReplicatePipeline(
            f"{root}/clips", f"{root}/{out}", tr.cfg(changelog=changelog),
            f"{root}/updates").run(max_epochs=max_epochs)

    run("clean", True)
    run("toggled", False, 2)
    run("toggled", True, 1)
    run("toggled", False, 1)
    run("toggled", True)
    assert (tr._content_signature(f"{root}/toggled")
            == tr._content_signature(f"{root}/clean"))

    def changelog(out):
        df = Table(f"{root}/{out}/changelog").to_arrow().to_pandas()
        df = df.drop(columns=["partition"])
        return df.sort_values(list(df.columns), kind="mergesort",
                              ignore_index=True)

    got, ref = changelog("toggled"), changelog("clean")
    assert set(got["epoch"]) <= {2} | set(range(4, ref["epoch"].max() + 1))
    ref = ref[ref["epoch"].isin([2, *range(4, ref["epoch"].max() + 1)])]
    assert len(ref) > 0
    pd.testing.assert_frame_equal(got, ref.reset_index(drop=True))
    assert (Table(f"{root}/toggled/changelog").committed_epoch("replicate")
            == Table(f"{root}/toggled/replicated").committed_epoch(
                "replicate"))


def test_close_emits_only_enabled_outputs():
    """close_epoch's sink outputs are exactly the config's sink_names
    (the early-fire touched sets and hot partials aside)."""
    light = synth_clips_table(64, hot_fraction=0.0).drop_columns(["bytes"])
    for c in (tr.cfg(**HEADLINE), tr.cfg(early_fire=True, changelog=True,
                                         funnel_steps=("clip", "update"))):
        st = PartitionState(0, c)
        st.ingest_clips(light, -(1 << 62))
        out = st.close_epoch(0, WATERMARK_MAX)
        sinks = {k for k in out
                 if not k.startswith(("hot_", "early_touched"))}
        assert sinks <= set(sink_names(c)) - {"payload"}
        assert out["windows"] is not None and out["sessions"] is not None


def test_fast_forward_never_moves_an_epoch_back(tmp_path):
    """Two drivers resume one out root whose sink lags the main sink at
    epoch 3.  Driver A fast-forwards the sink and commits epoch 4 to it
    between driver B's manifest read and its PUT: B's fast-forward must
    no-op, so B's own commit of epoch 4 is a replay, not a second copy."""
    root = f"strict://{tmp_path}/changelog"
    Table.create(root)
    a, b = Table(root), Table(root)
    assert a.commit_epoch("replicate", 0, [a.stage_fragment(_tbl(2), 0, 0)])

    def driver_a():
        assert a.advance_epoch("replicate", 3)
        assert a.commit_epoch("replicate", 4,
                              [a.stage_fragment(_tbl(3, 40), 4, 0)])

    _inject_before_first_put(b, driver_a)
    assert b.advance_epoch("replicate", 3) is False
    assert b.committed_epoch("replicate") == 4
    assert not b.commit_epoch("replicate", 4,
                              [b.stage_fragment(_tbl(3, 40), 4, 0)])
    t = Table(root)
    assert t.count_rows() == 5 and t.gc_staged() == 0
    # the fast-forward is a no-op (no manifest) once the sink caught up
    v = t.latest_version()
    assert t.advance_epoch("replicate", 4) is False
    assert t.latest_version() == v


def test_resume_gcs_a_disabled_sink(tmp_path, ray_session):
    """A resume that switches a feature off still deletes the orphan
    fragments a crashed run left in that feature's sink, and keeps its
    committed rows."""
    root = str(tmp_path)
    tr.build_sources(root)
    out = f"{root}/out"

    def run(changelog):
        ReplicatePipeline(f"{root}/clips", out, tr.cfg(changelog=changelog),
                          f"{root}/updates").run(max_epochs=2)

    run(True)
    data = os.path.join(out, "changelog", "data")
    kept = set(os.listdir(data))
    with open(os.path.join(data, "f-orphan.parquet"), "wb") as f:
        f.write(b"staged by a crashed run")
    run(False)
    assert set(os.listdir(data)) == kept
