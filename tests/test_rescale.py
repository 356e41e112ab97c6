"""Offline state rescale (savepoint-style N→M repartition): a run
interrupted mid-stream, rescaled, and resumed at the new partition count
must produce byte-identical sink outputs to an uninterrupted run —
streaming semantics are routing-independent (CLAUDE.md invariant).

The fixture is strongly skewed with salting ON so the rescale merge
rules are all exercised: additive window partials (a hot key's state
lives on several salt partitions), session gap-merge, update-buffer
dedup of fan-out replicas, view last-write-wins."""

import pandas as pd
import pytest

from hydra_ray.pipelines.replicate import ReplicateConfig, ReplicatePipeline
from hydra_ray.state.rescale import rescale_state
from hydra_ray.synth import synth_clips_table, synth_updates_table
from hydra_ray.table import Table

N_CLIPS = 600
VERSIONS = 4


def build_sources(root):
    clips = synth_clips_table(N_CLIPS, hot_fraction=0.9)
    ct = Table.create(f"{root}/clips", schema=clips.schema)
    step = N_CLIPS // VERSIONS
    for v in range(VERSIONS):
        ct.append(clips.slice(v * step, step))
    upd = synth_updates_table(N_CLIPS)
    ut = Table.create(f"{root}/updates", schema=upd.schema)
    ustep = -(-upd.num_rows // VERSIONS)
    for v in range(VERSIONS):
        ut.append(upd.slice(v * ustep, min(ustep, upd.num_rows - v * ustep)))


def cfg(p=4):
    return ReplicateConfig(
        num_partitions=p,
        join_window_ms=60_000,
        allowed_lateness_ms=30_000,
        window_size_ms=10_000,
        session_gap_ms=5_000,
        sliding_size_ms=20_000,
        sliding_slide_ms=10_000,
        actor_num_cpus=0.25,
        hot_key_threshold=0.01,
        n_salts=4,
    )


SINK_KEYS = {
    "replicated": ["seq"],
    "windows": ["clip_id", "window_start"],
    "sliding": ["clip_id", "window_start"],
    "sessions": ["clip_id", "session_start"],
    "views": ["clip_id"],
    "dlq": ["source", "reason", "seq"],
}


def _sink_frames(out_root) -> dict[str, pd.DataFrame]:
    frames = {}
    for sink, keys in SINK_KEYS.items():
        t = Table(f"{out_root}/{sink}")
        df = t.to_arrow().to_pandas()
        drop = [c for c in ("partition",) if c in df.columns]
        if sink == "dlq" and "seq" not in df.columns:
            keys = [k for k in keys if k != "seq"]
        frames[sink] = (
            df.drop(columns=drop)
            .sort_values(keys, kind="mergesort")
            .reset_index(drop=True)
        )
    return frames


def _run(root, out, p, max_epochs=None):
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/{out}", cfg(p),
                             f"{root}/updates")
    return pipe.run(max_epochs=max_epochs)


@pytest.fixture(scope="module")
def sources(tmp_path_factory, ray_session):
    root = str(tmp_path_factory.mktemp("rescale"))
    build_sources(root)
    _run(root, "base", 4)  # uninterrupted baseline at P=4
    return root


@pytest.mark.parametrize("new_p", [6, 2])
def test_rescale_midrun_outputs_identical(sources, new_p):
    root = sources
    out = f"grow{new_p}"
    _run(root, out, 4, max_epochs=2)  # mid-stream stop: open state exists
    info = rescale_state(f"{root}/{out}", new_p, cfg(4))
    assert info["old"] == 4 and info["new"] == new_p and info["epoch"] == 1
    _run(root, out, new_p)  # resume at the new partition count

    base = _sink_frames(f"{root}/base")
    got = _sink_frames(f"{root}/{out}")
    for sink in SINK_KEYS:
        b, g = base[sink], got[sink]
        assert len(b) == len(g), (sink, len(b), len(g))
        cols = [c for c in b.columns if c in g.columns]
        pd.testing.assert_frame_equal(g[cols], b[cols], check_dtype=False)
    # the new layout is actually in use (emission spread itself is not
    # semantic: the rescale merge concentrates the previously-salted hot
    # backlog at each key's new home, so pre-rescale buffered rows emit
    # from one partition; NEW ingests spread — covered by test_salting)
    repl = Table(f"{root}/{out}/replicated").to_arrow().to_pandas()
    parts = set(repl[repl["epoch"] >= 2]["partition"])
    assert len(parts) > 1
    if new_p > 4:
        assert max(parts) >= 4  # grown partitions receive work
    # committed state records the new layout
    state = Table(f"{root}/{out}/replicated").pipeline_state("replicate")
    assert int(state["num_partitions"]) == new_p


def test_resume_with_wrong_partition_count_refuses(sources):
    root = sources
    _run(root, "guard", 4, max_epochs=1)
    with pytest.raises(ValueError, match="rescale"):
        _run(root, "guard", 8)


def test_rescale_same_count_is_noop(sources):
    root = sources
    _run(root, "noop", 4, max_epochs=1)
    info = rescale_state(f"{root}/noop", 4, cfg(4))
    assert info.get("noop") is True


def test_rescale_rollback_is_pure_metadata(sources):
    """The old layout is never touched by a rescale (layout generations,
    no renames): rolling back = pointing ckpt_layout / num_partitions
    back at the previous generation via update_pipeline_state, after
    which a resume at the OLD count produces outputs identical to the
    uninterrupted baseline."""
    import os

    root = sources
    out = f"{root}/restore"
    _run(root, "restore", 4, max_epochs=2)
    info = rescale_state(out, 6, cfg(4))
    assert info["layout"] and os.path.isdir(
        os.path.join(out, "_checkpoints", info["layout"]))
    # old layout's partition dirs are still fully present
    ck = f"{out}/_checkpoints"
    old = [d for d in sorted(os.listdir(ck))
           if d.startswith("p") and d[1:].isdigit()]
    assert len(old) == 4

    # rollback: metadata only, no file moves
    from hydra_ray.table import Table
    Table(f"{out}/replicated").update_pipeline_state(
        "replicate",
        {"num_partitions": 4, "ckpt_layout": info["previous_layout"]})

    _run(root, "restore", 4)  # resume at the old count
    base = _sink_frames(f"{root}/base")
    got = _sink_frames(out)
    for sink in SINK_KEYS:
        b, g = base[sink], got[sink]
        assert len(b) == len(g), (sink, len(b), len(g))
        cols = [c for c in b.columns if c in g.columns]
        pd.testing.assert_frame_equal(g[cols], b[cols], check_dtype=False)


def test_inconsistent_layout_refused(sources):
    """A p*-dir count that disagrees with the committed num_partitions
    refuses to restore silently."""
    import shutil

    from hydra_ray.table import Table

    root = sources
    out = f"{root}/halfswap"
    _run(root, "halfswap", 4, max_epochs=2)
    main = Table(f"{out}/replicated")

    # damaged layout: a partition dir missing vs the recorded count
    shutil.rmtree(f"{out}/_checkpoints/p0003")
    with pytest.raises(RuntimeError, match="inconsistent"):
        _run(root, "halfswap", 4)
    main.update_pipeline_state("replicate", {"num_partitions": 6})
    with pytest.raises(RuntimeError, match="inconsistent"):
        _run(root, "halfswap", 6)


def test_rescale_op_complexity(tmp_path, ray_session, meter_tok):
    """rescale_state's storage ops depend on the partition counts and
    the epoch count, never on the data volume: an 8→4 rescale at n and
    ~2n rows, after the same epochs, issues identical op counts by
    class (manifest / data / other)."""
    from hydra_ray.fs import meter_counts, metered_root
    from tests.test_storagefs import _classify_for

    deltas = []
    for n_clips in (N_CLIPS, 2 * N_CLIPS):
        base = tmp_path / f"n{n_clips}"
        clips = synth_clips_table(n_clips, hot_fraction=0.9)
        ct = Table.create(f"{base}/clips", schema=clips.schema)
        step = n_clips // VERSIONS
        for v in range(VERSIONS):
            ct.append(clips.slice(v * step, step))
        tok = meter_tok(f"rescale{n_clips}")
        out = metered_root(str(base / "out"), token=tok)
        ReplicatePipeline(f"{base}/clips", out, cfg(8)).run(max_epochs=2)
        classify = _classify_for(str(base / "out"))
        before = meter_counts(tok, classify)
        info = rescale_state(out, 4, cfg(8))
        assert info["old"] == 8 and info["new"] == 4 and info["epoch"] == 1
        after = meter_counts(tok, classify)
        deltas.append({k: n - before.get(k, 0) for k, n in after.items()
                       if n != before.get(k, 0)})
    assert deltas[0] == deltas[1], deltas
    assert deltas[0][("put", "manifest")] == 1, deltas[0]


def test_restore_reads_a_checkpoint_without_clip_buffer(tmp_path):
    """Checkpoints saved before every save wrote its clip-buffer parquet
    have none when the buffer was empty; they restore with an empty
    buffer (the parquet precedes the pickle that makes a checkpoint
    visible, so a missing one was empty)."""
    from hydra_ray.state.store import WATERMARK_MAX, PartitionState

    c = cfg()
    st = PartitionState(0, c)
    st.ingest_clips(synth_clips_table(64, hot_fraction=0.0)
                    .drop_columns(["bytes"]), -(1 << 62))
    st.close_epoch(0, WATERMARK_MAX)
    assert not st.clip_buf
    full, delta = str(tmp_path / "e0"), str(tmp_path / "e1")
    st.save(full, WATERMARK_MAX)
    st.save(delta, WATERMARK_MAX, full=False)
    (tmp_path / "e0" / "clip_buf.parquet").unlink()
    (tmp_path / "e1" / "clip_delta.parquet").unlink()
    back = PartitionState(0, c)
    back.restore_chain(full, [delta])
    assert back.clip_buf == []
    assert back.view == st.view and back.metrics == st.metrics
