"""Offline queryable state (`state/query.py read_state`)."""

import numpy as np
import pandas as pd
import pytest

import test_replicate as tr
from hydra_ray.pipelines.replicate import ReplicatePipeline
from hydra_ray.state.query import latest_epoch, read_state
from hydra_ray.table import Table


@pytest.fixture(scope="module")
def run(tmp_path_factory, ray_session):
    root = str(tmp_path_factory.mktemp("squery"))
    clips, upd = tr.build_sources(root)
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out", tr.cfg(),
                             f"{root}/updates")
    pipe.run()
    return root, clips, upd, pipe


def test_final_view_matches_emitted_view(run):
    root, clips, upd, pipe = run
    e = latest_epoch(pipe.ckpt_root)
    assert e is not None and e >= 0
    state = read_state(pipe.ckpt_root, tr.cfg())
    got = (state["view"].to_pandas()
           .sort_values("clip_id").reset_index(drop=True))
    emitted = (Table(f"{root}/out/views").to_arrow().to_pandas()
               .sort_values("clip_id").reset_index(drop=True))
    assert got["clip_id"].tolist() == emitted["clip_id"].tolist()
    assert got["revision"].tolist() == emitted["revision"].tolist()
    assert (got["transcript"].fillna("∅").tolist()
            == emitted["transcript"].fillna("∅").tolist())


def test_mid_run_state_is_inspectable(run):
    """At an interior epoch the restored state holds OPEN windows and
    sessions (the stream had not flushed); occupancy is per-partition."""
    root, clips, upd, pipe = run
    e = latest_epoch(pipe.ckpt_root)
    mid = max(0, e - 1)
    state = read_state(pipe.ckpt_root, tr.cfg(), epoch=mid)
    win = state["windows"].to_pandas()
    assert len(win) > 0
    assert (win["cnt"] >= 1).all()
    assert (win["sum_dur_ms"] >= win["cnt"]).all()  # dur ≥ 1ms each
    assert set(win["partition"]) <= set(range(tr.cfg().num_partitions))
    # window starts are aligned to the tumbling size
    assert (win["window_start"] % tr.cfg().window_size_ms == 0).all()
    buf = state["buffers"].to_pandas()
    assert len(buf) == tr.cfg().num_partitions
    sess = state["sessions"].to_pandas()
    assert (sess["t_end"] >= sess["t_start"]).all()


def test_read_state_is_read_only(run):
    import hashlib
    import os

    root, clips, upd, pipe = run

    def tree_digest(base):
        h = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(base)):
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                h.update(p.encode())
                h.update(str(os.path.getsize(p)).encode())
        return h.hexdigest()

    before = tree_digest(pipe.ckpt_root)
    read_state(pipe.ckpt_root, tr.cfg())
    assert tree_digest(pipe.ckpt_root) == before


def test_missing_root_raises():
    with pytest.raises(ValueError, match="no restorable"):
        read_state("/tmp/does-not-exist-ckpt", tr.cfg())


def test_dedup_index_summary(tmp_path, ray_session):
    """With the dedup tier on, read_state surfaces per-shard index
    occupancy; entries equal the distinct content count the tier kept."""
    root = str(tmp_path)
    clips, upd = tr.build_sources(root)
    c = tr.cfg(dedup=True, num_dedup_shards=2)
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out", c,
                             f"{root}/updates")
    metrics = pipe.run()
    state = read_state(pipe.ckpt_root, c)
    assert "dedup" in state
    ded = state["dedup"].to_pandas()
    assert set(ded["shard"]) == {0, 1}
    kept = metrics["replicated_out"]
    assert ded["entries"].sum() == kept
    assert (ded["ts_min"] >= 0).all() and (ded["ts_max"]
                                           >= ded["ts_min"]).all()


def test_read_state_exposes_window_sketches(ray_session, tmp_path):
    """With sketch flags on, the offline windows table carries the open
    cells' sketch summaries (p50 / distinct est / mode count / top-1);
    flag-off trees keep the original schema."""
    import tests.test_window_topk as tw
    from hydra_ray.pipelines.replicate import ReplicatePipeline
    from hydra_ray.state.query import read_state

    root = str(tmp_path)
    tw._build(root)
    cfg = tw._cfg(3, salted=False, window_sample_k=64,
                  window_distinct_k=64, window_mode_k=64)
    ReplicatePipeline(f"{root}/clips", f"{root}/out", cfg,
                      f"{root}/updates").run(max_epochs=2)  # open state
    st = read_state(f"{root}/out/_checkpoints", cfg)
    win = st["windows"].to_pandas()
    assert {"p50_dur_ms", "distinct_content", "mode_n",
            "top1_dur_ms"} <= set(win.columns)
    if len(win):
        assert (win["top1_dur_ms"].dropna() >= win["p50_dur_ms"].dropna()
                .reindex(win["top1_dur_ms"].dropna().index)).all()
        assert (win["mode_n"].dropna() >= 1).all()
    # flag-off: schema unchanged
    off = tw._cfg(0, salted=False)
    root2 = str(tmp_path / "off")
    tw._build(root2)
    ReplicatePipeline(f"{root2}/clips", f"{root2}/out", off,
                      f"{root2}/updates").run(max_epochs=2)
    st2 = read_state(f"{root2}/out/_checkpoints", off)
    assert set(st2["windows"].column_names) == {
        "partition", "clip_id", "window_start", "cnt", "sum_dur_ms"}
