"""Offline queryable state: inspect a streaming pipeline's committed
checkpoints WITHOUT running (or disturbing) the pipeline.

The ops/debug surface Flink calls "queryable state": a stopped (or
live) pipeline's checkpoint tree fully determines its per-partition
state, so ``read_state(ckpt_root, cfg)`` restores each partition's
full+delta chain into a plain :class:`~hydra_ray.state.store.
PartitionState` on the driver and renders the internal structures as
Arrow tables — open windows, open sessions, the compacted view, and
buffer occupancy.  Read-only: nothing under ``ckpt_root`` is written,
and a live pipeline never sees the reader (checkpoint dirs are
immutable once written; the chain search only follows committed
files).

``cfg`` must be the pipeline's ``ReplicateConfig``: the config DEFINES
the positional cell layout of window state, exactly as it does for the
live actors.

Reference analogue: the admin/status surfaces over consumer-group and
topic state (SURVEY §2.4) — state is inspectable out-of-band.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa

from ..fs import fisdir, flist
from .dedup_index import DedupIndexState
from .neardup_index import NearDupIndexState
from .store import PartitionState, find_restore_chain, scan_checkpoints

__all__ = ["latest_epoch", "read_state"]


def _partitions(ckpt_root: str) -> list[int]:
    if not fisdir(ckpt_root):
        return []
    out = []
    for name in flist(ckpt_root):
        m = re.fullmatch(r"p(\d{4})", name)
        if m:
            out.append(int(m.group(1)))
    return sorted(out)


def _max_restorable(base: str) -> int | None:
    """Largest epoch with a complete full+delta chain under one
    partition dir."""
    scan = scan_checkpoints(base)
    for e in sorted(scan, reverse=True):
        if find_restore_chain(base, e, scan) is not None:
            return e
    return None


def latest_epoch(ckpt_root: str, layout: str = "") -> int | None:
    """Largest epoch restorable on EVERY partition (the pipeline's
    consistent-cut epoch), or None when any partition has no chain.
    ``layout`` is the committed ``ckpt_layout`` generation (a rescale
    moves partition dirs under ``ckpt_root/<layout>``; "" = bare root)."""
    base_root = os.path.join(ckpt_root, layout) if layout else ckpt_root
    parts = _partitions(base_root)
    if not parts:
        return None
    maxes = []
    for p in parts:
        m = _max_restorable(os.path.join(base_root, f"p{p:04d}"))
        if m is None:
            return None
        maxes.append(m)
    return min(maxes)


def read_state(ckpt_root: str, cfg, epoch: int | None = None,
               layout: str = "") -> dict[str, pa.Table]:
    """Restore every partition's committed state at ``epoch`` (default:
    the newest epoch restorable on ALL partitions) and return it as
    Arrow tables:

    - ``windows``   — open tumbling-window cells (partition, clip_id,
      window_start, cnt, sum_dur_ms)
    - ``sliding``   — same for sliding windows
    - ``sessions``  — open session intervals (partition, clip_id,
      t_start, t_end, cnt, sum_dur_ms)
    - ``view``      — the compacted view (home-partition rows only)
    - ``buffers``   — per-partition occupancy (pending join clips,
      buffered update rows)
    """
    # partition dirs live under the active layout generation; the
    # dedup/near-dup index tiers stay at the bare checkpoint root
    base_root = os.path.join(ckpt_root, layout) if layout else ckpt_root
    if epoch is None:
        epoch = latest_epoch(ckpt_root, layout)
        if epoch is None:
            raise ValueError(f"no restorable checkpoints under {base_root}")

    sk = cfg.window_sample_k
    dk = cfg.window_distinct_k
    mk = cfg.window_mode_k
    tk = cfg.window_top_k

    def _sketches(cell):
        """Open-cell sketch summary columns (positional layout — see
        store._fold_window_cell): (p50, distinct_est, mode_n, top1)."""
        from .store import _kmv_estimate, _mode_of, _sample_quantiles

        i = 2
        p50 = None
        if sk and len(cell) > i + 1:
            p50 = _sample_quantiles(cell[i + 1])[0]
            i += 2
        dist = None
        if dk and len(cell) > i:
            dist = _kmv_estimate(cell[i], dk, n_cap=int(cell[0]))
            i += 1
        mode_n = None
        if mk and len(cell) > i + 1:
            mode_n = _mode_of(cell[i], cell[i + 1])[1]
            i += 2
        top1 = None
        if tk and len(cell) > i + 1 and len(cell[i]):
            top1 = int(cell[i][0])
        return p50, dist, mode_n, top1

    win_rows, swin_rows, sess_rows, views, buf_rows = [], [], [], [], []
    for p in _partitions(base_root):
        base = os.path.join(base_root, f"p{p:04d}")
        chain = find_restore_chain(base, epoch)
        if chain is None:
            raise ValueError(
                f"partition {p} has no restorable chain at epoch {epoch}")
        st = PartitionState(p, cfg)
        st.restore_chain(*chain)

        for (key, ws), cell in st.win.items():
            win_rows.append((p, key, ws, int(cell[0]), int(cell[1]),
                             *_sketches(cell)))
        for (key, ws), cell in st.swin.items():
            swin_rows.append((p, key, ws, int(cell[0]), int(cell[1]),
                              *_sketches(cell)))
        for key, runs in st.sessions.items():
            for iv in runs:
                sess_rows.append((p, key, int(iv[0]), int(iv[1]),
                                  int(iv[2]), int(iv[3])))
        views.append(st.view_snapshot())
        n_clips = sum(t.num_rows for t in st.clip_buf)
        n_upd = sum(len(c[0]) for c in st.upd_chunks)
        buf_rows.append((p, n_clips, n_upd))

    def _wtable(rows):
        cols = list(zip(*rows)) if rows else [[]] * 9
        out_cols = {
            "partition": pa.array(cols[0], pa.int32()),
            "clip_id": pa.array(cols[1], pa.string()),
            "window_start": pa.array(cols[2], pa.int64()),
            "cnt": pa.array(cols[3], pa.int64()),
            "sum_dur_ms": pa.array(cols[4], pa.int64()),
        }
        # sketch summaries appear only when their flag is on (schema
        # stability: a flag-off tree reads exactly as before)
        for on, name, idx in ((sk, "p50_dur_ms", 5),
                              (dk, "distinct_content", 6),
                              (mk, "mode_n", 7),
                              (tk, "top1_dur_ms", 8)):
            if on:
                out_cols[name] = pa.array(cols[idx], pa.int64())
        return pa.table(out_cols)

    sc = list(zip(*sess_rows)) if sess_rows else [[]] * 6
    bc = list(zip(*buf_rows)) if buf_rows else [[], [], []]
    view = (pa.concat_tables(views) if views
            else pa.table({"clip_id": pa.array([], pa.string())}))
    out = {
        "windows": _wtable(win_rows),
        "sliding": _wtable(swin_rows),
        "sessions": pa.table({
            "partition": pa.array(sc[0], pa.int32()),
            "clip_id": pa.array(sc[1], pa.string()),
            "t_start": pa.array(sc[2], pa.int64()),
            "t_end": pa.array(sc[3], pa.int64()),
            "cnt": pa.array(sc[4], pa.int64()),
            "sum_dur_ms": pa.array(sc[5], pa.int64()),
        }),
        "view": view,
        "buffers": pa.table({
            "partition": pa.array(bc[0], pa.int32()),
            "pending_clips": pa.array(bc[1], pa.int64()),
            "buffered_updates": pa.array(bc[2], pa.int64()),
        }),
    }
    for key, prefix in (("dedup", "d"), ("neardup", "n")):
        idx = _index_summary(ckpt_root, prefix)
        if idx is not None:
            out[key] = idx
    return out


def _index_summary(ckpt_root: str, prefix: str) -> pa.Table | None:
    """Per-shard occupancy of a dedup ('d') / neardup ('n') index tier
    at each shard's newest restorable epoch (index shards checkpoint on
    their own epochs), each shard restored by its own index class."""
    shards = []
    if fisdir(ckpt_root):
        for name in flist(ckpt_root):
            if re.fullmatch(prefix + r"\d{4}", name):
                shards.append(int(name[len(prefix):]))
    rows = []
    for s in shards:
        base = os.path.join(ckpt_root, f"{prefix}{s:04d}")
        e = _max_restorable(base)
        if e is None:
            continue
        st = (DedupIndexState if prefix == "d" else NearDupIndexState)(s)
        st.restore_chain(*find_restore_chain(base, e))
        n = st.n_hashes() if prefix == "d" else st.n_entries()
        # every run's last array is its entries' first-seen ts
        ts = np.concatenate([r[-1] for r in st.runs] or [np.empty(0, int)])
        rows.append((s, e, n, int(ts.min()) if len(ts) else -1,
                     int(ts.max()) if len(ts) else -1))
    if not rows:
        return None
    c = list(zip(*rows))
    return pa.table({
        "shard": pa.array(c[0], pa.int32()),
        "epoch": pa.array(c[1], pa.int64()),
        "entries": pa.array(c[2], pa.int64()),
        "ts_min": pa.array(c[3], pa.int64()),
        "ts_max": pa.array(c[4], pa.int64()),
    })
