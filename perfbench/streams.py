"""Seeded inputs and the outputs a correct run must commit for them.

The input is the bench.py headline stream (``hydra_ray.synth``): clips with
10 % hot-key reuse and seeded out-of-order event times, plus a transcript
update stream with tombstones, early and late updates.  The seed selects
the hot keys, the out-of-order blocks and the update stream; the payloads
repeat with a short period, which is what makes the stream dup-heavy for
the dedup tiers.

The reference is computed here from the input alone, independently of the
pipeline: the watermark each epoch must close at, which clips the dedup
tiers keep, and the rows of the ``replicated``, ``windows`` and
``sessions`` sinks (join, tumbling-window and session semantics).
"""

from __future__ import annotations

import os
import shutil
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .workloads import (
    FRAGMENT_ROWS,
    JOIN_WINDOW_MS,
    LATENESS_MS,
    NEARDUP_MAX_HAMMING,
    SESSION_GAP_MS,
    WINDOW_MS,
)

WATERMARK_MAX = 1 << 62


def build_inputs(root: str, seed: int, n_clips: int, versions: int) -> dict:
    """Write the clip and update source tables (``versions`` versions
    each) under ``root``; return the generated rows, tagged with their
    source version, for the reference."""
    from hydra_ray.synth import CLIP_SCHEMA, synth_clips_batch, synth_updates_table
    from hydra_ray.table import Table

    clips = Table.create(os.path.join(root, "clips"), schema=CLIP_SCHEMA)
    per = n_clips // versions
    parts = []
    for v in range(versions):
        stage = os.path.join(root, f"_stage{v}")
        os.makedirs(stage)
        for j, lo in enumerate(range(v * per, (v + 1) * per, FRAGMENT_ROWS)):
            idx = np.arange(lo, min(lo + FRAGMENT_ROWS, (v + 1) * per))
            t = synth_clips_batch(idx, n_clips, seed=seed)
            pq.write_table(t, os.path.join(stage, f"{j:04d}.parquet"))
            parts.append(t.append_column(
                "version", pa.array(np.full(len(idx), v), pa.int64())))
        clips.register_parquet_dir(stage)
        shutil.rmtree(stage)
    upd = synth_updates_table(n_clips, seed=seed)
    updates = Table.create(os.path.join(root, "updates"), schema=upd.schema)
    step = -(-upd.num_rows // versions)
    uver = np.minimum(np.arange(upd.num_rows) // step, versions - 1)
    for v in range(versions):
        updates.append(upd.filter(pa.array(uver == v)))
    return {
        "clips": pa.concat_tables(parts),
        "updates": upd.append_column("version", pa.array(uver, pa.int64())),
        "versions": versions,
    }


def _ms(col) -> np.ndarray:
    return col.cast(pa.int64()).to_numpy()


def _popcount64(x: np.ndarray) -> np.ndarray:
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)


def dedup_kept(clips: pa.Table) -> np.ndarray:
    """Mask of clips both dedup tiers keep: a clip drops when its payload
    bytes equal an earlier clip's (exact tier) or its audio fingerprint is
    within NEARDUP_MAX_HAMMING bits of an earlier kept clip's (near-dup
    tier, greedy in seq order over the whole history)."""
    from hydra_ray.audio import decode_batch
    from hydra_ray.stages.audio_features import audio_fingerprint

    seq = clips["seq"].to_numpy()
    order = np.argsort(seq, kind="stable")
    payload = clips["bytes"].to_pylist()
    first: dict[bytes, int] = {}
    for i in order:
        first.setdefault(payload[i], i)
    distinct = np.array(sorted(first.values()), dtype=np.int64)
    sub = clips.take(pa.array(distinct))
    pcm, err = decode_batch(
        sub["bytes"].combine_chunks(), sub["codec"], sub["sr_hz"])
    if err.null_count != len(err):
        raise ValueError("reference decode failed on a synthesized clip")
    fp_t = audio_fingerprint(pa.table({"pcm": pcm}), "pcm", out_col="afp")
    fp_of = dict(zip(distinct.tolist(),
                     fp_t["afp"].to_numpy().astype(np.int64).view(np.uint64)))
    keep = np.zeros(len(seq), dtype=bool)
    kept_fps: list[np.uint64] = []
    for i in order:
        if first[payload[i]] != i:
            continue  # exact copy of an earlier clip
        fp = fp_of[i]
        if kept_fps:
            dist = _popcount64(np.array(kept_fps, np.uint64) ^ fp)
            if (dist <= NEARDUP_MAX_HAMMING).any():
                continue
        keep[i] = True
        kept_fps.append(fp)
    return keep


def expected_lineage(clip_ms, clip_ver, kept, upd_ms, upd_ver, versions):
    """Per-epoch (wm_prev, wm_close): each source's frontier is the max
    event time routed so far, wm = min(frontiers) - lateness (monotone);
    the flush epoch closes at WATERMARK_MAX."""
    wm = -(1 << 62)
    front: dict[str, int] = {}
    out = []
    for e in range(versions):
        prev = wm
        for src, ms in (("clips", clip_ms[(clip_ver == e) & kept]),
                        ("updates", upd_ms[upd_ver == e])):
            if len(ms):
                front[src] = max(front.get(src, int(ms.max())), int(ms.max()))
        if front:
            wm = max(wm, min(front.values()) - LATENESS_MS)
        out.append({"epoch": e, "wm_prev": prev, "wm_close": wm})
    out.append({"epoch": versions, "wm_prev": wm, "wm_close": WATERMARK_MAX})
    return out


REPLICATED_COLS = ["seq", "clip_id", "sr_hz", "dur_ms", "codec", "transcript",
                   "event_ts", "deleted", "epoch"]
WINDOWS_COLS = ["clip_id", "window_start", "window_end", "n_clips",
                "sum_dur_ms"]
SESSIONS_COLS = ["clip_id", "session_start", "session_end", "n_clips",
                 "sum_dur_ms"]


def reference(inputs: dict, dedup: bool) -> dict:
    """Expected lineage and sink rows for ``inputs``."""
    clips, upd, versions = inputs["clips"], inputs["updates"], inputs["versions"]
    c_ms = _ms(clips["event_ts"])
    c_ver = clips["version"].to_numpy()
    kept = dedup_kept(clips) if dedup else np.ones(clips.num_rows, dtype=bool)
    u_ms = _ms(upd["event_ts"])
    u_ver = upd["version"].to_numpy()
    lineage = expected_lineage(c_ms, c_ver, kept, u_ms, u_ver, versions)
    wm_prev = np.array([e["wm_prev"] for e in lineage])
    wm_close = np.array([e["wm_close"] for e in lineage])

    ok = kept & (c_ms >= wm_prev[c_ver])          # late clips go to the DLQ
    u_live = u_ms >= wm_prev[u_ver]
    by_key: dict[str, list] = defaultdict(list)
    u_key = upd["clip_id"].to_pylist()
    u_txt = upd["transcript"].to_pylist()
    u_rev = upd["revision"].to_numpy()
    for j in np.flatnonzero(u_live):
        by_key[u_key[j]].append((int(u_ms[j]), int(u_rev[j]), u_txt[j],
                                 int(u_ver[j])))

    c = {k: clips[k].to_pylist() for k in
         ("seq", "clip_id", "sr_hz", "dur_ms", "codec", "transcript")}
    rows = {k: [] for k in REPLICATED_COLS}
    for i in np.flatnonzero(ok):
        ts, ce = int(c_ms[i]), int(c_ver[i])
        # emitted at the first epoch whose watermark passes the join window
        emit = next(e for e in range(ce, versions + 1)
                    if wm_close[e] > ts + JOIN_WINDOW_MS)
        best = None
        for u in by_key.get(c["clip_id"][i], ()):
            if ts <= u[0] < ts + JOIN_WINDOW_MS and u[3] <= emit:
                if best is None or u[:2] > best[:2]:
                    best = u
        for k in ("seq", "clip_id", "sr_hz", "dur_ms", "codec"):
            rows[k].append(c[k][i])
        rows["transcript"].append(c["transcript"][i] if best is None else best[2])
        rows["deleted"].append(best is not None and best[2] is None)
        rows["event_ts"].append(ts)
        rows["epoch"].append(emit)

    win: dict[tuple, list] = defaultdict(lambda: [0, 0])
    sess_in: dict[str, list] = defaultdict(list)
    for i in np.flatnonzero(ok):
        key, ts, dur = c["clip_id"][i], int(c_ms[i]), int(c["dur_ms"][i])
        cell = win[(key, ts // WINDOW_MS * WINDOW_MS)]
        cell[0] += 1
        cell[1] += dur
        sess_in[key].append((ts, dur))
    windows = [(k, ws, ws + WINDOW_MS, n, s)
               for (k, ws), (n, s) in win.items()]
    sessions = []
    for key, evs in sess_in.items():
        evs.sort()
        start, last, n, s = evs[0][0], evs[0][0], 0, 0
        for ts, dur in evs:
            if ts - last > SESSION_GAP_MS:
                sessions.append((key, start, last, n, s))
                start, n, s = ts, 0, 0
            last, n, s = ts, n + 1, s + dur
        sessions.append((key, start, last, n, s))

    return {
        "lineage": lineage,
        "kept": int(kept.sum()),
        "replicated": pa.table(rows),
        "windows": pa.table(dict(zip(WINDOWS_COLS, map(list, zip(*windows))))),
        "sessions": pa.table(dict(zip(SESSIONS_COLS, map(list, zip(*sessions))))),
    }
