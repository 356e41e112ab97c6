"""The dedup tiers' content pass: one task per source row window feeds
both the exact tier (``state/dedup_index.py``) and the near-dup tier
(``state/neardup_index.py``).

Each task reads the union of the columns the enabled tiers need from
one fragment file, once (parquet column pruning), and for its row
window:

- hashes ``dedup_cols`` on EVERY row for the exact tier, undecodable
  rows included (dedup is arrival-level, see ``dedup_index``);
- for the near-dup tier, decodes and fingerprints the audio
  (``audio_fp``: rows that fail decode get no entry and DLQ at ingest),
  or signs the transcript (``simhash`` / ``minhash``: no decode);

then ships every shard's entries, of both kinds, in ONE ``submit``
RPC per host, which stashes them under the epoch for ``resolve``.
Entries are per row, so how a fragment is cut into windows never
changes what the shards receive.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.windows import ts_to_ms
from .dedup_index import content_hash_of
from .neardup_index import band_entries, shard_of

__all__ = ["CHUNK", "pass_columns", "window_entries", "content_pass_task"]

# decode+fingerprint row chunk: the kernels run over flat sample
# buffers, and on lazy-memory hosts one whole-fragment pass faults tens
# of MB of fresh pages (measured 58 s cold vs 4.6 s chunked for 261
# clips) — small chunks let every iteration reuse the same warm pages.
# Chunking never changes fingerprints (tested: the fingerprint pin).
CHUNK = 32

_SIGNATURE_COLS = {None: (), "audio_fp": ("bytes", "codec", "sr_hz"),
                   "simhash": ("transcript",), "minhash": ("transcript",)}


def pass_columns(dedup_cols=(), signature: str | None = None) -> list:
    """The one column set a pass reads: what both enabled tiers need."""
    return list(dict.fromkeys(
        ["seq", "event_ts", *dedup_cols, *_SIGNATURE_COLS[signature]]))


def _audio_fps(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """→ (uint64 fingerprints of the decodable rows, decodable mask)."""
    # imported at call time: a wrapper installed on the module attribute
    # after this module loads (perfbench's tracer counts decoded rows
    # that way) still sees the call
    from ..audio import decode_batch
    from ..stages.audio_features import audio_fingerprint

    fps, oks = [], []
    for lo in range(0, t.num_rows, CHUNK):
        c = t.slice(lo, CHUNK)
        pcm, err = decode_batch(c["bytes"], c["codec"], c["sr_hz"])
        ok = np.asarray(pc.is_null(err))
        oks.append(ok)
        if not ok.any():
            continue
        if not ok.all():
            # only a chunk with a failed clip pays the PCM copy
            pcm = pcm.filter(pa.array(ok))
        afp = audio_fingerprint(pa.table({"pcm": pcm}), "pcm")["afp"]
        fps.append(afp.to_numpy().astype(np.int64).view(np.uint64))
    return (np.concatenate(fps) if fps else np.empty(0, np.uint64),
            np.concatenate(oks))


def _text_fps(t: pa.Table, signature: str, n_bands: int) -> np.ndarray:
    """Transcript signatures, one per row.  ``simhash``: bit-Hamming
    fingerprint (the int64→uint64 view flips only the sign bit, which
    preserves distances).  ``minhash``: banded minhash lanes
    (``minhash_band_signature``), probed under the lane-distance metric
    — a fuzzier token-level match."""
    from ..stages.neardup import SimHasher, minhash_band_signature

    if signature == "simhash":
        out = SimHasher(text_col="transcript", id_col="seq")(t)
        return out["simhash"].to_numpy().view(np.uint64)
    return minhash_band_signature(t["transcript"].to_pylist(),
                                  n_bands=n_bands)


def window_entries(t: pa.Table, n_dedup: int = 0, n_near: int = 0,
                   dedup_cols=(), n_bands: int = 4,
                   signature: str = "audio_fp") -> list:
    """One row window's index entries ``[(slot, arrays, ts), …]``:
    ``(("d", i), (hashes, seqs), ts)`` for the ``n_dedup`` exact shards
    (0: tier off) and ``(("n", i), (band keys, fps, seqs), ts)`` for the
    ``n_near`` near-dup shards (0: tier off) — the items
    ``StateHost.submit`` stashes.  ``t`` holds ``pass_columns``."""
    out: list = []
    if t.num_rows == 0:
        return out
    seqs = t["seq"].to_numpy()
    ts = ts_to_ms(t["event_ts"])
    if n_dedup:
        h = content_hash_of(t, dedup_cols)
        sh = (h % np.uint64(n_dedup)).astype(np.int64)
        for d in np.unique(sh):
            m = sh == d
            out.append((("d", int(d)), (h[m], seqs[m]), ts[m]))
    if n_near:
        if signature == "audio_fp":
            fps, ok = _audio_fps(t)
            seqs, ts = seqs[ok], ts[ok]
        else:
            fps = _text_fps(t, signature, n_bands)
        keys = band_entries(fps, n_bands)
        sh = shard_of(keys, n_near)
        efps = np.repeat(fps, n_bands)
        eseqs = np.repeat(seqs, n_bands)
        ets = np.repeat(ts, n_bands)
        for d in np.unique(sh):
            m = sh == d
            out.append((("n", int(d)), (keys[m], efps[m], eseqs[m]), ets[m]))
    return out


_TASK = None


def content_pass_task():
    """Lazy raw task: read ``pass_columns`` of one fragment file, keep
    rows ``[row_lo, row_lo + row_cnt)``, and ship their
    ``window_entries`` to the hosts of ``dedup_shards`` /
    ``neardup_shards`` (one ``submit`` per host) → rows read.
    ``max_retries=0``: the epoch-level retry (driver resume, which
    clears the hosts' stashes) owns failures."""
    global _TASK
    if _TASK is None:
        import ray

        @ray.remote(max_retries=0)
        def content_pass(path, dedup_shards, neardup_shards, epoch,
                         dedup_cols, n_bands, signature, row_lo, row_cnt):
            import pyarrow.parquet as pq

            from .store import call_hosts

            hosts = {"d": dedup_shards, "n": neardup_shards}
            cols = pass_columns(dedup_cols if dedup_shards else (),
                                signature if neardup_shards else None)
            t = pq.read_table(path, columns=cols).slice(row_lo, row_cnt)
            call_hosts("submit", [
                (hosts[slot[0]][slot[1]], (slot, arrays, ts))
                for slot, arrays, ts in window_entries(
                    t, len(dedup_shards), len(neardup_shards),
                    dedup_cols, n_bands, signature)], epoch)
            return t.num_rows

        _TASK = content_pass
    return _TASK
