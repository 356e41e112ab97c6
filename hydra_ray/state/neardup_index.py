"""Cross-epoch streaming NEAR-dup: a banded-fingerprint shard tier.

The exact tier (``state/dedup_index.py``) drops byte-identical re-ingests;
re-encoded / faintly-noised copies of already-ingested audio slip past it.
This tier drops a clip whose 64-bit perceptual fingerprint
(``stages/audio_features.py audio_fingerprint``) is within Hamming
distance ``max_hamming`` of ANY retained clip from any earlier epoch —
the streaming form of the batch ``audio_neardup`` operator, and the
point where the two graft axes meet (streaming replication × audio).

Index layout: each fingerprint splits into ``n_bands`` 16-bit bands
(pigeonhole: ``max_hamming < n_bands`` ⇒ a true near-pair shares at
least one exact band, so recall is 1.0 — same guarantee as
``stages/neardup.py hamming_near_pairs``).  A band entry is
``key = band << 16 | band_value``; entries shard by ``mix(key) %
num_shards`` (disjoint state, linear scale-out).  Per shard the
committed index is LSM-ish: sorted-by-key runs of ``(key: uint32,
fp: uint64)`` pairs; a lookup is two ``searchsorted`` calls per run plus
one vectorized XOR+popcount over the gathered same-key candidates.

Epoch protocol (same stash/replay discipline as the exact tier —
decisions are arrival-order AND routing independent):

1. CONTENT PASS (``state/content_pass.py``) — one raw task per source
   row window reads ``(seq, bytes, codec, sr_hz)`` (plus the exact
   tier's content cols, hashed in the same task), decodes, fingerprints
   (both vectorized), and ships band-entry slices ``(key, fp, seq)`` to
   their shards (slots of the ``store.StateHost`` actors; one ``submit``
   RPC per host), which STASH them under the epoch.  Rows that fail
   decode get no fingerprint and are never near-dup-dropped (they DLQ at
   ingest like always).
2. ``resolve(epoch)`` — each shard probes its stash entries of every
   epoch ≤ this one against the COMMITTED index only and returns
   ``(seq, fp, matched)`` per entry (stash stays put).  The driver ORs
   entry verdicts per row: any committed match ⇒ definite drop.
3. The driver then runs the INTRA-epoch pass over the surviving rows in
   global ``seq`` order (greedy: keep a row iff no already-kept row of
   this epoch within ``max_hamming``) — a pure function of the epoch's
   row set, so replay gives byte-identical decisions.  The epoch is a
   micro-batch, so this greedy is epoch-bounded, never corpus-bounded.
4. ``commit(epoch, kept_seqs)`` — each shard folds its stashed entries
   of kept rows into the committed runs and clears the stash.
5. ``checkpoint(epoch, full)`` — full snapshot / delta of new entries,
   same full+delta chain and restore rules as the exact tier.

Greedy-by-seq makes near-dup retention deterministic even though
near-duplication is not transitive: the kept set is exactly what a
single-threaded pass over the corpus in seq order would retain.
"""

from __future__ import annotations

import os
import pickle

import numpy as np

__all__ = [
    "NearDupIndexState",
    "band_entries",
    "hamming64",
    "greedy_keep",
    "neardup_metric",
    "neardup_threshold",
    "resolve_near_epoch",
]

_MAX_RUNS = 8
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized Hamming distance between aligned uint64 arrays."""
    x = (np.ascontiguousarray(a, np.uint64) ^ np.ascontiguousarray(b, np.uint64))
    return _POP8[x.view(np.uint8).reshape(-1, 8)].sum(axis=1).astype(np.int64)


def lane_distance64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Number of UNEQUAL 16-bit lanes between aligned uint64 arrays —
    the distance for banded-minhash signatures, where "k lanes equal"
    means "k bands' minhash rows agree" (``minhash_band_signature``)."""
    x = (np.ascontiguousarray(a, np.uint64) ^ np.ascontiguousarray(b, np.uint64))
    lanes = x.view(np.uint16).reshape(-1, 4)
    return (lanes != 0).sum(axis=1).astype(np.int64)


_METRICS = {"bits": hamming64, "lanes": lane_distance64}


def band_entries(fps: np.ndarray, n_bands: int) -> np.ndarray:
    """(n·n_bands,) uint32 band keys ``band << 16 | band_value`` for each
    fingerprint, row-major (entry ``i*n_bands + b`` belongs to row i)."""
    fps = np.ascontiguousarray(fps, np.uint64)
    out = np.empty((len(fps), n_bands), dtype=np.uint32)
    for b in range(n_bands):
        val = (fps >> np.uint64(16 * b)) & np.uint64(0xFFFF)
        out[:, b] = (np.uint32(b << 16)) | val.astype(np.uint32)
    return out.reshape(-1)


def shard_of(keys: np.ndarray, num_shards: int) -> np.ndarray:
    h = keys.astype(np.uint64) * _MIX
    h ^= h >> np.uint64(29)
    return (h % np.uint64(num_shards)).astype(np.int64)


def greedy_keep(seqs: np.ndarray, fps: np.ndarray, n_bands: int,
                max_hamming: int, metric: str = "bits") -> np.ndarray:
    """Sorted seqs of rows RETAINED by the sequential greedy pass: a row
    is kept iff no kept row with smaller seq is within ``max_hamming``
    (in ``metric`` units — bits or lanes).  Pure function of the
    (seq, fp) set — the intra-epoch resolve."""
    dist = _METRICS[metric]
    order = np.argsort(seqs, kind="stable")
    keys = band_entries(fps, n_bands).reshape(len(fps), n_bands)
    buckets: dict[int, list] = {}
    kept = []
    for i in order:
        fp = fps[i]
        cand: list = []
        for k in keys[i]:
            cand.extend(buckets.get(int(k), ()))
        if cand and (dist(np.array(cand, np.uint64),
                          np.full(len(cand), fp, np.uint64))
                     <= max_hamming).any():
            continue
        kept.append(seqs[i])
        for k in keys[i]:
            buckets.setdefault(int(k), []).append(fp)
    return np.sort(np.asarray(kept, dtype=np.int64))


class NearDupIndexState:
    """One shard's committed band index (its state host keeps the
    per-epoch stash)."""

    def __init__(self, shard: int, max_hamming: int = 3,
                 retention_ms: int = 0, metric: str = "bits"):
        self.shard = shard
        self.max_hamming = max_hamming
        # "bits" (bit-Hamming ≤ max_hamming: audio_fp / simhash) or
        # "lanes" (unequal 16-bit lanes ≤ max_hamming: banded minhash —
        # max_hamming = n_bands − min_band_matches there)
        self.dist = _METRICS[metric]
        # first-seen event-time horizon for endless streams (same
        # semantics as DedupIndexState.retention_ms; 0 = keep forever)
        self.retention_ms = int(retention_ms)
        # (keys↑, fps, first-seen ts) — ts only consulted when retention on
        self.runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._delta_new: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.metrics: dict[str, int] = {"neardup_new": 0,
                                        "neardup_evicted": 0}

    # ------------------------------------------------------------- queries
    def matched(self, keys: np.ndarray, fps: np.ndarray) -> np.ndarray:
        """Per entry: any committed same-key fp within max_hamming."""
        out = np.zeros(len(keys), dtype=bool)
        for rk, rf, _ in self.runs:
            lo = np.searchsorted(rk, keys, "left")
            hi = np.searchsorted(rk, keys, "right")
            counts = hi - lo
            total = int(counts.sum())
            if total == 0:
                continue
            base = np.repeat(lo, counts)
            steps = np.arange(total) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            row = np.repeat(np.arange(len(keys)), counts)
            ham = self.dist(rf[base + steps], fps[row])
            out[row[ham <= self.max_hamming]] = True
        return out

    def n_entries(self) -> int:
        return sum(len(k) for k, _, _ in self.runs)

    # ------------------------------------------------------------ protocol
    @staticmethod
    def _arrays(entries: list):
        """``(keys, fps, seqs, ts | None)`` entries → one typed array per
        field (ts 0 where absent)."""
        return (
            np.concatenate([np.asarray(e[0], np.uint32) for e in entries]),
            np.concatenate([np.asarray(e[1], np.uint64) for e in entries]),
            np.concatenate([np.asarray(e[2], np.int64) for e in entries]),
            np.concatenate([np.zeros(len(e[0]), np.int64) if e[3] is None
                            else np.asarray(e[3], np.int64)
                            for e in entries]),
        )

    def _evict(self, wm: int):
        if not self.retention_ms:
            return
        horizon = wm - self.retention_ms
        kept, evicted = [], 0
        for rk, rf, rt in self.runs:
            m = rt >= horizon
            if m.all():
                kept.append((rk, rf, rt))
            else:
                evicted += int((~m).sum())
                if m.any():
                    kept.append((rk[m], rf[m], rt[m]))
        self.runs = kept
        self.metrics["neardup_evicted"] += evicted

    def resolve(self, epoch: int, entries: list, wm=None):
        """Epoch ``epoch``'s ``(keys, fps, seqs, ts | None)`` entries →
        (seqs, fps, matched-vs-committed) per entry; with retention on, index
        entries below ``wm − retention_ms`` evict FIRST."""
        if wm is not None:
            self._evict(int(wm))
        if not entries:
            z = np.empty(0, np.int64)
            return z, np.empty(0, np.uint64), np.zeros(0, bool)
        k, f, s, _ = self._arrays(entries)
        return s, f, self.matched(k, f)

    def commit(self, epoch: int, entries: list, kept_seqs: np.ndarray):
        """Fold epoch ``epoch``'s entries of kept rows into the committed
        runs."""
        from .dedup_index import in_sorted

        if not entries:
            return 0
        k, f, s, t = self._arrays(entries)
        m = in_sorted(np.asarray(kept_seqs, np.int64), s)
        if not m.any():
            return 0
        k, f, t = k[m], f[m], t[m]
        order = np.argsort(k, kind="stable")
        run = (k[order], f[order], t[order])
        self.runs.append(run)
        self._delta_new.append(run)
        if len(self.runs) > _MAX_RUNS:
            self._compact()
        self.metrics["neardup_new"] += len(k)
        return len(k)

    def _compact(self):
        k = np.concatenate([r[0] for r in self.runs])
        f = np.concatenate([r[1] for r in self.runs])
        t = np.concatenate([r[2] for r in self.runs])
        order = np.argsort(k, kind="stable")
        self.runs = [(k[order], f[order], t[order])]

    # ---------------------------------------------------------- checkpoint
    def save(self, directory: str, full: bool = True):
        from ..fs import fensure_dir, fput, fput_npz

        fensure_dir(directory)
        meta = {"shard": self.shard, "metrics": dict(self.metrics)}
        if full:
            if len(self.runs) > 1:
                self._compact()
            k, f, t = self.runs[0] if self.runs else (
                np.empty(0, np.uint32), np.empty(0, np.uint64),
                np.empty(0, np.int64))
            fput_npz(os.path.join(directory, "index.npz"), keys=k, fps=f, ts=t)
            fput(os.path.join(directory, "state.pkl"),
                 pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL))
        else:
            if self._delta_new:
                k = np.concatenate([r[0] for r in self._delta_new])
                f = np.concatenate([r[1] for r in self._delta_new])
                t = np.concatenate([r[2] for r in self._delta_new])
                order = np.argsort(k, kind="stable")
                k, f, t = k[order], f[order], t[order]
            else:
                k, f, t = (np.empty(0, np.uint32), np.empty(0, np.uint64),
                           np.empty(0, np.int64))
            fput_npz(os.path.join(directory, "new.npz"), keys=k, fps=f, ts=t)
            fput(os.path.join(directory, "delta.pkl"),
                 pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL))
        self._delta_new = []

    def restore_chain(self, full_dir: str, delta_dirs: list[str]):
        from ..fs import fget, fget_npz

        z = fget_npz(os.path.join(full_dir, "index.npz"))
        meta = pickle.loads(fget(os.path.join(full_dir, "state.pkl")))
        self.runs = [(z["keys"], z["fps"], z["ts"])] if len(z["keys"]) else []
        for d in delta_dirs:
            z = fget_npz(os.path.join(d, "new.npz"))
            if len(z["keys"]):
                self.runs.append((z["keys"], z["fps"], z["ts"]))
            meta = pickle.loads(fget(os.path.join(d, "delta.pkl")))
        if len(self.runs) > _MAX_RUNS:
            self._compact()
        self.metrics = dict(meta["metrics"])
        self._delta_new = []


def neardup_metric(cfg) -> str:
    """The index's distance metric for ``cfg.neardup_signature``."""
    return "lanes" if cfg.neardup_signature == "minhash" else "bits"


def neardup_threshold(cfg) -> int:
    """Max distance in the active metric's units: bit-Hamming for
    audio_fp/simhash, unequal lanes (= bands − min matches) for the
    banded-minhash mode."""
    if cfg.neardup_signature == "minhash":
        return cfg.neardup_bands - cfg.neardup_min_band_matches
    return cfg.neardup_max_hamming


def resolve_near_epoch(shards, epoch: int,
                       n_bands: int, max_hamming: int, wm=None,
                       metric: str = "bits"):
    """Driver-side epoch resolve: gather per-entry verdicts from every
    shard, OR them per row, run the intra-epoch greedy over the
    committed-clean survivors, commit kept rows back to the shards.
    ``shards`` lists ``(host, slot)`` pairs; each host gets one
    ``resolve`` and one ``commit`` RPC.

    → ``(kept_seqs, drop_seqs)`` both sorted int64.  ``drop`` covers only
    fingerprinted rows — undecodable rows never appear and pass through.
    """
    from .store import call_hosts

    res = call_hosts("resolve", shards, epoch, wm)
    if not any(len(r[0]) for r in res):
        z = np.empty(0, np.int64)
        call_hosts("commit", shards, epoch, z)
        return z, z
    seqs = np.concatenate([r[0] for r in res])
    fps = np.concatenate([r[1] for r in res])
    matched = np.concatenate([r[2] for r in res])
    order = np.argsort(seqs, kind="stable")
    s, f, m = seqs[order], fps[order], matched[order]
    first = np.ones(len(s), dtype=bool)
    first[1:] = s[1:] != s[:-1]
    starts = np.flatnonzero(first)
    row_matched = np.logical_or.reduceat(m, starts)
    gs, gf = s[first], f[first]               # unique rows, seq-sorted
    clean = ~row_matched
    kept = greedy_keep(gs[clean], gf[clean], n_bands, max_hamming, metric)
    drop = np.setdiff1d(gs, kept, assume_unique=True)
    call_hosts("commit", shards, epoch, kept)
    return kept, drop

