"""Cross-epoch exact content dedup: a hash-sharded seen-set actor tier.

Training-data ingest at 100 TB needs corpus-history dedup: a clip whose
content was already ingested in ANY earlier epoch should be dropped
BEFORE it costs decode CPU, state-actor memory and sink bytes.  Content
duplicates arrive under unrelated clip_ids, so the seen-set cannot live
in the clip-keyed partition state — it is its own tier, sharded by
``content_hash % num_shards`` (disjoint state, linear scale-out; one of
the few places a shared mutable index forces actor state instead of a
Dataset op).  Shards are slots of the ``store.StateHost`` actors, next
to the partitions.

Epoch protocol (mirrors the partition slots' stash/close discipline
so crash replay is byte-identical, and decisions are arrival-order AND
routing independent):

1. CONTENT PASS (``state/content_pass.py``) — one raw task per source
   row window reads the content cols (parquet column pruning; shared
   with the near-dup tier's fingerprints), hashes every row vectorized,
   and ships ``(hash, seq)`` slices to their shards (one ``submit`` RPC
   per host), which STASH them under the epoch.
2. ``resolve(epoch)`` — each shard folds the stashed entries of every
   epoch ≤ this one and decides per hash: the winner is the **min-seq** row;
   every seq whose hash is already in the committed seen set drops, and
   every non-winner seq of a new hash drops.  New winners fold into the
   in-memory seen set.  The decision depends only on (seen set as of the
   previous epoch, the epoch's full row set) — deterministic on replay
   regardless of task order or shard count.
3. The ingest pass filters dropped seqs before decode/routing.
4. ``checkpoint(epoch, full)`` — full = the whole seen set; delta = just
   this epoch's new hashes (same full/delta cadence and restore-chain
   rules as the partition slots).

The seen set is LSM-ish: sorted uint64 runs (one per epoch since the
last compaction) over a sorted base; membership is a ``searchsorted``
per run and runs compact into the base when they pile up.  Runs are
disjoint by construction (a hash is only added when absent), so
compaction is concat+sort, never dedup.  At 10^9+ hashes the scale path
is wider sharding — ``num_dedup_shards`` is semantic state layout, like
``num_partitions``, never derived from cluster size.

Dedup is **arrival-level**: the first-arriving copy claims the hash even
if it later turns out late or undecodable (lateness/decode are not known
at hash time); this keeps the decision a pure function of the source
prefix.  Reference analogue: the ingest flow's duplicate-record
rejection is keyed on record identity (`IngestionFlowV2.scala:94-141`);
this tier generalizes it to content identity across the whole corpus.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pyarrow as pa

__all__ = ["DedupIndexState", "content_hash_of", "in_sorted"]

_MAX_RUNS = 8


def content_hash_of(table: pa.Table, cols: tuple | list) -> np.ndarray:
    """Vectorized uint64 content hash (XOR across cols — the same rule as
    ``stages.dedup.add_content_hash``, shared so batch and streaming
    dedup agree on identity)."""
    import pandas as pd

    h = np.zeros(table.num_rows, dtype=np.uint64)
    for c in cols:
        vals = table[c].to_numpy(zero_copy_only=False)
        h ^= pd.util.hash_array(np.asarray(vals, dtype=object), categorize=False)
    return h


def in_sorted(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership mask of ``values`` in a sorted array (searchsorted)."""
    if len(sorted_arr) == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    idx = np.searchsorted(sorted_arr, values)
    idx_c = np.minimum(idx, len(sorted_arr) - 1)
    return (idx < len(sorted_arr)) & (sorted_arr[idx_c] == values)


class DedupIndexState:
    """One shard's seen-set (plain object; its state host adds the
    per-epoch stash and checkpoint I/O).

    ``retention_ms`` bounds the state for endless streams: an entry whose
    FIRST-SEEN event time falls below ``watermark − retention_ms`` evicts
    at resolve, after which identical content is re-admitted as a fresh
    first copy.  The horizon is the committed watermark sequence, so
    eviction (like every removal in this engine) is a monotone function
    of replayed state — crash replay re-evicts identically.  0 keeps the
    classic whole-corpus-history semantics (state grows with distinct
    content; the scale path is wider sharding)."""

    def __init__(self, shard: int, retention_ms: int = 0):
        self.shard = shard
        self.retention_ms = int(retention_ms)
        # sorted uint64 hash runs, disjoint, each with aligned FIRST-SEEN
        # event-time ms (only consulted when retention is on)
        self.runs: list[tuple[np.ndarray, np.ndarray]] = []
        self._delta_new: list[tuple[np.ndarray, np.ndarray]] = []
        self.metrics: dict[str, int] = {
            "dedup_dropped": 0, "dedup_new": 0, "dedup_evicted": 0,
        }

    # ------------------------------------------------------------- queries
    def seen(self, hashes: np.ndarray) -> np.ndarray:
        mask = np.zeros(len(hashes), dtype=bool)
        for run, _ in self.runs:
            mask |= in_sorted(run, hashes)
        return mask

    def n_hashes(self) -> int:
        return sum(len(r) for r, _ in self.runs)

    # ------------------------------------------------------------ protocol
    def _evict(self, wm: int):
        if not self.retention_ms:
            return
        horizon = wm - self.retention_ms
        kept, evicted = [], 0
        for run, rts in self.runs:
            m = rts >= horizon
            if m.all():
                kept.append((run, rts))
            else:
                evicted += int((~m).sum())
                if m.any():
                    kept.append((run[m], rts[m]))
        self.runs = kept
        self.metrics["dedup_evicted"] += evicted

    def resolve(self, epoch: int, entries: list,
                wm: int | None = None) -> tuple[np.ndarray, dict]:
        """Fold epoch ``epoch``'s ``(hashes, seqs, ts | None)`` entries →
        (sorted seqs to DROP, stats).  Folds this epoch's new winner
        hashes into the seen set (durable at the next checkpoint); with
        retention on, entries below ``wm − retention_ms`` evict FIRST."""
        if wm is not None:
            self._evict(int(wm))
        if not entries:
            return np.empty(0, np.int64), {"dropped": 0, "new": 0}
        h = np.concatenate([np.asarray(e[0], np.uint64) for e in entries])
        s = np.concatenate([np.asarray(e[1], np.int64) for e in entries])
        t = np.concatenate([np.zeros(len(e[0]), np.int64) if e[2] is None
                            else np.asarray(e[2], np.int64)
                            for e in entries])
        order = np.lexsort((s, h))                 # by hash, then seq asc
        hs, ss, tss = h[order], s[order], t[order]
        first = np.ones(len(hs), dtype=bool)
        first[1:] = hs[1:] != hs[:-1]              # min-seq row per hash
        already = self.seen(hs)
        drop_mask = already | ~first
        win = first & ~already
        new_hashes = hs[win]                       # unique + sorted by constr.
        if len(new_hashes):
            pair = (new_hashes, tss[win])          # first-seen anchor ts
            self.runs.append(pair)
            self._delta_new.append(pair)
            if len(self.runs) > _MAX_RUNS:
                self._compact()
        drop = np.sort(ss[drop_mask])
        self.metrics["dedup_dropped"] += int(drop_mask.sum())
        self.metrics["dedup_new"] += int(len(new_hashes))
        return drop, {"dropped": int(drop_mask.sum()), "new": int(len(new_hashes))}

    def _compact(self):
        # runs are disjoint AT ANY TIME (an evicted hash re-admits only
        # after its entry is gone): concat+sort, no dedup pass needed
        hh = np.concatenate([r for r, _ in self.runs])
        tt = np.concatenate([t for _, t in self.runs])
        order = np.argsort(hh, kind="stable")
        self.runs = [(hh[order], tt[order])]

    # ---------------------------------------------------------- checkpoint
    def save(self, directory: str, full: bool = True):
        from ..fs import fensure_dir, fput, fput_npz

        fensure_dir(directory)
        meta = {"shard": self.shard, "metrics": dict(self.metrics)}
        if full:
            self._compact() if len(self.runs) > 1 else None
            base = (self.runs[0] if self.runs
                    else (np.empty(0, np.uint64), np.empty(0, np.int64)))
            fput_npz(os.path.join(directory, "seen.npz"),
                     h=base[0], ts=base[1])
            fput(os.path.join(directory, "state.pkl"),
                 pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL))
        else:
            if self._delta_new:
                hh = np.concatenate([r for r, _ in self._delta_new])
                tt = np.concatenate([t for _, t in self._delta_new])
                order = np.argsort(hh, kind="stable")
                hh, tt = hh[order], tt[order]
            else:
                hh, tt = np.empty(0, np.uint64), np.empty(0, np.int64)
            fput_npz(os.path.join(directory, "new.npz"), h=hh, ts=tt)
            fput(os.path.join(directory, "delta.pkl"),
                 pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL))
        self._delta_new = []

    def restore_chain(self, full_dir: str, delta_dirs: list[str]):
        from ..fs import fget, fget_npz

        z = fget_npz(os.path.join(full_dir, "seen.npz"))
        meta = pickle.loads(fget(os.path.join(full_dir, "state.pkl")))
        self.runs = [(z["h"], z["ts"])] if len(z["h"]) else []
        for d in delta_dirs:
            z = fget_npz(os.path.join(d, "new.npz"))
            if len(z["h"]):
                self.runs.append((z["h"], z["ts"]))
            meta = pickle.loads(fget(os.path.join(d, "delta.pkl")))
        if len(self.runs) > _MAX_RUNS:
            self._compact()
        self.metrics = dict(meta["metrics"])
        self._delta_new = []

