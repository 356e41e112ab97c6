"""Hot-key skew handling: detection + salted repartition.

The reference inherits Kafka's plain key-hash partitioning with no skew
handling (SURVEY.md §4); explicit salting is a north-rule requirement for
the clip_id space (10% of rows share 10 ids in the fixture).

Strategy (per epoch / per batch-job):

1. **Detect** heavy keys with a per-batch count sketch: ``map_batches``
   emits (key, count) partials for keys above a per-batch floor, a tiny
   ``groupby`` sums them, and keys above ``threshold`` (fraction of total
   rows) are declared hot.
2. **Salt**: hot keys route to partition ``hash(key, salt) % P`` with
   ``salt = row_index % n_salts``, spreading one key over ``n_salts``
   partitions.  Cold keys keep ``hash(key) % P`` (state locality).
3. **Merge-on-close**: operators whose state is keyed by a salted key
   must merge salt replicas before emitting — aggregates merge partials
   (sum/count/min/max merge trivially); windows merge per (key, window);
   watermark close is safe because every salt replica sees the same
   driver watermark (min-merged across partitions by construction).

``salted_partition_for`` is pure and deterministic given (keys, hot set,
row offsets), so epoch replay routes identically.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..hashing import hash64

__all__ = ["detect_hot_keys", "hot_mask", "salt_partitions",
           "salted_partition_for", "SaltedRouter"]


def detect_hot_keys(ds, key_col: str, threshold: float = 0.01, batch_floor: int = 8):
    """Hot keys (> threshold fraction of rows) via per-batch partials.

    Only keys with ≥ ``batch_floor`` occurrences in some batch are
    candidates — a key can only exceed a global fraction if it exceeds a
    proportional floor in at least one batch (batches are ~uniform), so
    the shuffled partial set stays tiny even at 10^12 rows.
    """
    from ray.data.aggregate import Sum

    total = ds.count()

    def partial(t: pa.Table) -> pa.Table:
        counts = t.group_by([key_col]).aggregate([(key_col, "count")])
        counts = counts.rename_columns([key_col, "cnt"])
        return counts.filter(pa.compute.greater_equal(counts["cnt"], batch_floor))

    partials = ds.map_batches(partial, batch_format="pyarrow")
    summed = partials.groupby(key_col).aggregate(Sum("cnt", alias_name="cnt"))
    pdf = summed.to_pandas()
    hot = pdf[pdf["cnt"] >= threshold * total]
    return set(hot[key_col].tolist())


def hot_mask(keys: np.ndarray, hot_keys) -> np.ndarray:
    """Per row of the object array ``keys``: is the key in ``hot_keys``."""
    return np.fromiter((k in hot_keys for k in keys), bool, len(keys))


def salt_partitions(keys: np.ndarray, num_partitions: int,
                    n_salts: int) -> np.ndarray:
    """Partition of every salted copy of each key → int64
    ``(len(keys), n_salts)``: column ``s`` routes the salted key
    ``f"{key}#{s}"``.  The one place a salted key is spelled; each
    distinct key hashes once per salt."""
    uniq, inv = np.unique(np.asarray(keys, dtype=object).astype(str),
                          return_inverse=True)
    out = np.empty((len(uniq), n_salts), np.int64)
    for s in range(n_salts):
        salted = np.char.add(uniq, f"#{s}").astype(object)
        out[:, s] = hash64(salted) % np.uint64(num_partitions)
    return out[inv.reshape(-1)]


def salted_partition_for(
    keys, hot_keys: set, num_partitions: int, n_salts: int, offsets: np.ndarray
) -> np.ndarray:
    """Deterministic partition ids with hot keys spread over n_salts."""
    keys_np = np.asarray(
        keys.to_numpy(zero_copy_only=False) if isinstance(keys, (pa.Array, pa.ChunkedArray)) else keys,
        dtype=object,
    )
    base = (hash64(keys_np) % np.uint64(num_partitions)).astype(np.int64)
    if not hot_keys:
        return base.astype(np.int32)
    hot = np.flatnonzero(hot_mask(keys_np, hot_keys))
    if not len(hot):
        return base.astype(np.int32)
    salts = (offsets[hot] % n_salts).astype(np.int64)
    base[hot] = salt_partitions(keys_np[hot], num_partitions,
                                n_salts)[np.arange(len(hot)), salts]
    return base.astype(np.int32)


class SaltedRouter:
    """map_batches operator: append a salted ``partition`` column.

    ``offsets`` come from a monotonic per-row sequence column (``seq``) so
    replay salts identically; hot-key set is broadcast at construction.
    """

    def __init__(self, key_col: str, hot_keys: set, num_partitions: int, n_salts: int = 4, seq_col: str = "seq"):
        self.key_col = key_col
        self.hot = hot_keys
        self.P = num_partitions
        self.n_salts = n_salts
        self.seq_col = seq_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        offs = batch[self.seq_col].to_numpy(zero_copy_only=False)
        part = salted_partition_for(batch[self.key_col], self.hot, self.P, self.n_salts, offs)
        if "partition" in batch.column_names:
            batch = batch.drop_columns(["partition"])
        return batch.append_column("partition", pa.array(part, pa.int32()))
