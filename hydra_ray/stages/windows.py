"""Event-time windows: tumbling / sliding / session — batch and kernel forms.

The reference has NO window operators (SURVEY.md §2.10: its only periodic
behavior is 1-minute metric/lag ticks, `ConsumerGroupsAlgebra.scala:212-219`);
windows + event-time watermarks are the graft's new requirement
(BASELINE.json north_star).  Design:

- **Assignment kernels** are pure numpy over int64 epoch-millis arrays —
  shared verbatim by the batch operators here and the streaming
  per-partition state actors (`hydra_ray.state.store`).
- **Batch operators** are Ray-Data-first and scale-correct: a vectorized
  ``map_batches`` assigns windows and PRE-AGGREGATES per batch (pyarrow
  ``Table.group_by``, C++), so the wide ``groupby`` only shuffles one row
  per (key, window) per batch — the partial/combiner pattern that keeps
  the all-to-all exchange tiny at 100 TB.
- **Session windows** need unbounded-gap merging, so the batch form is
  ``groupby(key).map_groups`` over (key)-partitioned sorted groups; the
  streaming form keeps per-key open sessions in actor state and closes
  them on watermark advance.

All window bounds are [start, end) with end = start + size; timestamps are
treated as epoch milliseconds (timestamp columns are cast, truncating —
matching DuckDB's ``epoch_ms``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "AggSpec",
    "ts_to_ms",
    "assign_tumbling",
    "explode_sliding",
    "sessionize_sorted",
    "rollup_aggregate",
    "tumbling_window",
    "sliding_window",
    "session_window",
    "grouped_quantile",
]


# --------------------------------------------------------------------- specs
_UNARY_FNS = ("count", "sum", "min", "max", "mean", "var", "std",
              "skew", "kurt", "bool_and", "bool_or", "product")
_PAIR_FNS = ("covar", "corr", "regr_slope", "regr_intercept")
_ARG_FNS = ("arg_max", "arg_min")


@dataclass(frozen=True)
class AggSpec:
    """One output aggregate over ``col`` (plus ``col2`` for pairwise fns).

    Unary: count, sum, min, max, mean, var, std, skew, kurt, bool_and,
    bool_or, product.  Pairwise (``col`` = y, ``col2`` = x): covar,
    corr, regr_slope, regr_intercept; arg_max/arg_min = the ``col``
    value on the row where ``col2`` is extreme, DETERMINISTIC tie rule
    "smallest ``col`` among ties" (DuckDB's bare arg_max is
    tie-unspecified — oracle it with an explicit max-join + min).
    Rows where either arg is NULL are ignored; an all-NULL group yields
    NULL.  Arg partials are ONE order-preserving binary key (x-key ‖
    byte-complemented y encoding), so partial AND combine are a plain
    ``max`` — mergeable like every other partial here, including the
    rollup path's re-combination.  All DuckDB sample semantics
    (var_samp/stddev_samp/covar_samp; skewness/kurtosis with the
    bias-corrected n-adjustments, NULL below their minimum n), and every
    one combines EXACTLY from power-sum/count partials — so each
    survives the rollup path's re-combination at coarser key levels."""

    fn: str
    col: str | None
    alias: str
    col2: str | None = None
    # arg_max/arg_min only: static type of ``col`` ("int" | "float" |
    # "str") — the finalize stage runs per block and must emit a stable
    # output type even for blocks whose groups are all-NULL, so the type
    # cannot be inferred from data
    ytype: str | None = None

    def __post_init__(self):
        if self.fn not in _UNARY_FNS + _PAIR_FNS + _ARG_FNS:
            raise ValueError(f"unsupported agg fn {self.fn!r}")
        if self.fn != "count" and self.col is None:
            raise ValueError(f"{self.fn} needs a column")
        if self.fn in _PAIR_FNS + _ARG_FNS and self.col2 is None:
            raise ValueError(f"{self.fn} needs col2 (the x column)")
        if self.fn in _ARG_FNS and self.ytype not in ("int", "float", "str"):
            raise ValueError(
                f"{self.fn} needs ytype ('int'|'float'|'str') for {self.col!r}")


# ------------------------------------------------------------------- kernels
def ts_to_ms(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """timestamp[*]/int column → int64 epoch milliseconds (truncating)."""
    t = col.type
    if pa.types.is_timestamp(t):
        i = pc.cast(col, pa.int64())
        unit = t.unit
        if unit == "s":
            return pc.multiply(i, pa.scalar(1000, pa.int64())).to_numpy()
        if unit == "ms":
            return i.to_numpy()
        if unit == "us":
            return pc.divide(i, pa.scalar(1000, pa.int64())).to_numpy()
        return pc.divide(i, pa.scalar(1_000_000, pa.int64())).to_numpy()
    return pc.cast(col, pa.int64()).to_numpy()


def assign_tumbling(ts_ms: np.ndarray, size_ms: int) -> np.ndarray:
    """window_start = floor(ts / size) * size (floor-div handles ts<0)."""
    return (ts_ms // size_ms) * size_ms


def explode_sliding(
    ts_ms: np.ndarray, size_ms: int, slide_ms: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row→window explosion for sliding windows.

    Requires ``size_ms % slide_ms == 0`` (k = size/slide windows per row).
    Returns (row_indices, window_starts), each of length n·k: row i belongs
    to windows ``floor(ts/slide)*slide - j*slide`` for j in 0..k-1 (every
    one satisfies start ≤ ts < start+size).
    """
    if size_ms % slide_ms != 0:
        raise ValueError("sliding window size must be a multiple of slide")
    k = size_ms // slide_ms
    n = len(ts_ms)
    last_start = (ts_ms // slide_ms) * slide_ms
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    offsets = np.tile(np.arange(k, dtype=np.int64) * slide_ms, n)
    starts = np.repeat(last_start, k) - offsets
    return rows, starts


def sessionize_sorted(ts_sorted_ms: np.ndarray, gap_ms: int) -> np.ndarray:
    """Session ids (0..) for an ASCENDING-sorted ts array: new session when
    the gap to the previous event exceeds ``gap_ms``."""
    if len(ts_sorted_ms) == 0:
        return np.empty(0, dtype=np.int64)
    breaks = np.empty(len(ts_sorted_ms), dtype=np.int64)
    breaks[0] = 0
    breaks[1:] = (np.diff(ts_sorted_ms) > gap_ms).astype(np.int64)
    return np.cumsum(breaks)


# ------------------------------------------------- arg_max/arg_min keys
_MSB64 = np.uint64(1) << np.uint64(63)


def _order_key_u64(col) -> tuple[np.ndarray, np.ndarray]:
    """Orderable column → (order-preserving uint64 keys, null mask):
    unsigned compare of the key ≡ SQL compare of the value (ints via
    offset-binary, floats via the IEEE-754 total-order bit trick,
    timestamps via their raw int64)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    t = arr.type
    null = pc.is_null(arr).to_numpy(zero_copy_only=False)
    if pa.types.is_timestamp(t) or pa.types.is_integer(t):
        v = pc.fill_null(pc.cast(arr, pa.int64()), 0).to_numpy()
        return v.view(np.uint64) ^ _MSB64, null
    if pa.types.is_floating(t):
        b = pc.fill_null(pc.cast(arr, pa.float64()), 0.0).to_numpy() \
            .view(np.uint64)
        return np.where(b >> np.uint64(63), ~b, b | _MSB64), null
    raise TypeError(f"arg_* ordering column must be numeric/timestamp, got {t}")


def _be8(k: np.ndarray) -> np.ndarray:
    """(n,) uint64 → (n, 8) big-endian bytes."""
    return k.astype(">u8").view(np.uint8).reshape(len(k), 8)


def _string_bytes(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """large_utf8 array → (int64 offsets incl. slice offset, data bytes)."""
    offs = np.frombuffer(arr.buffers()[1], np.int64)[
        arr.offset: arr.offset + len(arr) + 1]
    data = (np.frombuffer(arr.buffers()[2], np.uint8)
            if arr.buffers()[2] is not None else np.empty(0, np.uint8))
    return offs, data


def _argkey_encode(y_col, x_col, ytype: str, minimize: bool) -> pa.Array:
    """Rows → one order-preserving large_binary key whose grouped MAX is
    the arg_max/arg_min partial: 8 BE bytes of the x order key (bit-
    complemented for arg_min) ‖ tag ‖ byte-complemented y encoding
    (‖ 0xFF terminator for strings), so ties on x resolve to the
    SMALLEST y.  Rows with x or y NULL encode as NULL (max skips them).
    Strings containing NUL bytes are unsupported (the complemented NUL
    collides with the terminator)."""
    xk, xnull = _order_key_u64(x_col)
    if minimize:
        xk = ~xk
    yarr = (y_col.combine_chunks()
            if isinstance(y_col, pa.ChunkedArray) else y_col)
    n = len(yarr)
    if ytype == "str":
        yarr = pc.cast(yarr, pa.large_utf8())
        ynull = pc.is_null(yarr).to_numpy(zero_copy_only=False)
        offs, data = _string_bytes(yarr)
        lens = offs[1:] - offs[:-1]
        out_offs = np.zeros(n + 1, np.int64)
        np.cumsum(lens + 10, out=out_offs[1:])
        out = np.empty(int(out_offs[-1]), np.uint8)
        starts = out_offs[:-1]
        out[(starts[:, None] + np.arange(8)).reshape(-1)] = _be8(xk).reshape(-1)
        out[starts + 8] = 3
        tot = int(lens.sum())
        rep = np.repeat(np.arange(n), lens)
        in_run = np.arange(tot) - np.repeat(np.cumsum(lens) - lens, lens)
        out[starts[rep] + 9 + in_run] = ~data[offs[:-1][rep] + in_run]
        out[out_offs[1:] - 1] = 0xFF
    else:
        ynull = pc.is_null(yarr).to_numpy(zero_copy_only=False)
        if ytype == "int":
            yv = pc.fill_null(pc.cast(yarr, pa.int64()), 0).to_numpy()
            yk = yv.view(np.uint64) ^ _MSB64
            tag = 1
        else:
            b = pc.fill_null(pc.cast(yarr, pa.float64()), 0.0).to_numpy() \
                .view(np.uint64)
            yk = np.where(b >> np.uint64(63), ~b, b | _MSB64)
            tag = 2
        out = np.empty((n, 17), np.uint8)
        out[:, :8] = _be8(xk)
        out[:, 8] = tag
        out[:, 9:] = _be8(~yk)
        out = out.reshape(-1)
        out_offs = np.arange(n + 1, dtype=np.int64) * 17
    null = xnull | ynull
    bufs = [None, pa.py_buffer(out_offs.tobytes()), pa.py_buffer(out.tobytes())]
    if null.any():
        bufs[0] = pa.array(~null).buffers()[1]
    return pa.Array.from_buffers(pa.large_binary(), n, bufs,
                                 null_count=int(null.sum()))


def _argkey_decode(col, ytype: str) -> pa.Array:
    """Combined argkey partials → the winning y values (NULL-preserving)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    arr = pc.cast(arr, pa.large_binary())
    n = len(arr)
    null = pc.is_null(arr).to_numpy(zero_copy_only=False)
    offs = np.frombuffer(arr.buffers()[1], np.int64)[
        arr.offset: arr.offset + n + 1]
    data = (np.frombuffer(arr.buffers()[2], np.uint8)
            if arr.buffers()[2] is not None else np.empty(0, np.uint8))
    if ytype == "str":
        lens = np.maximum(offs[1:] - offs[:-1] - 10, 0)
        tot = int(lens.sum())
        rep = np.repeat(np.arange(n), lens)
        in_run = np.arange(tot) - np.repeat(np.cumsum(lens) - lens, lens)
        buf = (~data[offs[:-1][rep] + 9 + in_run]).tobytes()
        new_offs = np.zeros(n + 1, np.int64)
        np.cumsum(lens, out=new_offs[1:])
        s = pa.Array.from_buffers(
            pa.large_utf8(), n,
            [None, pa.py_buffer(new_offs.tobytes()), pa.py_buffer(buf)])
        return pc.if_else(pa.array(null), pa.scalar(None, pa.large_utf8()), s)
    # fixed-width: bytes 9..17 hold the complemented y key (garbage on
    # null rows — masked out below)
    pos = np.where(null, 0, offs[:-1]) + 9
    ybytes = np.zeros((n, 8), np.uint8)
    valid = ~null
    if valid.any() and len(data):
        ybytes[valid] = data[(pos[valid, None] + np.arange(8))]
    yk = ~ybytes.reshape(-1).view(">u8").astype(np.uint64)
    if ytype == "int":
        v = (yk ^ _MSB64).view(np.int64)
        return pa.array(v, pa.int64(), mask=null)
    b = np.where(yk & _MSB64, yk ^ _MSB64, ~yk)
    return pa.array(b.view(np.float64), pa.float64(), mask=null)


# ----------------------------------------------------- partial-agg framework
def _partial_columns(aggs: list[AggSpec]) -> list[tuple[str, str, str]]:
    """→ [(source_col, pyarrow_fn, partial_name)] for the per-batch pass."""
    cols = []
    for a in aggs:
        if a.fn == "count":
            cols.append((None, "count", f"__{a.alias}__cnt"))
        elif a.fn == "mean":
            cols.append((a.col, "sum", f"__{a.alias}__sum"))
            cols.append((None, "count", f"__{a.alias}__cnt"))
        elif a.fn in ("var", "std"):
            cols.append((a.col, "sum", f"__{a.alias}__sum"))
            cols.append((a.col, "sumsq", f"__{a.alias}__sumsq"))
            cols.append((None, "count", f"__{a.alias}__cnt"))
        elif a.fn in ("skew", "kurt"):
            cols.append((a.col, "sum", f"__{a.alias}__sum"))
            cols.append((a.col, "sumsq", f"__{a.alias}__sumsq"))
            cols.append((a.col, "sumcube", f"__{a.alias}__sum3"))
            if a.fn == "kurt":
                cols.append((a.col, "sumquad", f"__{a.alias}__sum4"))
            cols.append((None, "count", f"__{a.alias}__cnt"))
        elif a.fn == "bool_and":
            cols.append((a.col, "min", f"__{a.alias}__min"))
        elif a.fn == "bool_or":
            cols.append((a.col, "max", f"__{a.alias}__max"))
        elif a.fn == "product":
            cols.append((a.col, "product", f"__{a.alias}__prod"))
        elif a.fn in _ARG_FNS:
            cols.append(((a.col, a.col2, a.ytype, a.fn == "arg_min"),
                         "argkey", f"__{a.alias}__argkey"))
        elif a.fn in _PAIR_FNS:
            # y = col, x = col2; power sums for the cross moments
            cols.append((a.col, "sum", f"__{a.alias}__sumy"))
            cols.append((a.col2, "sum", f"__{a.alias}__sumx"))
            cols.append(((a.col, a.col2), "sumxy", f"__{a.alias}__sumxy"))
            cols.append((a.col2, "sumsq", f"__{a.alias}__sumx2"))
            if a.fn == "corr":
                cols.append((a.col, "sumsq", f"__{a.alias}__sumy2"))
            cols.append((None, "count", f"__{a.alias}__cnt"))
        else:
            cols.append((a.col, a.fn, f"__{a.alias}__{a.fn}"))
    # dedupe (mean+count share a count partial only if aliases differ — keep per-alias)
    return cols


def _default_scalar(typ: pa.DataType):
    """A type-default sentinel value ("" / 0 / 0.0 / False / epoch)."""
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        return pa.scalar("", typ)
    if pa.types.is_binary(typ) or pa.types.is_large_binary(typ):
        return pa.scalar(b"", typ)
    if pa.types.is_boolean(typ):
        return pa.scalar(False, typ)
    return pa.scalar(0, typ)


def _null_string_key_guard(t: pa.Table, group_cols: list[str]):
    """Work around pyarrow's multi-key group_by mis-grouping NULL
    VARIABLE-WIDTH keys — string AND binary (each 32-row accumulator
    batch opens a fresh null group; pyarrow 16.1, repros in
    test_windows).  For every such key column holding nulls, append a
    companion null-flag key and fill the nulls with ""/b"" — grouping on
    (filled, flag) is exact.  Returns the (possibly augmented) table,
    the augmented key list, and the flags needed to restore nulls
    afterwards."""
    if len(group_cols) < 2:
        return t, group_cols, []
    keys = list(group_cols)
    restore = []
    for c in group_cols:
        f = t.schema.field(c)
        is_str = pa.types.is_string(f.type) or pa.types.is_large_string(f.type)
        is_bin = pa.types.is_binary(f.type) or pa.types.is_large_binary(f.type)
        if (is_str or is_bin) and t[c].null_count:
            flag = f"__isnull_{c}"
            t = t.append_column(flag, pc.is_null(t[c]))
            t = t.set_column(t.schema.get_field_index(c), c,
                             pc.fill_null(t[c], pa.scalar(
                                 "" if is_str else b"", f.type)))
            keys.append(flag)
            restore.append((c, flag, f.type))
    return t, keys, restore


def _restore_null_keys(gb: pa.Table, restore) -> pa.Table:
    for c, flag, typ in restore:
        col = pc.if_else(gb[flag], pa.scalar(None, typ), gb[c])
        gb = gb.set_column(gb.schema.get_field_index(c), c, col)
        gb = gb.drop_columns([flag])
    return gb


def _partial_agg_batch(
    batch: pa.Table, group_cols: list[str], aggs: list[AggSpec]
) -> pa.Table:
    """Vectorized per-batch pre-aggregation via pyarrow group_by (C++)."""
    plan, names = [], []
    for src, fn, pname in _partial_columns(aggs):
        if fn == "count":
            # count rows: use count of the first group col (non-null keys)
            plan.append((group_cols[0], "count"))
        elif fn in ("sumsq", "sumcube", "sumquad"):
            p = {"sumsq": 2, "sumcube": 3, "sumquad": 4}[fn]
            pw = f"__p{p}_{src}"
            if pw not in batch.column_names:
                x = pc.cast(batch[src], pa.float64())
                acc = x
                for _ in range(p - 1):
                    acc = pc.multiply(acc, x)
                batch = batch.append_column(pw, acc)
            plan.append((pw, "sum"))
        elif fn == "argkey":
            ycol, xcol, ytype, minimize = src
            ak = f"__ak_{ycol}_{xcol}_{int(minimize)}"
            if ak not in batch.column_names:
                batch = batch.append_column(
                    ak, _argkey_encode(batch[ycol], batch[xcol],
                                       ytype, minimize))
            plan.append((ak, "max"))
        elif fn == "sumxy":
            ycol, xcol = src
            xy = f"__xy_{ycol}_{xcol}"
            if xy not in batch.column_names:
                batch = batch.append_column(
                    xy,
                    pc.multiply(pc.cast(batch[ycol], pa.float64()),
                                pc.cast(batch[xcol], pa.float64())),
                )
            plan.append((xy, "sum"))
        else:
            plan.append((src, fn))
        names.append(pname)
    batch, keys, restore = _null_string_key_guard(batch, group_cols)
    gb = batch.group_by(keys, use_threads=False).aggregate(plan)
    # output layout: key columns first, then aggregates in plan order
    # (duplicate agg names possible) — rename positionally.  The key-first
    # layout has differed across pyarrow versions, so verify it before
    # renaming rather than silently scrambling aggregates into key names.
    if gb.column_names[: len(keys)] != keys:
        raise RuntimeError(
            "pyarrow group_by column order changed: expected keys first, got "
            f"{gb.column_names!r} for keys {keys!r}"
        )
    gb = gb.rename_columns(list(keys) + names)
    return _restore_null_keys(gb, restore)


def _combine_partials(ds, group_cols: list[str], aggs: list[AggSpec],
                      num_buckets: int = 32):
    """Reduce a Dataset of partial columns to one row per group, keeping
    the PARTIAL columns (not finalized).  Combining is associative, so
    already-combined partials can be re-combined at a coarser key level
    (the rollup path).

    ``ray.data``'s ``groupby().aggregate`` reduces each group in Python —
    O(groups) driver-speed work once the key cardinality is real
    (measured 70 s at 72 k groups).  Instead the partials shuffle by
    ``hash(keys) % num_buckets`` and each bucket reduces with ONE pyarrow
    ``group_by`` (C++), so cost scales with rows, not groups."""
    import pandas as pd

    from ..hashing import hash64

    plan, names = [], []
    _sums = ("count", "sum", "sumsq", "sumcube", "sumquad", "sumxy")
    for src, fn, pname in _partial_columns(aggs):
        if fn in _sums:
            plan.append((pname, "sum"))
        elif fn == "argkey":      # order-preserving binary key: max IS merge
            plan.append((pname, "max"))
        else:
            plan.append((pname, fn))
        names.append(pname)

    def add_bucket(t: pa.Table) -> pa.Table:
        h = np.zeros(t.num_rows, dtype=np.uint64)
        for c in group_cols:
            h ^= hash64(t[c])
        return t.append_column(
            "__bucket", pa.array((h % np.uint64(num_buckets)).astype(np.int64))
        )

    def combine(t: pa.Table) -> pa.Table:
        # Arrow-native bucket reduce: the group arrives as a pa.Table
        # (no pandas round trip on full bucket contents — VERDICT r3 #4)
        t = t.drop_columns(["__bucket"])
        t, keys, restore = _null_string_key_guard(t, group_cols)
        gb = t.group_by(keys, use_threads=False).aggregate(plan)
        if gb.column_names[: len(keys)] != keys:
            raise RuntimeError(
                "pyarrow group_by column order changed: expected keys first, "
                f"got {gb.column_names!r}"
            )
        gb = gb.rename_columns(list(keys) + names)
        return _restore_null_keys(gb, restore)

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(combine, batch_format="pyarrow")
    )


def _finalize_partials(combined, group_cols: list[str], aggs: list[AggSpec]):
    """Partial columns → final aggregate columns (one map, no shuffle)."""

    def finalize(t: pa.Table) -> pa.Table:
        out = {c: t[c] for c in group_cols}
        for a in aggs:
            if a.fn == "count":
                out[a.alias] = pc.cast(t[f"__{a.alias}__cnt"], pa.int64())
            elif a.fn == "mean":
                out[a.alias] = pc.divide(
                    pc.cast(t[f"__{a.alias}__sum"], pa.float64()),
                    pc.cast(t[f"__{a.alias}__cnt"], pa.float64()),
                )
            elif a.fn in ("var", "std"):
                s = pc.cast(t[f"__{a.alias}__sum"], pa.float64())
                ss = pc.cast(t[f"__{a.alias}__sumsq"], pa.float64())
                n = pc.cast(t[f"__{a.alias}__cnt"], pa.float64())
                var = pc.divide(
                    pc.subtract(ss, pc.divide(pc.multiply(s, s), n)),
                    pc.subtract(n, pa.scalar(1.0)),
                )
                # sample semantics: NULL when n <= 1; clamp tiny negative
                # float residue to 0 before sqrt
                var = pc.if_else(pc.greater(n, 1.0),
                                 pc.max_element_wise(var, 0.0), pa.scalar(None, pa.float64()))
                out[a.alias] = pc.sqrt(var) if a.fn == "std" else var
            elif a.fn in ("skew", "kurt"):
                n = t[f"__{a.alias}__cnt"].to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
                s1 = t[f"__{a.alias}__sum"].to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
                s2 = t[f"__{a.alias}__sumsq"].to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
                s3 = t[f"__{a.alias}__sum3"].to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
                with np.errstate(divide="ignore", invalid="ignore"):
                    mean = s1 / n
                    m2 = s2 / n - mean * mean
                    m3 = s3 / n - 3 * mean * s2 / n + 2 * mean**3
                    if a.fn == "skew":
                        # DuckDB skewness: bias-corrected sample skewness
                        # G1 = g1·√(n(n−1))/(n−2); NULL for n<3 or zero m2
                        g1 = m3 / np.where(m2 > 0, m2, np.nan) ** 1.5
                        val = g1 * np.sqrt(n * (n - 1.0)) / (n - 2.0)
                        bad = (n < 3) | ~(m2 > 0)
                    else:
                        s4 = t[f"__{a.alias}__sum4"] \
                            .to_numpy(zero_copy_only=False).astype(np.float64)
                        m4 = (s4 / n - 4 * mean * s3 / n
                              + 6 * mean**2 * s2 / n - 3 * mean**4)
                        g2 = m4 / np.where(m2 > 0, m2, np.nan) ** 2 - 3.0
                        val = (((n + 1.0) * g2 + 6.0)
                               * (n - 1.0) / ((n - 2.0) * (n - 3.0)))
                        bad = (n < 4) | ~(m2 > 0)
                out[a.alias] = pa.array(
                    np.where(bad, np.nan, val), pa.float64(),
                    mask=np.asarray(bad))
            elif a.fn in _ARG_FNS:
                out[a.alias] = _argkey_decode(t[f"__{a.alias}__argkey"],
                                              a.ytype)
            elif a.fn == "bool_and":
                out[a.alias] = pc.cast(t[f"__{a.alias}__min"], pa.bool_())
            elif a.fn == "bool_or":
                out[a.alias] = pc.cast(t[f"__{a.alias}__max"], pa.bool_())
            elif a.fn == "product":
                out[a.alias] = pc.cast(t[f"__{a.alias}__prod"], pa.float64())
            elif a.fn in _PAIR_FNS:
                n = t[f"__{a.alias}__cnt"].to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
                sx = t[f"__{a.alias}__sumx"].to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
                sy = t[f"__{a.alias}__sumy"].to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
                sxy = t[f"__{a.alias}__sumxy"].to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
                sx2 = t[f"__{a.alias}__sumx2"].to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
                with np.errstate(divide="ignore", invalid="ignore"):
                    cxy = sxy - sx * sy / n          # n·covar_pop
                    vx = sx2 - sx * sx / n           # n·var_pop(x)
                    if a.fn == "covar":
                        val = cxy / (n - 1.0)
                        bad = n < 2
                    elif a.fn == "corr":
                        sy2 = t[f"__{a.alias}__sumy2"] \
                            .to_numpy(zero_copy_only=False).astype(np.float64)
                        vy = sy2 - sy * sy / n
                        den = np.sqrt(np.maximum(vx, 0.0)
                                      * np.maximum(vy, 0.0))
                        val = cxy / np.where(den > 0, den, np.nan)
                        bad = (n < 2) | ~(den > 0)
                    elif a.fn == "regr_slope":
                        val = cxy / np.where(vx > 0, vx, np.nan)
                        bad = ~(vx > 0)
                    else:  # regr_intercept
                        slope = cxy / np.where(vx > 0, vx, np.nan)
                        val = (sy - slope * sx) / n
                        bad = ~(vx > 0)
                out[a.alias] = pa.array(
                    np.where(bad, np.nan, val), pa.float64(),
                    mask=np.asarray(bad))
            else:
                out[a.alias] = t[f"__{a.alias}__{a.fn}"]
        return pa.table(out)

    return combined.map_batches(finalize, batch_format="pyarrow")


def _final_agg(ds, group_cols: list[str], aggs: list[AggSpec], num_buckets: int = 32):
    """Combine partials with a BUCKETED C-side reduce, then finalize."""
    return _finalize_partials(
        _combine_partials(ds, group_cols, aggs, num_buckets), group_cols, aggs
    )


# ----------------------------------------------------------- batch operators
def grouped_aggregate(ds, group_cols: list[str], aggs: list[AggSpec]):
    """Plain grouped aggregate with the same partial/combine path as the
    window operators (per-batch pyarrow pre-aggregation → tiny shuffle)."""

    def partial(t: pa.Table) -> pa.Table:
        return _partial_agg_batch(t, group_cols, aggs)

    return _final_agg(ds.map_batches(partial, batch_format="pyarrow"), group_cols, aggs)


def rollup_aggregate(ds, group_cols: list[str], aggs: list[AggSpec],
                     sets: list[list[str]] | None = None,
                     num_buckets: int = 32):
    """GROUP BY ROLLUP / GROUPING SETS over one data pass.

    ``sets`` defaults to the ROLLUP prefixes of ``group_cols`` (finest →
    grand total); any explicit list of subsets of ``group_cols`` gives
    GROUPING SETS.  Output: every group column (NULL where rolled up), a
    ``grouping_id`` int64 bitmask matching SQL ``GROUPING(c1, …, cn)``
    (bit 2^(n-1-i) set when column i is rolled up), and the aggregates.

    Scale shape: the RAW data is scanned and partial-aggregated ONCE at
    the finest level; each batch's partial rows (O(distinct groups per
    batch) — tiny relative to the data) are then EXPANDED into every
    grouping set (rolled-up keys nulled + a grouping_id tag) and a
    single bucket exchange combines all levels at once — one execution,
    one shuffle, no mid-pipeline materialize (the previous shape paid a
    materialize plus one exchange per set; the combined Ray per-
    execution fixed cost dominated the query).  Partial combining is
    associative (sums of sums, min of mins), so coarse levels reduce
    exactly from finest partials — including mean/var/std, whose
    (sum, sumsq, count) partials ride un-finalized.  Shuffle volume is
    |sets| × per-batch partial rows; for high-cardinality finest keys
    with many sets, a two-stage (combine-finest-first) variant would
    trade a second exchange for less volume — not worth it at the
    catalog's set counts (ROLLUP/CUBE over ≤ 3 columns).
    """
    if sets is None:
        sets = [group_cols[:k] for k in range(len(group_cols), -1, -1)]
    for s in sets:
        if not set(s) <= set(group_cols):
            raise ValueError(f"grouping set {s!r} not a subset of {group_cols!r}")

    from .join import _arrow_schema_of  # runtime import: join imports windows

    schema = _arrow_schema_of(ds)
    key_types = {c: schema.field(c).type for c in group_cols}

    n = len(group_cols)
    set_specs = []
    for s in sets:
        keys = [c for c in group_cols if c in s]  # canonical column order
        gid = sum(
            (1 << (n - 1 - i)) for i, c in enumerate(group_cols) if c not in s
        )
        set_specs.append((keys, gid))

    def partial(t: pa.Table) -> pa.Table:
        fine = _partial_agg_batch(t, group_cols, aggs)
        outs = []
        for keys, gid in set_specs:
            lvl = fine
            for i, c in enumerate(group_cols):
                if c not in keys:
                    # rolled-up keys carry a type-default SENTINEL, not
                    # null: grouping_id already says which columns are
                    # rolled up (they are nulled back at the end), and
                    # pyarrow's multi-key group_by mis-groups NULL string
                    # keys (splits every 32 rows — accumulator batch
                    # granularity; pyarrow 16.1, see test_windows null-key
                    # regression test)
                    lvl = lvl.set_column(
                        i, c,
                        pc.fill_null(pa.nulls(fine.num_rows, key_types[c]),
                                     _default_scalar(key_types[c])),
                    )
            outs.append(lvl.append_column(
                "grouping_id",
                pa.array(np.full(fine.num_rows, gid, np.int64)),
            ))
        return pa.concat_tables(outs)

    out_cols = group_cols + ["grouping_id"] + [a.alias for a in aggs]
    combined = _combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        group_cols + ["grouping_id"], aggs, num_buckets,
    )
    finalized = _finalize_partials(combined, group_cols + ["grouping_id"], aggs)

    def null_rolled_up(t: pa.Table) -> pa.Table:
        gid = t["grouping_id"].to_numpy(zero_copy_only=False)
        for i, c in enumerate(group_cols):
            rolled = ((gid >> (n - 1 - i)) & 1).astype(bool)
            if rolled.any():
                col = pc.if_else(pa.array(~rolled), t[c],
                                 pa.scalar(None, key_types[c]))
                t = t.set_column(t.schema.get_field_index(c), c, col)
        return t.select(out_cols)

    return finalized.map_batches(null_rolled_up, batch_format="pyarrow")


def grouped_quantile(ds, group_cols: list[str], value_col: str,
                     qs: dict[str, float], num_buckets: int = 64,
                     interpolation: str = "disc"):
    """Exact per-group quantiles.  ``interpolation="disc"`` (default) is
    the DuckDB ``quantile_disc`` convention: the element at sorted index
    ``max(0, ceil(q·n) − 1)``; ``"linear"`` is ``quantile_cont``
    (numpy default): linear interpolation at rank ``q·(n−1)``.  NULL
    values are ignored.  ``qs`` maps output column name → q.

    Quantiles don't pre-aggregate (no exact combiner), so this is one
    hash(key)-bucket shuffle of the (group, value) pairs, then each
    bucket resolves ALL its groups in a single lexsort + run-offset
    gather — the repo's standard wide-reduce shape.  For corpora where
    shipping raw values is too wide, use ``approx_distinct``-style
    sketches (histogram) instead and accept the approximation.
    """
    from ..hashing import hash64

    sel = ds.select_columns(list(dict.fromkeys(group_cols + [value_col])))

    def tag(t: pa.Table) -> pa.Table:
        h = hash64(t[group_cols[0]]).copy()
        for c in group_cols[1:]:
            h ^= hash64(t[c]) * np.uint64(0x9E3779B97F4A7C15)
        b = (h % np.uint64(num_buckets)).astype(np.int64)
        return t.append_column("__bucket", pa.array(b))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        import pandas as pd

        # groups whose values are ALL NULL still emit a row (with NULL
        # quantiles) — SQL aggregate semantics
        all_groups = g[group_cols].drop_duplicates()
        g = g[g[value_col].notna()]
        if g.empty:
            out = all_groups.reset_index(drop=True)
            for name in qs:
                out[name] = np.nan
            return out
        keys = pd.MultiIndex.from_frame(g[group_cols])
        _, codes = np.unique(np.asarray(keys.to_numpy(), dtype=object),
                             return_inverse=True)
        vals = g[value_col].to_numpy()
        order = np.lexsort((vals, codes))
        sc, sv = codes[order], vals[order]
        run_start = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]])
        counts = np.diff(np.append(run_start, len(sc)))
        first_rows = g.iloc[order[run_start]][group_cols].reset_index(drop=True)
        out = {c: first_rows[c] for c in group_cols}
        for name, q in qs.items():
            if interpolation == "linear":
                pos = q * (counts - 1)
                lo = np.floor(pos).astype(np.int64)
                hi = np.minimum(lo + 1, counts - 1)
                frac = pos - lo
                a = sv[run_start + lo].astype(np.float64)
                b = sv[run_start + hi].astype(np.float64)
                out[name] = a + (b - a) * frac
            else:
                idx = np.maximum(0, np.ceil(q * counts).astype(np.int64) - 1)
                out[name] = sv[run_start + idx]
        out = pd.DataFrame(out)
        missing = all_groups.merge(
            out[group_cols], on=group_cols, how="left", indicator=True
        )
        missing = missing[missing["_merge"] == "left_only"][group_cols]
        if len(missing):
            for name in qs:
                missing[name] = np.nan
            out = pd.concat([out, missing], ignore_index=True)
        return out

    return (
        sel.map_batches(tag, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def winsorize(ds, group_cols: list[str], value_col: str,
              lo_q: float = 0.05, hi_q: float = 0.95,
              out_col: str = "winsorized", num_buckets: int = 64):
    """Per-group quantile clipping (winsorization) — the robust-stats
    outlier tamer run before training-feature aggregation: every value
    is clamped into ``[quantile(lo_q), quantile(hi_q)]`` of its group.

    Thresholds come from one exact ``grouped_quantile`` pass
    (``disc`` convention, so they are actual data values and the clamp
    is bit-exact against a SQL ``least/greatest`` oracle).  The
    per-group threshold table is tiny (one row per group); it is
    broadcast once via the object store and applied per batch with a
    pandas merge — the row stream itself never shuffles.
    """
    from .join import broadcast_join

    th = grouped_quantile(
        ds, group_cols, value_col, {"__w_lo": lo_q, "__w_hi": hi_q},
        num_buckets=num_buckets,
    ).to_pandas()
    joined = broadcast_join(ds, th, on=list(group_cols), how="left")

    def clip(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        v = pc.cast(t[value_col], pa.float64())
        clamped = pc.min_element_wise(
            pc.max_element_wise(v, pc.cast(t["__w_lo"], pa.float64())),
            pc.cast(t["__w_hi"], pa.float64()),
        )
        return t.drop_columns(["__w_lo", "__w_hi"]).append_column(
            out_col, clamped)

    return joined.map_batches(clip, batch_format="pyarrow")


def tumbling_window(
    ds,
    key_cols: list[str],
    ts_col: str,
    size_ms: int,
    aggs: list[AggSpec],
    window_col: str = "window_start",
):
    """Tumbling event-time window aggregate (batch form).

    Pipeline: map_batches(assign + partial agg) → groupby(partials) →
    finalize.  The shuffle carries ≤ one row per (key, window) per input
    block.
    """
    group_cols = list(key_cols) + [window_col]

    def assign_and_partial(t: pa.Table) -> pa.Table:
        ts = ts_to_ms(t[ts_col])
        w = assign_tumbling(ts, size_ms)
        t = t.append_column(window_col, pa.array(w, pa.int64()))
        return _partial_agg_batch(t, group_cols, aggs)

    partial = ds.map_batches(assign_and_partial, batch_format="pyarrow")
    return _final_agg(partial, group_cols, aggs)


def sliding_window(
    ds,
    key_cols: list[str],
    ts_col: str,
    size_ms: int,
    slide_ms: int,
    aggs: list[AggSpec],
    window_col: str = "window_start",
):
    """Sliding event-time window aggregate (batch form): explode ×k, then
    the same partial/combine path as tumbling."""
    group_cols = list(key_cols) + [window_col]

    def assign_and_partial(t: pa.Table) -> pa.Table:
        ts = ts_to_ms(t[ts_col])
        rows, starts = explode_sliding(ts, size_ms, slide_ms)
        t = t.take(pa.array(rows))
        t = t.append_column(window_col, pa.array(starts, pa.int64()))
        return _partial_agg_batch(t, group_cols, aggs)

    partial = ds.map_batches(assign_and_partial, batch_format="pyarrow")
    return _final_agg(partial, group_cols, aggs)


def session_window(
    ds,
    key_cols: list[str],
    ts_col: str,
    gap_ms: int,
    aggs: list[AggSpec],
    start_col: str = "session_start",
    end_col: str = "session_end",
):
    """Session (gap-based) windows, batch form.

    Requires all rows of a key in one group → ``groupby(key).map_groups``
    (a key-hash shuffle).  Output key = (key_cols…, session_start) with
    session_end = last event ts (order-insensitive identity).  At scale
    this shuffle is keyed by the same hash(key) partitioning the streaming
    engine uses, so state stays co-located.
    """
    import pandas as pd

    from ..hashing import hash64

    num_buckets = 32

    def add_bucket(t: pa.Table) -> pa.Table:
        h = np.zeros(t.num_rows, dtype=np.uint64)
        for c in key_cols:
            h ^= hash64(t[c])
        return t.append_column(
            "__bucket", pa.array((h % np.uint64(num_buckets)).astype(np.int64))
        )

    # reduce per BUCKET: sort by (keys, ts) and sessionize every key of
    # the bucket in one vectorized pass (key-change OR gap ⇒ new session),
    # then one C-side pandas groupby over session ids — no per-key or
    # per-session Python dispatch
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns="__bucket").sort_values(
            list(key_cols) + [ts_col], kind="mergesort"
        )
        ts = ts_to_ms(pa.Array.from_pandas(g[ts_col]))
        n = len(g)
        brk = np.zeros(n, dtype=bool)
        brk[0] = True
        for k in key_cols:
            v = g[k].to_numpy()
            brk[1:] |= v[1:] != v[:-1]
        brk[1:] |= np.diff(ts) > gap_ms
        sid = np.cumsum(brk)
        g = g.assign(__sid=sid, __ms=ts)
        gb = g.groupby("__sid", sort=False)
        data = {k: gb[k].first() for k in key_cols}
        data[start_col] = gb["__ms"].first().astype("int64")
        data[end_col] = gb["__ms"].last().astype("int64")
        for a in aggs:
            if a.fn == "count":
                data[a.alias] = gb.size().astype("int64")
            elif a.fn == "sum":
                data[a.alias] = gb[a.col].sum()
            elif a.fn == "min":
                data[a.alias] = gb[a.col].min()
            elif a.fn == "max":
                data[a.alias] = gb[a.col].max()
            elif a.fn == "mean":
                data[a.alias] = gb[a.col].mean().astype("float64")
        return pd.DataFrame(data).reset_index(drop=True)

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )
