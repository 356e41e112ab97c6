"""Resumable partitioned batch output (rename-free).

``write_partitioned`` writes a Dataset as one directory per key-hash
partition with a per-partition ``_DONE`` manifest: data files land in
their FINAL location (Ray's partitioned ``write_parquet``), and the
commit is the ``_DONE`` object naming exactly the files that constitute
the partition — readers consult the manifest, so files a crashed run
left behind are invisible (and swept at the next run's start).  No
rename anywhere: the same protocol runs on object storage (see
``hydra_ray.fs``).  The NEXT run skips every ``_DONE`` partition at the
map stage (their rows are filtered before any work or shuffle).  That
makes bulk output restartable at partition granularity — the batch-side
counterpart of the streaming sink's per-partition epochs
(`table/lancelite.py commit_epoch`), and the "never one giant file"
rule at 100 TB: partition count is chosen from the KEY SPACE, not the
cluster.

Layout::

    root/
      partition=17/
        <ray write_parquet files>
        _DONE            # json: rows, run id, committed file list
"""

from __future__ import annotations

import contextlib
import json
import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .hashing import add_partition_column

__all__ = ["write_partitioned", "done_partitions", "partition_dir",
           "partition_files", "sorted_write", "read_sorted",
           "ordered_execution"]

_PART_PREFIX = "partition="


def done_partitions(root: str) -> set[int]:
    """Partitions already committed under ``root`` (by ``_DONE`` marker)."""
    from .fs import fexists, flist

    out = set()
    for name in flist(root):
        if name.startswith(_PART_PREFIX) and fexists(
            os.path.join(root, name, "_DONE")
        ):
            out.add(int(name[len(_PART_PREFIX):]))
    return out


def partition_dir(root: str, p: int) -> str:
    return os.path.join(root, f"{_PART_PREFIX}{p}")


def partition_files(root: str, p: int) -> list[str]:
    """READABLE paths of the COMMITTED parquet files of one partition:
    the ``_DONE`` manifest's file list (uncommitted partitions and
    crashed runs' leftovers are invisible).  Paths come back through
    ``fs.local_path`` — resolved for parquet readers, never carrying a
    backend scheme.  A ``_DONE`` without a file list raises: the
    committed set is unknown."""
    import json as _json

    from .fs import resolve

    fs, base = resolve(partition_dir(root, p))
    marker = os.path.join(base, "_DONE")
    if not fs.exists(marker):
        return []
    meta = _json.loads(fs.get(marker))
    files = meta.get("files")
    if files is None:
        raise ValueError(
            f"{marker} names no committed files; the partition cannot be "
            "read without guessing which parquet files belong to it")
    return [fs.local_path(os.path.join(base, f)) for f in sorted(files)]


def write_partitioned(ds, root: str, key_col: str | None = None,
                      num_partitions: int = 64,
                      partition_col: str | None = None):
    """Write ``ds`` under ``root`` as ``part=<hash(key) % P>/`` directories,
    skipping partitions already marked ``_DONE`` by a previous (possibly
    crashed) run.  Returns ``{partition: rows}`` for partitions committed
    BY THIS RUN (empty partitions commit too, so a resume never rescans
    them).

    Pass ``partition_col`` to partition on an EXISTING int column in
    ``[0, num_partitions)`` (e.g. an IVF list id) instead of hashing
    ``key_col``.

    One streaming pass: tag+filter in ``map_batches``, then Ray Data's
    partitioned ``write_parquet`` straight into the FINAL partition
    dirs; the driver then writes each partition's ``_DONE`` manifest
    naming the committed files (O(P) cheap metadata work, no renames).
    A crash before a partition's ``_DONE`` leaves unreferenced files —
    invisible to readers (they follow the manifest) and swept at the
    next run's start.
    """
    from .fs import fdelete, fensure_dir, flist, resolve

    fs, base = resolve(root)
    fensure_dir(root)
    done = done_partitions(root)
    run = uuid.uuid4().hex[:12]
    # single-writer contract: files in non-committed partition dirs are
    # crashed runs' leftovers — sweep them so the post-write listing is
    # exactly this run's output
    for name in flist(root):
        if not name.startswith(_PART_PREFIX):
            continue
        if int(name[len(_PART_PREFIX):]) in done:
            continue
        for f in flist(os.path.join(root, name)):
            fdelete(os.path.join(root, name, f))

    done_arr = np.array(sorted(done), dtype=np.int32)

    if (key_col is None) == (partition_col is None):
        raise ValueError("pass exactly one of key_col / partition_col")

    def tag_and_filter(t: pa.Table) -> pa.Table:
        if partition_col is None:
            # add_partition_column drops any pre-existing 'partition' column
            t = add_partition_column(t, key_col, num_partitions)
        else:
            part = t[partition_col].to_numpy(zero_copy_only=False).astype(np.int64)
            if len(part) and (part.min() < 0 or part.max() >= num_partitions):
                raise ValueError(
                    f"{partition_col} values outside [0, {num_partitions})"
                )
            if partition_col != "partition":
                if "partition" in t.column_names:
                    t = t.drop_columns(["partition"])
                t = t.append_column("partition", pa.array(part.astype(np.int32)))
        if len(done_arr):
            part = t["partition"].to_numpy(zero_copy_only=False)
            t = t.filter(pa.array(~np.isin(part, done_arr)))
        return t

    ds.map_batches(tag_and_filter, batch_format="pyarrow").write_parquet(
        fs.local_path(base), partition_cols=["partition"]
    )

    committed: dict[int, int] = {}
    written = set()
    for name in flist(root):
        if not name.startswith(_PART_PREFIX):
            continue
        p = int(name[len(_PART_PREFIX):])
        if p in done:
            continue
        written.add(p)
        d = os.path.join(root, name)
        files = [f for f in flist(d) if f.endswith(".parquet")]
        rows = sum(
            pq.read_metadata(fs.local_path(
                os.path.join(base, name, f))).num_rows
            for f in files
        )
        _mark_done(d, rows, run, files)
        committed[p] = rows
    # empty partitions: commit a marker so a resume never re-waits on them
    for p in range(num_partitions):
        if p in done or p in written:
            continue
        _mark_done(partition_dir(root, p), 0, run, [])
        committed[p] = 0
    return committed


def _mark_done(dest: str, rows: int, run: str, files: list[str]) -> None:
    """The partition's commit: ONE atomic object naming its files.  A
    concurrent/replayed marker loses the conditional PUT (single-writer
    contract makes that benign)."""
    from .fs import fput

    fput(
        os.path.join(dest, "_DONE"),
        json.dumps({"rows": rows, "run": run,
                    "files": sorted(files)}).encode(),
        mode="create_or_skip",
    )


def sorted_write(ds, value_col: str, root: str,
                 tiebreak_cols: tuple = (),
                 num_partitions: int = 64, sample_per_block: int = 32):
    """Globally SORTED partitioned output without an all-to-all
    ``ds.sort``: sample-sort range cutpoints (``stages.sort``) assign
    each row a range id, ONE ``groupby(range)`` exchange sorts each
    range with a single lexsort, and the resumable ``write_partitioned``
    commit lays ranges out as ``part=<i>/`` dirs in key order.
    ``read_sorted`` re-reads the whole tree in global order — the
    write-side counterpart of ``global_rank`` (§2.7).

    Range count is chosen from the KEY SPACE (cutpoint dedup may shrink
    it when the value distribution is discrete); each range must fit one
    worker's heap — the same contract as any range partitioner.
    """
    from .stages.sort import range_cutpoints

    cuts = range_cutpoints(ds, value_col, num_partitions, sample_per_block)
    if cuts is None:
        return write_partitioned(ds, root, key_col=value_col,
                                 num_partitions=1)
    nb = len(cuts) + 1

    def tag(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False)
        part = np.searchsorted(cuts, v, side="left").astype(np.int32)
        if "partition" in t.column_names:
            t = t.drop_columns(["partition"])
        return t.append_column("partition", pa.array(part))

    def sort_range(g):
        keys = tuple(
            g[c].to_numpy() for c in reversed(tuple(tiebreak_cols))
        ) + (g[value_col].to_numpy(),)
        order = np.lexsort(keys)
        return g.iloc[order]

    ranged = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("partition")
        .map_groups(sort_range, batch_format="pandas")
    )
    return write_partitioned(ranged, root, partition_col="partition",
                             num_partitions=nb)


@contextlib.contextmanager
def ordered_execution():
    """Scope in which Ray Data executions preserve block order.

    Ray's streaming executor does NOT preserve block order by default
    (tasks emit as they finish); ``preserve_order`` is the documented
    switch for order-sensitive consumption.  It lives on the
    process-global ``DataContext``, so flipping it permanently would
    silently cost every later unrelated pipeline its out-of-order
    pipelining — this restores the prior value on exit.  Consume any
    order-sensitive Dataset (``read_sorted``) inside this scope."""
    from ray.data import DataContext

    opts = DataContext.get_current().execution_options
    prev = opts.preserve_order
    opts.preserve_order = True
    try:
        yield
    finally:
        opts.preserve_order = prev


def read_sorted(root: str):
    """Lazy Dataset over a ``sorted_write`` tree in GLOBAL order: part
    dirs ascend by range id and each part's files/rows were written in
    sorted order, so path-ordered read tasks yield ordered blocks.

    The Dataset is lazy — order is only realized if it EXECUTES with
    ``preserve_order`` on; consume it inside ``ordered_execution()``:

        with ordered_execution():
            df = read_sorted(root).to_pandas()
    """
    import ray.data as rd

    from .fs import flist

    paths = []
    for name in sorted(
        (n for n in flist(root) if n.startswith(_PART_PREFIX)),
        key=lambda n: int(n.split("=", 1)[1]),
    ):
        paths.extend(partition_files(root, int(name.split("=", 1)[1])))
    if not paths:
        return rd.from_items([])
    return rd.read_parquet(paths)


def zorder_write(ds, cols, root: str, num_partitions: int = 64,
                 sample_per_block: int = 32, bits: int = 12):
    """Z-ORDER (Morton-curve) clustered partitioned output — the
    multi-dimensional counterpart of :func:`sorted_write`: rows lay out
    along a bit-interleaved curve over 2+ columns, so a reader pruning
    on ANY clustered column (or a box over several) skips most part
    files via their parquet footer min/max stats.  This is the layout
    lever for 100 TB tables queried by more than one key (the Delta/
    Iceberg ``ZORDER BY`` idea, from public descriptions).

    Shape: per column, sample-sort cutpoints (``stages.sort``) quantize
    values into a ``bits``-bit EQUI-DEPTH code (robust to skew — ranks,
    not raw magnitudes); codes bit-interleave into one int64 z key; the
    partition id is the TOP ``log2(P)`` z bits (equi-depth codes make
    the top-bit cells near-equal mass), laid out by the resumable
    ``write_partitioned`` commit.  One sampling pass + ONE exchange.

    ``num_partitions`` must be a power of two ≤ 2**(bits·len(cols)).
    Cluster columns must be numeric and non-null (same contract as the
    range partitioner).  Returns ``{partition: rows}``.
    """
    from .stages.sort import range_cutpoints

    cols = list(cols)
    if len(cols) < 2:
        raise ValueError("zorder_write needs >= 2 cluster columns")
    p_bits = int(num_partitions).bit_length() - 1
    if (1 << p_bits) != num_partitions:
        raise ValueError("num_partitions must be a power of two")
    if p_bits > bits * len(cols):
        raise ValueError("num_partitions exceeds the z key space")

    # per-column equi-depth quantizer: (2**bits - 1) cutpoints
    cuts = {}
    for c in cols:
        cc = range_cutpoints(ds, c, 1 << bits, sample_per_block)
        cuts[c] = cc if cc is not None else np.array([])

    nc = len(cols)
    total_bits = bits * nc

    def tag(t: pa.Table) -> pa.Table:
        z = np.zeros(t.num_rows, np.int64)
        for ci, c in enumerate(cols):
            v = t[c].to_numpy(zero_copy_only=False)
            code = np.searchsorted(cuts[c], v, side="left").astype(
                np.int64)
            # interleave: bit b of code -> z bit b*nc + (nc-1-ci)
            for b in range(bits):
                z |= ((code >> b) & 1) << (b * nc + (nc - 1 - ci))
        part = (z >> (total_bits - p_bits)).astype(np.int32)
        out = t
        for name, arr in (("__z", z), ("partition", part)):
            if name in out.column_names:
                out = out.drop_columns([name])
            out = out.append_column(name, pa.array(arr))
        return out

    def sort_z(g):
        order = np.argsort(g["__z"].to_numpy(), kind="stable")
        return g.iloc[order].drop(columns="__z")

    ranged = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("partition")
        .map_groups(sort_z, batch_format="pandas")
    )
    return write_partitioned(ranged, root, partition_col="partition",
                             num_partitions=num_partitions)


def read_clustered(root: str, predicates: dict | None = None):
    """Read a ``write_partitioned``/``zorder_write`` tree, PRUNING whole
    part files whose parquet footer min/max stats cannot intersect the
    predicate box (``{col: (lo, hi)}``, bounds inclusive, either side
    None for open).  Rows are then exact-filtered — pruning only skips
    I/O, never changes results.  Only O(files) footer reads happen on
    the driver; row data streams through the normal parquet read."""
    import pyarrow.parquet as _pq
    import ray.data as rd

    from .fs import flist

    files = []
    for name in sorted(
        (n for n in flist(root) if n.startswith(_PART_PREFIX)),
        key=lambda n: int(n.split("=", 1)[1]),
    ):
        files.extend(partition_files(root, int(name.split("=", 1)[1])))
    if predicates:
        kept = []
        for f in files:
            md = _pq.read_metadata(f)
            sch = md.schema.to_arrow_schema()
            ok = True
            for col, (lo, hi) in predicates.items():
                idx = sch.get_field_index(col)
                if idx < 0:
                    ok = False
                    break
                mn, mx = None, None
                for rg in range(md.num_row_groups):
                    st = md.row_group(rg).column(idx).statistics
                    if st is None or not st.has_min_max:
                        mn, mx = None, None
                        break
                    mn = st.min if mn is None else min(mn, st.min)
                    mx = st.max if mx is None else max(mx, st.max)
                if mn is None:          # no stats: cannot prune
                    continue
                if (hi is not None and mn > hi) or (
                        lo is not None and mx < lo):
                    ok = False
                    break
            if ok:
                kept.append(f)
        # keep one file when everything pruned: the exact filter will
        # drop its rows, but the Dataset keeps the tree's schema (a
        # 0-file read would lose column names downstream)
        files = kept or files[:1]
    if not files:
        raise ValueError("read_clustered: empty tree")
    ds = rd.read_parquet(files)
    if predicates:
        import pyarrow.compute as pc

        def exact(t: pa.Table) -> pa.Table:
            m = None
            for col, (lo, hi) in predicates.items():
                cm = None
                if lo is not None:
                    cm = pc.greater_equal(t[col], pa.scalar(lo))
                if hi is not None:
                    hm = pc.less_equal(t[col], pa.scalar(hi))
                    cm = hm if cm is None else pc.and_(cm, hm)
                if cm is not None:
                    m = cm if m is None else pc.and_(m, cm)
            return t.filter(m) if m is not None else t

        ds = ds.map_batches(exact, batch_format="pyarrow")
    return ds, len(files)
