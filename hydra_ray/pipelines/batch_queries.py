"""The query catalog: every operator family exposed as a named pipeline
over the testdata tables, with a DuckDB oracle where SQL can express it
(driver correctness gate — see ``__ray_entry__.py``).

Conventions (the driver hash-compares values after sorting columns by
name): every computed column is explicitly named identically here and in
the SQL; float aggregates are rounded on BOTH sides; timestamps are
exported as int64 epoch-milliseconds (matching DuckDB ``epoch_ms``).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds

from ..stages.dedup import exact_dedup, latest_by_key
from ..stages.join import asof_join, broadcast_join, interval_join
from ..stages.keys import extract_json_key
from ..stages.neardup import minhash_lsh_candidates, simhash_near_pairs
from ..stages.similarity import (
    cosine_range_search,
    cosine_topk,
    embedding_neardup_pairs,
    ivf_topk,
    pq_topk,
    train_centroids,
    train_pq,
)
from ..stages.text import Fingerprint, LangId, QualityScore, TokenStats
from ..stages.windows import (
    AggSpec,
    grouped_aggregate,
    session_window,
    sliding_window,
    tumbling_window,
    ts_to_ms,
)

HOUR = 3_600_000
DAY = 86_400_000


_NROWS_CACHE: dict = {}


def _read(sf_dir: str, table: str, columns=None, rows_per_block=20_000,
          filter=None):
    """Read one table with DATA-derived block sizing.

    Ray's default split (2×CPUs) shreds small single-file tables into
    64 tiny blocks; every downstream groupby/sort exchange then pays
    per-block scheduling that dwarfs the data (measured: orders⋈customer
    join 4.6 s → 3.0 s at sf0.1 just from block count).  Target ~20 k
    rows per block from parquet metadata — derived from the table, not
    the cluster, so the same rule yields thousands of blocks at 100 TB.
    Compute-heavy downstream stages (ms per ROW, e.g. simhash word
    explode) pass a smaller ``rows_per_block`` so the map stage fans out.

    ``filter`` (a ``pyarrow.dataset`` expression) pushes row predicates
    INTO the parquet scan — row groups whose stats cannot match never
    leave storage, the prune-at-the-read rule for selective scans."""
    import ray.data as rd

    path = os.path.join(sf_dir, f"{table}.parquet")
    nrows = _NROWS_CACHE.get(path)
    if nrows is None:
        import pyarrow.parquet as pq

        nrows = pq.read_metadata(path).num_rows
        _NROWS_CACHE[path] = nrows
    nb = max(2, min(64, -(-nrows // rows_per_block)))
    kw = {} if filter is None else {"filter": filter}
    return rd.read_parquet(path, columns=columns,
                           override_num_blocks=nb, **kw)


def _dim_pd(sf_dir: str, table: str, columns=None, filters=None):
    """Driver-side load of a BOUNDED dimension table as pandas — a plain
    pyarrow parquet read, NOT a Ray Dataset: a broadcast side needs the
    rows on the driver anyway, and routing the read through the Dataset
    executor pays the ~0.3-0.5 s per-execution fixed cost for a
    metadata-scale I/O (measured; several TPC-H queries paid it 2-3×).
    ``filters`` is the pyarrow row-filter pushdown (e.g. the 20 custkeys
    a top-k result needs).  Entity-scale tables that outgrow broadcast
    go through ``dim_join`` instead — this helper is for driver-resident
    lookups only."""
    import pyarrow.parquet as pq

    return pq.read_table(
        os.path.join(sf_dir, f"{table}.parquet"),
        columns=columns, filters=filters,
    ).to_pandas()


def round_f64(arr, nd: int):
    """DuckDB-exact ROUND(double, nd): floor(|x·10^nd| + 0.5)·sign(x) / 10^nd.

    pc.round(..., round_mode="half_towards_infinity") is NOT bit-identical
    to DuckDB's ROUND — e.g. round(6.59 + 0.31, 2) stays
    6.8999999999999995 under pyarrow but becomes the 6.9 double under
    DuckDB's scale→std::round→unscale — and the driver's value hash
    compares exact doubles.  This reproduces DuckDB's float computation
    step for step (validated on 60k adversarial values at 2/4/6 digits);
    nulls pass through untouched."""
    a = pc.cast(arr, pa.float64())
    p = pa.scalar(10.0 ** nd, pa.float64())
    y = pc.multiply(a, p)
    mag = pc.floor(pc.add(pc.abs(y), pa.scalar(0.5, pa.float64())))
    return pc.divide(pc.multiply(mag, pc.sign(y)), p)


def _round_f64_np(a: np.ndarray, nd: int) -> np.ndarray:
    """numpy twin of ``round_f64`` (same DuckDB-exact float steps)."""
    p = 10.0 ** nd
    y = a * p
    return np.floor(np.abs(y) + 0.5) * np.sign(y) / p


def _round_cols(ds, cols: dict[str, int]):
    def f(t: pa.Table) -> pa.Table:
        for c, nd in cols.items():
            i = t.schema.get_field_index(c)
            t = t.set_column(i, c, round_f64(t[c], nd))
        return t

    return ds.map_batches(f, batch_format="pyarrow")


def _ms_col(ds, src: str, out: str, drop=True):
    def f(t: pa.Table) -> pa.Table:
        t = t.append_column(out, pa.array(ts_to_ms(t[src]), pa.int64()))
        return t.drop_columns([src]) if drop else t

    return ds.map_batches(f, batch_format="pyarrow")


# ------------------------------------------------------------ CEP / windows
def q_tumbling_window(sf_dir):
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    out = tumbling_window(
        ds, ["user_id"], "ts", HOUR,
        [
            AggSpec("count", None, "n_events"),
            AggSpec("sum", "value", "sum_value"),
            AggSpec("max", "value", "max_value"),
        ],
    )
    return _round_cols(out, {"sum_value": 2, "max_value": 2})


def q_sliding_window(sf_dir):
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    out = sliding_window(
        ds, ["user_id"], "ts", 2 * HOUR, HOUR,
        [AggSpec("count", None, "n_events"), AggSpec("sum", "value", "sum_value")],
    )
    return _round_cols(out, {"sum_value": 2})


def q_session_window(sf_dir):
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    out = session_window(
        ds, ["user_id"], "ts", 30 * 60_000,
        [AggSpec("count", None, "n_events"), AggSpec("sum", "value", "sum_value")],
    )
    return _round_cols(out, {"sum_value": 2})


def q_interval_join(sf_dir):
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    clicks = ev.filter(expr="event_type == 'click'")
    purchases = ev.filter(expr="event_type == 'purchase'")
    out = interval_join(
        clicks, purchases, "user_id", "ts", "ts", 0, 600_000,
        left_cols=["event_id"], right_cols=["event_id"],
    )

    def project(t: pa.Table) -> pa.Table:
        lms = ts_to_ms(t["ts"])
        rms = ts_to_ms(t["ts_r"])
        return pa.table(
            {
                "user_id": t["user_id"],
                "click_id": t["event_id"],
                "purchase_id": t["event_id_r"],
                "dt_ms": pa.array(rms - lms, pa.int64()),
            }
        )

    return out.map_batches(project, batch_format="pyarrow")


def q_value_quantiles(sf_dir):
    """Exact per-event-type value quantiles (quantile_disc convention —
    exact elements, so values match the oracle bit-for-bit)."""
    from ..stages.windows import grouped_quantile

    ds = _read(sf_dir, "events", ["event_type", "value"])
    return grouped_quantile(
        ds, ["event_type"], "value", {"q25": 0.25, "median": 0.5, "q90": 0.9}
    )


def q_value_dispersion(sf_dir):
    """Per-event-type mean / sample variance / stddev — the statistical
    aggregates, combined exactly from (sum, sumsq, count) partials."""
    ds = _read(sf_dir, "events", ["event_type", "value"])
    out = grouped_aggregate(
        ds, ["event_type"],
        [
            AggSpec("count", None, "n"),
            AggSpec("mean", "value", "mean_value"),
            AggSpec("var", "value", "var_value"),
            AggSpec("std", "value", "std_value"),
        ],
    )
    return _round_cols(out, {"mean_value": 4, "var_value": 4, "std_value": 4})


def q_value_moments(sf_dir):
    """Per-event-type skewness/kurtosis — DuckDB bias-corrected sample
    semantics, combined exactly from power-sum partials (sum..sum⁴ +
    count), so the higher moments survive rollup re-combination too."""
    ds = _read(sf_dir, "events", ["event_type", "value"])
    out = grouped_aggregate(
        ds, ["event_type"],
        [
            AggSpec("count", None, "n"),
            AggSpec("skew", "value", "skew_value"),
            AggSpec("kurt", "value", "kurt_value"),
        ],
    )
    return _round_cols(out, {"skew_value": 4, "kurt_value": 4})


def q_value_regression(sf_dir):
    """Per-event-type least-squares fit of value against hour-of-day:
    regr_slope/regr_intercept/corr/covar_samp from cross-moment partials
    (sums of x, y, xy, x², y² — one partial pass, one bucketed reduce).
    Hour-of-day keeps the regressor's power sums well inside float64's
    exact range (epoch-ms itself squared would not be)."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    HOUR = 3_600_000

    def add_hour(t: pa.Table) -> pa.Table:
        ms = ts_to_ms(t["ts"])
        hour = ((ms // HOUR) % 24).astype(np.float64)
        return pa.table({
            "event_type": t["event_type"],
            "value": t["value"],
            "hod": pa.array(hour),
        })

    out = grouped_aggregate(
        ds.map_batches(add_hour, batch_format="pyarrow"), ["event_type"],
        [
            AggSpec("count", None, "n"),
            AggSpec("regr_slope", "value", "slope", col2="hod"),
            AggSpec("regr_intercept", "value", "intercept", col2="hod"),
            AggSpec("corr", "value", "corr_hod", col2="hod"),
            AggSpec("covar", "value", "covar_hod", col2="hod"),
        ],
    )
    return _round_cols(out, {"slope": 4, "intercept": 4,
                             "corr_hod": 4, "covar_hod": 4})


def q_flag_aggregates(sf_dir):
    """Per-event-type boolean fold: did EVERY event clear the floor
    (bool_and) / did ANY clear the cap (bool_or) — the flag-aggregate
    pair, reduced via min/max partials on the flag columns."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def flags(t: pa.Table) -> pa.Table:
        v = t["value"]
        return pa.table({
            "event_type": t["event_type"],
            "over_floor": pc.greater(v, pa.scalar(10.0)),
            "over_cap": pc.greater(v, pa.scalar(900.0)),
        })

    return grouped_aggregate(
        ds.map_batches(flags, batch_format="pyarrow"), ["event_type"],
        [
            AggSpec("count", None, "n"),
            AggSpec("bool_and", "over_floor", "all_over_floor"),
            AggSpec("bool_or", "over_cap", "any_over_cap"),
        ],
    )


def q_best_order(sf_dir):
    """Per-customer arg-extremes: the orderkey of the PRICIEST order and
    the priority string of the CHEAPEST one — AggSpec arg_max/arg_min,
    whose partial is one order-preserving binary key reduced with plain
    MAX (so the same partial survives combine and rollup re-combination
    like every power-sum partial).  Tie rule: smallest payload value —
    the oracle spells it out (DuckDB's bare arg_max is tie-unspecified)."""
    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderkey", "o_totalprice", "o_orderpriority"])
    out = grouped_aggregate(ds, ["o_custkey"], [
        AggSpec("count", None, "n"),
        AggSpec("max", "o_totalprice", "max_price"),
        AggSpec("arg_max", "o_orderkey", "best_order",
                col2="o_totalprice", ytype="int"),
        AggSpec("arg_min", "o_orderpriority", "cheap_priority",
                col2="o_totalprice", ytype="str"),
    ])
    return _round_cols(out, {"max_price": 2})


def q_window_quantiles(sf_dir):
    """Per-(event_type, day-window) exact median + p90 — the windowed
    quantile composition: tumbling window assignment is a pure per-batch
    map, then ONE grouped-quantile shuffle over the composite key."""
    from ..stages.windows import grouped_quantile

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def assign(t: pa.Table) -> pa.Table:
        ms = ts_to_ms(t["ts"])
        return pa.table({
            "event_type": t["event_type"],
            "window_start": pa.array((ms // DAY) * DAY, pa.int64()),
            "value": t["value"],
        })

    out = grouped_quantile(
        ds.map_batches(assign, batch_format="pyarrow"),
        ["event_type", "window_start"], "value",
        {"median": 0.5, "p90": 0.9}, interpolation="linear",
    )
    return _round_cols(out, {"median": 4, "p90": 4})


def q_avro_roundtrip(sf_dir):
    """Events → Avro object-container files (one OCF per batch task,
    deflate blocks) → read back: the reference's Avro interchange edge
    on this engine (`hydra_ray/avrolite.py`, pure-spec codec).  The SQL
    oracle is the IDENTITY projection — a hash match proves the binary
    round trip is lossless through the driver gate."""
    import shutil
    import uuid

    from ..avrolite import read_avro, write_avro

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value", "ts"])
    ds = _ms_col(ds, "ts", "ts_ms")
    out = f"/tmp/hydra_avro/{uuid.uuid4().hex}"
    try:
        write_avro(ds, out)
        back = read_avro(out).materialize()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return back


def q_zorder_scan(sf_dir):
    """Z-order clustered layout + box-pruned scan: events cluster on
    (user_id, value) along a Morton curve (`sinks.zorder_write`), then
    `read_clustered` answers a two-column box predicate reading only
    the part files whose footer stats intersect the box (pruning
    changes I/O, never results — the SQL oracle is the plain WHERE).
    The layout lever for 100 TB tables queried by more than one key."""
    import shutil
    import uuid

    from ..sinks import read_clustered, zorder_write

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    out = f"/tmp/hydra_zorder/{uuid.uuid4().hex}"
    try:
        zorder_write(ds, ["user_id", "value"], out, num_partitions=32)
        box, _n_files = read_clustered(
            out, {"user_id": (2, 8), "value": (10.0, 60.0)})

        def finalize(t: pa.Table) -> pa.Table:
            return pa.table({
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "value": round_f64(t["value"], 4),
            })

        return box.map_batches(
            finalize, batch_format="pyarrow").materialize()
    finally:
        shutil.rmtree(out, ignore_errors=True)


def q_orc_roundtrip(sf_dir):
    """Orders → ORC files (Arrow-native, zstd stripes, one file per
    batch task) → read back with column pruning pushed into the reader
    (`sources/orc.py`).  The SQL oracle is the IDENTITY projection — a
    hash match proves the columnar round trip is lossless through the
    driver gate."""
    import shutil
    import uuid

    from ..sources.orc import read_orc, write_orc

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
                "o_orderdate"])
    ds = _ms_col(ds, "o_orderdate", "odate_ms")
    out = f"/tmp/hydra_orc/{uuid.uuid4().hex}"
    try:
        write_orc(ds, out)
        back = read_orc(
            out, columns=["o_orderkey", "o_custkey", "o_orderstatus",
                          "o_totalprice", "odate_ms"]).materialize()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return back


def q_ipc_roundtrip(sf_dir):
    """Embeddings → Arrow IPC files (zstd body buffers, one file per
    batch task) → read back: the columnar interchange edge
    (`sources/ipc.py`), exercised on a NESTED list<float> column the
    Avro/CSV edges don't cover.  The oracle compares vec_id/label plus
    each round-tripped vector's L2 norm — a hash match proves the
    nested payload survived bit-exactly."""
    import shutil
    import uuid

    from ..sources.ipc import read_ipc, write_ipc

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    out = f"/tmp/hydra_ipc/{uuid.uuid4().hex}"
    try:
        write_ipc(ds, out)
        back = read_ipc(out)

        def norms(t: pa.Table) -> pa.Table:
            emb = t["embedding"].combine_chunks()
            flat = emb.values.to_numpy(zero_copy_only=False).astype(np.float64)
            offs = emb.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            sq = np.add.reduceat(flat * flat, offs[:-1])
            sq[np.diff(offs) == 0] = 0.0
            return pa.table({
                "vec_id": t["vec_id"],
                "label": t["label"],
                "l2": round_f64(pa.array(np.sqrt(sq)), 4),
            })

        return back.map_batches(norms, batch_format="pyarrow").materialize()
    finally:
        shutil.rmtree(out, ignore_errors=True)


def q_csv_roundtrip(sf_dir):
    """Customer → CSV shards (one file per batch task, quoted fields) →
    read back through the DLQ-routing CSV source (`sources/csvlite.py`).
    The SQL oracle is the IDENTITY projection — a hash match proves the
    text round trip is lossless (pandas shortest-repr floats parse back
    bit-exact) through the driver gate."""
    import os
    import shutil
    import uuid

    from ..sources.csvlite import read_csv_records

    cols = ["c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_mktsegment"]
    ds = _read(sf_dir, "customer", cols)
    out = f"/tmp/hydra_csv/{uuid.uuid4().hex}"
    os.makedirs(out, exist_ok=True)

    def write_shard(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"n": pd.Series([], dtype="int64")})
        p = os.path.join(out, f"part-{int(df['c_custkey'].iloc[0]):09d}.csv")
        df.to_csv(p, index=False)
        return pd.DataFrame({"n": [len(df)]})

    schema = pa.schema([
        ("c_custkey", pa.int64()), ("c_name", pa.string()),
        ("c_nationkey", pa.int32()), ("c_acctbal", pa.float64()),
        ("c_mktsegment", pa.string()),
    ])
    try:
        ds.map_batches(write_shard, batch_format="pandas").materialize()
        back = (
            read_csv_records(out, schema)
            .map_batches(lambda t: t.drop_columns(["error"]),
                         batch_format="pyarrow")
            .materialize()
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return back


def q_order_revenue(sf_dir):
    """TPC-H-Q5-lite multi-join pipeline: lineitem ⋈ orders via ONE
    bucketed hash exchange, then the small customer side broadcast
    (ray.put, no second shuffle), then revenue per market segment with
    EXACT integer-cents×(100−disc) sums (the pricing_summary money rule
    — float sums are order-dependent at big-group scale)."""
    from ..stages.join import broadcast_join, bucketed_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = _dim_pd(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def prep(t: pa.Table) -> pa.Table:
        extc = pc.cast(
            pc.round(pc.multiply(t["l_extendedprice"], pa.scalar(100.0))),
            pa.int64())
        discc = pc.cast(
            pc.round(pc.multiply(t["l_discount"], pa.scalar(100.0))),
            pa.int64())
        return pa.table({
            "okey": t["l_orderkey"],
            "rev_e4": pc.multiply(
                extc, pc.subtract(pa.scalar(100, pa.int64()), discc)),
        })

    left = li.map_batches(prep, batch_format="pyarrow")
    right = orders.map_batches(
        lambda t: pa.table({"okey": t["o_orderkey"],
                            "o_custkey": t["o_custkey"]}),
        batch_format="pyarrow")
    joined = bucketed_join(left, right, key="okey")
    seg = broadcast_join(
        joined, cust.rename(columns={"c_custkey": "o_custkey"}),
        on="o_custkey")
    agg = grouped_aggregate(
        seg, ["c_mktsegment"],
        [AggSpec("count", None, "n_items"),
         AggSpec("sum", "rev_e4", "rev_e4")],
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_mktsegment": t["c_mktsegment"],
            "n_items": pc.cast(t["n_items"], pa.int64()),
            "revenue": round_f64(
                pc.divide(pc.cast(t["rev_e4"], pa.float64()),
                          pa.scalar(10_000.0)), 2),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_shipping_priority(sf_dir):
    """TPC-H-Q3-shaped composition: segment-filtered customers broadcast
    into a date-filtered orders scan, ONE bucketed lineitem⋈orders
    exchange, exact integer-cents revenue per order, then global top-10
    via per-block partial top-k + a driver merge of the tiny partials
    (no global sort).  Filters are applied at the scan so only
    qualifying rows enter the exchange."""
    from ..stages.join import bucketed_join, dim_join

    CUT_MS = 896_659_200_000  # 1998-06-01 UTC

    # dimension side stays a Dataset; dim_join broadcasts it below the
    # bound and switches to the partitioned join beyond (customer grows
    # with SF — the documented cutover rule, VERDICT r3 #5)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: pa.table({
            "o_custkey": t.filter(
                pc.equal(t["c_mktsegment"], "BUILDING"))["c_custkey"],
        }), batch_format="pyarrow")

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate",
                    "o_orderpriority"])

    def prep_orders(t: pa.Table) -> pa.Table:
        ms = np.asarray(ts_to_ms(t["o_orderdate"]))
        keep = np.flatnonzero(ms < CUT_MS)
        top = t.take(pa.array(keep))
        return pa.table({
            "okey": top["o_orderkey"],
            "o_custkey": top["o_custkey"],
            "o_orderdate_ms": pa.array(ms[keep], pa.int64()),
            "o_orderpriority": top["o_orderpriority"],
        })

    right = dim_join(
        orders.map_batches(prep_orders, batch_format="pyarrow"),
        cust, on="o_custkey", how="semi",  # c_custkey unique → semi≡inner
    ).map_batches(lambda t: t.drop_columns(["o_custkey"]),
                  batch_format="pyarrow")

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def prep_li(t: pa.Table) -> pa.Table:
        ms = np.asarray(ts_to_ms(t["l_shipdate"]))
        top = t.take(pa.array(np.flatnonzero(ms > CUT_MS)))
        extc = pc.cast(
            pc.round(pc.multiply(top["l_extendedprice"], pa.scalar(100.0))),
            pa.int64())
        discc = pc.cast(
            pc.round(pc.multiply(top["l_discount"], pa.scalar(100.0))),
            pa.int64())
        return pa.table({
            "okey": top["l_orderkey"],
            "rev_e4": pc.multiply(
                extc, pc.subtract(pa.scalar(100, pa.int64()), discc)),
        })

    def partial_top(t: pa.Table) -> pa.Table:
        # runs INSIDE the bucketed_join reduce (reduce_fn): the bucket is
        # okey-complete by construction and date/priority are functions
        # of okey — the per-order sum AND the bucket's top-10 both
        # resolve here, no second exchange.  (A chained map_batches
        # could see a reduce block sliced mid-order by dynamic block
        # splitting at larger scale factors.)
        okey = t["okey"].to_numpy(zero_copy_only=False)
        rev = t["rev_e4"].to_numpy(zero_copy_only=False)
        order = np.argsort(okey, kind="stable")
        ok = okey[order]
        new = np.empty(len(ok), bool)
        new[:1] = True
        new[1:] = ok[1:] != ok[:-1]
        starts = np.flatnonzero(new)
        if not len(starts):
            return pa.table({
                "okey": pa.array([], pa.int64()),
                "o_orderdate_ms": pa.array([], pa.int64()),
                "o_orderpriority": pa.array([], pa.string()),
                "rev_e4": pa.array([], pa.int64()),
            })
        g_rev = np.add.reduceat(rev[order], starts)
        firsts = order[starts]
        g_ok = okey[firsts]
        g_ms = t["o_orderdate_ms"].to_numpy(
            zero_copy_only=False)[firsts]
        # top-10 by (rev desc, date asc, okey asc)
        top = np.lexsort((g_ok, g_ms, -g_rev))[:10]
        return pa.table({
            "okey": pa.array(g_ok[top], pa.int64()),
            "o_orderdate_ms": pa.array(g_ms[top], pa.int64()),
            "o_orderpriority": t["o_orderpriority"].take(
                pa.array(firsts[top])),
            "rev_e4": pa.array(g_rev[top], pa.int64()),
        })

    import ray

    parts = bucketed_join(li.map_batches(prep_li, batch_format="pyarrow"),
                          right, key="okey", reduce_fn=partial_top)
    merged = pa.concat_tables(
        [t for t in ray.get(parts.to_arrow_refs()) if t.num_rows],
        promote_options="default",
    )
    order = np.lexsort((
        merged["okey"].to_numpy(zero_copy_only=False),
        merged["o_orderdate_ms"].to_numpy(zero_copy_only=False),
        -merged["rev_e4"].to_numpy(zero_copy_only=False),
    ))[:10]
    top = merged.take(pa.array(order))
    return pa.table({
        "l_orderkey": top["okey"],
        "revenue": round_f64(
            pc.divide(pc.cast(top["rev_e4"], pa.float64()),
                      pa.scalar(10_000.0)), 2),
        "o_orderdate_ms": top["o_orderdate_ms"],
        "o_orderpriority": top["o_orderpriority"],
    })


def q_fuzzy_match(sf_dir):
    """Edit distance of every document's 40-char prefix to a fixed probe
    phrase — the fuzzy-match / decontamination-by-edit-distance probe,
    batch-vectorized DP (`text.levenshtein_probe`: the (L×m) cell loop
    runs once, each cell a numpy op across all rows).  NOTE: DuckDB
    substr is character-based; equal to the kernel's prefix on the
    ASCII fixture corpus."""
    from ..stages.text import levenshtein_probe

    probe = "the data pipeline processes streaming"
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        d = levenshtein_probe(
            t["text"].to_numpy(zero_copy_only=False), probe, prefix_chars=40)
        return pa.table({
            "doc_id": t["doc_id"],
            "dist": pa.array(d, pa.int64()),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def q_value_mad(sf_dir):
    """Per-event-type median absolute deviation of value (DuckDB mad):
    two grouped-quantile shuffles with the O(groups) medians broadcast
    between them — the robust-dispersion companion to value_dispersion."""
    from ..stages.profile import grouped_mad

    out = grouped_mad(_read(sf_dir, "events", ["event_type", "value"]),
                      ["event_type"], "value")
    return _round_cols(out, {"mad": 4})


def q_first_last_event(sf_dir):
    """Per-user arg_min/arg_max: the event type at each user's earliest
    and latest event (ties broken by event_id) — one `arg_extremes` pass
    (≤2 candidate rows per key leave each batch, one keyed exchange)."""
    from ..stages.dedup import arg_extremes

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    ds = _ms_col(ds, "ts", "ts_ms")
    out = arg_extremes(ds, ["user_id"], ["ts_ms", "event_id"],
                       ["event_type"])

    def tidy(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "first_type": t["event_type_first"],
            "first_ts": pc.cast(t["ts_ms_first"], pa.int64()),
            "last_type": t["event_type_last"],
            "last_ts": pc.cast(t["ts_ms_last"], pa.int64()),
        })

    return out.map_batches(tidy, batch_format="pyarrow")


def q_type_entropy(sf_dir):
    """Per-event-type Shannon entropy (base 2) of its user distribution —
    the corpus-diversity signal.  Two bucketed reduces, both C-side:
    counts per (event_type, user), then per type
    ``log2(N) − Σ c·log2 c / N`` from (Σ c·log2 c, N) sum partials."""
    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    counts = grouped_aggregate(
        ds, ["event_type", "user_id"], [AggSpec("count", None, "c")]
    )

    def clog(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "event_type": t["event_type"],
            "c": t["c"],
            "clog": pa.array(c * np.log2(c)),
        })

    agg = grouped_aggregate(
        counts.map_batches(clog, batch_format="pyarrow"), ["event_type"],
        [AggSpec("sum", "c", "n"), AggSpec("sum", "clog", "sclog")],
    )

    def finalize(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sclog = t["sclog"].to_numpy(zero_copy_only=False)
        ent = np.where(n > 0, np.log2(np.maximum(n, 1.0)) - sclog / n, 0.0)
        return pa.table({
            "event_type": t["event_type"],
            "n": pc.cast(t["n"], pa.int64()),
            "entropy": pa.array(ent),
        })

    return _round_cols(agg.map_batches(finalize, batch_format="pyarrow"),
                       {"entropy": 4})


def q_value_quantiles_cont(sf_dir):
    """Interpolated per-event-type quantiles (quantile_cont / numpy
    linear convention), rounded on both sides."""
    from ..stages.windows import grouped_quantile

    out = grouped_quantile(
        _read(sf_dir, "events", ["event_type", "value"]),
        ["event_type"], "value", {"q25": 0.25, "median": 0.5, "q90": 0.9},
        interpolation="linear",
    )
    return _round_cols(out, {"q25": 4, "median": 4, "q90": 4})


def q_winsorize(sf_dir):
    """Per-event-type winsorization at [p05, p95] (robust clipping
    before feature aggregation).  Thresholds are quantile_disc data
    values, so the clamp is bit-exact vs the SQL least/greatest."""
    from ..stages.windows import winsorize

    out = winsorize(
        _read(sf_dir, "events", ["event_id", "event_type", "value"]),
        ["event_type"], "value", 0.05, 0.95,
    )

    def fin(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "winsorized": round_f64(t["winsorized"], 2),
        })

    return out.map_batches(fin, batch_format="pyarrow")


def q_pivot_events(sf_dir):
    """Long → wide reshape: per-user spend by event type (explicit
    category list — the output schema must be known pre-execution)."""
    from ..stages.rollup import pivot_wider

    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])
    out = pivot_wider(
        ds, ["user_id"], "event_type", "value",
        names=["click", "purchase", "view"], prefix="sum_",
    )
    return _round_cols(
        out, {"sum_click": 2, "sum_purchase": 2, "sum_view": 2}
    )


def q_rolling_value(sf_dir):
    """Trailing 7-row mean of value per user in (ts, event_id) order —
    the per-key ordered-window operator (one key-bucket shuffle, cumsum
    kernel per bucket)."""
    from ..stages.rollup import grouped_rolling

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])

    def to_ms(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "ms": pa.array(ts_to_ms(t["ts"]), pa.int64()),
                "value": t["value"],
            }
        )

    out = grouped_rolling(
        ds.map_batches(to_ms, batch_format="pyarrow"),
        "user_id", "ms", "event_id", "value", window_rows=7,
        out_col="rolling_mean",
    )
    return _round_cols(out, {"rolling_mean": 4, "value": 2})


def q_date_shift(sf_dir):
    """Date/interval arithmetic scalar pack: due date = order date + 30
    days (timestamp + duration), age in days vs a fixed anchor
    (`pc.days_between` == DuckDB date_diff('day', …)); exported as
    epoch-ms / BIGINT per the timestamp convention."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    anchor = np.datetime64("2024-01-01", "us")

    def f(t: pa.Table) -> pa.Table:
        due = pc.add(t["o_orderdate"],
                     pa.scalar(30 * 86_400 * 10**6, pa.duration("us")))
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "due_ms": pc.divide(pc.cast(due, pa.int64()),
                                pa.scalar(1000, pa.int64())),
            "age_days": pc.days_between(pa.scalar(anchor),
                                        t["o_orderdate"]),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def q_string_pack(sf_dir):
    """Second string-function pack (reverse / left / lpad / replace —
    Arrow utf8_reverse, utf8_slice_codeunits, ascii_lpad,
    replace_substring vs the DuckDB spellings; byte==char on this ASCII
    corpus, which is what makes the codeunits slice oracle-exact).
    DuckDB's ``lpad(s, 8, '0')`` also truncates a longer ``s`` to its
    first 8 characters, which ``ascii_lpad`` alone does not."""
    ds = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"])

    def f(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": t["c_custkey"],
            "rname": pc.utf8_reverse(t["c_name"]),
            "l6": pc.utf8_slice_codeunits(t["c_name"], 0, 6),
            "pad": pc.utf8_slice_codeunits(
                pc.ascii_lpad(pc.cast(t["c_custkey"], pa.string()), 8,
                              padding="0"), 0, 8),
            "seg": pc.replace_substring(t["c_mktsegment"], pattern="U",
                                        replacement="_"),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def q_hits_scores(sf_dir):
    """HITS hubs/authorities over the supplier→part supply graph (the
    same directed multigraph as q_pagerank: suppliers are pure hubs,
    parts pure authorities — the classic bipartite HITS regime).
    Rows-only; the value oracle is the dense numpy power-iteration
    parity in tests/test_graph.py.  Scores round to 10 dp."""
    from ..stages.graph import hits

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"])

    def tag(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t["l_suppkey"],
            "dst": pc.add(pc.cast(t["l_partkey"], pa.int64()),
                          pa.scalar(1_000_000_000, pa.int64())),
        })

    scores = hits(ds.map_batches(tag, batch_format="pyarrow"),
                  "src", "dst", iters=12)

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"],
            "hub": round_f64(t["hub"], 10),
            "authority": round_f64(t["authority"], 10),
        })

    return scores.map_batches(finalize, batch_format="pyarrow")


def q_regex_extract(sf_dir):
    """Scalar regex extraction (both engines run RE2, so semantics are
    identical by construction): first ≥8-letter word per document via
    one vectorized `pc.extract_regex` pass — the scalar-function family
    member for pattern capture (alongside redact_text's replace and the
    funnel oracles' regexp machinery).  No-match normalizes to '' (the
    DuckDB regexp_extract convention; Arrow returns a null struct)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t["text"], pattern="(?P<w>[a-z]{8,})")
        w = pc.fill_null(pc.struct_field(m, "w"), "")
        return pa.table({"doc_id": t["doc_id"], "first_long": w})

    return ds.map_batches(f, batch_format="pyarrow")


def q_pareto_parts(sf_dir):
    """Exact 2-D SKYLINE over parts (minimize retail price AND size):
    the multi-objective filter shape (Börzsönyi 2001) — block-local
    vectorized Pareto prune, O(frontier·blocks) survivor union, one
    exact driver pass (`stages/sort.py skyline2`).  Price carries as
    exact integer cents so the strict-dominance boundary can never move
    under float noise; the oracle is the classic NOT EXISTS dominance
    predicate."""
    from ..stages.sort import skyline2

    ds = _read(sf_dir, "part", ["p_partkey", "p_size", "p_retailprice"])

    def cents(t: pa.Table) -> pa.Table:
        c = np.rint(
            t["p_retailprice"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "p_partkey": t["p_partkey"],
            "p_size": pc.cast(t["p_size"], pa.int64()),
            "price_cents": pa.array(c),
        })

    front = skyline2(ds.map_batches(cents, batch_format="pyarrow"),
                     "price_cents", "p_size")

    def out(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": t["p_partkey"],
            "p_size": t["p_size"],
            "price": round_f64(
                pc.divide(pc.cast(t["price_cents"], pa.float64()),
                          pa.scalar(100.0)), 2),
        })

    return front.map_batches(out, batch_format="pyarrow")


def q_above_avg_items(sf_dir):
    """Correlated-aggregate filter (TPC-H Q17's inner shape, applied
    per order): lineitems with quantity STRICTLY above their own
    order's average quantity.  One l_orderkey-bucketed exchange; the
    per-order mean and the filter fuse into the bucket reduce
    (key-complete by construction).  Quantities are small integers, so
    the float64 per-order sums are exact and the > boundary is
    deterministic on both sides."""
    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity"])
    nb = 32

    def tag(t: pa.Table) -> pa.Table:
        from ..hashing import hash64

        b = (hash64(t["l_orderkey"]) % np.uint64(nb)).astype(np.int32)
        return t.append_column("__bucket", pa.array(b))

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        qty = g["l_quantity"].to_numpy(np.float64)
        ok, inv = np.unique(g["l_orderkey"].to_numpy(np.int64),
                            return_inverse=True)
        s = np.bincount(inv, weights=qty)
        c = np.bincount(inv)
        avg = s[inv] / c[inv]
        keep = qty > avg
        out = g.loc[keep, ["l_orderkey", "l_linenumber"]].copy()
        out["l_quantity"] = qty[keep]
        out["order_avg_qty"] = _round_f64_np(avg[keep], 6)
        return out

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(reduce_bucket, batch_format="pandas")
    )


def q_rolling_range(sf_dir):
    """Trailing ONE-HOUR sum/count of value per user — the TIME-based
    (RANGE BETWEEN) rolling-window operator.  Sums are exact integer
    cents on both sides: windowed float sums are summation-order-
    dependent (CLAUDE.md money-sum rule), int-valued float64 cumsums are
    not."""
    from ..stages.rollup import grouped_rolling_range

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        cents = np.sign(v) * np.floor(np.abs(v * 100.0) + 0.5)
        return pa.table(
            {"user_id": t["user_id"], "event_id": t["event_id"],
             "ms": pa.array(ts_to_ms(t["ts"]), pa.int64()),
             "cents": pa.array(cents, pa.float64())}
        )

    out = grouped_rolling_range(
        ds.map_batches(prep, batch_format="pyarrow"),
        "user_id", "ms", "cents", range_span=3_600_000, out_prefix="range",
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"user_id": df["user_id"], "event_id": df["event_id"],
             "ms": df["ms"],
             "range_cents": df["range_sum"].astype("int64"),
             "range_cnt": df["range_cnt"].astype("int64")}
        )

    return out.map_batches(finish, batch_format="pandas")


def q_value_cume(sf_dir):
    """Per-user CUME_DIST over value — the remaining SQL rank-window
    kind (rows-with-order≤current / partition size; division of the
    same integers on both sides, bit-identical)."""
    from ..stages.rollup import grouped_rank

    ds = _read(sf_dir, "events", ["user_id", "event_id", "value"])
    out = grouped_rank(ds, "user_id", "value", "event_id",
                       {"cume": "cume_dist"})
    return _round_cols(out, {"value": 2})


def q_value_bounds(sf_dir):
    """Per-user FIRST_VALUE / LAST_VALUE over the full ordered frame plus
    NTILE(4) — the frame-boundary window functions."""
    from ..stages.rollup import grouped_bounds

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])
    out = grouped_bounds(
        _ms_col(ds, "ts", "ms"),
        "user_id", "ms", "event_id", "value", ntile=4,
    )
    return _round_cols(out, {"value": 2, "first_value": 2, "last_value": 2})


def q_lag_delta(sf_dir):
    """Per-user previous event value (SQL LAG) — the per-key ordered
    shift operator; first event per user gets NULL."""
    from ..stages.rollup import grouped_shift

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])
    out = grouped_shift(
        _ms_col(ds, "ts", "ms"),
        "user_id", "ms", "event_id", "value", periods=1, out_col="prev_value",
    )
    return _round_cols(out, {"value": 2, "prev_value": 2})


def q_ewma_value(sf_dir):
    """Per-user EWMA smoothing of the value series (α = 0.25) — the
    time-series denoising signal.  Rows-only: the EWMA recurrence needs
    recursion SQL lacks; the exact fold is pinned by a pytest oracle."""
    from ..stages.rollup import grouped_ewma

    ds = _ms_col(
        _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"]),
        "ts", "ms")
    out = grouped_ewma(ds, "user_id", "ms", "event_id", "value", alpha=0.25)
    return _round_cols(out, {"value": 2, "ewma": 4})


def q_running_total(sf_dir):
    """Per-user running sum of value in (ts, event_id) order (SQL SUM
    OVER ROWS UNBOUNDED PRECEDING) — cumsum-kernel ordered window."""
    from ..stages.rollup import grouped_cumsum

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])
    out = grouped_cumsum(
        _ms_col(ds, "ts", "ms"),
        "user_id", "ms", "event_id", "value", out_col="running_sum",
    )
    return _round_cols(out, {"value": 2, "running_sum": 4})


def q_value_histogram(sf_dir):
    """Fixed-width per-group histogram (profiling combiner: per-batch
    counts, shuffle carries one row per (group, bin) per block)."""
    from ..stages.profile import grouped_histogram

    ds = _read(sf_dir, "events", ["event_type", "value"])
    return grouped_histogram(ds, ["event_type"], "value", 0.0, 200.0, 10)


def q_mode_user(sf_dir):
    """Most frequent user per event type, ties to the smallest user_id —
    exact distributed MODE via count partials + one bucket shuffle."""
    from ..stages.profile import grouped_mode

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return grouped_mode(ds, ["event_type"], "user_id", out_col="mode_user")


def q_value_corr(sf_dir):
    """Per-group Pearson correlation from exact sum partials."""
    from ..stages.profile import grouped_corr

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])
    out = grouped_corr(ds, ["l_returnflag"], "l_quantity", "l_extendedprice",
                       out_col="corr_qty_price")
    return _round_cols(out, {"corr_qty_price": 4})


def q_value_outliers(sf_dir):
    """Z-score outlier rows (> 3 sample stddevs from the group mean) —
    tiny grouped stats broadcast once, then a stateless filter pass."""
    from ..stages.profile import grouped_outliers

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    out = grouped_outliers(ds, ["event_type"], "value", n_sigma=3.0)
    return _round_cols(out, {"value": 2})


def q_funnel(sf_dir):
    """CEP multi-step sequence match: users who viewed, then clicked,
    then purchased (each strictly later), completing within 2 days of
    the first view — earliest-completion chain, one bucket shuffle."""
    from ..stages.cep import funnel_match

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    out = funnel_match(
        _ms_col(ds, "ts", "ms"),
        "user_id", "ms", "event_type",
        steps=["view", "click", "purchase"], within=2 * DAY,
    )
    new = {"t1": "t1_ms", "t2": "t2_ms", "t3": "t3_ms"}
    return out.map_batches(
        lambda t: t.rename_columns([new.get(c, c) for c in t.column_names]),
        batch_format="pyarrow",
    )


def q_transition_counts(sf_dir):
    """Markov transition matrix over per-user event sequences: counts of
    each adjacent (prev event type, next event type) pair in (ts,
    event_id) order — LAG + GROUP BY pair, one bucket shuffle."""
    from ..stages.cep import transition_counts

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    return transition_counts(
        _ms_col(ds, "ts", "ms"),
        "user_id", "ms", "event_id", "event_type",
    )


def q_time_resample(sf_dir):
    """Per-user forward-fill resampling onto an hourly grid (time-series
    gap filling: generate_series + ASOF JOIN) — one bucket shuffle, one
    searchsorted probe per bucket."""
    from ..stages.rollup import grouped_resample

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])
    out = grouped_resample(
        _ms_col(ds, "ts", "ms"),
        "user_id", "ms", "event_id", "value", step=HOUR,
    )
    return _round_cols(out, {"value": 2})


def q_interval_overlap(sf_dir):
    """Overlapping activity-interval pairs per user (general range join:
    variable-length half-open intervals, pairs with a.id < b.id) — ONE
    key-hash shuffle, searchsorted-bounded candidate runs per bucket."""
    from ..stages.join import interval_overlap_join

    def mk(t: pa.Table) -> pa.Table:
        ms = t["ms"].to_numpy()
        eid = t["event_id"].to_numpy()
        e = ms + (eid % 7 + 1) * HOUR
        return t.append_column("e", pa.array(e))

    ds = (
        _ms_col(_read(sf_dir, "events", ["user_id", "event_id", "ts"]), "ts", "ms")
        .map_batches(mk, batch_format="pyarrow")
    )
    joined = interval_overlap_join(
        ds, ds, "user_id", "ms", "e", "ms", "e",
        left_cols=["event_id"], right_cols=["event_id"],
    )

    def finish(t: pa.Table) -> pa.Table:
        a = t["event_id"].to_numpy()
        b = t["event_id_r"].to_numpy()
        keep = a < b
        s = np.maximum(t["ms"].to_numpy(), t["ms_r"].to_numpy())
        e = np.minimum(t["e"].to_numpy(), t["e_r"].to_numpy())
        return pa.table({
            "user_id": t["user_id"].to_numpy()[keep],
            "event_a": a[keep],
            "event_b": b[keep],
            "overlap_ms": (e - s)[keep],
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def q_sessionize(sf_dir):
    """Per-user session-ID labels on every event row (gaps-and-islands,
    30-min inactivity gap) — the row-keeping companion of
    session_window; one bucket shuffle, two cumsum passes."""
    from ..stages.rollup import sessionize

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    return sessionize(
        _ms_col(ds, "ts", "ms"),
        "user_id", "ms", "event_id", gap=30 * 60_000,
    )


def q_token_explode(sf_dir):
    """Unnest each document into one row per token (the relational
    explode/flatten primitive; pure per-batch map, no shuffle)."""
    from ..stages.text import explode_tokens

    return explode_tokens(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_repetition_stats(sf_dir):
    """Per-doc token repetition signals (Gopher-style quality rules):
    duplicate-token and top-token fractions."""
    from ..stages.text import repetition_stats

    out = repetition_stats(_read(sf_dir, "documents", ["doc_id", "text"]))
    return _round_cols(out, {"dup_token_frac": 4, "top_token_frac": 4})


def q_token_entropy(sf_dir):
    """Per-doc unigram Shannon entropy — the vocabulary-diversity
    quality signal (pairs with repetition_stats in corpus filtering)."""
    from ..stages.text import token_entropy

    out = token_entropy(_read(sf_dir, "documents", ["doc_id", "text"]))
    return _round_cols(out, {"token_entropy": 4})


def q_normalize_text(sf_dir):
    """Unicode-canonical text normalization (NFC + strip accents +
    lower + whitespace collapse) — the dedup-priming transform.  The
    ASCII fixture makes the SQL oracle exact; the non-ASCII semantics
    (utf8proc parity with DuckDB strip_accents) are pinned by a
    dedicated pytest."""
    from ..stages.text import normalize_text

    out = normalize_text(_read(sf_dir, "documents", ["doc_id", "text"]))

    def n_chars(t: pa.Table) -> pa.Table:
        return t.append_column(
            "n_chars", pc.cast(pc.utf8_length(t["text"]), pa.int64()))

    return out.map_batches(n_chars, batch_format="pyarrow")


def q_chunk_docs(sf_dir):
    """Overlapping 24-token windows (stride 16) per document — the
    chunking reshape before embedding / retrieval indexing."""
    from ..stages.text import chunk_tokens

    return chunk_tokens(_read(sf_dir, "documents", ["doc_id", "text"]),
                        size=24, stride=16)


def q_event_paths(sf_dir):
    """Per-user ordered event-type path (string_agg ORDER BY) — the
    session-path / sequence-collect reshape."""
    from ..stages.rollup import collect_sorted

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    return collect_sorted(
        _ms_col(ds, "ts", "ms"),
        "user_id", "ms", "event_id", "event_type", sep=",", out_col="path",
    )


def q_pack_sequences(sf_dir):
    """Greedy deterministic packing of documents into ≤2048-weight
    training sequences (rows-only: the greedy fold is not
    SQL-expressible; exactness vs a reference fold is pytest-verified)."""
    from ..stages.sampling import pack_sequences

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return pack_sequences(ds, "doc_id", "n_chars", budget=2048)


def q_quantile_sketch(sf_dir):
    """Approximate per-event-type quantiles from a mergeable bottom-k
    sample sketch (k=64 per group): deterministic hash winners, so the
    SQL oracle reproduces the sample AND its quantiles bit-for-bit."""
    from ..stages.sampling import bottom_k_sample
    from ..stages.windows import grouped_quantile

    ds = _read(sf_dir, "events", ["event_type", "event_id", "value"])
    samp = bottom_k_sample(ds, "event_type", "event_id", 64)
    return grouped_quantile(
        samp, ["event_type"], "value", {"p50": 0.5, "p90": 0.9}
    )


def q_asof_join(sf_dir):
    """Purchase→click attribution: each purchase matches the latest
    prior-or-equal click by the same user (backward as-of, ties to the
    greatest click event_id)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])
    purchases = ev.filter(expr="event_type == 'purchase'")
    clicks = ev.filter(expr="event_type == 'click'")
    out = asof_join(
        purchases, clicks, "user_id", "ts", "ts",
        left_cols=["event_id", "value"], right_cols=["event_id"],
        tie_col="event_id",
    )

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "purchase_id": t["event_id"],
                "purchase_ts_ms": pa.array(ts_to_ms(t["ts"]), pa.int64()),
                "value": t["value"],
                "click_id": t["event_id_r"],
                "click_ts_ms": pa.array(ts_to_ms(t["ts_r"]), pa.int64()),
            }
        )

    return out.map_batches(project, batch_format="pyarrow")


def q_latest_by_key(sf_dir):
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])
    out = latest_by_key(ds, ["user_id"], ["ts", "event_id"])

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "last_event_id": t["event_id"],
                "last_type": t["event_type"],
                "last_value": round_f64(t["value"], 2),
                "last_ms": pa.array(ts_to_ms(t["ts"]), pa.int64()),
            }
        )

    return out.map_batches(project, batch_format="pyarrow")


def q_consumer_lag(sf_dir):
    """Per-key frontier lag (reference A1 lag aggregate,
    `ConsumerGroupsAlgebra.scala:155-184`).

    The distributed aggregate produces one row per key; only that tiny
    result is materialized to compute the global frontier, and the lag
    column is appended with a second (distributed) map over it.
    """
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    ms = _ms_col(ds, "ts", "ms")
    agg = grouped_aggregate(
        ms, ["user_id"],
        [AggSpec("count", None, "n_events"), AggSpec("max", "ms", "user_max_ms")],
    ).materialize()  # small: one row per key
    global_max = agg.max("user_max_ms")

    def add_lag(t: pa.Table) -> pa.Table:
        lag = pc.subtract(pa.scalar(int(global_max), pa.int64()),
                          pc.cast(t["user_max_ms"], pa.int64()))
        return t.append_column("lag_ms", lag)

    return agg.map_batches(add_lag, batch_format="pyarrow")


def q_topic_tail(sf_dir, n: int = 10):
    """Bounded tail read (`TopicsEndpoint.scala:33-93`).

    NOT a global sort: each block contributes its local top-``n`` by
    (ts, event_id) — a vectorized per-batch partial — and the driver
    merges the tiny partials (≤ n rows per block).  Mirrors the
    reference's offset-bounded tail scan rather than an all-to-all sort.
    """
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])

    def partial_top(t: pa.Table) -> pa.Table:
        ms = ts_to_ms(t["ts"])
        ev = t["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ev, ms))[-n:]  # ascending; keep the largest n
        top = t.take(pa.array(order))
        return pa.table(
            {
                "event_id": top["event_id"],
                "user_id": top["user_id"],
                "event_type": top["event_type"],
                "ms": pa.array(ts_to_ms(top["ts"]), pa.int64()),
                "value": round_f64(top["value"], 2),
            }
        )

    import ray

    parts = ds.map_batches(partial_top, batch_format="pyarrow")
    merged = pa.concat_tables(
        [t for t in ray.get(parts.to_arrow_refs()) if t.num_rows],
        promote_options="default",
    )
    ev = merged["event_id"].to_numpy(zero_copy_only=False)
    ms = merged["ms"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ev, ms))[::-1][:n]
    return merged.take(pa.array(order))


# ------------------------------------------------- record transform / scalar
def q_json_key_extract(sf_dir):
    """JsonPath-lite `{$.k}` key extraction (P5) + group count."""
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def extract(t: pa.Table) -> pa.Table:
        t = extract_json_key(t, "props", "k", out_col="k_str")
        k = pc.cast(t["k_str"], pa.int64())
        return pa.table({"k": k})

    keyed = ds.map_batches(extract, batch_format="pyarrow")
    return grouped_aggregate(keyed, ["k"], [AggSpec("count", None, "n")])


def q_events_per_day(sf_dir):
    ds = _read(sf_dir, "events", ["ts", "value"])

    def day(t: pa.Table) -> pa.Table:
        ms = ts_to_ms(t["ts"])
        return pa.table(
            {"day_ms": pa.array((ms // DAY) * DAY, pa.int64()), "value": t["value"]}
        )

    byday = ds.map_batches(day, batch_format="pyarrow")
    out = grouped_aggregate(
        byday, ["day_ms"],
        [AggSpec("count", None, "n_events"), AggSpec("sum", "value", "sum_value")],
    )
    return _round_cols(out, {"sum_value": 2})


def q_pricing_summary(sf_dir):
    """TPC-H Q1-shaped grouped aggregate (partial/combine at scale)."""
    ds = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_shipdate"],
    )

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], pa.scalar(pd.Timestamp("1998-09-02"))))
        # money columns carry exactly 2 decimals: sum EXACT integer cents
        # (float sums are order-dependent — at 600k rows per group the
        # accumulated error flips the 2-dp rounding; measured at sf0.1)
        extc = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], pa.scalar(100.0))), pa.int64())
        discc = pc.cast(pc.round(pc.multiply(t["l_discount"], pa.scalar(100.0))), pa.int64())
        rev4 = pc.multiply(extc, pc.subtract(pa.scalar(100, pa.int64()), discc))
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "l_quantity": t["l_quantity"],
                "base_cents": extc,
                "rev_e4": rev4,
            }
        )

    base = ds.map_batches(prep, batch_format="pyarrow")
    agg = grouped_aggregate(
        base, ["l_returnflag", "l_linestatus"],
        [
            AggSpec("count", None, "n_rows"),
            AggSpec("sum", "l_quantity", "sum_qty"),
            AggSpec("sum", "base_cents", "base_cents"),
            AggSpec("sum", "rev_e4", "rev_e4"),
        ],
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "n_rows": t["n_rows"],
                "sum_qty": t["sum_qty"],
                "sum_base_price": pc.divide(
                    pc.cast(t["base_cents"], pa.float64()), pa.scalar(100.0)
                ),
                "sum_revenue": pc.divide(
                    pc.cast(t["rev_e4"], pa.float64()), pa.scalar(10000.0)
                ),
            }
        )

    out = agg.map_batches(finalize, batch_format="pyarrow")
    return _round_cols(out, {"sum_qty": 2, "sum_base_price": 2, "sum_revenue": 2})


def q_rollup_sales(sf_dir):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus): sub-totals and a grand
    total from ONE scan — coarser levels re-combine the finest partials
    (`windows.rollup_aggregate`), never the raw data.  Money sums carry
    exact integer cents (big groups — CLAUDE.md protocol)."""
    from ..stages.windows import rollup_aggregate

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])

    def prep(t: pa.Table) -> pa.Table:
        extc = pc.cast(
            pc.round(pc.multiply(t["l_extendedprice"], pa.scalar(100.0))),
            pa.int64(),
        )
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "l_quantity": t["l_quantity"],
            "base_cents": extc,
        })

    agg = rollup_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        [
            AggSpec("count", None, "n_rows"),
            AggSpec("sum", "l_quantity", "sum_qty"),
            AggSpec("sum", "base_cents", "base_cents"),
        ],
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "grouping_id": t["grouping_id"],
            "n_rows": t["n_rows"],
            "sum_qty": pc.cast(t["sum_qty"], pa.float64()),
            "sum_base_price": pc.divide(
                pc.cast(t["base_cents"], pa.float64()), pa.scalar(100.0)
            ),
        })

    out = agg.map_batches(finalize, batch_format="pyarrow")
    return _round_cols(out, {"sum_base_price": 2})



def q_cube_sales(sf_dir):
    """GROUP BY CUBE(l_returnflag, l_linestatus): every grouping-set
    combination from one scan — the GROUPING SETS form of
    `rollup_aggregate` with all subsets (finest partials re-combined,
    never the raw data)."""
    from ..stages.windows import rollup_aggregate

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"])
    agg = rollup_aggregate(
        ds,
        ["l_returnflag", "l_linestatus"],
        [AggSpec("count", None, "n_rows"), AggSpec("sum", "l_quantity", "sum_qty")],
        sets=[["l_returnflag", "l_linestatus"], ["l_returnflag"],
              ["l_linestatus"], []],
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "grouping_id": t["grouping_id"],
            "n_rows": t["n_rows"],
            "sum_qty": pc.cast(t["sum_qty"], pa.float64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def _cents_col(ds, src: str, out: str):
    """Exact integer cents of a 2-dp money column (order-independent sums
    — see q_pricing_summary)."""
    def f(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t[src], pa.scalar(100.0))), pa.int64())
        return t.drop_columns([src]).append_column(out, c)

    return ds.map_batches(f, batch_format="pyarrow")


def _price_from_cents(ds):
    def f(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("sum_cents")
        price = pc.divide(pc.cast(t["sum_cents"], pa.float64()), pa.scalar(100.0))
        return t.remove_column(i).append_column("sum_price", price)

    return ds.map_batches(f, batch_format="pyarrow")


def q_hash_join(sf_dir):
    """Large-large partitioned hash join (bucketed_join): orders ⋈ customer
    with neither side broadcast — the non-broadcast sibling of
    q_broadcast_enrich, same result shape."""
    from ..stages.join import bucketed_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_nationkey"]),
        batch_format="pyarrow",
    )
    orders = _cents_col(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
        "o_totalprice", "price_cents",
    )
    joined = bucketed_join(orders, cust, key="o_custkey")
    out = grouped_aggregate(
        joined, ["c_nationkey"],
        [AggSpec("count", None, "n_orders"), AggSpec("sum", "price_cents", "sum_cents")],
    )
    return _price_from_cents(out)


def q_broadcast_enrich(sf_dir):
    """Broadcast lookup join (J1/J2): orders enriched with customer nation."""
    import pyarrow.parquet as pq

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    cust = cust.rename(columns={"c_custkey": "o_custkey"})
    orders = _cents_col(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
        "o_totalprice", "price_cents",
    )
    joined = broadcast_join(orders, cust, on="o_custkey")
    out = grouped_aggregate(
        joined, ["c_nationkey"],
        [AggSpec("count", None, "n_orders"), AggSpec("sum", "price_cents", "sum_cents")],
    )
    return _price_from_cents(out)


# --------------------------------------------------------------- dedup / text
def q_exact_dedup(sf_dir):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = exact_dedup(ds, ["text"], "doc_id")
    return out.select_columns(["doc_id", "n_copies"])


def q_token_stats(sf_dir):
    # instance → task-pool map (elastic parallelism; the compiled-regex
    # state is trivial to ship, so an actor-pool cap would only starve CPUs)
    ds = _read(sf_dir, "documents", ["lang", "text"])
    toks = ds.map_batches(TokenStats(), batch_format="pandas")
    return grouped_aggregate(
        toks, ["lang"],
        [
            AggSpec("count", None, "n_docs"),
            AggSpec("sum", "n_tokens", "n_tokens"),
            AggSpec("sum", "n_chars_text", "n_chars_text"),
        ],
    )


def q_compression_ratio(sf_dir):
    """Deflate-ratio repetitiveness signal per source (rows-only: DuckDB
    exposes no deflate; the operator is pytest-exact vs direct zlib)."""
    from ..stages.text import CompressionRatio

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    scored = ds.map_batches(CompressionRatio(), batch_format="pyarrow")
    out = grouped_aggregate(
        scored, ["source"],
        [
            AggSpec("count", None, "n_docs"),
            AggSpec("mean", "compression_ratio", "avg_ratio"),
            AggSpec("min", "compression_ratio", "min_ratio"),
        ],
    )
    return _round_cols(out, {"avg_ratio": 4, "min_ratio": 4})


def q_quality_scores(sf_dir):
    """Quality heuristics (rows-only check: not SQL-expressible)."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    scored = ds.map_batches(QualityScore(), batch_format="pandas")
    out = grouped_aggregate(
        scored, ["lang"],
        [
            AggSpec("count", None, "n_docs"),
            AggSpec("mean", "quality_score", "avg_quality"),
            AggSpec("mean", "stopword_ratio", "avg_stopword_ratio"),
        ],
    )
    return _round_cols(out, {"avg_quality": 4, "avg_stopword_ratio": 4})


def q_train_split(sf_dir):
    """Deterministic hash-based train/val assignment (oracle reproduces
    the multiplicative hash in SQL)."""
    from ..stages.sampling import hash_split

    ds = _read(sf_dir, "documents", ["doc_id"])
    return hash_split(ds, "doc_id")


def q_source_cap(sf_dir):
    """Per-source quota: keep the 10 longest docs per source (doc_id
    tiebreak), emit (doc_id, source, n_chars)."""
    from ..stages.sampling import per_key_topn

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def measure(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "source": t["source"],
                "n_chars": pc.utf8_length(
                    pc.fill_null(t["text"], "")
                ).cast(pa.int64()),
            }
        )

    sized = ds.map_batches(measure, batch_format="pyarrow")
    return per_key_topn(sized, "source", "n_chars", 10, tie_col="doc_id")


def q_stratified_sample(sf_dir):
    """Deterministic per-language corpus rebalance: keep 50 % of en,
    25 % of de, 10 % of everything else (oracle reproduces the hash
    lattice thresholds in SQL)."""
    from ..stages.sampling import stratified_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_sample(
        ds, "lang", "doc_id", {"en": 0.5, "de": 0.25}, default=0.1
    )


def q_token_budget(sf_dir):
    """Per-language token-budget curation: take documents longest-first
    (doc_id tiebreak) until each language has spent a 10k-char
    allowance; emit the kept rows with their inclusive running total
    (oracle = windowed running SUM + filter)."""
    from ..stages.sampling import budget_cap

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return budget_cap(
        ds, "lang", "n_chars", "doc_id", "n_chars",
        budget=10_000, descending=True, out_col="running_chars",
    )


def q_lm_quality(sf_dir):
    """CCNet-style perplexity quality filter: train a byte-bigram LM on
    the English slice, broadcast the 512 KB log-prob matrix once, score
    every document's bits/byte cross-entropy (rows-only: model scoring
    is not SQL-expressible; exactness + partition-invariance are
    pytest-verified, `tests/test_batch_ops.py`)."""
    import ray

    from ..stages.text import LmScore, train_char_lm

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    en = ds.map_batches(
        lambda t: t.filter(pc.equal(t["lang"], "en")), batch_format="pyarrow"
    )
    model_ref = ray.put(train_char_lm(en, "text"))
    return ds.map_batches(
        LmScore(model_ref), batch_format="pyarrow"
    ).select_columns(["doc_id", "lang", "bits_per_byte"])


def q_redact_text(sf_dir):
    """Pattern scrubbing: redact two vocab patterns, count replacements
    (oracle = nested regexp_replace + regexp_extract_all counts)."""
    from ..stages.text import Redactor

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        Redactor(
            [
                (r"\bcustomer\b", "[REDACTED]"),
                (r"\b(user|order)\b", "[ENTITY]"),
            ]
        ),
        batch_format="pandas",
    )


def q_top_bigrams(sf_dir):
    """Exact corpus-wide top-20 token bigrams (collocation mining) —
    per-batch partial counts, one bucketed reduce, tiny driver merge."""
    from ..stages.text import top_ngrams

    ds = _read(sf_dir, "documents", ["text"])
    return top_ngrams(ds, "text", n=2, k=20)


def q_window_distinct(sf_dir):
    """Exact COUNT(DISTINCT user) per (event_type, day) window — local
    dedup combiner, one bucketed distinct exchange, tiny grouped count
    (the exact-distinct analogue of the windowed aggregates; HLL is the
    approximate tier)."""
    from ..stages.dedup import bucketed_distinct

    ds = _read(sf_dir, "events", ["event_type", "ts", "user_id"])

    def day(t: pa.Table) -> pa.Table:
        ms = ts_to_ms(t["ts"])
        return pa.table(
            {"event_type": t["event_type"],
             "day_ms": pa.array((ms // DAY) * DAY, pa.int64()),
             "user_id": t["user_id"]}
        )

    triples = bucketed_distinct(
        ds.map_batches(day, batch_format="pyarrow"),
        ["event_type", "day_ms", "user_id"],
    )
    return grouped_aggregate(
        triples, ["event_type", "day_ms"], [AggSpec("count", None, "n_users")]
    )


def _setop_sides(sf_dir):
    """Two derived relations for the set-op queries: (user, day) pairs
    with a click vs (user, day) pairs with a purchase."""

    def side(event_type):
        ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

        def prep(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            m = pc.equal(t["event_type"], event_type)
            t = t.filter(m)
            ms = ts_to_ms(t["ts"])
            return pa.table(
                {"user_id": t["user_id"],
                 "day_ms": pa.array((ms // DAY) * DAY, pa.int64())}
            )

        return ds.map_batches(prep, batch_format="pyarrow")

    return side("click"), side("purchase")


def q_set_except(sf_dir):
    """(user, day) pairs with a click but NO purchase that day —
    distributed SQL EXCEPT (distinct semantics)."""
    from ..stages.setops import except_distinct

    clicks, buys = _setop_sides(sf_dir)
    return except_distinct(clicks, buys, ["user_id", "day_ms"])


def q_set_intersect(sf_dir):
    """(user, day) pairs with BOTH a click and a purchase that day —
    distributed SQL INTERSECT (distinct semantics)."""
    from ..stages.setops import intersect_distinct

    clicks, buys = _setop_sides(sf_dir)
    return intersect_distinct(clicks, buys, ["user_id", "day_ms"])


def q_set_union(sf_dir):
    """(user, day) pairs with a click OR a purchase — distributed SQL
    UNION (distinct semantics)."""
    from ..stages.setops import union_distinct

    clicks, buys = _setop_sides(sf_dir)
    return union_distinct(clicks, buys, ["user_id", "day_ms"])


def q_bag_except(sf_dir):
    """(user, day) click rows surviving bag difference against purchase
    rows — SQL EXCEPT ALL: each pair keeps max(n_clicks − n_purchases,
    0) duplicate rows.  The combiner ships per-block COUNTS, never a
    row per duplicate (setops.except_all)."""
    from ..stages.setops import except_all

    clicks, buys = _setop_sides(sf_dir)
    return except_all(clicks, buys, ["user_id", "day_ms"])


def q_bag_intersect(sf_dir):
    """(user, day) rows in the bag intersection of clicks and purchases
    — SQL INTERSECT ALL: min(n_clicks, n_purchases) duplicate rows per
    pair (setops.intersect_all)."""
    from ..stages.setops import intersect_all

    clicks, buys = _setop_sides(sf_dir)
    return intersect_all(clicks, buys, ["user_id", "day_ms"])


def q_dedup_cut(sf_dir):
    """Lee et al. substring-dedup CLEANING pass: per-doc bytes removed by
    cutting every duplicated 30-byte span except its canonical first
    occurrence (oracle = keep-first window marking + gaps-and-islands
    span merge in SQL)."""
    from ..stages.substr import cut_duplicate_spans

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = cut_duplicate_spans(ds, "text", "doc_id", L=30, stride=1)
    return out.filter(expr="n_cut_bytes > 0") \
              .select_columns(["doc_id", "n_cut_bytes"])


def q_curation_e2e(sf_dir):
    """The full corpus-curation composition: dedup → lang-ID → quality /
    repetition filters → per-language token budget → sequence packing
    (rows-only: multi-stage heuristic pipeline; stage semantics are each
    individually oracled/pytest-proven)."""
    from .curate import curation_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    packs, _ = curation_pipeline(ds)
    return packs.select_columns(
        ["doc_id", "lang_pred", "n_tokens", "pack_id", "pack_pos",
         "pack_tokens"]
    )


def q_dup_spans(sf_dir):
    """Substring-level exact dedup (Lee et al. 2022 style): per-doc count
    of 30-byte windows whose exact content occurs ≥2 times corpus-wide
    (oracle = substr/generate_series window join in SQL)."""
    from ..stages.substr import duplicate_windows
    from ..stages.windows import AggSpec, grouped_aggregate

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    wins = duplicate_windows(ds, "text", "doc_id", L=30, stride=1)
    return grouped_aggregate(
        wins, ["doc_id"], [AggSpec("count", None, "n_dup_windows")]
    )


def q_anti_join(sf_dir):
    """Click counts for users with no big (value > 150) purchase —
    distributed anti join (existence filter, left columns only)."""
    from ..stages.dedup import bucketed_distinct
    from ..stages.join import bucketed_join

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    clicks = grouped_aggregate(
        ev.filter(expr="event_type == 'click'"), ["user_id"],
        [AggSpec("count", None, "n_clicks")],
    )
    big_buyers = bucketed_distinct(
        _read(sf_dir, "events", ["user_id", "event_type", "value"])
        .filter(expr="event_type == 'purchase' and value > 150")
        .select_columns(["user_id"]),
        ["user_id"],
        num_buckets=16,
    )
    return bucketed_join(clicks, big_buyers, "user_id", how="anti")


def q_bloom_semi_join(sf_dir):
    """Lineitems of size-1 parts — a 2 %-selective semi join run with the
    broadcast Bloom prefilter: ~98 % of probe rows drop before the
    exchange; false positives are caught by the exact per-bucket merge,
    so any fpp yields identical results (oracle-checked)."""
    from ..stages.join import bucketed_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_quantity"])
    small = (
        _read(sf_dir, "part", ["p_partkey", "p_size"])
        .filter(expr="p_size == 1")
        .map_batches(
            lambda t: pa.table({"l_partkey": t["p_partkey"]}),
            batch_format="pyarrow",
        )
    )
    return bucketed_join(li, small, "l_partkey", how="semi", bloom_fpp=0.01)


def q_value_ranks(sf_dir):
    """Per-user rank window functions over event values: dense_rank, rank
    and percent_rank in ONE bucket-shuffle pass (ties share rank — SQL
    semantics; percent_rank division is bit-identical to DuckDB)."""
    from ..stages.rollup import grouped_rank

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    return grouped_rank(
        ds, "user_id", "value", None,
        {"dr": "dense_rank", "rk": "rank", "pr": "percent_rank"},
    )


def q_global_rank(sf_dir):
    """Exact global row_number over events ORDER BY (value, event_id) via
    the sample-sort range partitioner (`stages/sort.py global_rank`) —
    no all-to-all ds.sort, ranks exact under any cutpoint sample."""
    from ..stages.sort import global_rank

    ds = _read(sf_dir, "events", ["event_id", "value"])
    return global_rank(ds, "value", ["event_id"], rank_col="rnk")


def q_sentence_stats(sf_dir):
    """ORACLED sentence segmentation stats: split each document on
    ``[.!?]+`` runs, trim whitespace, drop empties, emit per-doc
    sentence count / mean length / max length — all in one exchange-free
    Arrow pass (split_pattern_regex → trim → list-offset reduceat; the
    DuckDB side mirrors it with list_transform/list_filter lambdas).
    Character counts via utf8_length on BOTH sides (exact beyond
    ASCII)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        txt = pc.coalesce(t["text"], pa.scalar("", pa.string()))
        parts = pc.split_pattern_regex(txt, r"[.!?]+")
        la = parts.combine_chunks()
        flat = pc.utf8_trim_whitespace(la.values)
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        offs = la.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        keep = lens > 0
        # per-doc counts/sums over the kept sentences only
        doc_of = np.repeat(np.arange(t.num_rows), np.diff(offs))
        dk = doc_of[keep]
        lk = lens[keep]
        n = np.bincount(dk, minlength=t.num_rows)
        s = np.bincount(dk, weights=lk, minlength=t.num_rows)
        mx = np.zeros(t.num_rows, np.int64)
        np.maximum.at(mx, dk, lk)
        has = n > 0
        avg = np.divide(s, n, out=np.zeros_like(s, dtype=np.float64),
                        where=has)
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_sentences": pa.array(n.astype(np.int64), pa.int64()),
            "avg_chars": round_f64(
                pa.array(np.where(has, avg, np.nan), pa.float64(),
                         mask=~has), 4),
            "max_chars": pa.array(mx, pa.int64(), mask=~has),
        })

    return docs.map_batches(stats, batch_format="pyarrow")


def q_value_matrix(sf_dir):
    """ORACLED pairwise correlation matrix: all three column pairs of
    (quantity, extendedprice, discount) per returnflag in ONE partial/
    combine pass — each pair is a covar/corr AggSpec whose cross-moment
    partials (n, Σx, Σy, Σxy, Σx², Σy²) re-combine exactly."""
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice",
                "l_discount"])
    agg = grouped_aggregate(li, ["l_returnflag"], [
        AggSpec("corr", "l_quantity", "corr_qty_price",
                col2="l_extendedprice"),
        AggSpec("corr", "l_quantity", "corr_qty_disc", col2="l_discount"),
        AggSpec("corr", "l_extendedprice", "corr_price_disc",
                col2="l_discount"),
    ])

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "corr_qty_price": round_f64(t["corr_qty_price"], 4),
            "corr_qty_disc": round_f64(t["corr_qty_disc"], 4),
            "corr_price_disc": round_f64(t["corr_price_disc"], 4),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_benford_digits(sf_dir):
    """ORACLED Benford first-digit profile of order prices: the leading
    digit comes from the DECIMAL STRING of exact integer cents (pure
    integer math + a vectorized cast→slice — floor(log10(x)) float
    arithmetic would ulp-diverge from SQL at power-of-ten boundaries),
    counted per digit with the n·9 > total cross-multiplied share left
    as an exact fraction (share_pct round 4)."""
    orders = _read(sf_dir, "orders", ["o_totalprice"])

    def digits(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(t["o_totalprice"], pa.scalar(100.0))),
            pa.int64())
        d = pc.utf8_slice_codeunits(pc.cast(cents, pa.string()), 0, 1)
        return pa.table({"digit": d})

    agg = grouped_aggregate(
        orders.map_batches(digits, batch_format="pyarrow"),
        ["digit"], [AggSpec("count", None, "n")])

    total = _NROWS_CACHE.get(os.path.join(sf_dir, "orders.parquet"))
    if total is None:
        import pyarrow.parquet as pq

        total = pq.read_metadata(
            os.path.join(sf_dir, "orders.parquet")).num_rows

    def finalize(t: pa.Table) -> pa.Table:
        n = pc.cast(t["n"], pa.int64())
        share = pc.divide(
            pc.multiply(pc.cast(n, pa.float64()), pa.scalar(100.0)),
            pa.scalar(float(total)))
        return pa.table({
            "digit": t["digit"],
            "n": n,
            "share_pct": round_f64(share, 4),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_hour_heatmap(sf_dir):
    """ORACLED day-of-week × hour-of-day event heatmap: both axes are
    pure integer/calendar kernels (pc.day_of_week with the DuckDB
    Sunday=0 convention — see date_parts — and epoch-ms hour math),
    counts + 2-dp value sums per cell in one partial/combine pass."""
    ev = _read(sf_dir, "events", ["ts", "value"])

    def cellify(t: pa.Table) -> pa.Table:
        ms = np.asarray(ts_to_ms(t["ts"]))
        dow = pc.day_of_week(t["ts"], count_from_zero=True, week_start=7)
        return pa.table({
            "dow": pc.cast(dow, pa.int64()),
            "hour": pa.array((ms // 3_600_000) % 24, pa.int64()),
            "value": t["value"],
        })

    agg = grouped_aggregate(
        ev.map_batches(cellify, batch_format="pyarrow"),
        ["dow", "hour"],
        [AggSpec("count", None, "n"), AggSpec("sum", "value", "sum_value")])

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "dow": t["dow"],
            "hour": t["hour"],
            "n": pc.cast(t["n"], pa.int64()),
            "sum_value": round_f64(t["sum_value"], 2),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_export_shards(sf_dir):
    """ORACLED deterministic training-export shard manifest: every doc
    gets a pseudo-random shard (Knuth multiplicative hash on the int64
    lattice, same convention as train_split — NO transcendentals, so the
    DuckDB integer math is bit-identical) and a stable position within
    its shard (row_number ordered by the hash; the odd-constant multiply
    mod 2^32 is a bijection, so positions are a true deterministic
    shuffle).  This is the export step of a training pipeline: N shard
    files, content pseudo-randomly ordered, resumable and identical on
    every run/cluster size.  Shape: per-batch hash map + ONE bucketed
    rank exchange (`grouped_rank`)."""
    from ..stages.rollup import grouped_rank

    ds = _read(sf_dir, "documents", ["doc_id"])

    def tag(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (did * np.uint64(2654435761)) % np.uint64(4294967296)
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "h": pa.array(h.astype(np.int64)),
            "shard": pa.array((h % np.uint64(8)).astype(np.int64)),
        })

    ranked = grouped_rank(
        ds.map_batches(tag, batch_format="pyarrow"),
        "shard", "h", "doc_id", {"pos": "row_number"})

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "shard": pc.cast(t["shard"], pa.int64()),
            "pos": pc.cast(t["pos"], pa.int64()),
        })

    return ranked.map_batches(finalize, batch_format="pyarrow")


def q_pagerank(sf_dir):
    """PageRank over the supplier→part supply graph (directed multigraph
    edges from lineitem: every line item is one l_suppkey → l_partkey
    edge; parts are dangling sinks).  Rows-only query — the value oracle
    is the dense power-iteration parity test (tests/test_graph.py).
    Rank rounded to 10 dp for a stable, order-independent output."""
    from ..stages.graph import pagerank

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"])

    def tag(t: pa.Table) -> pa.Table:
        # part and supplier key spaces overlap — disambiguate node ids
        return pa.table({
            "src": t["l_suppkey"],
            "dst": pc.add(pc.cast(t["l_partkey"], pa.int64()),
                          pa.scalar(1_000_000_000, pa.int64())),
        })

    ranks = pagerank(ds.map_batches(tag, batch_format="pyarrow"),
                     "src", "dst", damping=0.85, iters=8)

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"], "rank": round_f64(t["r"], 10)})

    return ranks.map_batches(finalize, batch_format="pyarrow")


def q_pagerank_ranks(sf_dir):
    """ORACLED PageRank (VERDICT r3 #7): 8 damped power iterations over
    the Brand#1 co-purchase graph (support ≥ 2, both directions — same
    base graph as q_components), against a DuckDB oracle whose 8
    iterations are UNROLLED as chained CTEs (recursive CTEs cannot
    aggregate in the recursive term).  The both-directions graph has no
    dangling nodes, so the kernel's dangling-mass term is identically
    zero and the SQL needs no dangling branch.  Ranks round to 6 dp
    (values ~1e-2 with ~1e-14 cross-impl float noise after 8
    iterations — far from any rounding boundary)."""
    from ..stages.graph import cooccurrence_edges, pagerank
    from ..stages.join import dim_join

    brand_keys = _read(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
        lambda t: pa.table({
            "l_partkey": t.filter(
                pc.equal(t["p_brand"], "Brand#1"))["p_partkey"],
        }), batch_format="pyarrow")
    li = dim_join(_read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]),
                  brand_keys, on="l_partkey", how="semi")
    edges = cooccurrence_edges(li, "l_orderkey", "l_partkey",
                               with_counts=True)

    def both_dirs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["pair_count"], 2))
        u = t["u"].combine_chunks()
        v = t["v"].combine_chunks()
        return pa.table({
            "src": pa.concat_arrays([u, v]),
            "dst": pa.concat_arrays([v, u]),
        })

    ranks = pagerank(edges.map_batches(both_dirs, batch_format="pyarrow"),
                     "src", "dst", damping=0.85, iters=8)

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pc.cast(t["node"], pa.int64()),
            "rank": round_f64(t["r"], 6),
        })

    return ranks.map_batches(finalize, batch_format="pyarrow")


def q_pagerank_sharded(sf_dir):
    """Same supply graph as q_pagerank through the ACTOR-SHARDED rank
    tier (`stages/graph.py pagerank_sharded`) — the past-1e9-node scale
    path.  Rows-only; the value oracle is the shard-count parity test
    against the broadcast implementation (tests/test_graph.py)."""
    from ..stages.graph import pagerank_sharded

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"])

    def tag(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t["l_suppkey"],
            "dst": pc.add(pc.cast(t["l_partkey"], pa.int64()),
                          pa.scalar(1_000_000_000, pa.int64())),
        })

    ranks = pagerank_sharded(ds.map_batches(tag, batch_format="pyarrow"),
                             "src", "dst", damping=0.85, iters=8,
                             num_shards=8)

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"], "rank": round_f64(t["r"], 10)})

    return ranks.map_batches(finalize, batch_format="pyarrow")


def q_left_join(sf_dir):
    """Customers left-joined with their order counts — exercises the
    null-padded outer path of bucketed_join (customers with no orders
    keep a NULL count, int64 stays int64 with nulls in Arrow)."""
    from ..stages.join import bucketed_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_nationkey"]),
        batch_format="pyarrow",
    )
    counts = grouped_aggregate(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .filter(expr="o_totalprice > 150000"),
        ["o_custkey"],
        [AggSpec("count", None, "n_orders")],
    )
    return bucketed_join(cust, counts, key="o_custkey", how="left")


def q_replication_diff(sf_dir):
    """Replication audit: diff a 'source' vs a 'replica' snapshot of the
    orders table (both derived deterministically: the replica is missing
    every 89th key, the source every 97th, and every 50th replica price
    drifted by +1.0) → one row per divergent key with added/removed/
    changed status (`stages/diff.py table_diff`)."""
    from ..stages.diff import table_diff

    cols = ["o_orderkey", "o_totalprice", "o_orderstatus"]

    def keep_mod(mod):
        def f(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy()
            return t.filter(pa.array(k % mod != 0))

        return f

    left = _read(sf_dir, "orders", cols).map_batches(
        keep_mod(97), batch_format="pyarrow"
    )

    def perturb(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy()
        price = t["o_totalprice"].to_numpy().copy()
        price[k % 50 == 0] += 1.0
        i = t.schema.get_field_index("o_totalprice")
        return t.set_column(i, "o_totalprice", pa.array(price))

    right = _read(sf_dir, "orders", cols).map_batches(
        keep_mod(89), batch_format="pyarrow"
    ).map_batches(perturb, batch_format="pyarrow")
    return table_diff(left, right, "o_orderkey",
                      ["o_totalprice", "o_orderstatus"])


def q_tfidf_terms(sf_dir):
    """Top-3 tf·idf terms per document (tie → ascending term)."""
    from ..stages.text import tfidf_top_terms

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = tfidf_top_terms(ds, k=3)
    return _round_cols(out, {"score": 6})


def q_audio_neardup(sf_dir):
    """Audio near-dup by 64-bit perceptual fingerprint + banded Hamming
    pairing (rows-only).  Every third clip is a faintly-noised copy of
    its predecessor — a planted near-dup the fingerprint must catch
    through the pcm16 encode→decode round trip."""
    from ..audio import encode
    from ..stages.audio_features import AudioFingerprint
    from ..stages.decode import AudioDecoder, split_dlq
    from ..stages.neardup import hamming_near_pairs

    n = 600
    sr = 16_000

    def wave(seed: int, n_samp: int = 8000) -> np.ndarray:
        r = np.random.default_rng(seed)
        # per-frame amplitude walk: delta-sign bits need non-stationary
        # energy (a pure steady tone has near-tied frame deltas)
        env = np.repeat(r.uniform(0.2, 1.0, 20), n_samp // 20 + 1)[:n_samp]
        f = 200 + (seed * 37) % 800
        t = np.arange(n_samp) / sr
        return (env * np.sin(2 * np.pi * f * t)).astype(np.float32)

    def make(idx: np.ndarray) -> pa.Table:
        ids, payloads = [], []
        for i in idx.tolist():
            w = wave(i - 1 if i % 3 == 1 else i)
            if i % 3 == 1:
                r = np.random.default_rng(10_000 + i)
                w = w + (0.002 * r.standard_normal(len(w))).astype(np.float32)
            ids.append(i)
            payloads.append(encode(w, "pcm16", sr))
        m = len(ids)
        return pa.table(
            {
                "clip_id": pa.array([f"clip-{i:06d}" for i in ids]),
                "seq": pa.array(ids, pa.int64()),
                "bytes": pa.array(payloads, pa.large_binary()),
                "codec": pa.array(["pcm16"] * m),
                "sr_hz": pa.array([sr] * m, pa.int32()),
            }
        )

    ds = _dist_synth(n, make, num_blocks=32).map_batches(
        AudioDecoder(), batch_format="pyarrow"
    )
    main, _ = split_dlq(ds)
    fp = main.map_batches(AudioFingerprint(), batch_format="pyarrow").select_columns(
        ["seq", "afp"]
    )
    return hamming_near_pairs(fp, "afp", "seq", max_hamming=3)


def q_flac_roundtrip(sf_dir):
    """flaclite under distributed load: every wave is encoded BOTH as
    flac and pcm16, both decode through the Dataset path, and per-seq
    PCM checksums must agree (flac is bit-lossless vs the pcm16
    quantization).  Output: one row {n_seqs, n_lossless} — equal counts
    mean every clip round-tripped exactly.  PCM never transits the
    shuffle: rows reduce to 16-byte checksums right after decode."""
    import hashlib

    from ..audio import encode, synth_wave
    from ..stages.decode import AudioDecoder, split_dlq

    n = 300
    sr = 16_000

    def make(idx: np.ndarray) -> pa.Table:
        ids, payloads, codecs = [], [], []
        for i in idx.tolist():
            w = synth_wave(i, sr, 400 + (i % 7) * 100)
            for c in ("flac", "pcm16"):
                ids.append(i)
                payloads.append(encode(w, c, sr))
                codecs.append(c)
        return pa.table({
            "clip_id": pa.array([f"clip-{i:06d}" for i in ids]),
            "seq": pa.array(ids, pa.int64()),
            "bytes": pa.array(payloads, pa.large_binary()),
            "codec": pa.array(codecs),
            "sr_hz": pa.array([sr] * len(ids), pa.int32()),
        })

    ds = _dist_synth(n, make, num_blocks=16).map_batches(
        AudioDecoder(), batch_format="pyarrow"
    )
    main, _ = split_dlq(ds)

    def checksum(t: pa.Table) -> pa.Table:
        pcm = t["pcm"].combine_chunks()
        flat = pcm.values.to_numpy(zero_copy_only=False).astype(np.float32)
        offs = pcm.offsets.to_numpy(zero_copy_only=False)
        mv = memoryview(flat.tobytes())
        sums = [
            hashlib.blake2b(mv[4 * int(offs[i]) : 4 * int(offs[i + 1])],
                            digest_size=16).hexdigest()
            for i in range(len(pcm))
        ]
        return pa.table({"seq": t["seq"], "pcm_sum": pa.array(sums)})

    sums = main.map_batches(checksum, batch_format="pyarrow").to_pandas()
    per_seq = sums.groupby("seq")["pcm_sum"].agg(["count", "nunique"])
    lossless = int(((per_seq["count"] == 2) & (per_seq["nunique"] == 1)).sum())
    return pa.table({
        "n_seqs": pa.array([len(per_seq)], pa.int64()),
        "n_lossless": pa.array([lossless], pa.int64()),
    })


def q_adpcm_roundtrip(sf_dir):
    """adpcmlite under distributed load: every wave encodes to 4-bit IMA
    ADPCM and decodes back through the Dataset path; ADPCM is LOSSY, so
    the per-clip gate is SNR ≥ 25 dB vs the source wave (plus exact
    sample count).  Output: one row {n_clips, n_ok} — equal counts mean
    every clip survived the codec within tolerance."""
    from ..audio import encode, snr_db, synth_wave
    from ..stages.decode import AudioDecoder, split_dlq

    n = 300
    sr = 16_000

    def make(idx: np.ndarray) -> pa.Table:
        ids = idx.tolist()
        payloads = [
            encode(synth_wave(i, sr, 400 + (i % 7) * 100), "adpcm", sr)
            for i in ids
        ]
        return pa.table({
            "clip_id": pa.array([f"clip-{i:06d}" for i in ids]),
            "seq": pa.array(ids, pa.int64()),
            "bytes": pa.array(payloads, pa.large_binary()),
            "codec": pa.array(["adpcm"] * len(ids)),
            "sr_hz": pa.array([sr] * len(ids), pa.int32()),
        })

    ds = _dist_synth(n, make, num_blocks=16).map_batches(
        AudioDecoder(), batch_format="pyarrow"
    )
    main, _ = split_dlq(ds)

    def gate(t: pa.Table) -> pa.Table:
        pcm = t["pcm"].combine_chunks()
        flat = pcm.values.to_numpy(zero_copy_only=False).astype(np.float32)
        offs = pcm.offsets.to_numpy(zero_copy_only=False)
        seqs = t["seq"].to_numpy()
        ok = np.zeros(len(seqs), dtype=np.int64)
        for j, i in enumerate(seqs.tolist()):
            w = synth_wave(i, sr, 400 + (i % 7) * 100)
            got = flat[offs[j]:offs[j + 1]]
            ok[j] = int(len(got) == len(w) and snr_db(w, got) >= 25.0)
        return pa.table({
            "n_clips": pa.array([len(seqs)], pa.int64()),
            "n_ok": pa.array([int(ok.sum())], pa.int64()),
        })

    agg = main.map_batches(gate, batch_format="pyarrow").to_pandas()
    return pa.table({
        "n_clips": pa.array([int(agg["n_clips"].sum())], pa.int64()),
        "n_ok": pa.array([int(agg["n_ok"].sum())], pa.int64()),
    })


def q_langid(sf_dir):
    """n-gram language-ID heuristic vs labeled lang (rows-only)."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    pred = ds.map_batches(LangId(), batch_format="pandas")
    return grouped_aggregate(pred, ["lang", "lang_pred"], [AggSpec("count", None, "n")])


def q_fingerprint(sf_dir):
    """Document fingerprints: distinct count per source (rows-only)."""
    from ..stages.dedup import bucketed_distinct

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    fp = ds.map_batches(Fingerprint(), batch_format="pyarrow")
    dd = bucketed_distinct(fp, ["source", "fingerprint"])
    return grouped_aggregate(dd, ["source"], [AggSpec("count", None, "n_distinct")])


def q_minhash_neardup(sf_dir):
    """MinHash+LSH near-dup candidate pairs (rows-only)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_lsh_candidates(ds, n_perm=64, bands=16, k=5)


def q_simhash_neardup(sf_dir):
    ds = _read(sf_dir, "documents", ["doc_id", "text"], rows_per_block=512)
    return simhash_near_pairs(ds, max_hamming=3)


def q_decontaminate(sf_dir):
    """Benchmark decontamination: docs sharing ≥3 distinct word 8-grams
    with any of 4 probe (eval-set) docs — integer overlap counts, exact
    SQL oracle."""
    import pyarrow.parquet as pq

    from ..stages.neardup import ngram_overlap_probe

    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "<", 4)],
    )
    ds = _read(sf_dir, "documents", ["doc_id", "text"], rows_per_block=512)
    return ngram_overlap_probe(
        ds, t["doc_id"].to_pylist(), t["text"].to_pylist(),
        min_overlap=3, n=8,
    )


def q_jaccard_search(sf_dir):
    """Exact char-5-gram Jaccard range search against 4 probe docs (SQL
    oracle — the exact/verifiable member of the near-dup family; both
    sides compute the same intersection/union integer ratio)."""
    import pyarrow.parquet as pq

    from ..stages.neardup import jaccard_range_search

    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "<", 4)],
    )
    # compute-heavy per row (B×P shingle gathers): small blocks fan out
    ds = _read(sf_dir, "documents", ["doc_id", "text"], rows_per_block=512)
    out = jaccard_range_search(
        ds, t["doc_id"].to_pylist(), t["text"].to_pylist(), threshold=0.22
    )
    return _round_cols(out, {"jaccard": 6})


# ----------------------------------------------------------------- similarity
def _load_queries(sf_dir, n=8):
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    t = t.filter(pc.less(t["vec_id"], pa.scalar(n)))
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    mat = np.stack(t["embedding"].to_numpy(zero_copy_only=False))
    return ids, mat


def q_kmeans_embed(sf_dir):
    """Distributed spherical k-means over the embedding corpus (Lloyd,
    broadcast-pull + small reduce per round; rows-only: iterative)."""
    from ..stages.similarity import kmeans_lloyd

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cents, sizes, inertia = kmeans_lloyd(ds, k=16, iters=4)
    return pd.DataFrame({
        "cluster": np.arange(len(sizes), dtype=np.int64),
        "n_vectors": sizes.astype("int64"),
        "inertia": np.round(np.full(len(sizes), inertia), 4),
    })


def q_text_cluster(sf_dir):
    """Text → vector → cluster, end to end on documents: feature-hashing
    embeddings (`text.hash_embed`, one bincount per batch, no shuffle)
    feed distributed spherical k-means — the composition that turns the
    embedding tier into a TEXT tool without a model in the sandbox
    (rows-only: hashing + iterative clustering)."""
    from ..stages.similarity import kmeans_lloyd
    from ..stages.text import hash_embed

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    emb = hash_embed(ds, dim=128).materialize()
    cents, sizes, inertia = kmeans_lloyd(
        emb, k=8, iters=3, id_col="doc_id")
    return pd.DataFrame({
        "cluster": np.arange(len(sizes), dtype=np.int64),
        "n_docs": sizes.astype("int64"),
        "inertia": np.round(np.full(len(sizes), inertia), 4),
    })


def q_semantic_dedup(sf_dir):
    """SemDeDup-style semantic dedup: k-means clusters bound the pairwise
    search to O(n²/k); min-id keeper per near-dup set (rows-only:
    iterative clustering)."""
    from ..stages.similarity import semantic_dedup

    # the synthetic embeddings have no true near-dups (max pairwise cosine
    # ≈ 0.51); 0.4 exercises the clustered pair search with real output —
    # dup SEMANTICS are pytest-proven on planted copies
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = semantic_dedup(ds, threshold=0.4, k=8, iters=3)
    return _round_cols(out, {"cosine": 2})


def q_ann_range(sf_dir):
    ids, mat = _load_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = cosine_range_search(ds, ids, mat, threshold=0.2)
    return _round_cols(out, {"cosine": 2})


def q_ann_topk(sf_dir):
    """Brute-force cosine top-k (rows-only: rank ties not SQL-stable)."""
    ids, mat = _load_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = cosine_topk(ds, ids, mat, k=5)
    return _round_cols(out, {"cosine": 2})


def q_ann_ivf(sf_dir):
    """IVF-bucketed approximate top-k (rows-only)."""
    ids, mat = _load_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cents = train_centroids(ds, n_centroids=16)
    out = ivf_topk(ds, ids, mat, k=5, centroids=cents, nprobe=4)
    return _round_cols(out, {"cosine": 2})


def q_ann_pq(sf_dir):
    """Product-quantization approximate top-k (rows-only): 8-subspace
    uint8 codes (32× smaller than float32 at d=64) scored via per-query
    lookup tables — the memory-bound scale path past IVF."""
    ids, mat = _load_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    books = train_pq(ds, m=16, ksub=64, iters=6)
    out = pq_topk(ds, ids, mat, k=5, books=books, refine=4)
    return _round_cols(out, {"score": 2})


def q_ann_ivfpq(sf_dir):
    """IVF-PQ persistent-index search (rows-only): residual PQ codes in
    the inverted lists (16 B/vector vs 256 B float32 at d=64), search
    reads ONLY the probed lists' code files — the index whose hot set
    fits in page cache at 100 TB."""
    import shutil
    import tempfile

    from ..stages.similarity import build_ivfpq_index, ivfpq_search_index

    ids, mat = _load_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    root = tempfile.mkdtemp(prefix="ivfpq_", dir="/tmp")
    try:
        build_ivfpq_index(ds, root, n_centroids=16, m=16, ksub=256, iters=6)
        out = ivfpq_search_index(root, ids, mat, k=5, nprobe=4)
        # materialize before the index dir is removed (the search Dataset
        # reads the list files lazily)
        return _round_cols(out, {"score": 2}).materialize()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def q_communities(sf_dir):
    """Community-size histogram of the part co-purchase graph via
    deterministic synchronous label propagation (rows-only: iterative
    fixed point is not SQL-expressible; the value oracle is the naive
    LPA reference in tests/test_graph.py)."""
    from ..stages.graph import cooccurrence_edges, label_propagation
    from ..stages.windows import AggSpec, grouped_aggregate

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    # support ≥ 2 sparsifies the basket graph (the raw distinct-pair
    # graph is near-complete and LPA degenerates to one community)
    counted = cooccurrence_edges(ds, "l_orderkey", "l_partkey",
                                 with_counts=True)
    edges = counted.map_batches(
        lambda t: t.filter(pc.greater_equal(t["pair_count"], 2)),
        batch_format="pyarrow",
    )
    labs = label_propagation(edges, "u", "v", max_rounds=3)
    sizes = grouped_aggregate(labs, ["label"], [AggSpec("count", None, "size")])
    return grouped_aggregate(sizes, ["size"],
                             [AggSpec("count", None, "n_communities")])


def q_triangle_count(sf_dir):
    """Exact triangle count of the part co-purchase graph (parts sharing
    an order) — triple-partitioned GP scheme: edges replicate rho× to
    bucket-triple tasks, wedges never leave the task (SQL oracle = the
    3-way self-join)."""
    from ..stages.graph import cooccurrence_edges, triangle_count

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    edges = cooccurrence_edges(ds, "l_orderkey", "l_partkey")
    # cooccurrence_edges output is canonical+unique — skip the re-dedup
    return triangle_count(edges, "u", "v", rho=8, assume_canonical=True)


def q_full_outer(sf_dir):
    """FULL OUTER join of two per-customer aggregates (big-ticket order
    count ⟗ pending order count) — the remaining join kind through
    bucketed_join's union-schema null-padding path; unmatched sides
    surface as NULL counts on both wings."""
    from ..stages.join import bucketed_join
    from ..stages.windows import AggSpec, grouped_aggregate

    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_totalprice", "o_orderstatus"])

    def big(t: pa.Table) -> pa.Table:
        f = t.filter(pc.greater(t["o_totalprice"], 250000.0))
        return pa.table({"custkey": f["o_custkey"]})

    def pending(t: pa.Table) -> pa.Table:
        f = t.filter(pc.equal(t["o_orderstatus"], "P"))
        return pa.table({"custkey": f["o_custkey"]})

    left = grouped_aggregate(
        ds.map_batches(big, batch_format="pyarrow"),
        ["custkey"], [AggSpec("count", None, "n_big")])
    right = grouped_aggregate(
        ds.map_batches(pending, batch_format="pyarrow"),
        ["custkey"], [AggSpec("count", None, "n_pending")])
    return bucketed_join(left, right, "custkey", how="outer")


def q_degree_stats(sf_dir):
    """Degree distribution of the part co-purchase graph: symmetrize the
    canonical edge set, ONE combiner-partial reduce per node, then a
    tiny second reduce over degrees (SQL oracle = the two-level GROUP
    BY over the unioned endpoint stream)."""
    from ..stages.graph import cooccurrence_edges
    from ..stages.windows import AggSpec, grouped_aggregate

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    edges = cooccurrence_edges(ds, "l_orderkey", "l_partkey")

    def sym(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        return pa.table({"node": np.concatenate([u, v])})

    deg = grouped_aggregate(
        edges.map_batches(sym, batch_format="pyarrow"),
        ["node"], [AggSpec("count", None, "degree")])
    return grouped_aggregate(
        deg, ["degree"], [AggSpec("count", None, "n_nodes")])


def q_bm25_search(sf_dir):
    """BM25 relevance search over documents for a fixed 4-term query —
    zero-shuffle: per-doc tf/len partials in one pass, scalar stats
    fold, broadcast-scalar scoring (SQL oracle = explicit ordered-sum
    BM25 over the unnested token stream)."""
    from ..stages.text import bm25_score

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = bm25_score(ds, ["hash", "join", "stream", "vector"])
    return _round_cols(out, {"score": 4})


def q_k_hop(sf_dir):
    """Multi-source BFS (3 hops from parts {1,2,3}) over the co-purchase
    graph — Pregel-style frontier expansion, two bucket exchanges per
    hop, no driver-resident visited set (SQL oracle = depth-bounded
    recursive CTE reduced by min(dist))."""
    from ..stages.graph import cooccurrence_edges, k_hop

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    edges = cooccurrence_edges(ds, "l_orderkey", "l_partkey")
    return k_hop(edges, seeds=[1, 2, 3], k=3)


def q_pair_support(sf_dir):
    """Frequent co-purchased part pairs (market-basket support ≥ 2):
    the counting tier of the co-occurrence builder — one row per
    (group, pair) instead of the distinct set, reduced by the
    combiner-partial grouped_aggregate (SQL oracle = the conditional
    self-join GROUP BY)."""
    from ..stages.graph import cooccurrence_edges

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    out = cooccurrence_edges(ds, "l_orderkey", "l_partkey",
                             with_counts=True)

    def frequent(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["pair_count"], 2))

    return out.map_batches(frequent, batch_format="pyarrow")


def q_weighted_sample(sf_dir):
    """Length-weighted Bernoulli document sample: keep with probability
    ~len(text)/1024 via one integer hash comparison per row (no shuffle,
    no RNG state; the SQL oracle reproduces membership bit-exactly)."""
    from ..stages.sampling import weighted_bernoulli

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def with_len(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
        })

    return weighted_bernoulli(
        ds.map_batches(with_len, batch_format="pyarrow"),
        "doc_id", "n_chars", num=1 << 22,
    )


def q_embed_pca(sf_dir):
    """Distributed PCA (rows-only): one moment-partials pass fits the
    d×d covariance on the driver, projections stream; output = per-label
    mean/std of the first component + that component's explained ratio."""
    from ..stages.similarity import pca_fit, pca_project
    from ..stages.windows import AggSpec, grouped_aggregate

    ds = _read(sf_dir, "embeddings", ["vec_id", "label", "embedding"])
    mean, comps, ratio = pca_fit(ds, n_components=4)
    proj = pca_project(ds, mean, comps, id_col="label")

    def first_pc(t: pa.Table) -> pa.Table:
        pc1 = np.stack(t["pc"].to_numpy(zero_copy_only=False))[:, 0]
        return pa.table({"label": t["label"], "pc1": pa.array(pc1)})

    out = grouped_aggregate(
        proj.map_batches(first_pc, batch_format="pyarrow"),
        ["label"],
        [AggSpec("count", None, "n"), AggSpec("mean", "pc1", "mean_pc1"),
         AggSpec("std", "pc1", "std_pc1")],
    )

    r1 = float(ratio[0])

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["pc1_explained"] = np.round(r1, 4)
        return df

    return _round_cols(out.map_batches(attach, batch_format="pandas"),
                       {"mean_pc1": 4, "std_pc1": 4})


def q_embedding_neardup(sf_dir):
    """Embedding-cosine near-duplicate pairs (exact form, SQL oracle).

    Threshold 0.42 sits in a wide gap of the synthetic corpus's pairwise
    cosine distribution (≥1e-3 from the nearest pair at sf≤0.01), so the
    float32 DuckDB kernel vs float64 numpy divergence (~2e-7 measured)
    cannot flip membership.  The high-threshold scale path is
    ``embedding_neardup_lsh`` (unit-tested against this exact kernel).
    """
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = embedding_neardup_pairs(ds, threshold=0.42)
    return _round_cols(out, {"cosine": 2})


def q_vector_norms(sf_dir):
    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def norms(t: pa.Table) -> pa.Table:
        arr = t["embedding"].combine_chunks()
        flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        m = flat.reshape(len(arr), -1)
        return pa.table(
            {"label": t["label"], "l2": pa.array(np.sqrt((m * m).sum(axis=1)))}
        )

    n = ds.map_batches(norms, batch_format="pyarrow")
    out = grouped_aggregate(
        n, ["label"], [AggSpec("count", None, "n"), AggSpec("sum", "l2", "sum_l2")]
    )
    return _round_cols(out, {"sum_l2": 4})


def q_upsert_compaction(sf_dir):
    """Keyed upsert + merge-on-read compaction (lancelite RecordWriter
    SPI): events upserted in arrival order, latest row per user wins —
    the K6 Upsert/SaveMode surface under an SQL oracle."""
    import tempfile

    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_id", "event_type", "ts"],
    )
    ms = ts_to_ms(t["ts"])
    ev = t["event_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ev, ms))
    t = t.take(pa.array(order))
    schema = pa.schema(
        [
            pa.field("user_id", pa.int64(), nullable=False),
            pa.field("event_id", pa.int64()),
            pa.field("event_type", pa.string()),
            pa.field("ts", t.schema.field("ts").type),
        ]
    )
    t = t.cast(schema)
    from ..table import Table as LTable

    root = tempfile.mkdtemp(prefix="hydra_upsert_q_")
    tbl = LTable.create(f"{root}/t", schema=schema, key=["user_id"])
    step = -(-t.num_rows // 4)
    for i in range(4):
        lo = i * step
        if lo < t.num_rows:
            tbl.upsert(t.slice(lo, min(step, t.num_rows - lo)))
    out = tbl.read_compacted()
    return pa.table(
        {
            "user_id": out["user_id"],
            "last_type": out["event_type"],
            "last_ms": pa.array(ts_to_ms(out["ts"]), pa.int64()),
        }
    )


# ----------------------------------------------------------- streaming (raw)
def q_replicate_stream(sf_dir):
    """Mini end-to-end streaming replication on synthetic clips (rows-only;
    exercises decode → state actors → exactly-once sink)."""
    import tempfile

    from ..pipelines.replicate import ReplicateConfig, ReplicatePipeline
    from ..synth import synth_clips_table, synth_updates_table
    from ..table import Table

    n = 600
    root = tempfile.mkdtemp(prefix="hydra_repl_q_")
    clips = synth_clips_table(n)
    ct = Table.create(f"{root}/clips", schema=clips.schema)
    for v in range(3):
        ct.append(clips.slice(v * (n // 3), n // 3))
    upd = synth_updates_table(n)
    ut = Table.create(f"{root}/updates", schema=upd.schema)
    step = -(-upd.num_rows // 3)
    for v in range(3):
        ut.append(upd.slice(v * step, min(step, upd.num_rows - v * step)))
    cfg = ReplicateConfig(num_partitions=4, actor_num_cpus=0.25)
    ReplicatePipeline(f"{root}/clips", f"{root}/out", cfg, f"{root}/updates").run()
    out = Table(f"{root}/out/replicated").to_arrow()
    return out.select(["seq", "clip_id", "transcript", "deleted", "partition", "epoch"])


def q_early_windows(sf_dir):
    """Early-fire incremental window view (rows-only): a mini streaming
    run with ``early_fire=True`` stopped MID-STREAM — the returned
    ``read_windows_live`` frame mixes exact close-time finals with
    provisional totals of still-open cells (the speculative-emission /
    IVM tier; converges to the windows sink as the stream drains —
    tests/test_early_fire.py pins provisional∪final against the
    admitted-rows lineage oracle exactly)."""
    import tempfile

    from ..pipelines.replicate import (
        ReplicateConfig,
        ReplicatePipeline,
        read_windows_live,
    )
    from ..synth import synth_clips_table
    from ..table import Table

    n = 600
    root = tempfile.mkdtemp(prefix="hydra_early_q_")
    clips = synth_clips_table(n)
    ct = Table.create(f"{root}/clips", schema=clips.schema)
    for v in range(3):
        ct.append(clips.slice(v * (n // 3), n // 3))
    cfg = ReplicateConfig(num_partitions=4, actor_num_cpus=0.25,
                          early_fire=True)
    ReplicatePipeline(f"{root}/clips", f"{root}/out", cfg).run(max_epochs=2)
    out = read_windows_live(f"{root}/out")  # pandas frame: fully materialized
    import shutil

    shutil.rmtree(root, ignore_errors=True)
    return out


def q_neardup_clusters(sf_dir):
    """MinHash-LSH → Jaccard verify → connected components (rows-only)."""
    from ..stages.neardup import neardup_clusters

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = neardup_clusters(ds, threshold=0.6)
    if len(out) == 0:
        # deterministic empty frame with stable schema
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "cluster_id": pd.Series([], dtype="int64")})
    return out


def q_neardup_cc(sf_dir):
    """Same near-dup pipeline resolved with DISTRIBUTED connected
    components (alternating-star rounds, no driver collect) — the
    10^12-doc scale path; output identical to the union-find resolver
    (both label clusters by min member id)."""
    from ..stages.neardup import neardup_clusters

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = neardup_clusters(ds, threshold=0.6, resolve="distributed")
    if len(out) == 0:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "cluster_id": pd.Series([], dtype="int64")})
    return out


def q_components(sf_dir):
    """ORACLED connected components: the distributed alternating-star CC
    kernel (stages/graph.py) against a DuckDB RECURSIVE-CTE min-label
    fixpoint — the first driver-verifiable entry for the graph family
    (neardup_cc / communities / kcore are rows-only).  Graph = Brand#1
    parts co-purchased in the same order with support ≥ 2 (brand
    restriction keeps components small enough that the oracle's
    reachability closure stays polynomial).  Output = (p_partkey,
    component = min reachable part key)."""
    from ..stages.graph import connected_components, cooccurrence_edges
    from ..stages.join import dim_join

    # part scales with SF: dim_join broadcasts the brand key set below
    # the bound, switches to a partitioned semi join beyond (VERDICT r3 #5)
    brand_keys = _read(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
        lambda t: pa.table({
            "l_partkey": t.filter(
                pc.equal(t["p_brand"], "Brand#1"))["p_partkey"],
        }), batch_format="pyarrow")

    li = dim_join(_read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]),
                  brand_keys, on="l_partkey", how="semi")

    edges = cooccurrence_edges(
        li, "l_orderkey", "l_partkey", with_counts=True)
    freq = edges.map_batches(
        lambda t: pa.table({"u": t["u"], "v": t["v"]}).filter(
            pc.greater_equal(t["pair_count"], 2)),
        batch_format="pyarrow")

    comp = connected_components(freq, "u", "v", num_buckets=8)
    return comp.map_batches(
        lambda t: pa.table({
            "p_partkey": pc.cast(t["node"], pa.int64()),
            "component": pc.cast(t["component"], pa.int64()),
        }), batch_format="pyarrow")


def q_similarity_join(sf_dir):
    """EXACT set-similarity self-join (prefix-filtering SSJoin /
    PPJoin df-ordering — `neardup.similarity_join`): all document pairs
    with 5-gram Jaccard ≥ 0.8 over a deterministic document subset
    (doc_id % 5 == 0) ∪ planted copies (every 7th of those re-appears
    under id+1e6, so exact-dup pairs provably exist).  Unlike the
    MinHash-LSH path this join is COMPLETE, so the DuckDB pairwise-
    Jaccard oracle checks it exactly.  The subset keeps the bench entry
    honest: the synthetic corpus is LOW-ENTROPY (~2k distinct 5-grams
    over 5.7k docs at sf0.1, 87%% with df ≥ 100), which defeats prefix-
    filter selectivity by construction — on such data any exact SSJoin
    degenerates toward all-pairs, which is the LSH tier's regime."""
    from ..stages.neardup import similarity_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def with_copies(t: pa.Table) -> pa.Table:
        ids0 = t["doc_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids0 % 5 == 0))
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        copies = t.filter(pa.array(ids % 7 == 0))
        return pa.table({
            "doc_id": pa.concat_arrays([
                t["doc_id"].combine_chunks(),
                pc.add(copies["doc_id"],
                       pa.scalar(1_000_000)).combine_chunks()]),
            "text": pa.concat_arrays([
                t["text"].combine_chunks(),
                copies["text"].combine_chunks()]),
        })

    corpus = ds.map_batches(with_copies, batch_format="pyarrow")
    return similarity_join(corpus, threshold=0.8, k=5)


def q_salted_agg(sf_dir):
    """Skew-safe two-stage aggregate: every key is hot (event_type has 5
    values over the whole table), so rows salt into (key, salt) partials
    first — the wide shuffle spreads uniformly — and a second tiny
    groupby merges the partials per key (stages/skew.py contract)."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def salt(t: pa.Table) -> pa.Table:
        s = pc.cast(
            pc.bit_wise_and(t["event_id"], pa.scalar(15, pa.int64())), pa.int32()
        )
        return t.append_column("salt", s)

    salted = ds.map_batches(salt, batch_format="pyarrow")
    stage1 = grouped_aggregate(
        salted, ["event_type", "salt"],
        [AggSpec("count", None, "n"), AggSpec("sum", "value", "sum_value")],
    )
    stage2 = grouped_aggregate(
        stage1, ["event_type"],
        [AggSpec("sum", "n", "n"), AggSpec("sum", "sum_value", "sum_value")],
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "n": pc.cast(t["n"], pa.int64()),
                "sum_value": round_f64(t["sum_value"], 2),
            }
        )

    return stage2.map_batches(finalize, batch_format="pyarrow")


def q_distinct_users(sf_dir):
    """Exact distinct counting at scale: per-batch distinct partials →
    bucketed vectorized dedup → count per group (the `unique` operator)."""
    from ..stages.dedup import bucketed_distinct

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    dd = bucketed_distinct(ds, ["event_type", "user_id"])
    return grouped_aggregate(
        dd, ["event_type"], [AggSpec("count", None, "n_distinct_users")]
    )


def q_approx_distinct(sf_dir):
    """HyperLogLog distinct user estimate per event_type (mergeable
    sketches; rows-only check — approximate by design)."""
    from ..stages.sketches import approx_distinct

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return approx_distinct(ds, "user_id", group_col="event_type", p=12)


def q_heavy_hitters(sf_dir):
    """Users with ≥80 events via the Misra–Gries frequent-items sketch.

    Run in the exact regime (capacity ≫ per-block distinct users, so no
    MG decrements fire and count_lo == true count) — which is what makes
    a SQL oracle possible; the bounded-memory approximate regime is
    exercised by the pytest property (`test_frequent_items_bounds`)."""
    import pyarrow.compute as pc

    from ..stages.sketches import frequent_items

    ds = _read(sf_dir, "events", ["user_id"])
    fi = frequent_items(ds, ["user_id"], capacity=1 << 20)

    def finalize(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["count_lo"], 80))
        return pa.table(
            {
                "user_id": t["user_id"],
                "n_events": pc.cast(t["count_lo"], pa.int64()),
            }
        )

    return fi.map_batches(finalize, batch_format="pyarrow")


def _dist_synth(n: int, make_batch, num_blocks: int = 16):
    """Synthesize fixture rows INSIDE tasks over an index range.

    A driver-built ``from_arrow`` table is one block, so every downstream
    ``map_batches`` stage runs as a single task; distributing the
    synthesis over ``rd.range`` blocks parallelizes both the synthesis
    and the decode that follows.  ``make_batch(idx)`` gets an int64
    index array and returns an Arrow table (deterministic per index)."""
    import ray.data as rd

    return rd.range(n, override_num_blocks=num_blocks).map_batches(
        lambda b: make_batch(b["id"].astype(np.int64)), batch_format="numpy"
    )


def _synth_image(i: int, h: int = 48, w: int = 64) -> np.ndarray:
    y, x = np.mgrid[0:h, 0:w]
    r = (x * 255 // max(w - 1, 1)).astype(np.uint8)
    g = (y * 255 // max(h - 1, 1)).astype(np.uint8)
    b = ((x * y + i * 37) % 256).astype(np.uint8)
    return np.stack([r, g, b], axis=-1)


def q_image_features(sf_dir):
    """Real image decode (ppm/pgm/bmp/baseline-jpeg, pure numpy) → brightness/contrast/
    edge-energy/thumbnail/dHash features via an actor-shaped map_batches
    (rows-only; no SQL image codec)."""
    import ray.data as rd

    from ..stages.multimodal import (
        ImageDecoder,
        encode_bmp,
        encode_pgm,
        encode_ppm,
    )

    n = 400

    def make(idx: np.ndarray) -> pa.Table:
        from ..jpeglite import encode_jpeg
        from ..pnglite import encode_png

        ids, payloads, fmts = [], [], []
        for i in idx.tolist():
            fmt = ("ppm", "bmp", "pgm", "jpeg", "png")[i % 5]
            rgb = _synth_image(i)
            if fmt == "ppm":
                payloads.append(encode_ppm(rgb))
            elif fmt == "bmp":
                payloads.append(encode_bmp(rgb))
            elif fmt == "jpeg":
                payloads.append(encode_jpeg(rgb, quality=88))
            elif fmt == "png":
                payloads.append(encode_png(rgb))
            else:
                payloads.append(encode_pgm(rgb[:, :, 0]))
            ids.append(f"img-{i:06d}")
            fmts.append(fmt)
        return pa.table(
            {
                "image_id": pa.array(ids),
                "bytes": pa.array(payloads, pa.large_binary()),
                "format": pa.array(fmts),
            }
        )

    ds = _dist_synth(n, make).map_batches(
        ImageDecoder(), batch_format="pyarrow", batch_size=64
    )
    return ds.select_columns(
        ["image_id", "width", "height", "brightness", "contrast",
         "edge_energy", "dhash"]
    )


def q_image_resize(sf_dir):
    """Decode → block-mean resize to 32×32 → re-encode (jpeg/ppm/pgm) → decode
    again for size bookkeeping: the resize/normalize multimodal stage
    (rows-only).  Returns per-image output format + byte size."""
    import pyarrow.compute as pc2

    from ..stages.multimodal import (
        ImageResize,
        encode_bmp,
        encode_pgm,
        encode_ppm,
    )

    n = 400

    def make(idx: np.ndarray) -> pa.Table:
        from ..jpeglite import encode_jpeg
        from ..pnglite import encode_png

        ids, payloads, fmts = [], [], []
        for i in idx.tolist():
            fmt = ("ppm", "bmp", "pgm", "jpeg", "png")[i % 5]
            rgb = _synth_image(i)
            if fmt == "ppm":
                payloads.append(encode_ppm(rgb))
            elif fmt == "bmp":
                payloads.append(encode_bmp(rgb))
            elif fmt == "jpeg":
                payloads.append(encode_jpeg(rgb, quality=88))
            elif fmt == "png":
                payloads.append(encode_png(rgb))
            else:
                payloads.append(encode_pgm(rgb[:, :, 0]))
            ids.append(f"img-{i:06d}")
            fmts.append(fmt)
        return pa.table({
            "image_id": pa.array(ids),
            "bytes": pa.array(payloads, pa.large_binary()),
            "format": pa.array(fmts),
        })

    small = _dist_synth(n, make).map_batches(
        ImageResize(32, 32), batch_format="pyarrow", batch_size=64
    )

    def book(t: pa.Table) -> pa.Table:
        return pa.table({
            "image_id": t["image_id"],
            "out_format": t["format"],
            "out_bytes": pc2.cast(pc2.binary_length(t["bytes"]), pa.int64()),
            "width": t["width"],
            "height": t["height"],
        })

    return small.map_batches(book, batch_format="pyarrow")


def q_image_neardup(sf_dir):
    """Image near-dup by perceptual dHash + banded Hamming pairing (the
    generic hamming_near_pairs machinery; rows-only).  Every third image
    is a brightness-shifted copy of its predecessor — a planted near-dup
    the hash must catch."""
    import ray.data as rd

    from ..stages.multimodal import ImageDecoder, encode_ppm
    from ..stages.neardup import hamming_near_pairs

    def diverse(seed: int, h: int = 48, w: int = 64) -> np.ndarray:
        # per-seed oriented patterns so unrelated images get distant
        # dHashes (a shared global gradient would alias every hash)
        y, x = np.mgrid[0:h, 0:w]
        a, b, c = 3 + (seed * 7) % 13, 1 + (seed * 11) % 17, (seed * 29) % 251
        plane = ((x * a + y * b + (x // 4) * (y // 4) * (seed % 5) + c) % 256)
        return np.stack([plane, (plane * 2) % 256, (plane * 3) % 256], -1).astype(
            np.uint8
        )

    n = 300

    def make(idx: np.ndarray) -> pa.Table:
        ids, payloads, fmts = [], [], []
        for i in idx.tolist():
            if i % 3 == 1:
                rgb = np.clip(
                    diverse(i - 1).astype(np.int16) + 8, 0, 255
                ).astype(np.uint8)
            else:
                rgb = diverse(i)
            ids.append(f"img-{i:06d}")
            payloads.append(encode_ppm(rgb))
            fmts.append("ppm")
        return pa.table(
            {
                "image_id": pa.array(ids),
                "bytes": pa.array(payloads, pa.large_binary()),
                "format": pa.array(fmts),
            }
        )

    hashed = _dist_synth(n, make).map_batches(
        ImageDecoder(), batch_format="pyarrow", batch_size=64
    ).select_columns(["image_id", "dhash"])
    return hamming_near_pairs(hashed, "dhash", "image_id", max_hamming=3)


def q_video_frames(sf_dir):
    """Video frame sampling over ALL FOUR real containers — the clip
    rotation ships ISO-BMFF mp4 (pure-spec mp4lite demux), EBML
    Matroska + WebM (pure-spec mkvlite demux) and rawv (flat_map-
    shaped: one row per sampled frame, brightness + motion energy;
    rows-only)."""
    import ray.data as rd

    from ..mkvlite import encode_mkv
    from ..mp4lite import encode_mp4
    from ..stages.multimodal import FrameSampler, encode_rawv

    n = 60
    def make(idx: np.ndarray) -> pa.Table:
        ids, payloads, fmts = [], [], []
        for i in idx.tolist():
            nf, h, w, fps = 24 + (i % 5) * 12, 24, 32, 12
            y, x = np.mgrid[0:h, 0:w]
            base = ((x + y + i) % 256).astype(np.uint8)
            frames = np.stack(
                [np.roll(base, f * 2, axis=1) for f in range(nf)]
            )
            ids.append(f"vid-{i:04d}")
            r = i % 4
            if r == 0:
                payloads.append(encode_mp4(frames, fps))
                fmts.append("mp4")
            elif r == 1:
                payloads.append(encode_mkv(frames, fps))
                fmts.append("mkv")
            elif r == 2:
                payloads.append(encode_mkv(frames, fps, doctype="webm"))
                fmts.append("webm")
            else:
                payloads.append(encode_rawv(frames, fps))
                fmts.append("rawv")
        return pa.table(
            {
                "video_id": pa.array(ids),
                "bytes": pa.array(payloads, pa.large_binary()),
                "format": pa.array(fmts),
            }
        )

    ds = _dist_synth(n, make).map_batches(
        FrameSampler(stride_ms=500), batch_format="pyarrow", batch_size=16
    )
    return ds.select_columns(
        ["video_id", "frame_idx", "frame_ts_ms", "brightness", "motion"]
    )


def q_video_neardup(sf_dir):
    """Content-based video near-dup over all four containers: frame
    dHash fingerprints → banded Hamming exchange → per-pair shared-
    frame fraction (`multimodal.video_neardup`).  Fixture plants a
    noisy copy (different container) for every 6th clip; rows-only
    (perceptual-hash scoring has no SQL form)."""
    from ..mkvlite import encode_mkv
    from ..mp4lite import encode_mp4
    from ..stages.multimodal import encode_rawv, video_neardup

    n = 48

    def make(idx: np.ndarray) -> pa.Table:
        ids, payloads, fmts = [], [], []
        for i in idx.tolist():
            nf, h, w, fps = 24, 32, 32, 12
            rng = np.random.default_rng(1000 + (i % 6 == 5 and i - 1 or i))
            texture = rng.integers(0, 160, (h // 4, w // 4)
                                   ).repeat(4, 0).repeat(4, 1)
            y, x = np.mgrid[0:h, 0:w]
            speed = 1 + i % 4 if i % 6 != 5 else 1 + (i - 1) % 4
            frames = np.empty((nf, h, w), np.uint8)
            for f in range(nf):
                bar = ((x + speed * f) % w < 6) * 95
                noise = rng.integers(-4, 5, (h, w))
                frames[f] = np.clip(texture + bar + noise, 0, 255
                                    ).astype(np.uint8)
            ids.append(f"vid-{i:04d}")
            r = i % 3
            if r == 0:
                payloads.append(encode_mp4(frames, fps))
                fmts.append("mp4")
            elif r == 1:
                payloads.append(encode_mkv(frames, fps))
                fmts.append("mkv")
            else:
                payloads.append(encode_rawv(frames, fps))
                fmts.append("rawv")
        return pa.table({
            "video_id": pa.array(ids),
            "bytes": pa.array(payloads, pa.large_binary()),
            "format": pa.array(fmts),
        })

    ds = _dist_synth(n, make)
    return video_neardup(ds, stride_ms=250, max_hamming=6,
                         min_shared=0.5)


def q_audio_features(sf_dir):
    """Decode → vectorized per-clip audio features (RMS, peak, ZCR,
    clipping, dominant frequency) on the synthetic clip stream
    (rows-only; no SQL audio codec)."""
    from ..stages.audio_features import AudioFeatures
    from ..stages.decode import AudioDecoder, split_dlq
    from ..synth import synth_clips_batch

    n = 600
    # Block-sized batches (no batch_size): bundling 16 synth blocks into
    # 128-row batches ran the fused synth→decode→features chain as only 4
    # tasks; block-granular batches over 32 blocks keep all cores faulting
    # their buffers concurrently (13.6 s → 4.1 s cold on this host).
    ds = _dist_synth(
        n, lambda idx: synth_clips_batch(idx, n, hot_fraction=0.0), num_blocks=32
    ).map_batches(AudioDecoder(), batch_format="pyarrow")
    main, _ = split_dlq(ds)
    feats = main.map_batches(AudioFeatures(), batch_format="pyarrow")

    def project(t2: pa.Table) -> pa.Table:
        return t2.select(
            ["seq", "clip_id", "sr_hz", "dur_ms", "rms", "peak",
             "zero_cross_rate", "clip_ratio", "dom_freq_hz"]
        )

    return feats.map_batches(project, batch_format="pyarrow")


def q_bpe_tokens(sf_dir):
    """Train a BPE tokenizer on the documents corpus (distributed word
    count → bounded driver merge loop), then count TRUE tokens per doc
    with the cached actor-pool encoder.  Rows-only; the value oracle is
    the naive-reference parity test (tests/test_bpe.py)."""
    from ..stages.bpe import bpe_token_counts, train_bpe

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    merges = train_bpe(ds, "text", n_merges=150)
    return bpe_token_counts(ds, merges, "text", "doc_id")


def _explode_feature_cols(t2: pa.Table, mean_col: str, std_col: str,
                          idx_col: str) -> pa.Table:
    """(seq, clip_id, n_frames, <vec cols>) → LONG rows, one per
    coefficient, with the pooled values as round_f64(·, 6) doubles —
    the driver-hashable identity-oracle shape (scalar columns only;
    the harness cannot sort/compare fixed_size_list cells)."""
    mean = t2[mean_col].combine_chunks()
    width = mean.type.list_size
    fm = mean.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    fs = (t2[std_col].combine_chunks().flatten()
          .to_numpy(zero_copy_only=False).astype(np.float64))
    n = t2.num_rows
    rep = lambda col: pa.array(np.repeat(
        t2[col].to_numpy(zero_copy_only=False), width))
    return pa.table({
        "seq": rep("seq"),
        "clip_id": pa.array(np.repeat(
            t2["clip_id"].to_numpy(zero_copy_only=False), width)),
        "n_frames": rep("n_frames"),
        idx_col: pa.array(np.tile(np.arange(width, dtype=np.int64), n)),
        mean_col: round_f64(pa.array(fm), 6),
        std_col: round_f64(pa.array(fs), 6),
    })


def q_audio_fbank(sf_dir):
    """Decode → resample to 16 kHz → pooled log-mel filterbank features
    (the speech-model front-end; one batched rfft + filterbank matmul +
    per-clip reduceat pooling), exploded to one row per mel bin.

    ORACLED as a stored-reference identity (VERDICT r4 #7): the synth
    corpus is sf-independent and the kernel is bitwise deterministic
    across cpu counts/batch splits (verified 8 vs 32 cpus), so the
    committed golden parquet (hydra_ray/golden/audio_fbank.parquet,
    regenerated by tools/make_audio_golden.py) pins every coefficient;
    the per-clip numpy reference in tests/test_audio_curation.py remains
    the independent value oracle."""
    from ..stages.audio_curation import Resampler
    from ..stages.audio_features import FbankFeatures
    from ..stages.decode import AudioDecoder, split_dlq
    from ..synth import synth_clips_batch

    n = 600
    ds = _dist_synth(
        n, lambda idx: synth_clips_batch(idx, n, hot_fraction=0.0),
        num_blocks=32,
    ).map_batches(AudioDecoder(), batch_format="pyarrow")
    main, _ = split_dlq(ds)
    feats = (
        main.map_batches(Resampler(16_000), batch_format="pyarrow")
        .map_batches(FbankFeatures(), batch_format="pyarrow")
    )
    return feats.map_batches(
        lambda t2: _explode_feature_cols(t2, "fbank_mean", "fbank_std",
                                         "mel"),
        batch_format="pyarrow")


def q_audio_mfcc(sf_dir):
    """Decode → resample to 16 kHz → pooled MFCCs (orthonormal DCT-II
    cepstra over the log-mel frames — one extra matmul on the shared
    fbank path), exploded to one row per cepstral coefficient.
    ORACLED against the committed golden
    (hydra_ray/golden/audio_mfcc.parquet) — see q_audio_fbank."""
    from ..stages.audio_curation import Resampler
    from ..stages.audio_features import FbankFeatures
    from ..stages.decode import AudioDecoder, split_dlq
    from ..synth import synth_clips_batch

    n = 600
    ds = _dist_synth(
        n, lambda idx: synth_clips_batch(idx, n, hot_fraction=0.0),
        num_blocks=32,
    ).map_batches(AudioDecoder(), batch_format="pyarrow")
    main, _ = split_dlq(ds)
    feats = (
        main.map_batches(Resampler(16_000), batch_format="pyarrow")
        .map_batches(FbankFeatures(n_mels=24, n_mfcc=13), batch_format="pyarrow")
    )
    return feats.map_batches(
        lambda t2: _explode_feature_cols(t2, "mfcc_mean", "mfcc_std",
                                         "coef"),
        batch_format="pyarrow")


def q_pitch_track(sf_dir):
    """Decode → frame-wise autocorrelation pitch tracking (per-clip
    median F0 over voiced frames + voicing ratio) at each clip's NATIVE
    sample rate (the per-rate recursion inside ``audio_pitch`` handles
    the mix — no resample pass needed for a rate-covariant feature).
    Rows-only; the value oracle is the known synth fundamental
    (f = 220 + (seq % 64)·7 Hz) gated in tests/test_audio_curation.py."""
    from ..stages.audio_features import PitchFeatures
    from ..stages.decode import AudioDecoder, split_dlq
    from ..synth import synth_clips_batch

    n = 600
    ds = _dist_synth(
        n, lambda idx: synth_clips_batch(idx, n, hot_fraction=0.0),
        num_blocks=32,
    ).map_batches(AudioDecoder(), batch_format="pyarrow")
    main, _ = split_dlq(ds)
    feats = main.map_batches(PitchFeatures(), batch_format="pyarrow")

    def project(t2: pa.Table) -> pa.Table:
        return t2.select(["seq", "clip_id", "n_frames", "f0_hz",
                          "f0_std_hz", "voiced_ratio"])

    return feats.map_batches(project, batch_format="pyarrow")


def q_audio_curation(sf_dir):
    """Decode → resample every clip to 16 kHz → FFT spectral features
    (centroid/bandwidth/rolloff/flatness) — the sample-rate-normalize +
    spectral-stats curation pass (rows-only; no SQL audio codec)."""
    from ..stages.audio_curation import Resampler, SpectralFeatures
    from ..stages.decode import AudioDecoder, split_dlq
    from ..synth import synth_clips_batch

    n = 600
    ds = _dist_synth(
        n, lambda idx: synth_clips_batch(idx, n, hot_fraction=0.0), num_blocks=32
    ).map_batches(AudioDecoder(), batch_format="pyarrow")
    main, _ = split_dlq(ds)
    cur = main.map_batches(Resampler(16_000), batch_format="pyarrow").map_batches(
        SpectralFeatures(), batch_format="pyarrow"
    )

    def project(t2: pa.Table) -> pa.Table:
        out_n = pc.list_value_length(t2["pcm"]).cast(pa.int64())
        return pa.table({
            "seq": t2["seq"],
            "sr_hz": t2["sr_hz"],
            "n_samples": out_n,
            "spec_centroid_hz": round_f64(t2["spec_centroid_hz"], 1),
            "spec_bandwidth_hz": round_f64(t2["spec_bandwidth_hz"], 1),
            "spec_rolloff_hz": round_f64(t2["spec_rolloff_hz"], 1),
            "spec_flatness": round_f64(t2["spec_flatness"], 4),
        })

    return cur.map_batches(project, batch_format="pyarrow")


def q_trim_audio(sf_dir):
    """Decode → trim leading/trailing silence → overlapping PCM window
    chunking (the audio analogue of text chunking; rows-only).  Returns
    per-chunk bookkeeping, not the PCM (CLAUDE.md: never collect a PCM
    list column)."""
    from ..stages.audio_curation import ChunkAudio, TrimSilence
    from ..stages.decode import AudioDecoder, split_dlq
    from ..synth import synth_clips_batch

    n = 600
    ds = _dist_synth(
        n, lambda idx: synth_clips_batch(idx, n, hot_fraction=0.0), num_blocks=32
    ).map_batches(AudioDecoder(), batch_format="pyarrow")
    main, _ = split_dlq(ds)
    chunks = (
        main.map_batches(TrimSilence(thresh_db=-45.0), batch_format="pyarrow")
        .map_batches(ChunkAudio("seq", win_ms=250, hop_ms=125),
                     batch_format="pyarrow")
    )

    def book(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2

        return pa.table({
            "seq": t["seq"],
            "chunk": t["chunk"],
            "start_ms": t["start_ms"],
            "n_samples": pc2.cast(pc2.list_value_length(t["pcm"]), pa.int64()),
        })

    return chunks.map_batches(book, batch_format="pyarrow")


def q_transcode_flac(sf_dir):
    """Decode pcm16/wav/… → re-encode as real FLAC bitstreams → per-codec
    compression stats (rows-only; exercises the flaclite ENCODER
    distributed — the decoder is covered by flac_roundtrip)."""
    from ..stages.audio_features import _flat_and_offsets
    from ..stages.decode import AudioDecoder, split_dlq
    from ..synth import synth_clips_batch

    n = 600
    ds = _dist_synth(
        n, lambda idx: synth_clips_batch(idx, n, hot_fraction=0.0), num_blocks=32
    ).map_batches(AudioDecoder(), batch_format="pyarrow")
    main, _ = split_dlq(ds)

    def encode(t: pa.Table) -> pa.Table:
        from ..flaclite import encode_flac

        flat, offsets = _flat_and_offsets(t["pcm"])
        sr = t["sr_hz"].to_numpy(zero_copy_only=False)
        ratios = np.empty(t.num_rows, np.float64)
        for i in range(t.num_rows):
            w = flat[offsets[i]:offsets[i + 1]]
            raw = 2 * len(w)  # pcm16 bytes
            ratios[i] = len(encode_flac(w, int(sr[i]))) / raw if raw else np.nan
        return pa.table({
            "codec": t["codec"],
            "flac_ratio": pa.array(ratios, pa.float64()),
        })

    enc = main.map_batches(encode, batch_format="pyarrow")
    out = grouped_aggregate(
        enc, ["codec"],
        [
            AggSpec("count", None, "n_clips"),
            AggSpec("mean", "flac_ratio", "avg_ratio"),
            AggSpec("max", "flac_ratio", "max_ratio"),
        ],
    )
    return _round_cols(out, {"avg_ratio": 4, "max_ratio": 4})


def q_vad_segments(sf_dir):
    """Decode → energy-VAD segmentation: clips explode into active
    segments (speech-trim curation pass; rows-only)."""
    from ..stages.audio_curation import VadSegments
    from ..stages.decode import AudioDecoder, split_dlq
    from ..synth import synth_clips_batch

    n = 600
    ds = _dist_synth(
        n, lambda idx: synth_clips_batch(idx, n, hot_fraction=0.0), num_blocks=32
    ).map_batches(AudioDecoder(), batch_format="pyarrow")
    main, _ = split_dlq(ds)
    return main.map_batches(
        VadSegments("seq", thresh_db=-45.0), batch_format="pyarrow"
    )


# ------------------------------------------------------- scalar functions
def q_date_parts(sf_dir):
    """Temporal scalar-function surface (SURVEY §2.9 ISODateConverter
    family): year/quarter/month/day-of-week extraction as pure pyarrow
    temporal kernels inside one map, then a grouped count + exact
    integer-cents sum.  pc.day_of_week(count_from_zero=True,
    week_start=7) == DuckDB dayofweek (Sunday=0) — verified kernels."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def parts(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"]
        cents = pc.cast(
            pc.round(pc.multiply(t["o_totalprice"], pa.scalar(100.0))),
            pa.int64())
        return pa.table({
            "y": pc.year(d),
            "q": pc.quarter(d),
            "m": pc.month(d),
            "dow": pc.cast(
                pc.day_of_week(d, count_from_zero=True, week_start=7),
                pa.int64()),
            "cents": cents,
        })

    agg = grouped_aggregate(
        ds.map_batches(parts, batch_format="pyarrow"),
        ["y", "q", "m", "dow"],
        [AggSpec("count", None, "n"), AggSpec("sum", "cents", "cents")],
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "y": t["y"], "q": t["q"], "m": t["m"], "dow": t["dow"],
            "n": pc.cast(t["n"], pa.int64()),
            "sum_price": round_f64(
                pc.divide(pc.cast(t["cents"], pa.float64()),
                          pa.scalar(100.0)), 2),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_string_funcs(sf_dir):
    """String scalar-function surface (SURVEY §2.9 cleanName / Base62 /
    JsonPath family): upper, substr, length, strpos, reverse, lpad,
    concat — all pyarrow utf8 kernels in ONE streaming map, no
    exchange.  strpos is 1-based with 0 for absent ==
    pc.find_substring (0-based, −1 absent) + 1."""
    ds = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"])

    def funcs(t: pa.Table) -> pa.Table:
        name = t["c_name"]
        return pa.table({
            "c_custkey": t["c_custkey"],
            "name_upper": pc.utf8_upper(name),
            "name_prefix": pc.utf8_slice_codeunits(name, 0, 8),
            "name_len": pc.cast(pc.utf8_length(name), pa.int64()),
            "pos_zero": pc.cast(
                pc.add(pc.find_substring(name, "0"), 1), pa.int64()),
            "name_rev": pc.utf8_reverse(name),
            "key_pad": pc.utf8_lpad(
                pc.cast(t["c_custkey"], pa.string()), 10, "0"),
            "tagged": pc.binary_join_element_wise(
                t["c_mktsegment"], name, ":"),
        })

    return ds.map_batches(funcs, batch_format="pyarrow")


def q_unpivot_events(sf_dir):
    """Melt wide → long over lineitem's three rate columns (pivot's
    inverse; SQL UNION ALL of per-column projections).  Pure per-batch
    map, no exchange — see stages/rollup.py unpivot."""
    from ..stages.rollup import unpivot

    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber",
                "l_quantity", "l_discount", "l_tax"])
    out = unpivot(ds, ["l_orderkey", "l_linenumber"],
                  ["l_quantity", "l_discount", "l_tax"],
                  var_name="measure", value_name="value")
    return _round_cols(out, {"value": 2})


def q_local_volume(sf_dir):
    """TPC-H-Q5-shaped local-supplier-volume pipeline: region/nation/
    supplier are broadcast dicts (ray.put once, read per task — never
    re-shipped per batch), customer is filtered to the region BEFORE
    broadcast, orders are date-filtered AT THE SCAN, and the only
    exchange is ONE bucketed lineitem⋈orders hash join.  Revenue sums
    exact integer cents×(100−disc) (big-group money rule).  Partitioning
    assumption: customer filtered to one region fits the object store
    (it is ~1/5 of a dimension table; at 100 TB the same shape holds
    because customer scales with entities, not events)."""
    from ..stages.join import broadcast_join, bucketed_join, dim_join

    region = _dim_pd(sf_dir, "region", ["r_regionkey", "r_name"])
    nation = _dim_pd(sf_dir, "nation")
    rkey = int(region.loc[region["r_name"] == "ASIA", "r_regionkey"].iloc[0])
    nat = nation[nation["n_regionkey"] == rkey]
    nat_keys = sorted(nat["n_nationkey"].tolist())
    nat_names = dict(zip(nat["n_nationkey"].tolist(), nat["n_name"].tolist()))

    # customer scales with SF: keep it a Dataset and let dim_join pick
    # broadcast vs exchange (VERDICT r3 #5 cutover rule)
    nk_arr = pa.array(nat_keys, pa.int64())
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda t: (lambda f: pa.table({
            "o_custkey": f["c_custkey"],
            "c_nationkey": f["c_nationkey"],
        }))(t.filter(pc.is_in(t["c_nationkey"], value_set=nk_arr))),
        batch_format="pyarrow")

    supp = _dim_pd(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    supp = supp[supp["s_nationkey"].isin(set(nat_keys))]
    supp = supp.rename(columns={"s_suppkey": "l_suppkey"})

    lo = pd.Timestamp("1997-01-01")
    hi = pd.Timestamp("1999-01-01")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def prep_orders(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                    pc.less(t["o_orderdate"], pa.scalar(hi)))
        t = t.filter(m)
        return pa.table({"okey": t["o_orderkey"], "o_custkey": t["o_custkey"]})

    right = dim_join(
        orders.map_batches(prep_orders, batch_format="pyarrow"),
        cust, on="o_custkey").select_columns(["okey", "c_nationkey"])

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])

    def prep_li(t: pa.Table) -> pa.Table:
        extc = pc.cast(
            pc.round(pc.multiply(t["l_extendedprice"], pa.scalar(100.0))),
            pa.int64())
        discc = pc.cast(
            pc.round(pc.multiply(t["l_discount"], pa.scalar(100.0))),
            pa.int64())
        return pa.table({
            "okey": t["l_orderkey"],
            "l_suppkey": t["l_suppkey"],
            "rev_e4": pc.multiply(
                extc, pc.subtract(pa.scalar(100, pa.int64()), discc)),
        })

    joined = bucketed_join(
        li.map_batches(prep_li, batch_format="pyarrow"), right, key="okey")
    enriched = broadcast_join(joined, supp, on="l_suppkey")

    def local_only(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["c_nationkey"], t["s_nationkey"]))
        return pa.table({"nkey": t["c_nationkey"], "rev_e4": t["rev_e4"]})

    agg = grouped_aggregate(
        enriched.map_batches(local_only, batch_format="pyarrow"),
        ["nkey"], [AggSpec("sum", "rev_e4", "rev_e4")])

    def finalize(t: pa.Table) -> pa.Table:
        names = [nat_names[int(k)] for k in t["nkey"].to_pylist()]
        return pa.table({
            "n_name": pa.array(names, pa.string()),
            "revenue": round_f64(
                pc.divide(pc.cast(t["rev_e4"], pa.float64()),
                          pa.scalar(10_000.0)), 2),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------- TPC-H-shaped join suite 2
def _rev_e4(t: pa.Table) -> pa.Array:
    """Exact integer revenue units: cents(extendedprice) × (100 − cents
    (discount)) — the big-group money rule (float sums are
    order-dependent; see CLAUDE.md)."""
    extc = pc.cast(
        pc.round(pc.multiply(t["l_extendedprice"], pa.scalar(100.0))),
        pa.int64())
    discc = pc.cast(
        pc.round(pc.multiply(t["l_discount"], pa.scalar(100.0))),
        pa.int64())
    return pc.multiply(extc, pc.subtract(pa.scalar(100, pa.int64()), discc))


def q_promo_share(sf_dir):
    """TPC-H-Q14-shaped promotion-revenue ratio: part is a broadcast
    promo-key SET (dimension scales with entities, not events), lineitem
    is date-filtered AT THE SCAN, and there is NO exchange at all — each
    block emits one (promo_e4, total_e4) integer partial and the driver
    folds the tiny partials.  The ratio divides the two EXACT integer
    sums once, in float64, in the same expression order as the oracle."""
    import ray

    part = _dim_pd(sf_dir, "part", ["p_partkey", "p_type"])
    promo = frozenset(
        part.loc[part["p_type"] == "PROMO", "p_partkey"].astype(np.int64)
    )
    promo_ref = ray.put(np.fromiter(promo, dtype=np.int64))

    lo = pd.Timestamp("1997-09-01")
    hi = pd.Timestamp("1997-12-01")
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
               filter=(pds.field("l_shipdate") >= lo)
               & (pds.field("l_shipdate") < hi))

    def partial(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                    pc.less(t["l_shipdate"], pa.scalar(hi)))
        t = t.filter(m)
        rev = _rev_e4(t).to_numpy(zero_copy_only=False)
        keys = t["l_partkey"].to_numpy(zero_copy_only=False)
        from ..stages.join import _bcast_get

        promo_keys = _bcast_get(promo_ref)
        is_promo = np.isin(keys, promo_keys)
        return pa.table({
            "promo_e4": pa.array([int(rev[is_promo].sum())], pa.int64()),
            "total_e4": pa.array([int(rev.sum())], pa.int64()),
        })

    parts = li.map_batches(partial, batch_format="pyarrow")
    merged = pa.concat_tables(
        [t for t in ray.get(parts.to_arrow_refs()) if t.num_rows])
    num = int(pc.sum(merged["promo_e4"]).as_py() or 0)
    den = int(pc.sum(merged["total_e4"]).as_py() or 0)
    share = 100.0 * float(num) / float(den)
    return pa.table({
        "promo_revenue": round_f64(
            pa.array([num / 10_000.0], pa.float64()), 2),
        "total_revenue": round_f64(
            pa.array([den / 10_000.0], pa.float64()), 2),
        "promo_share": round_f64(pa.array([share], pa.float64()), 4),
    })


def q_priority_count(sf_dir):
    """TPC-H-Q4-shaped EXISTS semi join: date-filtered orders are
    existence-filtered against returned lineitems through ONE bucketed
    semi exchange (right side carries only the key column), then a
    grouped count per priority.  Both filters are applied at the scan so
    only qualifying rows enter the exchange."""
    from ..stages.join import bucketed_join

    lo = pd.Timestamp("1997-01-01")
    hi = pd.Timestamp("1997-07-01")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def prep_orders(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                    pc.less(t["o_orderdate"], pa.scalar(hi)))
        t = t.filter(m)
        return pa.table({
            "okey": t["o_orderkey"],
            "o_orderpriority": t["o_orderpriority"],
        })

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])

    def prep_li(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], pa.scalar("R")))
        return pa.table({"okey": t["l_orderkey"]})

    kept = bucketed_join(
        orders.map_batches(prep_orders, batch_format="pyarrow"),
        li.map_batches(prep_li, batch_format="pyarrow"),
        key="okey", how="semi")
    agg = grouped_aggregate(
        kept, ["o_orderpriority"], [AggSpec("count", None, "n")])
    return agg.map_batches(
        lambda t: pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "order_count": pc.cast(t["n"], pa.int64()),
        }),
        batch_format="pyarrow")


def q_returned_revenue(sf_dir):
    """TPC-H-Q10-shaped returned-item report: return-filtered lineitem ⋈
    date-filtered orders through ONE bucketed exchange, exact
    integer-cents revenue grouped by customer, customer + nation names
    attached by broadcast AFTER the aggregate (only ~|customers| rows
    remain), global top-20 via per-block partial top-k + a driver merge
    of the tiny partials (rev desc, custkey asc tie-break)."""
    import ray

    from ..stages.join import bucketed_join

    lo = pd.Timestamp("1997-07-01")
    hi = pd.Timestamp("1997-10-01")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"],
                   filter=(pds.field("o_orderdate") >= lo)
                   & (pds.field("o_orderdate") < hi))

    def prep_orders(t: pa.Table) -> pa.Table:
        return pa.table({"okey": t["o_orderkey"],
                         "c_custkey": t["o_custkey"]})

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount",
                "l_returnflag"],
               filter=pds.field("l_returnflag") == "R")

    def prep_li(t: pa.Table) -> pa.Table:
        return pa.table({"okey": t["l_orderkey"], "rev_e4": _rev_e4(t)})

    def cust_partial(t: pa.Table) -> pa.Table:
        # per-bucket per-customer partial sums INSIDE the join reduce:
        # the aggregate exchange then moves |customers-per-bucket| rows
        # instead of |joined rows| (sums of sums re-combine exactly)
        gb = t.group_by(["c_custkey"], use_threads=False).aggregate(
            [("rev_e4", "sum")])
        if gb.column_names[0] != "c_custkey":  # keys-first contract
            raise RuntimeError(
                f"pyarrow group_by column order changed: {gb.column_names!r}")
        return gb.rename_columns(["c_custkey", "rev_e4"])

    joined = bucketed_join(
        li.map_batches(prep_li, batch_format="pyarrow"),
        orders.map_batches(prep_orders, batch_format="pyarrow"),
        key="okey", reduce_fn=cust_partial)
    agg = grouped_aggregate(
        joined, ["c_custkey"], [AggSpec("sum", "rev_e4", "rev_e4")])

    def partial_top(t: pa.Table) -> pa.Table:
        rev = t["rev_e4"].to_numpy(zero_copy_only=False)
        ck = t["c_custkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ck, -rev))[:20]
        return t.take(pa.array(order))

    parts = agg.map_batches(partial_top, batch_format="pyarrow")
    merged = pa.concat_tables(
        [t for t in ray.get(parts.to_arrow_refs()) if t.num_rows])
    order = np.lexsort((
        merged["c_custkey"].to_numpy(zero_copy_only=False),
        -merged["rev_e4"].to_numpy(zero_copy_only=False),
    ))[:20]
    top = merged.take(pa.array(order)).to_pandas()

    cust = _dim_pd(sf_dir, "customer",
                   ["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
                   filters=[("c_custkey", "in",
                             top["c_custkey"].tolist())])
    nation = _dim_pd(sf_dir, "nation", ["n_nationkey", "n_name"])
    out = top.merge(cust, on="c_custkey").merge(
        nation, left_on="c_nationkey", right_on="n_nationkey")
    out = out.sort_values(["rev_e4", "c_custkey"],
                          ascending=[False, True], ignore_index=True)
    return pa.table({
        "c_custkey": pa.array(out["c_custkey"].to_numpy()),
        "c_name": pa.array(out["c_name"], pa.string()),
        "revenue": round_f64(
            pa.array(out["rev_e4"].to_numpy() / 10_000.0, pa.float64()), 2),
        "acctbal": round_f64(
            pa.array(out["c_acctbal"].to_numpy(), pa.float64()), 2),
        "n_name": pa.array(out["n_name"], pa.string()),
    })


def q_large_orders(sf_dir):
    """TPC-H-Q18-shaped HAVING-threshold report: lineitem quantity is
    summed per order as EXACT int64 units (quantities are integral), the
    small >200 survivor set filters orders through ONE bucketed inner
    exchange, and customer names attach by broadcast.  The groupby's
    partial combiners mean only per-bucket partials move; the threshold
    filter runs inside the combine so survivors (rare by construction)
    are the only join input."""
    from ..stages.join import broadcast_join, bucketed_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def prep_li(t: pa.Table) -> pa.Table:
        return pa.table({
            "okey": t["l_orderkey"],
            "qty": pc.cast(pc.round(t["l_quantity"]), pa.int64()),
        })

    agg = grouped_aggregate(
        li.map_batches(prep_li, batch_format="pyarrow"),
        ["okey"], [AggSpec("sum", "qty", "sum_qty")])
    big = agg.map_batches(
        lambda t: t.filter(pc.greater(t["sum_qty"],
                                      pa.scalar(200, pa.int64()))),
        batch_format="pyarrow")

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate",
                    "o_totalprice"])

    def prep_orders(t: pa.Table) -> pa.Table:
        return pa.table({
            "okey": t["o_orderkey"],
            "o_custkey": t["o_custkey"],
            "o_orderdate_ms": pa.array(
                np.asarray(ts_to_ms(t["o_orderdate"])), pa.int64()),
            "o_totalprice": t["o_totalprice"],
        })

    joined = bucketed_join(
        orders.map_batches(prep_orders, batch_format="pyarrow"),
        big, key="okey")
    cust = _dim_pd(sf_dir, "customer", ["c_custkey", "c_name"])
    cust = cust.rename(columns={"c_custkey": "o_custkey"})
    out = broadcast_join(joined, cust, on="o_custkey")

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": t["o_custkey"],
            "c_name": t["c_name"],
            "o_orderkey": t["okey"],
            "o_orderdate_ms": t["o_orderdate_ms"],
            "total_price": round_f64(t["o_totalprice"], 2),
            "sum_qty": pc.cast(t["sum_qty"], pa.int64()),
        })

    return out.map_batches(finalize, batch_format="pyarrow")


def q_match_funnel(sf_dir):
    """General-pattern CEP (MATCH_RECOGNIZE-lite): count non-overlapping
    'view, any clicks, purchase' runs per user via one regex pass over
    per-user ordered event-initial strings — stages/cep.py
    match_pattern (ONE bucket exchange + Arrow binary_join + C-side
    regex)."""
    from ..stages.cep import match_pattern

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "ms": pa.array(np.asarray(ts_to_ms(t["ts"])), pa.int64()),
            "event_id": t["event_id"],
            "event_type": t["event_type"],
        })

    return match_pattern(
        ev.map_batches(prep, batch_format="pyarrow"),
        "user_id", "ms", "event_id", "event_type", "vc*p")


def q_table_profile(sf_dir):
    """SUMMARIZE-style column profile of the events table: per-column
    row/non-null/exact-distinct counts plus numeric min/max — two
    column-pruned streaming passes, combiner partials + ONE
    value-distinct bucket exchange (stages/profile.py profile_table)."""
    from ..stages.profile import profile_table

    ds = _read(sf_dir, "events")
    out = profile_table(
        ds, ["event_id", "ts", "user_id", "event_type", "value", "props"])
    for c in ("min_v", "max_v"):
        i = out.schema.get_field_index(c)
        out = out.set_column(i, c, round_f64(out[c], 4))
    return out


def q_audio_search(sf_dir):
    """Content-based audio similarity search (the audio × embedding
    composition): decode → 16 kHz resample → pooled-fbank clip embedding
    (mean⊕std per band, audio_features.fbank_embedding) → brute-force
    cosine top-5 against three probe clips (broadcast probe matrix, one
    matmul per batch + partial top-k merge — similarity.cosine_topk).
    Probe embeddings are computed LOCALLY from the same deterministic
    synth (a pure function of the index), so nothing is looked up from
    the corpus.  Rows-only; tests/test_audio_curation.py asserts each
    probe's exact-duplicate clips (synth period 192) rank at the top
    with cosine ≈ 1."""
    from ..stages.audio_curation import Resampler
    from ..stages.audio_features import FbankFeatures, fbank_embedding
    from ..stages.decode import AudioDecoder, split_dlq
    from ..stages.similarity import cosine_topk
    from ..synth import synth_clips_batch

    n = 600
    ds = _dist_synth(
        n, lambda idx: synth_clips_batch(idx, n, hot_fraction=0.0),
        num_blocks=32,
    ).map_batches(AudioDecoder(), batch_format="pyarrow")
    main, _ = split_dlq(ds)
    emb = (
        main.map_batches(Resampler(16_000), batch_format="pyarrow")
        .map_batches(FbankFeatures(), batch_format="pyarrow")
        .map_batches(fbank_embedding, batch_format="pyarrow")
        .map_batches(lambda t: t.select(["seq", "embedding"]),
                     batch_format="pyarrow")
    )

    probe_idx = np.array([5, 100, 201], np.int64)
    pt = synth_clips_batch(probe_idx, n, hot_fraction=0.0)
    pt = AudioDecoder()(pt)
    pt = Resampler(16_000)(pt)
    pt = fbank_embedding(FbankFeatures()(pt))
    pmat = np.asarray(
        pt["embedding"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False), np.float64).reshape(len(probe_idx), -1)

    return cosine_topk(emb, probe_idx, pmat, k=5, id_col="seq")


def q_cheapest_supplier(sf_dir):
    """TPC-H-Q2-shaped min-cost-supplier probe over the tables this
    corpus has (no partsupp): for every part ever shipped, the minimum
    line extended price (compared in EXACT integer cents, ties to the
    smallest suppkey) and the winning supplier's name/balance merged
    from a broadcast of the tiny supplier table.  ONE arg_extremes
    keyed exchange; the supplier side never shuffles.  Reference
    analogue: keyed lookup joins (SURVEY §2.5)."""
    from ..stages.dedup import arg_extremes
    from ..stages.join import broadcast_join

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_extendedprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": t["l_partkey"],
            "cents": pc.cast(
                pc.round(pc.multiply(t["l_extendedprice"],
                                     pa.scalar(100.0))), pa.int64()),
            "l_suppkey": t["l_suppkey"],
        })

    ext = arg_extremes(li.map_batches(prep, batch_format="pyarrow"),
                       ["l_partkey"], ["cents", "l_suppkey"], [])
    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_name", "s_acctbal"]).to_pandas()
    supp = supp.rename(columns={"s_suppkey": "supp_key"})

    def pick_min(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_partkey": df["l_partkey"].to_numpy(),
            "min_cents": df["cents_first"].to_numpy(np.int64),
            "supp_key": df["l_suppkey_first"].to_numpy(np.int64),
        })

    out = broadcast_join(
        ext.map_batches(pick_min, batch_format="pandas"), supp,
        on="supp_key")

    def tidy(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": t["l_partkey"],
            "min_price": round_f64(
                pc.divide(pc.cast(t["min_cents"], pa.float64()),
                          pa.scalar(100.0)), 2),
            "supp_key": t["supp_key"],
            "supp_name": t["s_name"],
            "supp_acctbal": round_f64(t["s_acctbal"], 2),
        })

    return out.map_batches(tidy, batch_format="pyarrow")


def q_supplier_count(sf_dir):
    """TPC-H-Q16-shaped supplier diversity: distinct suppliers per
    (p_brand, p_type, p_size) over everything shipped.  Part attrs
    broadcast into the lineitem scan (30:1 scale asymmetry — the small
    side never shuffles), then ONE bucketed_distinct exchange over the
    4-tuple and a grouped count of the survivors."""
    from ..stages.dedup import bucketed_distinct
    from ..stages.join import broadcast_join

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    part = _read(sf_dir, "part",
                 ["p_partkey", "p_brand", "p_type", "p_size"]).to_pandas()
    part = part.rename(columns={"p_partkey": "l_partkey"})
    tagged = broadcast_join(li, part, on="l_partkey")
    dist = bucketed_distinct(
        tagged.map_batches(
            lambda t: t.select(["p_brand", "p_type", "p_size", "l_suppkey"]),
            batch_format="pyarrow"),
        ["p_brand", "p_type", "p_size", "l_suppkey"])
    agg = grouped_aggregate(
        dist, ["p_brand", "p_type", "p_size"],
        [AggSpec("count", None, "supplier_cnt")])

    def tidy(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_brand": t["p_brand"],
            "p_type": t["p_type"],
            "p_size": t["p_size"],
            "supplier_cnt": pc.cast(t["supplier_cnt"], pa.int64()),
        })

    return agg.map_batches(tidy, batch_format="pyarrow")


def q_loudness_normalize(sf_dir):
    """Decode → BS.1770-style gated programme loudness → normalize every
    measurable clip to −23 LUFS → re-measure (rows-only; the per-clip
    value oracle is tests/test_audio_loudness.py's explicit block-loop
    reference).  Returns per-clip bookkeeping, never the PCM
    (CLAUDE.md: never collect a PCM list column)."""
    from ..stages.audio_loudness import LoudnessNormalizer, loudness_lufs
    from ..stages.decode import AudioDecoder, split_dlq
    from ..synth import synth_clips_batch

    n = 600
    ds = _dist_synth(
        n, lambda idx: synth_clips_batch(idx, n, hot_fraction=0.0),
        num_blocks=32,
    ).map_batches(AudioDecoder(), batch_format="pyarrow")
    main, _ = split_dlq(ds)
    out = main.map_batches(
        LoudnessNormalizer(-23.0), batch_format="pyarrow"
    ).map_batches(
        lambda t: loudness_lufs(t, out_col="lufs_after"),
        batch_format="pyarrow")

    def book(t: pa.Table) -> pa.Table:
        return pa.table({
            "seq": t["seq"],
            "lufs": t["lufs"],
            "gain_db": t["gain_db"],
            "lufs_after": t["lufs_after"],
        })

    return out.map_batches(book, batch_format="pyarrow")


def q_random_walks(sf_dir):
    """DeepWalk-style corpus generation over the part co-purchase graph
    (rows-only; the value oracle is tests/test_random_walks.py's naive
    per-walk reference — walks are a deterministic pure function of the
    graph + seed, so partition/bucket/resume-invariant)."""
    from ..stages.graph import cooccurrence_edges, random_walks

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    counted = cooccurrence_edges(ds, "l_orderkey", "l_partkey",
                                 with_counts=True)
    edges = counted.map_batches(
        lambda t: t.filter(pc.greater_equal(t["pair_count"], 2)),
        batch_format="pyarrow",
    )
    return random_walks(edges, "u", "v", walk_len=8, walks_per_node=1,
                        seed=7)


def q_customer_distribution(sf_dir):
    """TPC-H-Q13-shaped customer-order distribution: orders per customer
    INCLUDING never-ordered customers (left join zero-groups), then the
    histogram of that count.  Orders pre-aggregate to one row per
    custkey BEFORE the join (combiner — the exchange carries customers
    + one count row per active customer, not raw orders), ONE bucketed
    left join, then a tiny grouped count."""
    from ..stages.join import bucketed_join

    orders = _read(sf_dir, "orders", ["o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey"])
    counts = grouped_aggregate(
        orders, ["o_custkey"], [AggSpec("count", None, "c_count")])
    counts = counts.map_batches(
        lambda t: pa.table({"c_custkey": t["o_custkey"],
                            "c_count": pc.cast(t["c_count"], pa.int64())}),
        batch_format="pyarrow")
    joined = bucketed_join(cust, counts, key="c_custkey", how="left")

    def fill0(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": t["c_custkey"],
            "c_count": pc.coalesce(pc.cast(t["c_count"], pa.int64()),
                                   pa.scalar(0, pa.int64())),
        })

    hist = grouped_aggregate(
        joined.map_batches(fill0, batch_format="pyarrow"),
        ["c_count"], [AggSpec("count", None, "custdist")])
    return hist.map_batches(
        lambda t: pa.table({"c_count": t["c_count"],
                            "custdist": pc.cast(t["custdist"], pa.int64())}),
        batch_format="pyarrow")


def q_idle_balances(sf_dir):
    """TPC-H-Q22-shaped: customers with above-average positive balance
    and NO urgent order, counted per market segment.  The global average
    is a tiny (Σcents, n) fold broadcast into the scan, and the threshold
    compares ``cents·n > Σcents`` in EXACT int64 cross-multiplication —
    a float average would be summation-order-dependent and could flip
    boundary rows vs the SQL.  The orders side filters AT THE SCAN (only
    urgent custkeys enter the exchange), then ONE bucketed anti join."""
    from ..stages.join import bucketed_join

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_mktsegment", "c_acctbal"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
    orders = orders.map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")),
        batch_format="pyarrow")

    def cents_partial(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t["c_acctbal"],
                                         pa.scalar(100.0))), pa.int64())
        pos = pc.greater(c, pa.scalar(0, pa.int64()))
        cp = pc.filter(c, pos)
        return pa.table({
            "s": pa.array([pc.sum(cp).as_py() or 0], pa.int64()),
            "n": pa.array([len(cp)], pa.int64()),
        })

    parts = cust.map_batches(cents_partial, batch_format="pyarrow").take_all()
    tot_s = sum(r["s"] for r in parts)
    tot_n = sum(r["n"] for r in parts)

    def above(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t["c_acctbal"],
                                         pa.scalar(100.0))), pa.int64())
        keep = pc.greater(pc.multiply(c, pa.scalar(tot_n, pa.int64())),
                          pa.scalar(tot_s, pa.int64()))
        t = t.filter(keep)
        return pa.table({
            "c_custkey": t["c_custkey"],
            "c_mktsegment": t["c_mktsegment"],
            "bal_cents": pc.cast(
                pc.round(pc.multiply(t["c_acctbal"], pa.scalar(100.0))),
                pa.int64()),
        })

    rich = cust.map_batches(above, batch_format="pyarrow")
    idle = bucketed_join(
        rich,
        orders.map_batches(
            lambda t: pa.table({"c_custkey": t["o_custkey"]}),
            batch_format="pyarrow"),
        key="c_custkey", how="anti")
    agg = grouped_aggregate(
        idle, ["c_mktsegment"],
        [AggSpec("count", None, "n_cust"),
         AggSpec("sum", "bal_cents", "bal_cents")])

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_mktsegment": t["c_mktsegment"],
            "n_cust": pc.cast(t["n_cust"], pa.int64()),
            "total_bal": round_f64(
                pc.divide(pc.cast(t["bal_cents"], pa.float64()),
                          pa.scalar(100.0)), 2),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_kcore_parts(sf_dir):
    """Dense-community core of the part co-purchase graph: the k-core
    (every surviving part co-purchased with ≥ k other core parts;
    Seidman 1983 peeling).  Rows-only — the iterative fixed point is not
    SQL-expressible; the value oracle is tests/test_random_walks.py's
    naive peel."""
    from ..stages.graph import cooccurrence_edges, k_core

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    counted = cooccurrence_edges(ds, "l_orderkey", "l_partkey",
                                 with_counts=True)
    edges = counted.map_batches(
        lambda t: t.filter(pc.greater_equal(t["pair_count"], 2)),
        batch_format="pyarrow",
    )
    # k=2 is the scale-robust demo: the support>=2 graph peels to
    # 200/1535/3 nodes at sf0.001/0.01/0.1 (k=3 empties at sf0.1)
    return k_core(edges, "u", "v", k=2)


def q_avro_evolution(sf_dir):
    """Avro SCHEMA RESOLUTION through the driver gate: customer rows
    written as v1 OCFs, read back under an EVOLVED v2 reader schema —
    the extra writer field (c_acctbal) skips, the new reader field
    (tier) fills from its default (`avrolite.py` spec resolution, the
    runtime half of the registry's FULL_TRANSITIVE contract).  The SQL
    oracle projects the same v2 view; a hash match proves the resolved
    read is exact."""
    import shutil
    import uuid

    from ..avrolite import read_avro, write_avro

    ds = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
    out = f"/tmp/hydra_avro_evo/{uuid.uuid4().hex}"
    reader_v2 = {
        "type": "record", "name": "row", "fields": [
            {"name": "c_custkey", "type": "long"},
            {"name": "c_name", "type": "string"},
            {"name": "tier", "type": "string", "default": "std"},
        ],
    }
    arrow_v2 = pa.schema([("c_custkey", pa.int64()),
                          ("c_name", pa.string()),
                          ("tier", pa.string())])
    try:
        write_avro(ds, out)
        back = read_avro(out, schema=arrow_v2,
                         reader_schema=reader_v2).materialize()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return back


# ---------------------------------------------- TPC-H-shaped join suite 3
def q_nation_trade(sf_dir):
    """TPC-H-Q7-shaped volume-shipping pipeline: revenue shipped between
    two nations (both directions) per ship-year.  Supplier→nation and
    customer→nation are broadcast maps filtered to the two nations
    BEFORE broadcast (dimensions scale with entities, not events);
    lineitem is date- and supplier-filtered at the scan so only
    qualifying rows enter the ONE bucketed lineitem⋈orders exchange.
    Revenue sums exact integer cents×(100−disc) (big-group money rule).
    Reference analogue: multi-stream enrichment joins in
    ingest/replicators (see SURVEY.md §2.5)."""
    from ..stages.join import broadcast_join, bucketed_join

    n_a, n_b = "NATION_13", "NATION_19"
    nation = _dim_pd(sf_dir, "nation", ["n_nationkey", "n_name"])
    nation = nation[nation["n_name"].isin([n_a, n_b])]
    nk = dict(zip(nation["n_nationkey"].astype(int), nation["n_name"]))

    supp = _dim_pd(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    supp = supp[supp["s_nationkey"].isin(nk)].copy()
    supp["supp_nation"] = supp["s_nationkey"].map(nk)
    supp = supp[["s_suppkey", "supp_nation"]].rename(
        columns={"s_suppkey": "l_suppkey"})

    cust = _dim_pd(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    cust = cust[cust["c_nationkey"].isin(nk)].copy()
    cust["cust_nation"] = cust["c_nationkey"].map(nk)
    cust = cust[["c_custkey", "cust_nation"]].rename(
        columns={"c_custkey": "o_custkey"})

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1999-01-01")
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate",
                "l_extendedprice", "l_discount"])

    def prep_li(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                    pc.less(t["l_shipdate"], pa.scalar(hi)))
        t = t.filter(m)
        return pa.table({
            "okey": t["l_orderkey"],
            "l_suppkey": t["l_suppkey"],
            "l_year": pc.cast(pc.year(t["l_shipdate"]), pa.int64()),
            "rev_e4": _rev_e4(t),
        })

    left = broadcast_join(
        li.map_batches(prep_li, batch_format="pyarrow"), supp,
        on="l_suppkey")

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    right = broadcast_join(
        orders.map_batches(
            lambda t: pa.table({"okey": t["o_orderkey"],
                                "o_custkey": t["o_custkey"]}),
            batch_format="pyarrow"),
        cust, on="o_custkey").select_columns(["okey", "cust_nation"])

    joined = bucketed_join(left, right, key="okey")

    def cross_only(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["supp_nation"], t["cust_nation"]))
        return t.select(["supp_nation", "cust_nation", "l_year", "rev_e4"])

    agg = grouped_aggregate(
        joined.map_batches(cross_only, batch_format="pyarrow"),
        ["supp_nation", "cust_nation", "l_year"],
        [AggSpec("sum", "rev_e4", "rev_e4")])

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "supp_nation": t["supp_nation"],
            "cust_nation": t["cust_nation"],
            "l_year": t["l_year"],
            "revenue": round_f64(
                pc.divide(pc.cast(t["rev_e4"], pa.float64()),
                          pa.scalar(10_000.0)), 2),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_product_revenue(sf_dir):
    """TPC-H-Q9-shaped product-type revenue by supplier nation and order
    year (profit without the partsupp cost side — the testdata has no
    partsupp table).  Part is broadcast as a filtered KEY SET, supplier→
    nation a broadcast map; the only exchange is the bucketed
    lineitem⋈orders join that attaches the order year."""
    from ..stages.join import broadcast_join, bucketed_join

    part = _dim_pd(sf_dir, "part", ["p_partkey", "p_type"])
    keep = np.sort(part.loc[part["p_type"] == "ECONOMY",
                            "p_partkey"].to_numpy(np.int64))

    nation = _dim_pd(sf_dir, "nation", ["n_nationkey", "n_name"])
    nk = dict(zip(nation["n_nationkey"].astype(int), nation["n_name"]))
    supp = _dim_pd(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    supp["n_name"] = supp["s_nationkey"].map(nk)
    supp = supp[["s_suppkey", "n_name"]].rename(
        columns={"s_suppkey": "l_suppkey"})

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey",
                "l_extendedprice", "l_discount"])

    def prep_li(t: pa.Table) -> pa.Table:
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keep, pk)
        idx[idx == len(keep)] = 0
        t = t.filter(pa.array(keep[idx] == pk))
        return pa.table({
            "okey": t["l_orderkey"],
            "l_suppkey": t["l_suppkey"],
            "rev_e4": _rev_e4(t),
        })

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    right = orders.map_batches(
        lambda t: pa.table({
            "okey": t["o_orderkey"],
            "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
        }), batch_format="pyarrow")

    joined = bucketed_join(
        li.map_batches(prep_li, batch_format="pyarrow"), right, key="okey")
    enriched = broadcast_join(joined, supp, on="l_suppkey")

    agg = grouped_aggregate(
        enriched.select_columns(["n_name", "o_year", "rev_e4"]),
        ["n_name", "o_year"], [AggSpec("sum", "rev_e4", "rev_e4")])

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "n_name": t["n_name"],
            "o_year": t["o_year"],
            "revenue": round_f64(
                pc.divide(pc.cast(t["rev_e4"], pa.float64()),
                          pa.scalar(10_000.0)), 2),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_top_supplier(sf_dir):
    """TPC-H-Q15-shaped top supplier: per-supplier revenue over one
    quarter, keep the supplier(s) whose revenue equals the global max.
    The max is computed as a per-block partial fold over the (already
    tiny, one-row-per-supplier) aggregate — never a global sort — and
    the comparison is on EXACT integer revenue units, so ties are exact.
    Supplier names attach via broadcast at the end."""
    import ray

    from ..stages.join import broadcast_join

    lo = pd.Timestamp("1997-01-01")
    hi = pd.Timestamp("1997-04-01")
    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
               filter=(pds.field("l_shipdate") >= lo)
               & (pds.field("l_shipdate") < hi))

    def prep(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                    pc.less(t["l_shipdate"], pa.scalar(hi)))
        t = t.filter(m)
        return pa.table({"s_suppkey": t["l_suppkey"], "rev_e4": _rev_e4(t)})

    agg = grouped_aggregate(
        li.map_batches(prep, batch_format="pyarrow"),
        ["s_suppkey"], [AggSpec("sum", "rev_e4", "rev_e4")]).materialize()

    partials = agg.map_batches(
        lambda t: pa.table({"m": pa.array(
            [pc.max(t["rev_e4"]).as_py() or 0], pa.int64())}),
        batch_format="pyarrow").take_all()
    best = max((r["m"] for r in partials), default=0)

    top = agg.map_batches(
        lambda t: t.filter(pc.equal(t["rev_e4"], pa.scalar(best, pa.int64()))),
        batch_format="pyarrow")
    supp = _dim_pd(sf_dir, "supplier", ["s_suppkey", "s_name"])
    named = broadcast_join(top, supp, on="s_suppkey")

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "s_suppkey": t["s_suppkey"],
            "s_name": t["s_name"],
            "total_revenue": round_f64(
                pc.divide(pc.cast(t["rev_e4"], pa.float64()),
                          pa.scalar(10_000.0)), 2),
        })

    return named.map_batches(finalize, batch_format="pyarrow")


def q_small_qty_revenue(sf_dir):
    """TPC-H-Q17-shaped small-quantity-order revenue: average yearly
    revenue lost if small-lot orders (quantity below 20 % of the part's
    average) were not filled, for one brand.  The per-part (count,
    sum_qty) aggregate is small (scales with parts, not lineitems) and
    broadcasts back into a second scan; the threshold comparison is
    EXACT int64 cross-multiplication ``qty·5·n < Σqty`` (quantities are
    integral) — a float average would be order-dependent at the
    boundary.  No all-to-all at any point: the only aggregate is over
    the brand-filtered minority of lineitem."""
    import ray

    part = _dim_pd(sf_dir, "part", ["p_partkey", "p_brand"])
    keep = np.sort(part.loc[part["p_brand"] == "Brand#3",
                            "p_partkey"].to_numpy(np.int64))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])

    def prep(t: pa.Table) -> pa.Table:
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keep, pk)
        idx[idx == len(keep)] = 0
        t = t.filter(pa.array(keep[idx] == pk))
        return pa.table({
            "l_partkey": t["l_partkey"],
            "qty": pc.cast(pc.round(t["l_quantity"]), pa.int64()),
            "cents": pc.cast(
                pc.round(pc.multiply(t["l_extendedprice"],
                                     pa.scalar(100.0))), pa.int64()),
        })

    filt = li.map_batches(prep, batch_format="pyarrow").materialize()
    agg = grouped_aggregate(
        filt.select_columns(["l_partkey", "qty"]),
        ["l_partkey"],
        [AggSpec("count", None, "n"), AggSpec("sum", "qty", "s")]).to_pandas()
    pk_sorted = np.sort(agg["l_partkey"].to_numpy(np.int64))
    order = np.argsort(agg["l_partkey"].to_numpy(np.int64))
    n_arr = agg["n"].to_numpy(np.int64)[order]
    s_arr = agg["s"].to_numpy(np.int64)[order]
    stats = ray.put((pk_sorted, n_arr, s_arr))

    def small_partial(t: pa.Table) -> pa.Table:
        from ..stages.join import _bcast_get

        pks, ns, ss = _bcast_get(stats)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(pks, pk)
        qty = t["qty"].to_numpy(zero_copy_only=False)
        m = qty * 5 * ns[pos] < ss[pos]
        cents = t["cents"].to_numpy(zero_copy_only=False)
        return pa.table({"c": pa.array([int(cents[m].sum())], pa.int64())})

    parts = filt.map_batches(small_partial, batch_format="pyarrow").take_all()
    tot = sum(r["c"] for r in parts)
    return pa.table({
        "avg_yearly": round_f64(
            pa.array([tot / 700.0], pa.float64()), 2),
    })


def q_disjunctive_revenue(sf_dir):
    """TPC-H-Q19-shaped disjunctive-predicate revenue: an OR of three
    (brand, size-range, quantity-range) conjunctions evaluated as ONE
    vectorized mask per batch against a broadcast part map — no join
    exchange at all, one integer-cents partial per block, driver folds
    the scalars."""
    import ray

    part = _read(sf_dir, "part",
                 ["p_partkey", "p_brand", "p_size"]).to_pandas()
    part = part[part["p_brand"].isin(["Brand#1", "Brand#2", "Brand#3"])]
    pk_sorted = np.sort(part["p_partkey"].to_numpy(np.int64))
    order = np.argsort(part["p_partkey"].to_numpy(np.int64))
    brand_id = part["p_brand"].map(
        {"Brand#1": 1, "Brand#2": 2, "Brand#3": 3}).to_numpy(np.int64)[order]
    size = part["p_size"].to_numpy(np.int64)[order]
    bmap = ray.put((pk_sorted, brand_id, size))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        from ..stages.join import _bcast_get

        pks, bid, sz = _bcast_get(bmap)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(pks, pk)
        pos[pos == len(pks)] = 0
        hit = pks[pos] == pk
        b = np.where(hit, bid[pos], 0)
        s = np.where(hit, sz[pos], 0)
        q = t["l_quantity"].to_numpy(zero_copy_only=False)
        m = (((b == 1) & (s >= 1) & (s <= 5) & (q >= 1) & (q <= 11))
             | ((b == 2) & (s >= 1) & (s <= 10) & (q >= 10) & (q <= 20))
             | ((b == 3) & (s >= 1) & (s <= 15) & (q >= 20) & (q <= 30)))
        rev = _rev_e4(t).to_numpy(zero_copy_only=False)
        return pa.table({"r": pa.array([int(rev[m].sum())], pa.int64())})

    parts = li.map_batches(partial, batch_format="pyarrow").take_all()
    tot = sum(r["r"] for r in parts)
    return pa.table({
        "revenue": round_f64(pa.array([tot / 10_000.0], pa.float64()), 2),
    })


def q_waiting_suppliers(sf_dir):
    """TPC-H-Q21-shaped waiting-suppliers pipeline (reshaped to the
    testdata's columns: "late" = shipped more than 60 days after the
    order date, finalized orders only): suppliers who were the SOLE late
    shipper on a multi-supplier order, counted.  Shape: ONE bucketed
    lineitem⋈orders exchange attaches the order date AND co-locates
    every line of an order in one block — so the whole pair-dedup /
    per-order-count / sole-late logic is a single whole-block lexsort+
    reduceat kernel with NO further exchange; only the tiny per-supplier
    culprit count (≤ one row per late pair) re-shuffles.  (This fused
    form replaced a 3-exchange version measured at 3.1 s → the kernel
    path; results identical.)"""
    from ..stages.join import broadcast_join, bucketed_join

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderstatus"])
    right = orders.map_batches(
        lambda t: (lambda f: pa.table({
            "okey": f["o_orderkey"],
            "odate_ms": ts_to_ms(f["o_orderdate"]),
        }))(t.filter(pc.equal(t["o_orderstatus"], "F"))),
        batch_format="pyarrow")

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate"])
    left = li.map_batches(
        lambda t: pa.table({
            "okey": t["l_orderkey"],
            "supp": t["l_suppkey"],
            "ship_ms": ts_to_ms(t["l_shipdate"]),
        }), batch_format="pyarrow")

    def sole_late_culprits(t: pa.Table) -> pa.Table:
        # runs INSIDE the bucketed_join reduce (reduce_fn), where the
        # bucket table is okey-complete by construction — a chained
        # map_batches could see a reduce block that Ray's dynamic block
        # splitting sliced mid-order at larger scale factors.
        # resolve pairs, per-order counts and the sole-late filter here.
        okey = t["okey"].to_numpy(zero_copy_only=False)
        supp = t["supp"].to_numpy(zero_copy_only=False)
        late = (t["ship_ms"].to_numpy(zero_copy_only=False)
                > t["odate_ms"].to_numpy(zero_copy_only=False)
                + 60 * DAY).astype(np.int64)
        order = np.lexsort((supp, okey))
        ok, sp, lt = okey[order], supp[order], late[order]
        new_pair = np.empty(len(ok), bool)
        new_pair[:1] = True
        new_pair[1:] = (ok[1:] != ok[:-1]) | (sp[1:] != sp[:-1])
        starts = np.flatnonzero(new_pair)
        if not len(starts):
            return pa.table({"s_suppkey": pa.array([], pa.int64())})
        p_ok, p_sp = ok[starts], sp[starts]
        p_late = np.maximum.reduceat(lt, starts)
        new_ord = np.empty(len(p_ok), bool)
        new_ord[:1] = True
        new_ord[1:] = p_ok[1:] != p_ok[:-1]
        o_starts = np.flatnonzero(new_ord)
        n_supp = np.diff(np.r_[o_starts, len(p_ok)])
        n_late = np.add.reduceat(p_late, o_starts)
        grp = np.cumsum(new_ord) - 1
        keep = (p_late == 1) & (n_supp[grp] > 1) & (n_late[grp] == 1)
        return pa.table({"s_suppkey": pa.array(p_sp[keep], pa.int64())})

    joined = bucketed_join(left, right, key="okey",
                           reduce_fn=sole_late_culprits)

    agg = grouped_aggregate(
        joined, ["s_suppkey"], [AggSpec("count", None, "numwait")])

    supp = _dim_pd(sf_dir, "supplier", ["s_suppkey", "s_name"])
    named = broadcast_join(agg, supp, on="s_suppkey")
    return named.map_batches(
        lambda t: pa.table({
            "s_name": t["s_name"],
            "numwait": pc.cast(t["numwait"], pa.int64()),
        }), batch_format="pyarrow")


# ---------------------------------------------- TPC-H-shaped join suite 4
def q_discounted_revenue(sf_dir):
    """TPC-H-Q6-shaped forecasting-revenue-change: one predicate scan
    over lineitem (ship-year window, discount band, small quantity), the
    would-be-forgone revenue ``Σ price·disc`` summed as EXACT integer
    cents×disc_e2 units per block, driver folds the tiny scalars.  No
    exchange anywhere; the scan reads only the four needed columns.
    Reference analogue: predicate filters in the ingest transform chain
    (SURVEY.md §2.3)."""
    import ray

    lo = pd.Timestamp("1997-01-01")
    hi = pd.Timestamp("1998-01-01")
    li = _read(sf_dir, "lineitem",
               ["l_quantity", "l_extendedprice", "l_discount",
                "l_shipdate"],
               filter=(pds.field("l_shipdate") >= lo)
               & (pds.field("l_shipdate") < hi))

    def partial(t: pa.Table) -> pa.Table:
        discc = pc.cast(
            pc.round(pc.multiply(t["l_discount"], pa.scalar(100.0))),
            pa.int64())
        m = pc.and_(
            pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                    pc.less(t["l_shipdate"], pa.scalar(hi))),
            pc.and_(
                pc.and_(pc.greater_equal(discc, pa.scalar(5, pa.int64())),
                        pc.less_equal(discc, pa.scalar(7, pa.int64()))),
                pc.less(t["l_quantity"], pa.scalar(24.0))))
        t2 = t.filter(m)
        extc = pc.cast(
            pc.round(pc.multiply(t2["l_extendedprice"], pa.scalar(100.0))),
            pa.int64())
        dc = pc.cast(
            pc.round(pc.multiply(t2["l_discount"], pa.scalar(100.0))),
            pa.int64())
        v = pc.sum(pc.multiply(extc, dc)).as_py() or 0
        return pa.table({"v": pa.array([int(v)], pa.int64())})

    parts = li.map_batches(partial, batch_format="pyarrow").take_all()
    tot = sum(r["v"] for r in parts)
    return pa.table({
        "revenue": round_f64(pa.array([tot / 10_000.0], pa.float64()), 2),
    })


def q_market_share(sf_dir):
    """TPC-H-Q8-shaped national market share: within one region's
    customers and one part type, the share of yearly revenue supplied by
    one nation.  Part keys and region-filtered customer keys broadcast
    as sorted keysets (entity-scale); supplier→nation broadcasts the
    numerator flag; the only exchange is the bucketed lineitem⋈orders
    join.  Share = exact-integer national / total revenue per order
    year, divided once in float64."""
    from ..stages.join import broadcast_join, bucketed_join

    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region",
                   ["r_regionkey", "r_name"]).to_pandas()
    reg_key = int(region.loc[region["r_name"] == "ASIA",
                             "r_regionkey"].iloc[0])
    reg_nations = set(
        nation.loc[nation["n_regionkey"] == reg_key, "n_nationkey"]
        .astype(int))
    target_key = int(nation.loc[nation["n_name"] == "NATION_7",
                                "n_nationkey"].iloc[0])

    part = _dim_pd(sf_dir, "part", ["p_partkey", "p_type"])
    keep = np.sort(part.loc[part["p_type"] == "STANDARD",
                            "p_partkey"].to_numpy(np.int64))

    cust = _dim_pd(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    ckeys = np.sort(cust.loc[cust["c_nationkey"].isin(reg_nations),
                             "c_custkey"].to_numpy(np.int64))

    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_nationkey"]).to_pandas()
    supp["is_target"] = (
        supp["s_nationkey"].astype(int) == target_key).astype(np.int64)
    supp = supp[["s_suppkey", "is_target"]].rename(
        columns={"s_suppkey": "l_suppkey"})

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1998-01-01")
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey",
                "l_extendedprice", "l_discount"])

    def prep_li(t: pa.Table) -> pa.Table:
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keep, pk)
        idx[idx == len(keep)] = 0
        t = t.filter(pa.array(keep[idx] == pk))
        return pa.table({
            "okey": t["l_orderkey"],
            "l_suppkey": t["l_suppkey"],
            "rev_e4": _rev_e4(t),
        })

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def prep_orders(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                    pc.less(t["o_orderdate"], pa.scalar(hi)))
        t = t.filter(m)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(ckeys, ck)
        idx[idx == len(ckeys)] = 0
        t = t.filter(pa.array(ckeys[idx] == ck))
        return pa.table({
            "okey": t["o_orderkey"],
            "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
        })

    joined = bucketed_join(
        li.map_batches(prep_li, batch_format="pyarrow"),
        orders.map_batches(prep_orders, batch_format="pyarrow"),
        key="okey")
    flagged = broadcast_join(joined, supp, on="l_suppkey")

    def split(t: pa.Table) -> pa.Table:
        nat = pc.multiply(t["rev_e4"],
                          pc.cast(t["is_target"], pa.int64()))
        return pa.table({"o_year": t["o_year"],
                         "nat_e4": nat, "tot_e4": t["rev_e4"]})

    agg = grouped_aggregate(
        flagged.map_batches(split, batch_format="pyarrow"),
        ["o_year"],
        [AggSpec("sum", "nat_e4", "nat_e4"),
         AggSpec("sum", "tot_e4", "tot_e4")])

    def finalize(t: pa.Table) -> pa.Table:
        nat = t["nat_e4"].to_numpy(zero_copy_only=False).astype(np.float64)
        tot = t["tot_e4"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "o_year": t["o_year"],
            "mkt_share": round_f64(pa.array(nat / tot, pa.float64()), 4),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_important_parts(sf_dir):
    """TPC-H-Q11-shaped important stock (reshaped: no partsupp table —
    "value" is each part's shipped revenue): parts whose total shipped
    revenue exceeds 1.5× the average part's.  ONE grouped_aggregate
    exchange per partkey; the global (count, total) folds the per-part
    partials driver-side (tiny: scales with parts); the HAVING threshold
    compares EXACT integer units by cross-multiplication
    (value·n_parts·2 > 3·total) so boundary parts never flip on float
    error, and the relative threshold stays non-empty at every scale
    factor (a fixed fraction of total empties once parts outnumber it)."""
    import ray

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_discount"])

    agg = grouped_aggregate(
        li.map_batches(
            lambda t: pa.table({"p_partkey": t["l_partkey"],
                                "rev_e4": _rev_e4(t)}),
            batch_format="pyarrow"),
        ["p_partkey"], [AggSpec("sum", "rev_e4", "rev_e4")]).materialize()

    partials = agg.map_batches(
        lambda t: pa.table({
            "s": pa.array([pc.sum(t["rev_e4"]).as_py() or 0], pa.int64()),
            "n": pa.array([t.num_rows], pa.int64()),
        }),
        batch_format="pyarrow").take_all()
    total = sum(r["s"] for r in partials)
    n_parts = sum(r["n"] for r in partials)
    thresh = ray.put((int(total), int(n_parts)))

    def keep_big(t: pa.Table) -> pa.Table:
        from ..stages.join import _bcast_get

        tot, n = _bcast_get(thresh)
        v = t["rev_e4"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(v * n * 2 > 3 * tot))
        return pa.table({
            "p_partkey": t["p_partkey"],
            "value": round_f64(
                pc.divide(pc.cast(t["rev_e4"], pa.float64()),
                          pa.scalar(10_000.0)), 2),
        })

    return agg.map_batches(keep_big, batch_format="pyarrow")


def q_ship_priority(sf_dir):
    """TPC-H-Q12-shaped shipping-delay priority count (reshaped: the
    testdata has no shipmode/commit/receipt dates — "mode" becomes the
    ship-delay bucket FAST ≤30d / SLOW >30d for 1997 shipments): per
    bucket, how many lineitems belong to high-priority vs other orders.
    ONE bucketed lineitem⋈orders exchange, then a per-batch CASE mask +
    grouped count — the Q12 shape (join + conditional aggregation)."""
    from ..stages.join import bucketed_join

    lo = pd.Timestamp("1997-01-01")
    hi = pd.Timestamp("1998-01-01")
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"],
               filter=(pds.field("l_shipdate") >= lo)
               & (pds.field("l_shipdate") < hi))

    def prep_li(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                    pc.less(t["l_shipdate"], pa.scalar(hi)))
        t = t.filter(m)
        return pa.table({"okey": t["l_orderkey"],
                         "ship_ms": ts_to_ms(t["l_shipdate"])})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    right = orders.map_batches(
        lambda t: pa.table({
            "okey": t["o_orderkey"],
            "odate_ms": ts_to_ms(t["o_orderdate"]),
            "prio": t["o_orderpriority"],
        }), batch_format="pyarrow")

    joined = bucketed_join(
        li.map_batches(prep_li, batch_format="pyarrow"), right, key="okey")

    def classify(t: pa.Table) -> pa.Table:
        slow = pc.greater(
            t["ship_ms"],
            pc.add(t["odate_ms"], pa.scalar(30 * DAY, pa.int64())))
        bucket = pc.if_else(slow, pa.scalar("SLOW"), pa.scalar("FAST"))
        high = pc.is_in(t["prio"],
                        value_set=pa.array(["1-URGENT", "2-HIGH"]))
        return pa.table({
            "ship_bucket": bucket,
            "high_line": pc.cast(high, pa.int64()),
            "low_line": pc.cast(pc.invert(high), pa.int64()),
        })

    agg = grouped_aggregate(
        joined.map_batches(classify, batch_format="pyarrow"),
        ["ship_bucket"],
        [AggSpec("sum", "high_line", "high_line_count"),
         AggSpec("sum", "low_line", "low_line_count")])
    return agg.map_batches(
        lambda t: pa.table({
            "ship_bucket": t["ship_bucket"],
            "high_line_count": pc.cast(t["high_line_count"], pa.int64()),
            "low_line_count": pc.cast(t["low_line_count"], pa.int64()),
        }), batch_format="pyarrow")


def q_promo_suppliers(sf_dir):
    """TPC-H-Q20-shaped potential-promotion suppliers (reshaped: no
    partsupp — the availability test becomes a shipped-volume test):
    suppliers who shipped MORE than 50 units of cold-prefix parts in
    one year, listed with their account balance.  Part keys broadcast as
    a sorted set, the only aggregate is over the doubly-filtered
    minority of lineitem (per-suppkey sum), supplier attributes attach
    via broadcast.  Threshold compares exact int64 quantity units."""
    from ..stages.join import broadcast_join

    part = _dim_pd(sf_dir, "part", ["p_partkey", "p_name"])
    keep = np.sort(
        part.loc[part["p_name"].str.startswith("cold"),
                 "p_partkey"].to_numpy(np.int64))

    lo = pd.Timestamp("1997-01-01")
    hi = pd.Timestamp("1998-01-01")
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
               filter=(pds.field("l_shipdate") >= lo)
               & (pds.field("l_shipdate") < hi))

    def prep(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                    pc.less(t["l_shipdate"], pa.scalar(hi)))
        t = t.filter(m)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keep, pk)
        idx[idx == len(keep)] = 0
        t = t.filter(pa.array(keep[idx] == pk))
        return pa.table({
            "s_suppkey": t["l_suppkey"],
            "qty": pc.cast(pc.round(t["l_quantity"]), pa.int64()),
        })

    agg = grouped_aggregate(
        li.map_batches(prep, batch_format="pyarrow"),
        ["s_suppkey"], [AggSpec("sum", "qty", "qty")])
    big = agg.map_batches(
        lambda t: t.filter(pc.greater(t["qty"],
                                      pa.scalar(50, pa.int64()))),
        batch_format="pyarrow")

    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_name", "s_acctbal"]).to_pandas()
    named = broadcast_join(big, supp, on="s_suppkey")
    return named.map_batches(
        lambda t: pa.table({
            "s_name": t["s_name"],
            "s_acctbal": round_f64(t["s_acctbal"], 2),
            "total_qty": pc.cast(t["qty"], pa.int64()),
        }), batch_format="pyarrow")
