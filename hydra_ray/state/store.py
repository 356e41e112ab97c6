"""Per-partition state stores: windows, symmetric-hash join, compacted view.

This is the stateful core of the streaming engine — the Ray-native
replacement for the reference's in-memory ``Ref``-map materialized views
(`ingestors/kafka/.../algebras/MetadataAlgebra.scala:36-118`,
`ConsumerGroupsAlgebra.scala:254-325`) and the graft's new CEP operators
(BASELINE.json north_star): tumbling/sliding/session windows, event-time
watermarks, and a symmetric-hash stream-stream join of the clip stream
against the transcript-update stream.

One ``PartitionState`` exists per partition (``hash(clip_id) % P``,
`hydra_ray.hashing`); a small pool of ``StateHost`` actors runs them as
slots, next to the dedup and near-dup shard slots.  Stateless ingest
tasks route each batch's per-partition slices to the owning host; the
driver advances the event-time watermark per epoch and calls
``close_epoch``, which

- emits **replicated** clips whose join horizon has passed
  (``wm ≥ clip.event_ts + join_window``), enriched with the latest
  matching transcript revision (tombstone ⇒ ``deleted=True`` — compacted
  null-payload delete semantics,
  `core/src/main/scala/hydra/core/ingest/HydraRequest.scala:13-14`);
- closes windows whose end ≤ watermark;
- routes late rows (event_ts < watermark at arrival) to the DLQ output
  (the reference's error topic,
  `.../ingestors/IngestionErrorHandler.scala:22-91`);
- evicts join/window state below the watermark;
- stages its output fragments into the sink tables (phase 1 of the 2PC in
  `hydra_ray.table.lancelite`), returning fragment metadata + metrics.

**Determinism contract**: all operator semantics depend only on
(event_ts, revision/seq) — never on arrival order — so any replay of the
same input slices + watermark sequence produces identical output rows.
That is what makes the idempotent epoch commit exactly-once end to end.

State is checkpointed per epoch: light state (window partials, open
sessions, update buffer, compacted view, metrics) as a pickle, the
buffered clip table (with PCM payloads) as parquet.  Resume loads the
checkpoint of the last committed epoch and replays source deltas after it.
"""

from __future__ import annotations

import math
import os
import pickle
from collections import defaultdict
from concurrent import futures

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.windows import assign_tumbling, ts_to_ms

WATERMARK_MAX = (1 << 62)  # end-of-stream sentinel: flush everything
_I64MAX = np.iinfo(np.int64).max  # funnel chain: "step not reached"
# funnel step name (ReplicateConfig.funnel_steps) → event kind code
FUNNEL_KINDS = {"clip": 0, "update": 1, "delete": 2}

__all__ = ["PartitionState", "StateHost", "StateHostActor", "WATERMARK_MAX",
           "sink_names"]


def sink_names(cfg) -> tuple[str, ...]:
    """The outputs a ``ReplicateConfig`` produces, main sink first, and
    so the sink tables its run creates and commits: the light rows,
    payload, DLQ and view always; every other output only while the
    config field that gates it is on.  ``PartitionState.close_epoch``
    emits exactly these; a sink whose feature is off has no table, no
    start-up GC and no commit."""
    on = [n for n, gate in (("windows", cfg.window_size_ms),
                            ("sliding", cfg.sliding_size_ms),
                            ("sessions", cfg.session_gap_ms)) if gate]
    return ("replicated", "payload", *on,
            *(("funnels",) if cfg.funnel_steps else ()),
            *(("changelog",) if cfg.changelog else ()),
            "dlq", "views",
            *(f"{n}_live" for n in on if cfg.early_fire))


def _isna_value(v) -> bool:
    """``pd.isna`` for one transcript cell: None or a float NaN (pandas
    stays off the state host's import)."""
    return v is None or v != v


def _isna(x: np.ndarray) -> np.ndarray:
    """Elementwise ``_isna_value`` over an object array."""
    return np.fromiter(map(_isna_value, x), bool, len(x))


def _bottomk_union(h1, v1, h2, v2, k: int):
    """Merge two bottom-k-by-hash samples: union, dedup by hash (makes
    ingest replay idempotent — hashes are unique per record), keep the k
    smallest.  Associative + commutative + idempotent ⇒ the sample is
    identical under any routing (salting), any epoch split (deltas) and
    any N→M rescale fold."""
    h = np.concatenate([h1, h2])
    v = np.concatenate([v1, v2])
    hh, ui = np.unique(h, return_index=True)       # sorted ascending
    return hh[:k], v[ui][:k]


def _kmv_union(c1, c2, k: int):
    """Merge two KMV (k-minimum-values) distinct sketches: union, dedup
    (``np.unique``), keep the k smallest hashes.  Same monoid laws as
    ``_bottomk_union`` — dedup makes replay idempotent, union makes it
    routing/salting/rescale-independent.  Below k distinct hashes the
    sketch IS the exact distinct set."""
    return np.unique(np.concatenate([c1, c2]))[:k]


def _kmv_estimate(ch: np.ndarray, k: int, n_cap: int | None = None) -> int:
    """Distinct-count from a KMV sketch (Bar-Yossef et al. 2002): exact
    ``len(ch)`` while the sketch never overflowed (< k entries), else
    ``(k−1)/v_k`` with ``v_k`` the k-th smallest normalized hash.
    ``n_cap`` (the cell's exact row count) clamps the estimator's
    overshoot — distinct can never exceed rows, and the cap is itself a
    routing-independent exact partial, so determinism is preserved."""
    m = len(ch)
    if k <= 0 or m < k:
        return m
    vk = float(ch[k - 1]) / 2.0 ** 64        # ch is sorted ascending
    if vk <= 0.0:
        return m
    est = max(m, int(round((k - 1) / vk)))
    return min(est, n_cap) if n_cap is not None else est


def _modek_union(h1, c1, h2, c2, k: int):
    """Merge two bottom-k-by-content-hash COUNT samples: union by hash,
    SUM counts on the intersection, keep the k smallest hashes.  Counts
    stay EXACT for every hash that survives: a hash in the merged
    bottom-k has < k smaller distinct hashes in the union, hence < k in
    every partial's (subset) view too — so each partial that saw it kept
    its full local count.  Associative + commutative (counts are
    additive partials like cnt/sum — replay safety comes from the
    checkpoint-rebuild model, exactly as for the count column), so the
    sample is identical under any routing/salting, epoch split and
    N→M rescale fold."""
    h = np.concatenate([h1, h2])
    c = np.concatenate([c1, c2]).astype(np.int64)
    hh, inv = np.unique(h, return_inverse=True)    # sorted ascending
    cc = np.zeros(len(hh), np.int64)
    np.add.at(cc, inv, c)
    return hh[:k], cc[:k]


def _topk_union(v1, h1, v2, h2, k: int):
    """Merge two top-k-by-VALUE record samples (value desc, hash-of-seq
    ascending tie-break): union, dedup by hash (replay idempotence —
    hashes are unique per record), keep the k largest.  A record in the
    union's top-k has < k larger records in every partial's (subset)
    view, so each partial kept it — union-of-top-k ⊇ top-k-of-union
    makes the result EXACT.  Associative + commutative + idempotent ⇒
    identical under any routing/salting, epoch split and rescale fold."""
    h = np.concatenate([h1, h2])
    v = np.concatenate([v1, v2])
    hh, ui = np.unique(h, return_index=True)
    vv = v[ui]
    order = np.lexsort((hh, -vv))[:k]
    return vv[order], hh[order]


def _mode_of(mh: np.ndarray, mc: np.ndarray) -> tuple[int, int]:
    """(content hash, exact count) of the most frequent content in the
    sample; count ties break to the smallest hash (``mh`` is sorted
    ascending, so the first argmax wins).  Exact mode whenever the
    cell's distinct content ≤ k (same regime where the KMV distinct
    count is exact); beyond that it is the mode of a deterministic
    uniform sample of the distinct contents."""
    if len(mh) == 0:
        return 0, 0
    j = int(np.argmax(mc))
    return int(mh[j]), int(mc[j])


def _fold_window_cell(target: dict, kw, acc, k: int, dk: int = 0,
                      mk: int = 0, tk: int = 0):
    """Fold one (key, window) partial into a state dict — the ONE merge
    rule shared by live ingest, delta-checkpoint replay and rescale.
    Cell layout is positional, driven by the cfg flags: [cnt, sum]
    (+ [hs, vs] with window_sample_k) (+ [ch] with window_distinct_k)
    (+ [mh, mc] with window_mode_k) (+ [tv, th] with window_top_k).
    Toggling a flag mid-checkpoint-chain is not supported (a restored
    short cell is extended on first fold; a reinterpreted one is not
    detected)."""
    cur = target.get(kw)
    if cur is None:
        target[kw] = [a.copy() if isinstance(a, np.ndarray) else a for a in acc]
        return
    cur[0] += acc[0]
    cur[1] += acc[1]
    i = 2
    if k and len(acc) > i + 1:
        if len(cur) > i + 1:
            cur[i], cur[i + 1] = _bottomk_union(
                cur[i], cur[i + 1], acc[i], acc[i + 1], k)
        else:
            cur.extend([acc[i].copy(), acc[i + 1].copy()])
        i += 2
    if dk and len(acc) > i:
        if len(cur) > i:
            cur[i] = _kmv_union(cur[i], acc[i], dk)
        else:
            cur.append(acc[i].copy())
        i += 1
    if mk and len(acc) > i + 1:
        if len(cur) > i + 1:
            cur[i], cur[i + 1] = _modek_union(
                cur[i], cur[i + 1], acc[i], acc[i + 1], mk)
        else:
            cur.extend([acc[i].copy(), acc[i + 1].copy()])
        i += 2
    if tk and len(acc) > i + 1:
        if len(cur) > i + 1:
            cur[i], cur[i + 1] = _topk_union(
                cur[i], cur[i + 1], acc[i], acc[i + 1], tk)
        else:
            cur.extend([acc[i].copy(), acc[i + 1].copy()])


def _sample_quantiles(vs: np.ndarray) -> tuple[int, int]:
    """(p50, p90) by the discrete nearest-rank rule quantile_disc uses:
    index = ceil(p·n) − 1 over the ascending values."""
    v = np.sort(np.asarray(vs, dtype=np.int64))
    n = len(v)
    if n == 0:
        return 0, 0
    i50 = min(n - 1, max(0, -(-n // 2) - 1))       # ceil(0.5 n) − 1
    i90 = min(n - 1, max(0, -(-(9 * n) // 10) - 1))
    return int(v[i50]), int(v[i90])


def _update_keep_mask(keys: np.ndarray, tss: np.ndarray, horizon: int,
                      temporal: bool) -> np.ndarray:
    """Eviction predicate over (key, ts, rev)-SORTED update state: drop
    rows below the horizon — except, under the temporal (as-of) join,
    the LATEST below-horizon row of each key, which remains the valid
    as-of version for every future clip until a newer version itself
    passes the horizon.  Monotone in the watermark either way (a row
    evicted at wm₁ is evicted from the full set at any wm₂ > wm₁), so
    full+delta checkpoint replay pruned at the final watermark is exact.
    """
    keep = tss >= horizon
    if temporal and not keep.all():
        below = ~keep
        last_below = below.copy()
        if len(keys) > 1:
            # within a key run ts ascends, so below-horizon rows are a
            # prefix: the run's last below row has no below successor
            last_below[:-1] &= ~((keys[1:] == keys[:-1]) & below[1:])
        keep |= last_below
    return keep


class PartitionState:
    """Pure-python state container (actor-agnostic; unit-testable)."""

    def __init__(self, partition: int, cfg):
        self.partition = partition
        self.cfg = cfg
        self.funnel_codes = tuple(FUNNEL_KINDS[s] for s in cfg.funnel_steps)
        # the sink outputs close_epoch emits
        self.outputs = frozenset(sink_names(cfg))
        # tumbling window partials: (clip_id, window_start) -> [cnt, sum_dur_ms]
        self.win: dict[tuple[str, int], list] = {}
        # sliding window partials (same layout; rows explode ×k at ingest)
        self.swin: dict[tuple[str, int], list] = {}
        # open sessions: clip_id -> sorted list of [start, end, cnt, sum_dur]
        self.sessions: dict[str, list] = defaultdict(list)
        # join left side: pending decoded clip batches (arrow, light columns)
        self.clip_buf: list[pa.Table] = []
        # join right side: columnar update chunks (keys, ts, rev, transcript)
        # — consolidated/sorted at close, evicted below the join horizon
        self.upd_chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        # compacted latest-transcript view (last-write-wins by (ts, rev))
        self.view: dict[str, tuple] = {}
        # CEP funnel: key -> list of achieved chain times (earliest-
        # completion chain over the combined clip/update/delete stream);
        # buffered not-yet-processed light rows as (keys, ts, kind) arrays
        self.funnel: dict[str, list] = {}
        self.funnel_buf: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # DLQ rows accumulated this epoch: list[(source, reason, table)]
        self.dlq_buf: list[tuple[str, str, pa.Table]] = []
        # CDC changelog bookkeeping: key -> view record as of the EPOCH
        # START, recorded the first time the key's view entry is replaced
        # within the epoch.  Lives entirely inside one ingest→close cycle
        # (emitted and cleared at close_epoch), so it is never part of a
        # checkpoint — a resume replays the epoch's ingests and rebuilds it.
        self._chg_prev: dict[str, tuple | None] = {}
        # per-epoch clip-key counts (reset each close) — feeds the driver's
        # sticky hot-key detection; bounded by the report cap, not by rows
        self.key_counts: dict[str, int] = {}
        self.max_ts = -(1 << 62)
        self.metrics = defaultdict(int)
        # deltas since the last checkpoint (incremental-checkpoint support:
        # full snapshot every K epochs, O(delta) in between — restore
        # merges full + deltas then prunes by the final watermark, which
        # is exact because every removal predicate is wm-monotone)
        self._reset_deltas()

    def _reset_deltas(self):
        self._delta_win: dict[tuple[str, int], list] = {}
        self._delta_swin: dict[tuple[str, int], list] = {}
        self._delta_upd: list[tuple] = []
        self._delta_view: dict[str, tuple] = {}
        self._delta_clips: list[pa.Table] = []
        self._delta_funnel: dict[str, list] = {}
        self._delta_funnel_buf: list[tuple] = []

    # ------------------------------------------------------------- ingest
    def ingest_clips(self, table: pa.Table, wm: int) -> dict:
        n = table.num_rows
        if n == 0:
            return {"n": 0, "late": 0, "max_ts": self.max_ts}
        ts = ts_to_ms(table["event_ts"])
        self.max_ts = max(self.max_ts, int(ts.max()))

        err_idx = table.schema.get_field_index("decode_error")
        if err_idx >= 0:
            bad = pc.is_valid(table["decode_error"]).to_numpy(zero_copy_only=False)
        else:
            bad = np.zeros(n, dtype=bool)
        if table.schema.get_field_index("__filtered") >= 0:
            # curation-gate drops marked by the routing task's
            # payload_filter pass (decode-ok rows only by construction)
            filt = table["__filtered"].to_numpy(
                zero_copy_only=False).astype(bool) & ~bad
            table = table.drop_columns(["__filtered"])
        else:
            filt = np.zeros(n, dtype=bool)
        late = (ts < wm) & ~bad & ~filt
        ok = ~late & ~bad & ~filt

        if bad.any():
            self.dlq_buf.append(
                ("clips", "decode_error", _drop_heavy(table.filter(pa.array(bad))))
            )
            self.metrics["clips_decode_error"] += int(bad.sum())
        if filt.any():
            self.dlq_buf.append(
                ("clips", "filtered", _drop_heavy(table.filter(pa.array(filt))))
            )
            self.metrics["clips_filtered"] += int(filt.sum())
        if late.any():
            self.dlq_buf.append(
                ("clips", "late", _drop_heavy(table.filter(pa.array(late))))
            )
            self.metrics["clips_late"] += int(late.sum())

        if ok.any():
            sub = table.filter(pa.array(ok))
            if err_idx >= 0:
                sub = sub.drop_columns(["decode_error"])
            # content_h is a window-state input only (KMV distinct
            # sketch): strip it before the row buffers so it never leaks
            # into the replicated output schema or checkpoint buffers
            ch = None
            if sub.schema.get_field_index("content_h") >= 0:
                ch = sub["content_h"].to_numpy(
                    zero_copy_only=False).astype(np.uint64)
                sub = sub.drop_columns(["content_h"])
            self.clip_buf.append(sub)
            self._delta_clips.append(sub)
            sub_ts = ts[ok]
            self._accumulate_windows(sub, sub_ts, ch)
            vc = sub.group_by(["clip_id"], use_threads=False).aggregate(
                [("clip_id", "count")]
            )
            cnts = vc["clip_id_count"].to_numpy(zero_copy_only=False)
            heavy = cnts >= 2  # a hot key recurs within a batch; cold keys don't
            for k, c in zip(
                np.asarray(vc["clip_id"].to_numpy(zero_copy_only=False), object)[heavy],
                cnts[heavy],
            ):
                self.key_counts[k] = self.key_counts.get(k, 0) + int(c)
            self.metrics["clips_in"] += sub.num_rows
            if self.cfg.funnel_steps:
                # funnel events for clips whose HOME partition is this one;
                # salted-away hot clips arrive via the router's explicit
                # kind="funnel" sends (funnel state is per-key sequential,
                # never salted — the rows are 3 light columns)
                from ..hashing import partition_for

                kk = np.asarray(
                    sub["clip_id"].to_numpy(zero_copy_only=False), dtype=object
                )
                home = partition_for(kk, self.cfg.num_partitions) == self.partition
                if home.any():
                    self._funnel_append(
                        kk[home], sub_ts[home],
                        np.zeros(int(home.sum()), np.int8),
                    )
        return {"n": n, "late": int(late.sum()), "max_ts": self.max_ts}

    def ingest_funnel(self, table: pa.Table, wm: int) -> dict:
        """Light (clip_id, event_ts) rows fan-routed to the HOME partition
        for clips whose salted route landed elsewhere (pre-filtered to the
        same will-emit predicate ``ingest_clips`` applies)."""
        n = table.num_rows
        if n == 0:
            return {"n": 0, "late": 0, "max_ts": self.max_ts}
        ts = ts_to_ms(table["event_ts"])
        keys = np.asarray(table["clip_id"].to_numpy(zero_copy_only=False), object)
        self._funnel_append(keys, ts, np.zeros(n, np.int8))
        return {"n": n, "late": 0, "max_ts": self.max_ts}

    def _funnel_append(self, keys: np.ndarray, tss: np.ndarray, kinds: np.ndarray):
        chunk = (keys, tss.astype(np.int64), kinds)
        self.funnel_buf.append(chunk)
        self._delta_funnel_buf.append(chunk)

    @staticmethod
    def _merge_window_partials(
        targets: list[dict], keys_np: np.ndarray, starts: np.ndarray,
        durs: np.ndarray, hs: np.ndarray | None = None, sample_k: int = 0,
        ch: np.ndarray | None = None, distinct_k: int = 0,
        mode_k: int = 0, top_k: int = 0,
    ):
        """Fold per-batch (key, window) partials into the given state dicts
        (live dict + checkpoint-delta dict).

        One C-side ``pa.Table.group_by`` collapses the batch first, so the
        Python merge loop runs once per DISTINCT (key, window) of the
        batch — O(keys·windows), not O(rows); hot keys collapse hardest.
        With ``sample_k`` set the collapse also keeps each group's k
        smallest-``hs`` rows (one lexsort + arange gather); with
        ``distinct_k`` it keeps each group's k smallest DISTINCT content
        hashes (the KMV sketch partial); with ``mode_k`` it keeps each
        group's k smallest distinct content hashes WITH their exact
        per-group counts (the frequency/mode partial); with ``top_k`` it
        keeps each group's k LARGEST durations with their record hashes
        (exact top-k monoid) — extending the cells to
        [cnt, sum (, hs, vs)(, ch)(, mh, mc)(, tv, th)].
        """
        sk = sample_k if hs is not None else 0
        dk = distinct_k if ch is not None else 0
        mk = mode_k if ch is not None else 0
        tk = top_k if hs is not None else 0
        if sk or dk or mk or tk:
            _, kcodes = np.unique(keys_np, return_inverse=True)
            order = np.lexsort(((hs if sk else durs), starts, kcodes))
            kc = kcodes[order]
            ws = starts[order]
            ds = durs[order]
            first = np.r_[True, (kc[1:] != kc[:-1]) | (ws[1:] != ws[:-1])]
            si = np.flatnonzero(first)
            n_g = len(si)
            cnt = np.diff(np.append(si, len(kc)))
            dsum = np.add.reduceat(ds, si)
            ksel = keys_np[order][si]
            if sk:
                h2 = hs[order]
                take = np.minimum(cnt, sk)
                rep = np.repeat(np.arange(n_g), take)
                offs = (np.arange(int(take.sum()))
                        - np.repeat(np.cumsum(take) - take, take))
                sel = si[rep] + offs
                bounds_s = np.zeros(n_g + 1, dtype=np.int64)
                np.cumsum(take, out=bounds_s[1:])
                h_sel, v_sel = h2[sel], ds[sel]
            if dk or mk:
                # second pass ordered by (key, window, content-hash):
                # group enumeration order matches pass 1 (both are sorted
                # by (kcodes, starts) first), so partials align by j
                order2 = np.lexsort((ch, starts, kcodes))
                kc2, ws2, c2 = kcodes[order2], starts[order2], ch[order2]
                gfirst = np.r_[True, (kc2[1:] != kc2[:-1]) | (ws2[1:] != ws2[:-1])]
                newh = gfirst | np.r_[True, c2[1:] != c2[:-1]]
                keep = np.flatnonzero(newh)
                gid = np.cumsum(gfirst) - 1
                gk = gid[keep]
                dcnt = np.bincount(gk, minlength=n_g)
                gstart = np.cumsum(dcnt) - dcnt
                pos = np.arange(len(keep)) - gstart[gk]
            if dk:
                csel = c2[keep[pos < dk]]
                dtake = np.minimum(dcnt, dk)
                bounds_d = np.zeros(n_g + 1, dtype=np.int64)
                np.cumsum(dtake, out=bounds_d[1:])
            if mk:
                # per-distinct-hash run lengths = exact per-group counts
                # (a hash's run never spans groups: newh ⊇ gfirst)
                runlen = np.diff(np.append(keep, len(c2)))
                mmask = pos < mk
                msel_h = c2[keep[mmask]]
                msel_c = runlen[mmask].astype(np.int64)
                mtake = np.minimum(dcnt, mk)
                bounds_m = np.zeros(n_g + 1, dtype=np.int64)
                np.cumsum(mtake, out=bounds_m[1:])
            if tk:
                # third pass ordered by (key, window, -dur, hash): same
                # (kcodes, starts) primary sort as pass 1, so group
                # enumeration aligns by j; per group keep the first tk
                # rows = k largest durations, smallest-hash tie-break
                order3 = np.lexsort((hs, -durs, starts, kcodes))
                kc3, ws3 = kcodes[order3], starts[order3]
                first3 = np.r_[True,
                               (kc3[1:] != kc3[:-1]) | (ws3[1:] != ws3[:-1])]
                si3 = np.flatnonzero(first3)
                cnt3 = np.diff(np.append(si3, len(kc3)))
                take3 = np.minimum(cnt3, tk)
                rep3 = np.repeat(np.arange(n_g), take3)
                offs3 = (np.arange(int(take3.sum()))
                         - np.repeat(np.cumsum(take3) - take3, take3))
                sel3 = si3[rep3] + offs3
                bounds_t = np.zeros(n_g + 1, dtype=np.int64)
                np.cumsum(take3, out=bounds_t[1:])
                t_v = durs[order3][sel3]
                t_h = hs[order3][sel3]
            for j in range(n_g):
                acc = [int(cnt[j]), int(dsum[j])]
                if sk:
                    acc += [h_sel[bounds_s[j]:bounds_s[j + 1]],
                            v_sel[bounds_s[j]:bounds_s[j + 1]]]
                if dk:
                    acc.append(csel[bounds_d[j]:bounds_d[j + 1]])
                if mk:
                    acc += [msel_h[bounds_m[j]:bounds_m[j + 1]],
                            msel_c[bounds_m[j]:bounds_m[j + 1]]]
                if tk:
                    acc += [t_v[bounds_t[j]:bounds_t[j + 1]],
                            t_h[bounds_t[j]:bounds_t[j + 1]]]
                kw = (ksel[j], int(ws[si[j]]))
                for target in targets:
                    _fold_window_cell(target, kw, tuple(acc), sk, dk, mk, tk)
            return
        t = pa.table(
            {
                "k": pa.array(keys_np, pa.string()),
                "w": pa.array(starts, pa.int64()),
                "d": pa.array(durs, pa.int64()),
            }
        )
        gb = t.group_by(["k", "w"], use_threads=False).aggregate(
            [("d", "sum"), ("d", "count")]
        )
        for k, w, d, c in zip(
            gb["k"].to_pylist(), gb["w"].to_pylist(),
            gb["d_sum"].to_pylist(), gb["d_count"].to_pylist(),
        ):
            for target in targets:
                acc = target.get((k, w))
                if acc is None:
                    target[(k, w)] = [c, d]
                else:
                    acc[0] += c
                    acc[1] += d

    def _accumulate_windows(self, sub: pa.Table, ts: np.ndarray,
                            ch: np.ndarray | None = None):
        cfg = self.cfg
        keys_np = np.asarray(
            sub["clip_id"].to_numpy(zero_copy_only=False), dtype=object
        )
        durs = sub["dur_ms"].to_numpy(zero_copy_only=False).astype(np.int64)
        sample_k = cfg.window_sample_k
        distinct_k = cfg.window_distinct_k
        mode_k = cfg.window_mode_k
        top_k = cfg.window_top_k
        if not (distinct_k or mode_k):
            ch = None
        hs = None
        if sample_k or top_k or (cfg.session_sample_k
                                 and cfg.session_gap_ms):
            from ..hashing import hash64

            # per-record hash (seq is globally unique): the deterministic
            # bottom-k sample key — identical whichever partition/salt
            # the row lands on, and dedup-idempotent under replay
            hs = hash64(sub["seq"])
        if cfg.window_size_ms:
            starts = assign_tumbling(ts, cfg.window_size_ms)
            self._merge_window_partials(
                [self.win, self._delta_win], keys_np, starts, durs,
                hs, sample_k, ch, distinct_k, mode_k, top_k,
            )
        if cfg.sliding_size_ms:
            from ..stages.windows import explode_sliding

            rows, starts = explode_sliding(ts, cfg.sliding_size_ms, cfg.sliding_slide_ms)
            self._merge_window_partials(
                [self.swin, self._delta_swin], keys_np[rows], starts, durs[rows],
                hs[rows] if hs is not None else None, sample_k,
                ch[rows] if ch is not None else None, distinct_k, mode_k,
                top_k,
            )
        if cfg.session_gap_ms:
            gap = cfg.session_gap_ms
            ssk = cfg.session_sample_k
            # batch-local sessionization (vectorized): sort by (key, ts),
            # break on key change or gap, reduce each run — then merge the
            # few resulting intervals into the open-session state.  The
            # gap-closure partition is order-insensitive, so pre-merging
            # within the batch is exact.
            order = np.lexsort((ts, keys_np))
            ks, ts_s, ds_s = keys_np[order], ts[order], durs[order]
            brk = np.ones(len(ks), dtype=bool)
            brk[1:] = (ks[1:] != ks[:-1]) | ((ts_s[1:] - ts_s[:-1]) > gap)
            si = np.flatnonzero(brk)
            ei = np.append(si[1:], len(ks))
            cnt = ei - si
            sumd = np.add.reduceat(ds_s, si)
            if ssk and hs is not None:
                # per-run bottom-k-by-hash(seq) duration sample (same
                # deterministic monoid as window_sample_k — the gap-merge
                # unions it, so session quantiles survive salting,
                # bridging merges, adoption and rescale).  Runs are
                # contiguous in the (key, ts) order, so one lexsort by
                # (run, hash) leaves each run's rows hash-ascending at
                # positions si[j]:ei[j].
                rid = np.cumsum(brk) - 1
                h2 = hs[order]
                order2 = np.lexsort((h2, rid))
                take = np.minimum(cnt, ssk)
            for j in range(len(si)):
                if ssk and hs is not None:
                    idx = order2[si[j]:si[j] + int(take[j])]
                    self._merge_session_range(
                        ks[si[j]], int(ts_s[si[j]]), int(ts_s[ei[j] - 1]),
                        int(cnt[j]), int(sumd[j]), gap,
                        hs_s=h2[idx].astype(np.uint64),
                        vs_s=ds_s[idx].astype(np.int64),
                    )
                else:
                    self._merge_session_range(
                        ks[si[j]], int(ts_s[si[j]]), int(ts_s[ei[j] - 1]),
                        int(cnt[j]), int(sumd[j]), gap,
                    )

    def _merge_session_range(
        self, key: str, t0: int, t1: int, cnt: int, dur: int, gap: int,
        hs_s: np.ndarray | None = None, vs_s: np.ndarray | None = None,
    ):
        """Insert a session interval [t0, t1] (cnt events, dur sum,
        optional bottom-k duration sample) into the per-key open-session
        list (kept sorted, non-overlapping under the gap relation)."""
        k = self.cfg.session_sample_k
        lst = self.sessions[key]
        new = [t0, t1, cnt, dur]
        if hs_s is not None:
            new += [hs_s, vs_s]
        lo = None
        for s in lst:
            if t0 <= s[1] + gap and t1 >= s[0] - gap:
                lo = s
                break
        if lo is None:
            lst.append(new)
            lst.sort(key=lambda s: s[0])
            return
        lo[0] = min(lo[0], t0)
        lo[1] = max(lo[1], t1)
        lo[2] += cnt
        lo[3] += dur
        if hs_s is not None:
            if len(lo) > 5:
                lo[4], lo[5] = _bottomk_union(lo[4], lo[5], hs_s, vs_s, k)
            else:
                lo.extend([hs_s.copy(), vs_s.copy()])
        # merging may bridge two sessions
        lst.sort(key=lambda s: s[0])
        merged = [lst[0]]
        for s in lst[1:]:
            prev = merged[-1]
            if s[0] <= prev[1] + gap:
                prev[1] = max(prev[1], s[1])
                prev[2] += s[2]
                prev[3] += s[3]
                if len(prev) > 5 and len(s) > 5:
                    prev[4], prev[5] = _bottomk_union(
                        prev[4], prev[5], s[4], s[5], k)
                elif len(s) > 5:
                    prev.extend([s[4], s[5]])
                prev[0] = min(prev[0], s[0])
            else:
                merged.append(s)
        self.sessions[key] = merged

    def ingest_updates(self, table: pa.Table, wm: int) -> dict:
        n = table.num_rows
        if n == 0:
            return {"n": 0, "late": 0, "max_ts": self.max_ts}
        # hot-key fan-out replicas feed join/view state everywhere, but DLQ
        # rows and metrics are accounted ONCE, on the primary (home) copy
        if "__replica" in table.column_names:
            replica = table["__replica"].to_numpy(zero_copy_only=False).astype(bool)
            table = table.drop_columns(["__replica"])
        else:
            replica = np.zeros(n, dtype=bool)
        ts = ts_to_ms(table["event_ts"])
        self.max_ts = max(self.max_ts, int(ts.max()))
        late = ts < wm
        late_primary = late & ~replica
        if late_primary.any():
            self.dlq_buf.append(
                ("updates", "late", table.filter(pa.array(late_primary)))
            )
            self.metrics["updates_late"] += int(late_primary.sum())
        ok = ~late
        if ok.any():
            sel = np.flatnonzero(ok)
            keys = np.asarray(
                table["clip_id"].to_numpy(zero_copy_only=False), dtype=object
            )[sel]
            texts = np.asarray(
                table["transcript"].to_numpy(zero_copy_only=False), dtype=object
            )[sel]
            revs = table["revision"].to_numpy(zero_copy_only=False).astype(np.int64)[sel]
            tss = ts[sel]
            self.upd_chunks.append((keys, tss, revs, texts))
            self._delta_upd.append((keys, tss, revs, texts))
            # compacted view: batch last-write-wins by (ts, rev) — one sort,
            # then a Python merge per DISTINCT key of the batch
            order = np.lexsort((revs, tss, keys))
            ks, t_s, r_s, x_s = keys[order], tss[order], revs[order], texts[order]
            last = np.ones(len(ks), dtype=bool)
            last[:-1] = ks[1:] != ks[:-1]
            chg = self.cfg.changelog
            for i in np.flatnonzero(last):
                rec = (int(t_s[i]), int(r_s[i]), x_s[i])
                cur = self.view.get(ks[i])
                if cur is None or (rec[0], rec[1]) >= (cur[0], cur[1]):
                    if chg and ks[i] not in self._chg_prev:
                        self._chg_prev[ks[i]] = cur
                    self.view[ks[i]] = rec
                    self._delta_view[ks[i]] = rec
            self.metrics["updates_in"] += int((ok & ~replica).sum())
            if self.cfg.funnel_steps:
                prim = np.flatnonzero(ok & ~replica)
                if len(prim):
                    kk = np.asarray(
                        table["clip_id"].to_numpy(zero_copy_only=False), object
                    )[prim]
                    xx = np.asarray(
                        table["transcript"].to_numpy(zero_copy_only=False), object
                    )[prim]
                    kinds = np.where(
                        _isna(xx), np.int8(2), np.int8(1)
                    ).astype(np.int8)  # tombstone → "delete", else "update"
                    self._funnel_append(kk, ts[prim], kinds)
        return {"n": n, "late": int(late.sum()), "max_ts": self.max_ts}

    # -------------------------------------------------------------- close
    def close_epoch(self, epoch: int, wm: int, hot_keys: frozenset = frozenset()) -> dict:
        """Advance to watermark ``wm``: emit, close, evict.  Returns arrow
        outputs keyed by sink name, only the config's ``sink_names``
        (None while an output has nothing to emit), plus the
        ``hot_keys``' raw partials: ``hot_windows``/``hot_sliding``
        as ``(key, window_start, *cell)`` rows of the closed cells and
        ``hot_sessions`` as ``(key, *interval)`` rows of every session,
        open or closed.  A salted key's state lives on several
        partitions, so the driver folds these into one scratch partition
        with ``absorb`` and closes that (``close_hot_partials``).  With
        a live sink it also returns ``early_touched``/
        ``early_touched_sliding``: the open cells this epoch touched.
        """
        on = self.outputs
        out = {"replicated": self._emit_replicated(epoch, wm)}
        for name, close in (("windows", self._close_windows),
                            ("sliding", self._close_sliding),
                            ("sessions", self._close_sessions)):
            if name in on:
                out[name], out[f"hot_{name}"] = close(epoch, wm, hot_keys)
        if "funnels" in on:
            out["funnels"] = self._close_funnel(epoch, wm)
        if "changelog" in on:
            out["changelog"] = self._emit_changelog(epoch)
        out["dlq"] = self._emit_dlq(epoch)
        if "windows_live" in on or "sliding_live" in on:
            # incremental (speculative) window emission: report which
            # still-open tumbling/sliding cells THIS epoch touched (the
            # delta dicts hold exactly this epoch's increments — deltas
            # reset at every checkpoint, and pipelined e+1 ingests are
            # stashed until close(e+1)).  The driver unions the touched
            # sets and asks EVERY partition for its current partial
            # totals (a salted key's cell lives on several partitions,
            # and a partition untouched this epoch may still hold older
            # rows of a touched cell), then folds them with the same
            # cross-salt rule as final close.  Sessions need no touched
            # set: every epoch renders every open session.
            def _touched_tbl(delta, live):
                touched = [kw for kw in delta if kw in live]
                if not touched:
                    return None
                return pa.table({
                    "clip_id": pa.array([k for k, _ in touched],
                                        pa.string()),
                    "window_start": pa.array([w for _, w in touched],
                                             pa.int64()),
                })

            if "windows_live" in on:
                out["early_touched"] = _touched_tbl(
                    self._delta_win, self.win)
            if "sliding_live" in on:
                out["early_touched_sliding"] = _touched_tbl(
                    self._delta_swin, self.swin)
        if wm >= WATERMARK_MAX and self.view:
            # end of stream: materialize the compacted latest-value view
            # (the reference's compacted-topic snapshot, T2 semantics).
            # Fan-out replicas give every salt partition a copy of a hot
            # key's view entry; only the HOME partition emits it.
            out["views"] = _stamp(self.view_snapshot(), self.partition, epoch)
        # Evict join right-side state: a buffered (non-emitted) clip has
        # c.ts + W ≥ wm, and any future non-late clip has c.ts ≥ wm, so no
        # update with u.ts < wm − W can ever match again (matching needs
        # u.ts ≥ c.ts ≥ wm − W).
        horizon = wm - self.cfg.join_window_ms if wm < WATERMARK_MAX else wm
        keys, tss, revs, texts = self._consolidated_updates()
        keep = _update_keep_mask(
            keys, tss, horizon, self.cfg.temporal_join)
        evicted = int(len(tss) - keep.sum())
        if evicted:
            self.upd_chunks = (
                [(keys[keep], tss[keep], revs[keep], texts[keep])]
                if keep.any()
                else []
            )
        self.metrics["updates_evicted"] += evicted
        self.metrics["epochs_closed"] += 1
        return out

    def render_window_cells(self, cells: pa.Table,
                            kind: str = "windows") -> list:
        """``(key, window_start, cnt, sum)`` rows of the requested
        still-open tumbling ("windows") or sliding ("sliding") cells
        that live on THIS partition — the per-partition half of the
        early-fire emission; the driver folds them across
        partitions/salts.  Sketch columns stay a close-time/
        queryable-state feature (stable live schema)."""
        live = self.swin if kind == "sliding" else self.win
        ks = cells["clip_id"].to_pylist()
        ws = cells["window_start"].to_pylist()
        return [(k, w, cell[0], cell[1]) for k, w in zip(ks, ws)
                if (cell := live.get((k, w))) is not None]

    def render_session_cells(self) -> pa.Table | None:
        """Every open session on THIS partition (early-fire sessions
        tier).  Runs AFTER hot-key adoption in the epoch sequence, so
        every key's open sessions sit on exactly one partition — the
        driver concatenates, no cross-partition gap-merge needed."""
        rows = [(k, *s) for k in sorted(self.sessions)
                for s in self.sessions[k]]
        return _session_rows_table(rows, 0) if rows else None

    def _close_funnel(self, epoch: int, wm: int) -> pa.Table | None:
        """Advance every buffered key's earliest-completion chain with the
        rows whose event time passed the watermark; emit one match row per
        key on its completion transition.

        EXACT vs the batch ``funnel_chain`` kernel: chain times only ever
        append (never revise), because every unprocessed row has
        ts ≥ the watermark that processed the rows the existing chain
        summarizes — so per-step ``min`` over (state ∪ new rows) equals
        the batch min over all rows.  Arrival-order and routing
        independent: the per-step scatter is order-free and funnel rows
        always reach the key's HOME partition.
        """
        if not self.funnel_buf:
            return None
        steps = self.funnel_codes
        keys = np.concatenate([c[0] for c in self.funnel_buf])
        tss = np.concatenate([c[1] for c in self.funnel_buf])
        kinds = np.concatenate([c[2] for c in self.funnel_buf])
        take = tss <= wm if wm < WATERMARK_MAX else np.ones(len(tss), bool)
        if not take.any():
            return None
        rest = ~take
        self.funnel_buf = (
            [(keys[rest], tss[rest], kinds[rest])] if rest.any() else []
        )
        keys, tss, kinds = keys[take], tss[take], kinds[take]

        uniq, codes = np.unique(keys, return_inverse=True)
        S = len(steps)
        t = np.full((len(uniq), S), _I64MAX, np.int64)
        was_complete = np.zeros(len(uniq), bool)
        ul = uniq.tolist()
        for i, k in enumerate(ul):
            ch = self.funnel.get(k)
            if ch:
                t[i, : len(ch)] = ch
                was_complete[i] = len(ch) == S
        prev = np.full(len(uniq), -_I64MAX, np.int64)
        for s, code in enumerate(steps):
            cand = (kinds == code) & (tss > prev[codes])
            np.minimum.at(t[:, s], codes[cand], tss[cand])
            prev = t[:, s]

        levels = (t != _I64MAX).sum(axis=1)
        for i, k in enumerate(ul):
            lv = int(levels[i])
            if lv and len(self.funnel.get(k, ())) != lv:
                ch = t[i, :lv].tolist()
                self.funnel[k] = ch
                self._delta_funnel[k] = ch

        newly = (levels == S) & ~was_complete
        within = self.cfg.funnel_within_ms
        if within:
            newly &= (t[:, -1] - t[:, 0]) <= within
        if not newly.any():
            return None
        self.metrics["funnel_matches"] += int(newly.sum())
        cols = {"clip_id": pa.array(uniq[newly].astype(str))}
        for s in range(S):
            cols[f"t{s + 1}_ms"] = pa.array(t[newly, s], pa.int64())
        return _stamp(pa.table(cols), self.partition, epoch)

    def _emit_changelog(self, epoch: int) -> pa.Table | None:
        """CDC rows for view entries whose LWW winner changed this epoch.

        ``_chg_prev`` holds each changed key's record as of the epoch
        start; the op compares it to the final record: absent/tombstone →
        live = insert, live → live = update, live → tombstone = delete.
        A tombstone landing where nothing lived emits nothing, and a
        duplicate row re-winning with an identical record emits nothing —
        so the changelog replays to exactly the view.  Only the key's
        HOME partition emits (hot-key fan-out replicas upsert view state
        on every salt partition, but each sees the same row set for the
        key, so home emission is complete and exactly-once)."""
        from ..hashing import partition_for

        if not self._chg_prev:
            return None
        keys = np.asarray(sorted(self._chg_prev), dtype=object)
        if self.cfg.num_partitions:
            keys = keys[partition_for(keys, self.cfg.num_partitions)
                        == self.partition]
        rows = []
        for k in keys:
            prev, new = self._chg_prev[k], self.view[k]
            if prev == new:
                continue
            new_tomb = _isna_value(new[2])
            prev_dead = prev is None or _isna_value(prev[2])
            if new_tomb and prev_dead:
                continue
            op = ("delete" if new_tomb
                  else "insert" if prev_dead else "update")
            rows.append((k, op, new[0], new[1],
                         None if new_tomb else new[2]))
        self._chg_prev = {}
        if not rows:
            return None
        self.metrics["changelog_out"] += len(rows)
        tbl = pa.table({
            "clip_id": pa.array([r[0] for r in rows], pa.string()),
            "op": pa.array([r[1] for r in rows], pa.string()),
            "ts_ms": pa.array([r[2] for r in rows], pa.int64()),
            "revision": pa.array([r[3] for r in rows], pa.int32()),
            "transcript": pa.array([r[4] for r in rows], pa.string()),
        })
        return _stamp(tbl, self.partition, epoch)

    def _consolidated_updates(self):
        """Update buffer as (key, ts, rev)-sorted columnar arrays; the
        chunk list is replaced by the consolidated form (amortized)."""
        if not self.upd_chunks:
            z = np.empty(0, dtype=object)
            return z, np.empty(0, np.int64), np.empty(0, np.int64), z.copy()
        keys = np.concatenate([c[0] for c in self.upd_chunks])
        tss = np.concatenate([c[1] for c in self.upd_chunks])
        revs = np.concatenate([c[2] for c in self.upd_chunks])
        texts = np.concatenate([c[3] for c in self.upd_chunks])
        order = np.lexsort((revs, tss, keys))
        keys, tss, revs, texts = keys[order], tss[order], revs[order], texts[order]
        self.upd_chunks = [(keys, tss, revs, texts)]
        return keys, tss, revs, texts

    def _emit_replicated(self, epoch: int, wm: int) -> pa.Table | None:
        """Emit clips whose join horizon passed, enriched with the latest
        matching transcript revision.

        Match bound is HALF-OPEN: update u joins clip c iff
        ``c.ts ≤ u.ts < c.ts + W`` — the watermark-friendly convention,
        identical to the batch ``interval_join`` kernel.  Fully
        vectorized: one (key, ts, rev) sort of the update buffer, then
        two ``searchsorted`` probes per emitted-clip batch; the last
        element of each probe range IS the max-(ts, rev) revision.
        """
        W = self.cfg.join_window_ms
        emitted, kept = [], []
        for t in self.clip_buf:
            ts = ts_to_ms(t["event_ts"])
            # strict: an update with u.ts == wm (not yet late) could still
            # match a clip with c.ts ≤ wm < c.ts + W, so only emit below it
            m = ts + W < wm if wm < WATERMARK_MAX else np.ones(len(ts), bool)
            if m.any():
                emitted.append((t.filter(pa.array(m)), ts[m]))
            if not m.all():
                kept.append(t.filter(pa.array(~m)))
        self.clip_buf = kept
        if not emitted:
            return None
        ukeys, uts, urev, utext = self._consolidated_updates()
        parts = []
        for t, ts in emitted:
            ckeys = np.asarray(
                t["clip_id"].to_numpy(zero_copy_only=False), dtype=object
            )
            orig = np.asarray(
                t["transcript"].to_numpy(zero_copy_only=False), dtype=object
            )
            if len(uts):
                # composite (key-code, ts) probe key: code both key sets
                # together (np.unique, not pd.factorize — pandas' object
                # hashtable compares C-string-style so NUL-containing keys
                # would collide), offset ts into a non-negative span
                _, codes = np.unique(np.concatenate([ukeys, ckeys]), return_inverse=True)
                ucodes = codes[: len(ukeys)].astype(np.int64)
                ccodes = codes[len(ukeys):].astype(np.int64)
                tmin = int(min(uts.min(), ts.min()))
                span = int(max(uts.max(), ts.max() + W)) - tmin + 2
                ucomb = ucodes * span + (uts - tmin)
                # updates are (key, ts, rev)-sorted ⇒ ucomb ascending per key
                order = np.argsort(ucomb, kind="stable")
                ucomb_s = ucomb[order]
                lo = np.searchsorted(ucomb_s, ccodes * span + (ts - tmin), "left")
                hi = np.searchsorted(ucomb_s, ccodes * span + (ts + W - tmin), "left")
                match = hi > lo
                best = order[np.maximum(hi - 1, 0)]
                final_txt = orig.copy()
                final_txt[match] = utext[best[match]]
                deleted = np.zeros(len(ckeys), dtype=bool)
                deleted[match] = _isna(utext[best[match]])
                if self.cfg.temporal_join:
                    # temporal (as-of) probe: latest update with
                    # u.ts ≤ c.ts — the "right" bound of the same probe
                    # key includes equal-ts versions, and the stable
                    # argsort preserved rev order within equal ucomb,
                    # so hi2 − 1 IS the max-(ts, rev) valid version
                    lo2 = np.searchsorted(ucomb_s, ccodes * span, "left")
                    hi2 = np.searchsorted(
                        ucomb_s, ccodes * span + (ts - tmin), "right")
                    m2 = hi2 > lo2
                    best2 = order[np.maximum(hi2 - 1, 0)]
                    asof_txt = np.full(len(ckeys), None, dtype=object)
                    asof_txt[m2] = utext[best2[m2]]
                    asof_txt[_isna(asof_txt)] = None  # tombstone → null
                    asof_rev = np.where(m2, urev[best2], 0).astype(np.int64)
                    has_asof = m2
                else:
                    asof_txt = asof_rev = has_asof = None
            else:
                final_txt = orig
                deleted = np.zeros(len(ckeys), dtype=bool)
                if self.cfg.temporal_join:
                    asof_txt = np.full(len(ckeys), None, dtype=object)
                    asof_rev = np.zeros(len(ckeys), np.int64)
                    has_asof = np.zeros(len(ckeys), bool)
                else:
                    asof_txt = asof_rev = has_asof = None
            t = t.set_column(
                t.schema.get_field_index("transcript"),
                "transcript",
                pa.array(final_txt, pa.string()),
            )
            t = t.append_column("deleted", pa.array(deleted, pa.bool_()))
            if has_asof is not None:
                t = t.append_column(
                    "asof_transcript", pa.array(asof_txt, pa.string()))
                t = t.append_column(
                    "asof_rev", pa.array(asof_rev, mask=~has_asof))
            parts.append(t)
        tbl = pa.concat_tables(parts, promote_options="default")
        tbl = _stamp(tbl, self.partition, epoch)
        self.metrics["replicated_out"] += tbl.num_rows
        return tbl

    def _window_rows_table(self, rows: list, size: int) -> pa.Table:
        t = pa.table(
            {
                "clip_id": pa.array([r[0] for r in rows], pa.string()),
                "window_start": pa.array([r[1] for r in rows], pa.int64()),
                "window_end": pa.array([r[1] + size for r in rows], pa.int64()),
                "n_clips": pa.array([r[2] for r in rows], pa.int64()),
                "sum_dur_ms": pa.array([r[3] for r in rows], pa.int64()),
            }
        )
        sample_k = self.cfg.window_sample_k
        distinct_k = self.cfg.window_distinct_k
        idx = 4
        if sample_k and rows and len(rows[0]) > idx + 1:  # [hs, vs] cells
            qs = [_sample_quantiles(r[idx + 1]) for r in rows]
            t = t.append_column(
                "p50_dur_ms", pa.array([q[0] for q in qs], pa.int64())
            ).append_column(
                "p90_dur_ms", pa.array([q[1] for q in qs], pa.int64())
            ).append_column(
                "sample_n",
                pa.array([len(r[idx + 1]) for r in rows], pa.int64())
            )
            idx += 2
        if distinct_k and rows and len(rows[0]) > idx:    # [ch] KMV cells
            t = t.append_column(
                "distinct_content",
                pa.array([_kmv_estimate(r[idx], distinct_k, n_cap=r[2])
                          for r in rows], pa.int64()),
            )
            idx += 1
        mode_k = self.cfg.window_mode_k
        if mode_k and rows and len(rows[0]) > idx + 1:    # [mh, mc] cells
            modes = [_mode_of(r[idx], r[idx + 1]) for r in rows]
            t = t.append_column(
                "mode_h", pa.array([m[0] for m in modes], pa.uint64())
            ).append_column(
                "mode_n", pa.array([m[1] for m in modes], pa.int64())
            )
            idx += 2
        top_k = self.cfg.window_top_k
        if top_k and rows and len(rows[0]) > idx + 1:     # [tv, th] cells
            t = t.append_column(
                "top_durs",
                pa.array([r[idx].tolist() for r in rows],
                         pa.list_(pa.int64())),
            ).append_column(
                "top1_dur_ms",
                pa.array([int(r[idx][0]) if len(r[idx]) else 0
                          for r in rows], pa.int64()),
            )
        return t

    def _close_window_dict(
        self, target: dict, size: int, epoch: int, wm: int, hot_keys: frozenset,
        metric: str,
    ) -> tuple[pa.Table | None, list | None]:
        """Shared tumbling/sliding close: cold rows become this partition's
        staged output; hot rows are raw ``(key, window_start, *cell)``
        partials returned for the driver's merge."""
        closed_keys = [kw for kw in target if kw[1] + size <= wm]
        if not closed_keys:
            return None, None
        closed_keys.sort()
        cold, hot = [], []
        for k, w in closed_keys:
            row = (k, w, *target.pop((k, w)))
            (hot if k in hot_keys else cold).append(row)
        tbl = None
        if cold:
            tbl = _stamp(self._window_rows_table(cold, size), self.partition, epoch)
            self.metrics[metric] += tbl.num_rows
        return tbl, hot or None

    def _close_windows(self, epoch: int, wm: int, hot_keys: frozenset = frozenset()):
        if not self.win:
            return None, None
        return self._close_window_dict(
            self.win, self.cfg.window_size_ms, epoch, wm, hot_keys,
            "windows_closed"
        )

    def _close_sliding(self, epoch: int, wm: int, hot_keys: frozenset = frozenset()):
        if not self.swin:
            return None, None
        return self._close_window_dict(
            self.swin, self.cfg.sliding_size_ms, epoch, wm, hot_keys,
            "sliding_closed"
        )

    def _close_sessions(self, epoch: int, wm: int, hot_keys: frozenset = frozenset()):
        """Close cold sessions below the watermark; EXTRACT every hot-key
        session (open or closed — a salted key's intervals on different
        partitions may bridge, so closure is decided only after the driver
        merges them and the still-open remainder is adopted by the home
        partition)."""
        if not self.sessions:
            return None, None
        gap = self.cfg.session_gap_ms
        rows = []
        hot_rows: list[tuple] = []
        for k in sorted(self.sessions.keys()):
            lst = self.sessions[k]
            if k in hot_keys:
                hot_rows.extend((k, *s) for s in lst)
                del self.sessions[k]
                continue
            still_open = []
            for s in lst:
                # strict: a future row with ts == wm joins a session whose
                # last + gap == wm (gap boundary is inclusive in sessionize)
                if s[1] + gap < wm:
                    rows.append((k, *s))
                else:
                    still_open.append(s)
            if still_open:
                self.sessions[k] = still_open
            else:
                del self.sessions[k]
        tbl = None
        if rows:
            tbl = _session_rows_table(
                rows, self.cfg.session_sample_k)
            tbl = _stamp(tbl, self.partition, epoch)
            self.metrics["sessions_closed"] += tbl.num_rows
        return tbl, hot_rows or None

    def absorb(self, win=(), swin=(), sessions=()):
        """Fold other partitions' partials into this state: the ONE
        cross-partition merge, used by home-partition adoption of hot
        sessions, the driver's salted-partial merge and rescale.
        ``win``/``swin`` are ``(key, window_start, *cell)`` rows folded
        by ``_fold_window_cell``; ``sessions`` are ``(key, t0, t1, cnt,
        dur[, hs, vs])`` rows gap-merged by ``_merge_session_range``.
        Folds into the live dicts only: sessions go whole into every
        delta checkpoint, and no window caller saves a delta."""
        cfg = self.cfg
        ks = (cfg.window_sample_k, cfg.window_distinct_k, cfg.window_mode_k,
              cfg.window_top_k)
        for target, rows in ((self.win, win), (self.swin, swin)):
            for k, w, *cell in rows:
                _fold_window_cell(target, (k, w), cell, *ks)
        for k, t0, t1, cnt, dur, *sample in sessions:
            self._merge_session_range(k, t0, t1, cnt, dur,
                                      cfg.session_gap_ms, *sample)

    def buffered_updates_for(self, keys: frozenset) -> tuple:
        """Buffered (non-evicted) update records for ``keys`` — shipped to
        salt partitions when a key turns hot so already-buffered revisions
        can still join clips that will now be salted elsewhere."""
        ukeys, uts, urev, utext = self._consolidated_updates()
        if not len(ukeys):
            return None
        m = np.fromiter((k in keys for k in ukeys), bool, len(ukeys))
        if not m.any():
            return None
        return (ukeys[m], uts[m], urev[m], utext[m])

    def _emit_dlq(self, epoch: int) -> pa.Table | None:
        if not self.dlq_buf:
            return None
        parts = []
        for source, reason, t in self.dlq_buf:
            keep = [c for c in ("clip_id", "event_ts", "seq") if c in t.column_names]
            p = t.select(keep)
            err = None
            if "decode_error" in t.column_names:
                err = t["decode_error"]
            p = p.append_column("source", pa.array([source] * len(p), pa.string()))
            p = p.append_column(
                "reason",
                err if err is not None and reason == "decode_error"
                else pa.array([reason] * len(p), pa.string()),
            )
            parts.append(p)
        self.dlq_buf = []
        tbl = pa.concat_tables(parts, promote_options="default")
        tbl = _stamp(tbl, self.partition, epoch)
        self.metrics["dlq_out"] += tbl.num_rows
        return tbl

    # --------------------------------------------------------- view query
    def view_snapshot(self) -> pa.Table:
        from ..hashing import partition_for

        keys = sorted(self.view.keys())
        P = self.cfg.num_partitions
        if keys and P:
            homes = partition_for(np.asarray(keys, dtype=object), P)
            keys = [k for k, h in zip(keys, homes) if h == self.partition]
        return pa.table(
            {
                "clip_id": pa.array(keys, pa.string()),
                "ts_ms": pa.array([self.view[k][0] for k in keys], pa.int64()),
                "revision": pa.array([self.view[k][1] for k in keys], pa.int32()),
                "transcript": pa.array([self.view[k][2] for k in keys], pa.string()),
            }
        )

    # --------------------------------------------------------- checkpoint
    def save(self, directory: str, wm: int | None = None, full: bool = True):
        """Checkpoint: FULL snapshot, or an O(changes-since-last-save)
        DELTA (RocksDB-style; SURVEY §7.1).  Deltas record this epoch's
        raw additions plus the full (small) session/metric state and the
        close watermark; ``restore_chain`` replays full + deltas and
        prunes with the final watermark — exact, because every live-state
        removal (window close, clip emit, update evict) is a monotone
        predicate of the watermark."""
        from ..fs import fensure_dir, fput, fput_table

        fensure_dir(directory)
        if full:
            light = {
                "partition": self.partition,
                "win": self.win,
                "swin": self.swin,
                "sessions": dict(self.sessions),
                "upd_chunks": self.upd_chunks,
                "view": self.view,
                "funnel": self.funnel,
                "funnel_buf": self.funnel_buf,
                "max_ts": self.max_ts,
                "metrics": dict(self.metrics),
                "wm": wm,
            }
            # parquet first, pickle last: a checkpoint is visible (its
            # state.pkl exists) only once every object in it is complete.
            # Both are always written, so a checkpoint's storage ops never
            # depend on what its buffers hold
            fput_table(_concat_or_empty(self.clip_buf),
                       os.path.join(directory, "clip_buf.parquet"))
            fput(os.path.join(directory, "state.pkl"),
                 pickle.dumps(light, protocol=pickle.HIGHEST_PROTOCOL))
        else:
            delta = {
                "partition": self.partition,
                "win_delta": self._delta_win,
                "swin_delta": self._delta_swin,
                "upd_delta": self._delta_upd,
                "view_delta": self._delta_view,
                "funnel_delta": self._delta_funnel,
                "funnel_buf_delta": self._delta_funnel_buf,
                "sessions": dict(self.sessions),   # small: open sessions only
                "max_ts": self.max_ts,
                "metrics": dict(self.metrics),
                "wm": wm,
            }
            fput_table(_concat_or_empty(self._delta_clips),
                       os.path.join(directory, "clip_delta.parquet"))
            fput(os.path.join(directory, "delta.pkl"),
                 pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL))
        self._reset_deltas()

    def _load_full(self, directory: str):
        from ..fs import fget

        light = pickle.loads(fget(os.path.join(directory, "state.pkl")))
        self.win = light["win"]
        self.swin = light["swin"]
        self.sessions = defaultdict(list, light["sessions"])
        self.upd_chunks = light["upd_chunks"]
        self.view = light["view"]
        self.funnel = light["funnel"]
        self.funnel_buf = light["funnel_buf"]
        self.max_ts = light["max_ts"]
        self.metrics = defaultdict(int, light["metrics"])
        self.clip_buf = _read_clip_buffer(
            os.path.join(directory, "clip_buf.parquet"))
        self.dlq_buf = []
        return light["wm"]

    def _apply_delta(self, directory: str):
        from ..fs import fget

        d = pickle.loads(fget(os.path.join(directory, "delta.pkl")))
        sample_k = self.cfg.window_sample_k
        distinct_k = self.cfg.window_distinct_k
        mode_k = self.cfg.window_mode_k
        top_k = self.cfg.window_top_k
        for target, delta in ((self.win, d["win_delta"]), (self.swin, d["swin_delta"])):
            for kw, acc in delta.items():
                _fold_window_cell(target, kw, acc, sample_k, distinct_k,
                                  mode_k, top_k)
        self.upd_chunks.extend(d["upd_delta"])
        self.view.update(d["view_delta"])
        self.funnel.update(d["funnel_delta"])
        self.funnel_buf.extend(d["funnel_buf_delta"])
        self.sessions = defaultdict(list, d["sessions"])
        self.max_ts = d["max_ts"]
        self.metrics = defaultdict(int, d["metrics"])
        self.clip_buf.extend(_read_clip_buffer(
            os.path.join(directory, "clip_delta.parquet")))
        return d["wm"]

    def restore_chain(self, full_dir: str, delta_dirs: list[str]):
        """Restore = full snapshot + deltas, then prune by the final
        watermark (drops everything interim closes emitted/evicted)."""
        wm = self._load_full(full_dir)
        for d in delta_dirs:
            wm = self._apply_delta(d)
        if wm is not None and delta_dirs:
            self._prune_to_watermark(int(wm))
        self._reset_deltas()

    def _prune_to_watermark(self, wm: int):
        cfg = self.cfg
        if cfg.window_size_ms:
            size = cfg.window_size_ms
            self.win = {kw: v for kw, v in self.win.items() if kw[1] + size > wm}
        if cfg.sliding_size_ms:
            size = cfg.sliding_size_ms
            self.swin = {kw: v for kw, v in self.swin.items() if kw[1] + size > wm}
        W = cfg.join_window_ms
        kept = []
        for t in self.clip_buf:
            ts = ts_to_ms(t["event_ts"])
            m = ts + W >= wm if wm < WATERMARK_MAX else np.zeros(len(ts), bool)
            if m.any():
                kept.append(t.filter(pa.array(m)))
        self.clip_buf = kept
        horizon = wm - W if wm < WATERMARK_MAX else wm
        keys, tss, revs, texts = self._consolidated_updates()
        keep = _update_keep_mask(
            keys, tss, horizon, self.cfg.temporal_join)
        self.upd_chunks = (
            [(keys[keep], tss[keep], revs[keep], texts[keep])] if keep.any() else []
        )
        # funnel buffer rows with ts ≤ wm were consumed into the chain
        # state at their close (same monotone predicate)
        if self.funnel_buf:
            fk = np.concatenate([c[0] for c in self.funnel_buf])
            ft = np.concatenate([c[1] for c in self.funnel_buf])
            fd = np.concatenate([c[2] for c in self.funnel_buf])
            keep = ft > wm
            self.funnel_buf = [(fk[keep], ft[keep], fd[keep])] if keep.any() else []
        # sessions are exact (full copy in every delta): closed hot/cold
        # sessions were already removed at their close


def _read_clip_buffer(path: str) -> list:
    """A checkpoint's clip-buffer parquet as ``clip_buf`` chunks.  Every
    save writes it, but a checkpoint saved before that rule holds none
    when its buffer was empty; the parquet is written before the pickle
    that makes a checkpoint visible, so a missing one reads as empty
    (still one GET, so restore ops stay independent of the data)."""
    from ..fs import fget_table

    try:
        buf = fget_table(path)
    except FileNotFoundError:
        return []
    return [buf] if buf.num_rows else []


def _concat_or_empty(tables: list) -> pa.Table:
    """One table of ``tables`` rows; a column-less empty one for none."""
    return (pa.concat_tables(tables, promote_options="default") if tables
            else pa.table({}))


def _session_rows_table(rows: list, sample_k: int) -> pa.Table:
    """Closed-session rows → arrow table; with ``session_sample_k`` the
    interval's bottom-k duration sample becomes p50/p90/sample_n columns
    (same nearest-rank rule and column names as the window sample)."""
    tbl = pa.table(
        {
            "clip_id": pa.array([r[0] for r in rows], pa.string()),
            "session_start": pa.array([r[1] for r in rows], pa.int64()),
            "session_end": pa.array([r[2] for r in rows], pa.int64()),
            "n_clips": pa.array([r[3] for r in rows], pa.int64()),
            "sum_dur_ms": pa.array([r[4] for r in rows], pa.int64()),
        }
    )
    if sample_k and rows and len(rows[0]) > 6:
        qs = [_sample_quantiles(r[6]) for r in rows]
        tbl = tbl.append_column(
            "p50_dur_ms", pa.array([q[0] for q in qs], pa.int64())
        ).append_column(
            "p90_dur_ms", pa.array([q[1] for q in qs], pa.int64())
        ).append_column(
            "sample_n", pa.array([len(r[6]) for r in rows], pa.int64())
        )
    return tbl


def close_hot_partials(partials: list, cfg, epoch: int,
                       wm: int) -> tuple[dict, PartitionState]:
    """Merge salted hot-key close partials (the ``hot`` dicts that
    ``StateHost.close`` returns) in a scratch partition -1: ``absorb``
    folds them with the partitions' own rule, and the partitions' own
    window and session close at the same ``wm`` renders them, stamped
    partition=-1.  Returns ``({sink: table}, scratch)``; the scratch keeps
    the close ``metrics`` and the merged sessions still open, which go to
    each key's home partition.  No ``close_epoch``: it would emit the
    join, DLQ and view outputs of an empty partition."""
    st = PartitionState(-1, cfg)
    for h in partials:
        st.absorb(h.get("hot_windows", ()), h.get("hot_sliding", ()),
                  h.get("hot_sessions", ()))
    out = {}
    for sink, close in (("windows", st._close_windows),
                        ("sliding", st._close_sliding),
                        ("sessions", st._close_sessions)):
        if sink in st.outputs and (tbl := close(epoch, wm)[0]) is not None:
            out[sink] = tbl
    return out, st


def _stamp(tbl: pa.Table, partition: int, epoch: int) -> pa.Table:
    n = tbl.num_rows
    tbl = tbl.append_column("partition", pa.array([partition] * n, pa.int32()))
    return tbl.append_column("epoch", pa.array([epoch] * n, pa.int64()))


def _drop_heavy(t: pa.Table) -> pa.Table:
    heavy = [c for c in ("pcm", "bytes") if c in t.column_names]
    return t.drop_columns(heavy) if heavy else t


def _classify(kind: str, table: pa.Table, wm: int) -> dict:
    """Ack stats for a stashed ingest (no state mutation): row count,
    late count and the batch's max event time (the driver folds these
    into per-source watermark frontiers)."""
    n = table.num_rows
    if n == 0:
        return {"n": 0, "late": 0, "max_ts": -(1 << 62)}
    ts = ts_to_ms(table["event_ts"])
    if kind == "clips" and table.schema.get_field_index("decode_error") >= 0:
        bad = pc.is_valid(table["decode_error"]).to_numpy(zero_copy_only=False)
    else:
        bad = np.zeros(n, dtype=bool)
    late = int(((ts < wm) & ~bad).sum())
    return {"n": n, "late": late, "max_ts": int(ts.max())}


# ---------------------------------------------------------------- checkpoints
def scan_checkpoints(base: str) -> dict[int, bool]:
    """Every complete checkpoint under one actor's checkpoint dir as
    ``{epoch: is_full}`` (empty when the dir is absent).  A dir is a
    full snapshot once its ``state.pkl`` exists, a delta once its
    ``delta.pkl`` does (both are written last)."""
    from ..fs import fexists, flist

    out = {}
    for name in flist(base):
        if not name.startswith("e"):
            continue
        d = os.path.join(base, name)
        if fexists(os.path.join(d, "state.pkl")):
            out[int(name[1:])] = True
        elif fexists(os.path.join(d, "delta.pkl")):
            out[int(name[1:])] = False
    return out


def find_restore_chain(base: str, epoch: int,
                       scan: dict[int, bool] | None = None
                       ) -> tuple[str, list[str]] | None:
    """Locate the restore chain for ``epoch`` under one checkpoint dir
    (partition, dedup shard or near-dup shard): the newest FULL snapshot
    ≤ epoch plus every delta after it up to epoch.  ``None`` when no
    restorable chain exists (missing full, or a gap in the delta
    sequence).  ``scan`` reuses a ``scan_checkpoints(base)`` result."""
    if scan is None:
        scan = scan_checkpoints(base)
    fulls = [e for e, full in scan.items() if full and e <= epoch]
    if not fulls:
        return None
    f = max(fulls)
    if any(e not in scan for e in range(f + 1, epoch + 1)):
        return None  # broken chain
    return (os.path.join(base, f"e{f:06d}"),
            [os.path.join(base, f"e{e:06d}") for e in range(f + 1, epoch + 1)])


class CheckpointDir:
    """One state slot's checkpoint dir, ``<base>/e{epoch:06d}``.

    It remembers which epochs the dir holds and which of them are full
    snapshots — from the scan at restore and from its own saves — so GC
    after each save issues DELETEs only, no LIST/HEAD probes."""

    def __init__(self, base: str, keep: int):
        self.base = base
        self.keep = keep
        self.epochs: dict[int, bool] = {}

    def path(self, epoch: int) -> str:
        return os.path.join(self.base, f"e{epoch:06d}")

    def restore_chain(self, epoch: int) -> tuple[str, list[str]] | None:
        """``epoch``'s restore chain.  ``None`` when the dir holds no
        checkpoint at or below ``epoch`` (absent, or only epochs a crashed
        later attempt wrote); raises when it does but the chain is
        broken — resuming from empty state would silently lose rows."""
        self.epochs = scan_checkpoints(self.base)
        chain = find_restore_chain(self.base, epoch, self.epochs)
        if chain is None and any(e <= epoch for e in self.epochs):
            raise RuntimeError(
                f"{self.base} holds checkpoints at or below epoch {epoch} "
                "but no restorable full + delta chain for it"
            )
        return chain

    def saved(self, epoch: int, full: bool) -> None:
        """Record ``epoch``'s checkpoint, then delete every epoch older
        than the newest full snapshot ≤ min(epoch − keep + 1, epoch − 1):
        no restore can need them.  The ``epoch − 1`` floor keeps the
        chain of the last COMMITTED epoch — ``epoch`` itself is not
        committed until the main sink commit that follows."""
        from ..fs import resolve

        self.epochs[epoch] = full
        bound = min(epoch - self.keep + 1, epoch - 1)
        base = max((e for e, f in self.epochs.items() if f and e <= bound),
                   default=None)
        if base is None:
            return
        for e in sorted(e for e in self.epochs if e < base):
            fs_i, p = resolve(self.path(e))
            fs_i.delete_tree(p)
            del self.epochs[e]


# --------------------------------------------------------------------- hosts
SHARD_NUM_CPUS = 0.1   # CPU reservation of one dedup / near-dup shard slot


def slot_num_cpus(cfg, slot: tuple) -> float:
    """CPU reservation of one slot (partition or shard)."""
    return cfg.actor_num_cpus if slot[0] == "p" else SHARD_NUM_CPUS


def host_layout(cfg) -> list[list[tuple]]:
    """The run's slots (``("p"|"d"|"n", i)``: semantic state layout), each
    put on the least-loaded of min(#slots, max(1, ⌈Σ slot CPUs⌉)) hosts,
    or on a new host when that one would exceed max(1, largest slot
    CPUs): a node that could place any one slot can place any host.
    Hosts reserve the sum of their slots' CPUs, so the cluster-wide
    reservation is the one a process per slot would make."""
    slots = [("p", i) for i in range(cfg.num_partitions)]
    if cfg.dedup:
        slots += [("d", i) for i in range(cfg.num_dedup_shards)]
    if cfg.neardup:
        slots += [("n", i) for i in range(cfg.num_neardup_shards)]
    cpus = [slot_num_cpus(cfg, s) for s in slots]
    cap = max([1.0, *cpus]) + 1e-9
    n = min(len(slots), max(1, math.ceil(round(sum(cpus), 6))))
    hosts: list = [[] for _ in range(n)]
    load = [0.0] * n
    for slot, c in zip(slots, cpus):
        h = min(range(len(hosts)), key=load.__getitem__)
        if load[h] + c > cap:
            h = len(hosts)
            hosts.append([])
            load.append(0.0)
        hosts[h].append(slot)
        load[h] += c
    return hosts


def call_hosts(method: str, pairs: list, *args, wait: bool = True):
    """One ``method`` RPC per distinct host over ``[(host, item), …]``
    (``item`` is a slot or a slot-first tuple) → the per-item results, in
    ``pairs`` order; ``wait=False`` returns a function that waits."""
    import ray

    groups: dict = {}
    for i, (host, item) in enumerate(pairs):
        groups.setdefault(host, []).append((i, item))
    refs = [getattr(h, method).remote([it for _, it in g], *args)
            for h, g in groups.items()]

    def gather() -> list:
        out = [None] * len(pairs)
        for g, res in zip(groups.values(), ray.get(refs)):
            for (i, _), r in zip(g, res):
                out[i] = r
        return out

    return gather() if wait else gather


class StateHost:
    """One process serving many slots (Ray actor: ``StateHostActor()``),
    like the reference's consumer JVM serving all its assigned partitions
    (`StreamsManagerActor.scala:153-213`).  A slot is a partition, dedup
    shard or near-dup shard with its own ``CheckpointDir`` (``p*``/``d*``/
    ``n*``).  Every RPC takes a list of slots (or slot-first tuples) and
    returns one result per entry.  The storage-bound ones (close,
    checkpoint, restore) run the slots on a thread pool, each slot's state
    touched only by its own slot's work; close then stages every slot's
    sink fragments concurrently on the same pool.  The in-memory ones run
    the slots one after another."""

    def __init__(self, slots: list, cfg, sink_roots: dict, part_root: str,
                 ckpt_root: str):
        from ..table import Table
        from . import neardup_index as nd
        from .dedup_index import DedupIndexState

        # partition slot → its own sink handles: each Table memoizes its
        # schema on first stage, and slots close (and stage) concurrently
        self.sinks: dict = {}
        self.state: dict = {}
        self.ckpt: dict = {}
        # every slot's epoch-tagged stash (partition ingests, shard index
        # entries), applied when its epoch closes or resolves: epoch e+1's
        # ingest may overlap e's close/checkpoint/commit without
        # interleaving state mutations (every state op is
        # order-independent within an epoch)
        self.stash: dict = {slot: {} for slot in slots}
        for slot in slots:
            kind, i = slot
            if kind == "p":
                st = PartitionState(i, cfg)
                self.sinks[slot] = {name: Table(root)
                                    for name, root in sink_roots.items()}
            elif kind == "d":
                st = DedupIndexState(i, cfg.dedup_retention_ms)
            else:
                st = nd.NearDupIndexState(i, nd.neardup_threshold(cfg),
                                          cfg.neardup_retention_ms,
                                          nd.neardup_metric(cfg))
            self.state[slot] = st
            self.ckpt[slot] = CheckpointDir(
                os.path.join(part_root if kind == "p" else ckpt_root,
                             f"{kind}{i:04d}"),
                cfg.keep_checkpoints)
        # runs the slots of close/checkpoint/restore, and the fragment
        # PUTs of close once its slots are done (never nested), so it is
        # sized for one thread per partition slot and sink; threads start
        # only when that many jobs are in flight
        n_part = sum(kind == "p" for kind, _ in slots)
        self._pool = futures.ThreadPoolExecutor(
            max(len(self.state), n_part * len(sink_roots)))

    def _each(self, fn, slots: list) -> list:
        # overlaps the slots' storage round trips (on a 30 ms object
        # store, serial closes double the epoch time)
        return list((self._pool.map if len(slots) > 1 else map)(fn, slots))

    def _stashed(self, slot, epoch: int, pop: bool = True) -> list:
        """``slot``'s stash entries of every epoch ≤ ``epoch``, oldest
        epoch first; ``pop`` removes them."""
        stash = self.stash[slot]
        return [x for e in sorted(k for k in stash if k <= epoch)
                for x in (stash.pop(e) if pop else stash[e])]

    # ------------------------------------------------------- partitions
    def ingest(self, parts: list, wm: int, epoch: int = 0) -> list[dict]:
        """Stash ``(slot, kind, table)`` slices for ``close(epoch)``."""
        for slot, kind, table in parts:
            self.stash[slot].setdefault(epoch, []).append((kind, table, wm))
        return [_classify(kind, table, wm) for _, kind, table in parts]

    def close(self, slots: list, epoch: int, wm: int,
              hot_keys: list | None = None) -> list[dict]:
        """Close every slot, then stage all their sink fragments at once:
        their PUTs overlap across slots and sinks alike."""
        from ..table import stage_fragments

        hot = frozenset(hot_keys) if hot_keys else frozenset()
        closed = self._each(lambda s: self._close(s, epoch, wm, hot), slots)
        frags = iter(stage_fragments(
            [(self.sinks[slot][name], tbl, epoch, slot[1])
             for slot, (_, out) in zip(slots, closed) for name, tbl in out],
            self._pool))
        for res, out in closed:
            res["staged"] = {name: next(frags).to_json() for name, _ in out}
        return [res for res, _ in closed]

    def _close(self, slot, epoch: int, wm: int,
               hot: frozenset) -> tuple[dict, list]:
        """→ (the slot's close result, its ``(sink, table)`` outputs to
        stage)."""
        state = self.state[slot]
        apply = {"clips": state.ingest_clips, "funnel": state.ingest_funnel,
                 "updates": state.ingest_updates}
        for kind, table, wm_i in self._stashed(slot, epoch):
            apply[kind](table, wm_i)
        outputs = state.close_epoch(epoch, wm, hot)
        early = {k: outputs.pop(k, None) for k in (
            "early_touched", "early_touched_sliding")}
        out, hot_out = [], {}
        for name, tbl in outputs.items():
            if tbl is None:
                continue
            if name.startswith("hot_"):
                hot_out[name] = tbl
            elif name not in self.sinks[slot]:
                # the driver passes one root per sink the config enables:
                # an output without one is a config mismatch, never data
                # to drop
                raise RuntimeError(
                    f"partition {slot[1]} emitted a {name!r} output but its "
                    f"host has no {name!r} sink (sinks: "
                    f"{sorted(self.sinks[slot])})")
            elif tbl.num_rows:
                out.append((name, tbl))
        # per-epoch heavy-key counts (top few, floor-filtered) feed the
        # driver's sticky hot-set detection; reset for the next epoch
        kc = sorted(state.key_counts.items(), key=lambda kv: -kv[1])[:128]
        state.key_counts = {}
        return {
            "hot": hot_out,
            "key_counts": kc,
            "metrics": dict(state.metrics),
            "max_ts": state.max_ts,
            **early,
        }, out

    def render(self, slots: list, cells, sliding_cells=None,
               sessions: bool = False) -> list[tuple]:
        """Early-fire live partials of each partition → (windows rows,
        sliding rows, open-sessions table)."""
        def one(slot):
            st = self.state[slot]
            return (
                st.render_window_cells(cells, "windows")
                if cells is not None else (),
                st.render_window_cells(sliding_cells, "sliding")
                if sliding_cells is not None else (),
                st.render_session_cells() if sessions else None,
            )

        return [one(slot) for slot in slots]

    def adopt_sessions(self, parts: list) -> list[bool]:
        """Home-partition adoption of merged still-open hot sessions:
        ``(slot, [(key, *interval), ...])`` entries."""
        for slot, rows in parts:
            self.state[slot].absorb(sessions=rows)
        return [True] * len(parts)

    def buffered_updates_for(self, parts: list) -> list:
        return [self.state[slot].buffered_updates_for(frozenset(keys))
                for slot, keys in parts]

    # ----------------------------------------------------------- shards
    def submit(self, parts: list, epoch: int) -> list[int]:
        """Stash ``(slot, arrays, ts)`` index entries of a hash or
        fingerprint pass for ``resolve(epoch)``."""
        for slot, arrays, ts in parts:
            self.stash[slot].setdefault(epoch, []).append((*arrays, ts))
        return [len(arrays[0]) for _, arrays, _ in parts]

    def resolve(self, slots: list, epoch: int, wm=None) -> list:
        """Hand each shard its stash entries ≤ ``epoch``: a dedup shard
        folds them into its seen set; a near-dup shard only probes them,
        so they stay stashed until ``commit``."""
        return [self.state[s].resolve(
            epoch, self._stashed(s, epoch, pop=s[0] == "d"), wm)
            for s in slots]

    def commit(self, slots: list, epoch: int, kept_seqs) -> list[int]:
        """Near-dup shards: fold the kept rows' entries into the index."""
        return [self.state[s].commit(epoch, self._stashed(s, epoch),
                                     kept_seqs) for s in slots]

    # -------------------------------------------------------- all slots
    def checkpoint(self, slots: list, epoch: int, wm: int | None = None,
                   full: bool = True) -> list[str]:
        """Save each slot, then GC that slot's own expired epochs."""
        def one(slot):
            d = self.ckpt[slot].path(epoch)
            kw = {"wm": wm} if slot[0] == "p" else {}
            self.state[slot].save(d, full=full, **kw)
            self.ckpt[slot].saved(epoch, full)
            return d

        return self._each(one, slots)

    def restore(self, slots: list, epoch: int) -> list[bool]:
        """Restore each slot to ``epoch``: the newest full snapshot ≤ epoch
        plus every delta after it.  Un-closed stashes are dropped (they
        replay from source).  A partition without a chain raises, since a
        committed epoch always has one; a shard whose dir holds nothing at
        or below ``epoch`` (the tier was just enabled) starts empty and
        returns False."""
        def one(slot):
            st = self.state[slot]
            self.stash[slot].clear()
            chain = self.ckpt[slot].restore_chain(epoch)
            if chain is None:
                if slot[0] == "p":
                    raise RuntimeError(
                        f"partition {slot[1]}: no checkpoint chain for "
                        f"epoch {epoch} under {self.ckpt[slot].base}")
                return False
            st.restore_chain(*chain)
            return True

        return self._each(one, slots)

    def node_id(self) -> str:
        """Which cluster node this host landed on (multi-node placement
        introspection for the dress-rehearsal test)."""
        import ray

        return ray.get_runtime_context().get_node_id()


_HOST_CLS = None


def StateHostActor():
    """Lazy Ray actor class of ``StateHost`` (keeps module import
    Ray-free)."""
    global _HOST_CLS
    if _HOST_CLS is None:
        import ray

        _HOST_CLS = ray.remote(StateHost)
    return _HOST_CLS
