"""The flagship receive→transform→transport replication pipeline.

Reference lifecycle parity (SURVEY.md §3): micro-batched ingestion of two
keyed streams (clips, transcript updates) → vectorized decode/validation →
hash-partition routing to per-partition state actors (windows, symmetric
join, compacted view) → watermark-driven close → idempotent exactly-once
commit into versioned sink tables, with per-partition lineage, metrics and
checkpoint/resume — the Ray-Data-native rebuild of:

- v2 ingest flow `ingest/.../services/IngestionFlowV2.scala:94-141`
  (validate+convert) → here ``AudioDecoder`` inside ``map_batches``;
- transport ack semantics `core/.../transport/Transport.scala:51-83`
  → here 2PC epoch commit (`hydra_ray.table.lancelite`);
- the consumer-groups replication job's checkpoint/seek/resume design
  `.../util/ConsumerGroupsOffsetConsumer.scala:47-74, 219-248`
  → here per-epoch lineage in the ``_lineage/`` side log + state
  checkpoints.

Epoch protocol (all steps deterministic given committed state):
  1. fix the epoch's source slice (clips/updates version ranges) once,
     when the epoch is first launched — pre-launch included; a version
     that lands later goes to the next epoch.  The lineage records the
     slice, and no epoch is ever launched twice in one run.
  2. ingest tasks: decode clips / project updates, route per-partition
     slices to the state host that runs the partition, one RPC per host
     per batch (acks carry max event_ts per partition)
  3. advance watermark  wm = min over sources(max_ts) − allowed_lateness
  4. close_epoch(epoch, wm) on every partition → staged sink fragments
  5. every partition and shard checkpoints its state for this epoch
  6. commit aux sinks and the lineage entry, then the main sink (single
     source of truth) with {source versions, watermark, hot set}; replay
     of any step is idempotent
Crash at ANY point: resume restores the checkpoint of the main sink's
last committed epoch and replays — output rows are exactly those of a
single clean run (FIXTURES.md F4 exactly-once oracle).
"""

from __future__ import annotations

import json
import os
from concurrent import futures
from dataclasses import dataclass, replace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import fs as _fs
from ..hashing import partition_for
from ..stages.decode import AudioDecoder
from ..stages.skew import hot_mask, salt_partitions, salted_partition_for
from ..state.store import (
    WATERMARK_MAX,
    PartitionState,
    StateHostActor,
    call_hosts,
    close_hot_partials,
    host_layout,
    sink_names,
    slot_num_cpus,
)
from ..table import Table
from ..table.lancelite import FragmentMeta, read_threads, stage_fragments

__all__ = ["ReplicateConfig", "ReplicatePipeline", "CrashPoint", "sink_names"]


class CrashPoint(RuntimeError):
    """Injected failure for exactly-once tests."""


@dataclass
class ReplicateConfig:
    num_partitions: int = 8
    join_window_ms: int = 60_000
    allowed_lateness_ms: int = 30_000
    window_size_ms: int = 10_000
    session_gap_ms: int = 0                  # 0 = session windows off
    sliding_size_ms: int = 0                 # 0 = sliding windows off
    sliding_slide_ms: int = 0
    max_versions_per_epoch: int = 1
    batch_size: int = 512
    actor_num_cpus: float = 0.5
    keep_checkpoints: int = 2
    record_size_limit: int = 0
    # incremental (speculative) window emission: each epoch upserts the
    # CURRENT cross-partition totals of every tumbling cell touched that
    # epoch into the windows_live sink (provisional rows; the windows
    # sink's close-time rows stay the exact finals — read via
    # read_windows_live).  Off by default: the live view costs one extra
    # actor round-trip + one staged fragment per epoch.
    early_fire: bool = False
    # hot-key salting (north-rule skew handling): keys whose cumulative
    # share of clip rows reaches the threshold are STICKY-hot — their
    # clips spread over n_salts salted partitions, their updates fan out
    # to the salt set, and window/session state merges at close
    # (stages/skew.py strategy, wired end to end).  0 disables.
    hot_key_threshold: float = 0.01
    n_salts: int = 4
    # full state snapshot every K epochs; the epochs between checkpoint
    # O(delta) only (restore = full + delta chain, store.py)
    full_checkpoint_every: int = 4
    # cross-epoch exact content dedup (state/dedup_index.py): a clip
    # whose content hash was already ingested in ANY earlier epoch (or a
    # non-min-seq copy within this epoch) is dropped before decode.
    dedup: bool = False
    num_dedup_shards: int = 4                # semantic, like num_partitions
    dedup_cols: tuple = ("bytes",)
    # 0 = dedup against the WHOLE corpus history (state grows with
    # distinct content; scale by sharding wider).  >0 bounds the seen-set
    # for endless streams: entries first seen below watermark − retention
    # evict, and identical content re-admits afterwards — eviction rides
    # the committed watermark sequence, so replay is identical.
    dedup_retention_ms: int = 0
    # cross-epoch NEAR-dup (state/neardup_index.py): a clip whose 64-bit
    # perceptual fingerprint is within neardup_max_hamming of ANY
    # retained clip (any earlier epoch, or a smaller-seq keeper of this
    # epoch) is dropped before routing.  Composes with cfg.dedup: the
    # drop sets union (byte-identical copies resolve identically in both
    # tiers, so the union is consistent).
    neardup: bool = False
    num_neardup_shards: int = 4              # semantic, like num_partitions
    neardup_bands: int = 4                   # 16-bit bands of the 64-bit fp
    neardup_max_hamming: int = 3             # must stay < neardup_bands
    # which 64-bit signature feeds the index: "audio_fp" (decode +
    # perceptual fingerprint), "simhash" (transcript SimHash, no decode)
    # or "minhash" (banded transcript minhash — fuzzier token-level
    # matching; the index probes under the LANE metric and
    # neardup_max_hamming is ignored in favor of min_band_matches)
    neardup_signature: str = "audio_fp"
    # minhash mode: a row near-dups a keeper iff ≥ this many of the
    # neardup_bands 16-bit minhash lanes agree (P(lane) = J^rows_per_band)
    neardup_min_band_matches: int = 2
    # like dedup_retention_ms, for the near-dup index (0 = keep forever)
    neardup_retention_ms: int = 0
    # streaming per-window quantiles: keep a deterministic bottom-k-by-
    # hash(seq) sample of dur_ms per (clip_id, window) in the window
    # state and emit p50_dur_ms/p90_dur_ms/sample_n at close.  The
    # sample is a mergeable monoid (union → k smallest hashes, dedup by
    # hash), so it is salting/routing-independent, delta-checkpointable
    # and N→M-rescale-safe like the count/sum partials; k ≥ the window's
    # row count makes the quantiles EXACT.  0 disables (schema unchanged).
    window_sample_k: int = 0
    # streaming per-window APPROXIMATE DISTINCT-CONTENT count: each
    # (clip_id, window) cell keeps a KMV sketch (the k smallest DISTINCT
    # hash64 values over ``dedup_cols`` content, hashed in the routing
    # task) and close emits ``distinct_content`` — exact while a cell
    # has < k distinct payloads, (k−1)/v_k beyond.  The sketch is a
    # dedup-idempotent union monoid like window_sample_k, so it is
    # salting/routing-independent, delta-checkpoint- and rescale-safe.
    # Composes with the dedup tier (tier-dropped duplicates never reach
    # the window, so counts are over SURVIVING rows).  0 disables.
    window_distinct_k: int = 0
    # streaming per-window MODE (most-frequent content): each
    # (clip_id, window) cell keeps the k smallest DISTINCT content
    # hashes WITH their exact counts (bottom-k-with-counts — counts are
    # additive partials, hash membership is the KMV rule, so the sample
    # is an order-independent monoid: salting/routing-independent,
    # delta-checkpoint- and rescale-safe) and close emits ``mode_h``
    # (content hash of the most frequent variant, count ties → smallest
    # hash) + ``mode_n`` (its EXACT count).  Exact mode whenever the
    # cell's distinct content ≤ k — the same regime where
    # window_distinct_k is exact; beyond that it is the mode of a
    # deterministic uniform sample of the distinct contents.  Flags a
    # near-duplicate storm (one variant dominating a window) without
    # buffering rows.  0 disables (schema unchanged).
    window_mode_k: int = 0
    # streaming per-window EXACT TOP-K RECORDS by duration: each
    # (clip_id, window) cell keeps the k LARGEST dur_ms with their
    # record hashes (hash64(seq); union dedups by hash, keeps the k
    # largest — an exact order-independent monoid: a record in the
    # union's top-k has < k larger records in every partial's subset
    # view, so each partial kept it) and close emits ``top_durs``
    # (values, descending) + ``top1_dur_ms``.  Salting/routing-
    # independent, delta-checkpoint- and rescale-safe.  0 disables
    # (schema unchanged).
    window_top_k: int = 0
    # streaming per-SESSION duration quantiles: each open session
    # interval additionally carries a deterministic bottom-k-by-
    # hash(seq) sample of dur_ms (the window_sample_k monoid), unioned
    # through every gap-merge — batch pre-merge, bridging merges, the
    # driver's cross-salt merge, home adoption and N→M rescale — and
    # closed sessions emit p50_dur_ms/p90_dur_ms/sample_n.  k ≥ the
    # session's row count makes the quantiles EXACT.  0 disables
    # (schema unchanged).
    session_sample_k: int = 0
    # streaming TEMPORAL (as-of) join: every emitted clip row
    # additionally carries the transcript version that was VALID AT the
    # clip's own event time — the latest update with
    # u.ts ≤ c.ts (ties by revision), i.e. Flink's temporal-table join
    # against the versioned view, vs the forward-looking
    # [c.ts, c.ts + W) enrich that `transcript` reports.  Emits
    # ``asof_transcript`` (null when no version existed yet, or the
    # valid version was a tombstone) and ``asof_rev`` (null only when no
    # version existed).  Finality needs no extra buffering: a clip emits
    # once c.ts + W < wm, and any update admitted later has
    # u.ts ≥ wm > c.ts.  Eviction keeps the LATEST update per key below
    # the horizon (it stays the as-of version for every future clip
    # until a newer one passes the horizon) — still a monotone
    # watermark predicate, so delta-checkpoint replay stays exact.
    temporal_join: bool = False
    # CEP funnel over the combined stream (clip lifecycle patterns): an
    # ordered tuple of event kinds from {"clip", "update", "delete"}
    # ("clip" = clip arrival, "update" = non-tombstone transcript update,
    # "delete" = tombstone).  A key emits ONE row into the `funnels` sink
    # at the epoch where its earliest-completion chain completes (within
    # funnel_within_ms of the first step when set).  () disables.
    funnel_steps: tuple = ()
    funnel_within_ms: int = 0
    # CDC changelog of the compacted transcript view (the reference's
    # compacted-topic semantics made observable): every epoch, each key
    # whose last-write-wins view entry changed emits ONE row into the
    # `changelog` sink — op ∈ {insert, update, delete} (delete = the
    # winning record is a tombstone), stamped with the winning (ts, rev).
    # Emitted by the key's HOME partition only (salting fan-out safe) and
    # exactly-once through the same staged-fragment 2PC as every sink.
    changelog: bool = False
    # per-clip audio features (rms/peak/zcr/clip_ratio/dom_freq_hz)
    # computed inside the decode task over the audio the payload stores
    # (the TRANSFORMED pcm when payload_transform is set) and carried on
    # the payload fragment — read_replicated surfaces them on every
    # emitted row with zero extra object-store traffic
    audio_features: bool = False
    # pooled log-mel filterbank features (fbank_mean/fbank_std 16-band
    # fixed-size lists + n_frames) on the payload fragments — the
    # streaming form of `stages/audio_features.audio_fbank`; composes
    # with audio_features and describes the same stored audio
    audio_fbank: bool = False
    # payload transform hook (§2.11 extension surface): a DETERMINISTIC
    # callable applied to each staged heavy slice (columns seq, pcm,
    # sr_hz, n_samples) before it is written — curation at ingest
    # (e.g. `trim_payload` = silence trimming).  Must be a pure function
    # of the rows (replay idempotence), keep seq/sr_hz and return
    # n_samples equal to each row's pcm length (staging raises
    # otherwise).  The output pcm stages encoded (`encode_pcm`: pcm16
    # where that is bit-exact, else f32); extra columns ride along.
    payload_transform: object | None = None
    # payload FILTER hook (curation-at-ingest gating): a DETERMINISTIC
    # callable over the decoded clip batch returning a boolean keep mask
    # (True = keep).  Runs in the parallel routing tasks (PCM hot in
    # cache) on decode-ok rows only; dropped clips route to the DLQ with
    # reason "filtered" and count in ``clips_filtered`` — they never
    # enter windows/sessions/join state and their payload is never
    # staged.  Must be a pure function of the rows (replay idempotence).
    # e.g. ``audio_loudness.loudness_gate(min_lufs=-45)``.
    payload_filter: object | None = None
    # maintenance: bin-pack each sink's small fragments every K committed
    # epochs (0 = off); content/time-travel preserving (Table.compact)
    compact_sinks_every: int = 0
    # maintenance: bound each sink's manifest log on an endless stream —
    # keep only the newest K manifest versions (0 = keep all; shortens
    # time travel to the kept window, Table.truncate_history).  Runs on
    # the compact_sinks_every cadence when compaction is on, else every
    # 8 epochs.
    keep_history_versions: int = 0
    # test hooks: raise CrashPoint at a given (epoch, point)
    crash_at: tuple | None = None            # e.g. (1, "after_prepare")


HEAVY_COLS = ("pcm", "n_samples", "bytes")


class _Router:
    """The ingest task's route kernel: (decode →) partition slices →
    heavy payload STAGED STRAIGHT TO THE SINK, light rows → state hosts.

    The heavy payload takes the shortest possible path — read block →
    decode in-task → staged parquet fragment per (epoch, partition) —
    and never transits the object store again, never sits in actor state,
    never re-writes at checkpoint.  Every payload fragment has one
    layout: encoded audio (``seq, bytes, codec, sr_hz, n_samples``) plus
    the config's enrichment columns (``_payload_slice``).  Only the
    light columns (ids, timestamps, transcript, error) go to the
    partitions' state hosts (``handles[p]`` runs partition p; one ingest
    RPC per host per batch), which manage windows/join/late semantics
    and later emit light
    "finalize" rows; the logical replicated output is payload ⨝ finalize
    on ``seq`` (see ``read_replicated``).  This is the 100 TB-correct
    layout: state stores hold megabytes while the data plane streams
    terabytes.

    Payload fragments contain exactly the rows that will eventually be
    emitted (decode-ok and not late vs ``wm`` — the same deterministic
    predicate the actor applies), so the 2PC commit of an epoch covers
    payloads and state outputs together and replay stays idempotent.

    Waiting for the acks back-pressures the task until the hosts have
    absorbed the slices — the bounded alternative to the reference's
    unbounded producer queue (`KafkaClientAlgebra.scala:244`).

    Payload staging is BYTE-BOUNDED, not per-batch: the router
    accumulates each partition's heavy slices and flushes a fragment when
    ``flush_bytes`` accumulate (or at task end via ``flush()``) — small
    batches then produce few well-sized files instead of a tiny parquet
    file per (batch, partition), which matters both here (writer setup
    per file) and on object storage at scale (small-file explosion).
    """

    def __init__(
        self,
        handles,
        kind: str,
        wm: int,
        key_col: str,
        P: int,
        decoder=None,
        payload_root: str | None = None,
        epoch: int = 0,
        hot_keys: frozenset = frozenset(),
        n_salts: int = 4,
        flush_bytes: int = 64 << 20,
        drop: np.ndarray | None = None,
        funnel_on: bool = False,
        features: bool = False,
        fbank: bool = False,
        payload_transform=None,
        payload_filter=None,
        distinct_k: int = 0,
        content_cols: tuple = ("bytes",),
    ):
        self.distinct_k = distinct_k
        self.content_cols = content_cols
        self.funnel_on = funnel_on
        self.features = features
        self.fbank = fbank
        self.payload_transform = payload_transform
        self.payload_filter = payload_filter
        self.handles = handles
        self.kind = kind
        self.wm = wm
        self.key_col = key_col
        self.P = P
        self.decoder = decoder
        self.payload_root = payload_root
        self.epoch = epoch
        self.hot_keys = hot_keys
        self.n_salts = n_salts
        self.flush_bytes = flush_bytes
        self.drop = drop                     # sorted seqs to drop (dedup)
        self._pending: dict[int, list[pa.Table]] = {}
        self._pbytes = 0
        # frag json strings from mid-stream byte-threshold flushes; the
        # ingest task drains these at the end
        self.frag_jsons: list[str] = []

    def flush(self) -> dict[int, str]:
        """Stage all accumulated payload slices → {partition: frag json}."""
        if not self._pending:
            return {}
        payload_tbl = Table(self.payload_root)
        parts = sorted(self._pending)
        jobs = []
        for p in parts:
            tables = self._pending[p]
            heavy = (
                tables[0]
                if len(tables) == 1
                else pa.concat_tables(tables, promote_options="default")
            )
            # encoded audio: compression would scan it for nothing
            jobs.append((payload_tbl, heavy, self.epoch, p, None))
        # one fragment per partition, their PUTs in flight together
        frags = {p: json.dumps(frag.to_json())
                 for p, frag in zip(parts, stage_fragments(jobs))}
        self._pending = {}
        self._pbytes = 0
        return frags

    def __call__(self, batch: pa.Table) -> list[dict]:
        handles, kind, wm, key_col, P = (
            self.handles, self.kind, self.wm, self.key_col, self.P,
        )
        decoder, payload_root = self.decoder, self.payload_root
        epoch = self.epoch
        hot_keys, n_salts = self.hot_keys, self.n_salts
        from ..stages.windows import ts_to_ms as _ts_to_ms

        if batch.num_rows == 0:
            return []
        if self.drop is not None and len(self.drop):
            # duplicate content (resolved by the dedup tier BEFORE this
            # pass) drops here — ahead of the decode it would have cost
            from ..state.dedup_index import in_sorted

            dup = in_sorted(self.drop, batch["seq"].to_numpy())
            if dup.any():
                batch = batch.filter(pa.array(~dup))
                if batch.num_rows == 0:
                    return []
        ch = None
        if self.distinct_k and kind == "clips":
            # content hash for the window KMV distinct sketch — computed
            # HERE (parallel route tasks, raw bytes still present), never
            # in the serial state actors; rides as one light uint64 col
            from ..state.dedup_index import content_hash_of

            ch = content_hash_of(batch, self.content_cols)
        if decoder is not None:
            batch = decoder(batch)
        filt = None
        if self.payload_filter is not None and kind == "clips":
            # content gate on decode-ok rows only (bad rows DLQ as
            # decode errors regardless; their pcm may be empty).  The
            # mask rides as one light bool column; the state actor DLQs
            # marked rows with reason "filtered" and never buffers them.
            okd = pc.is_null(batch["decode_error"]).to_numpy(
                zero_copy_only=False)
            m = np.ones(batch.num_rows, bool)
            oki = np.flatnonzero(okd)
            if len(oki):
                sub = batch.take(pa.array(oki))
                m[oki] = np.asarray(self.payload_filter(sub), dtype=bool)
            filt = okd & ~m
            batch = batch.append_column("__filtered", pa.array(filt))
        keys = batch[key_col]
        if kind == "clips" and hot_keys:
            # hot clips spread over n_salts salted partitions (salt from
            # the deterministic per-row seq, so replay routes identically)
            parts = salted_partition_for(
                keys, hot_keys, P, n_salts,
                batch["seq"].to_numpy(zero_copy_only=False),
            )
        else:
            parts = partition_for(keys, P)
        if kind == "clips":
            # the same deterministic will-emit predicate the state host
            # applies: it gates the funnel fan-out and payload staging
            ok = pc.is_null(batch["decode_error"]).to_numpy(
                zero_copy_only=False)
            ok &= _ts_to_ms(batch["event_ts"]) >= wm
            if filt is not None:
                ok &= ~filt
        # (host, (slot, kind, table)) slices for this batch's ingest RPCs
        items = []
        if kind == "clips" and self.funnel_on and hot_keys:
            # funnel state lives on the HOME partition only (per-key
            # sequential chain — never salted); fan the light funnel rows
            # of salted-away clips that will emit home
            home = partition_for(keys, P)
            diff = np.flatnonzero(ok & (home != parts))
            if len(diff):
                mini = batch.select(["clip_id", "event_ts"]).take(pa.array(diff))
                hp = home[diff]
                for p in np.unique(hp):
                    sub = mini.take(pa.array(np.flatnonzero(hp == p)))
                    items.append(
                        (handles[int(p)], (("p", int(p)), "funnel", sub)))
        n_funnel = len(items)
        replica_rows: dict = {}  # partition -> replica row indices
        if kind == "updates" and hot_keys:
            # fan hot-key updates out to every salt partition of the key
            # (the home copy stays primary; replicas feed join/view state
            # but are excluded from DLQ/metrics accounting)
            keys_np = np.asarray(keys.to_numpy(zero_copy_only=False), dtype=object)
            hrows = np.flatnonzero(hot_mask(keys_np, hot_keys))
            if len(hrows):
                rr = np.repeat(hrows, n_salts)
                rp = salt_partitions(keys_np[hrows], P, n_salts).reshape(-1)
                keep = rp != parts[rr]         # home copy is the primary
                combo = np.unique(rr[keep].astype(np.int64) * P + rp[keep])
                rr, rp = combo // P, combo % P
                replica_rows = {int(p): rr[rp == p] for p in np.unique(rp)}
        light = batch.drop_columns([c for c in HEAVY_COLS if c in batch.column_names])
        if ch is not None:
            light = light.append_column("content_h", pa.array(ch, pa.uint64()))
        all_parts = np.union1d(
            np.unique(parts), np.array(sorted(replica_rows), dtype=parts.dtype)
        )
        for p in all_parts:
            prim = np.flatnonzero(parts == p)
            reps = replica_rows.get(int(p))
            if reps is not None and len(reps):
                sub = light.take(pa.array(np.concatenate([prim, reps])))
                flags = np.zeros(len(prim) + len(reps), dtype=bool)
                flags[len(prim):] = True
                sub = sub.append_column("__replica", pa.array(flags))
            else:
                sub = light.take(pa.array(prim))
            items.append((handles[p], (("p", int(p)), kind, sub)))
        # epoch tag is REQUIRED: hosts stash and apply at close(epoch), so
        # pipelined e+1 ingests can never leak into close(e) state or its
        # checkpoint (which would double-ingest after a crash)
        acked = call_hosts("ingest", items, wm, epoch, wait=False)
        if payload_root is not None:
            for p in all_parts:
                keep = np.flatnonzero(ok & (parts == p))
                if len(keep):
                    heavy = self._payload_slice(batch, keep)
                    self._pending.setdefault(int(p), []).append(heavy)
                    self._pbytes += heavy.nbytes
        if self._pbytes >= self.flush_bytes:
            self.frag_jsons.extend(self.flush().values())
        return [
            {"source": kind, "partition": int(p), "n": a["n"],
             "late": a["late"], "max_ts": a["max_ts"]}
            for p, a in zip(all_parts, acked()[n_funnel:])
        ]

    def _payload_slice(self, batch: pa.Table, rows: np.ndarray) -> pa.Table:
        """One partition's payload rows: ``seq, bytes, codec, sr_hz,
        n_samples`` plus the enrichment columns (the transform's own and
        the audio features, computed over the audio that is stored).

        Without a transform the source's encoded bytes stage as they
        arrived (1–4 B/sample); read_replicated re-decodes them
        bit-identically through the same kernels.  A transform's output
        ``pcm`` is encoded with ``encode_pcm``."""
        xform = self.payload_transform
        if xform is not None:
            cols = ["seq", "pcm", "sr_hz", "n_samples"]
        else:
            cols = ["seq", "bytes", "codec", "sr_hz", "n_samples"] + (
                ["pcm"] if self.features or self.fbank else [])
        heavy = batch.select(cols).take(pa.array(rows))
        if xform is not None:
            heavy = xform(heavy)
            if pc.any(pc.not_equal(pc.list_value_length(heavy["pcm"]),
                                   heavy["n_samples"].fill_null(-1))).as_py():
                raise ValueError(
                    "payload_transform returned rows whose n_samples "
                    "differs from their pcm length")
        if self.features:
            from ..stages.audio_features import audio_features

            heavy = audio_features(heavy)
        if self.fbank:
            from ..stages.audio_features import audio_fbank

            heavy = audio_fbank(heavy)
        if xform is None:
            return (heavy.drop_columns(["pcm"])
                    if "pcm" in heavy.column_names else heavy)
        raw, codec = encode_pcm(heavy["pcm"], batch.schema.field("bytes").type)
        i = heavy.schema.get_field_index("pcm")
        return heavy.set_column(i, "bytes", raw).add_column(i + 1, "codec",
                                                            codec)


def encode_pcm(pcm, bytes_type=pa.large_binary()) -> tuple[pa.Array, pa.Array]:
    """Decoded ``pcm`` rows → ``(bytes, codec)`` that ``decode_batch``
    reads back bit-identically.  A row is ``pcm16`` (its ``rint(x·32767)``
    int16 samples, 2 B/sample) when every sample reconstructs exactly
    under decode's ``int16·float32(1/32767)``, the row is non-empty and
    holds no ``-0.0`` (int16 0 decodes to +0.0); otherwise raw ``f32``.
    Null rows stay null."""
    if isinstance(pcm, pa.ChunkedArray):
        pcm = pcm.combine_chunks()
    offs = pcm.offsets.to_numpy(zero_copy_only=False)
    # .values, not .flatten(): aligned with the offsets buffer
    flat = np.asarray(pcm.values, dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.rint(flat * np.float32(32767.0))
        exact = ((np.abs(q) <= np.float32(32767.0))
                 & (q * np.float32(1.0 / 32767.0) == flat)
                 & ~(np.signbit(flat) & (flat == 0)))
    n_off = np.zeros(len(flat) + 1, np.int64)
    np.cumsum(~exact, out=n_off[1:])          # off-grid samples before i
    raw, codec = [], []
    for i, v in enumerate(pcm.is_valid().to_numpy(zero_copy_only=False)):
        s, e = offs[i], offs[i + 1]
        if not v:
            raw.append(None)
            codec.append(None)
        elif e > s and n_off[e] == n_off[s]:
            raw.append(q[s:e].astype("<i2").tobytes())
            codec.append("pcm16")
        else:
            raw.append(flat[s:e].astype("<f4").tobytes())
            codec.append("f32")
    return pa.array(raw, bytes_type), pa.array(codec, pa.string())


_INGEST_TASK = None


def _ingest_task_fn():
    """Raw-task ingest unit (lazy ``ray.remote`` wrapper).

    One task per input fragment file: read → sub-batch loop over the
    route kernel → plain-dict acks.  ``max_retries=0``: the epoch-level
    retry (driver resume) owns failure handling, so a task can never
    double-ingest into actor state.
    """
    global _INGEST_TASK
    if _INGEST_TASK is None:
        import ray

        @ray.remote(max_retries=0)
        def ingest_fragment(paths, route, batch_size):
            import pyarrow.parquet as pq

            out = []
            for path in paths:
                t = pq.read_table(path)
                for lo in range(0, t.num_rows, batch_size):
                    out.extend(
                        route(t.slice(lo, min(batch_size, t.num_rows - lo))))
            # final payload flush: one fragment per partition per TASK
            # (plus any byte-threshold mid-flushes), not per batch
            frags = list(route.frag_jsons) + list(route.flush().values())
            return {"acks": out, "frags": frags}

        _INGEST_TASK = ingest_fragment
    return _INGEST_TASK


def trim_payload(heavy: pa.Table) -> pa.Table:
    """Shipped ``payload_transform``: trim leading/trailing silence from
    each staged clip (frame-RMS span, `audio_curation.trim_silence`),
    updating ``n_samples`` and appending ``trimmed_ms`` — curation at
    ingest.  Deterministic (pure function of the rows), so epoch replay
    re-produces identical fragments."""
    import pyarrow.compute as pc2

    from ..stages.audio_curation import trim_silence

    out = trim_silence(heavy)
    i = out.column_names.index("n_samples")
    return out.set_column(
        i, "n_samples",
        pc2.cast(pc2.list_value_length(out["pcm"]), pa.int32()),
    )


def read_replicated(out_root: str, with_payload: bool = True) -> pa.Table:
    """The logical replicated table: light finalize rows ⨝ payload on seq.

    Only rows the state tier has emitted (finalized transcript, deleted
    flag) are visible; a payload row without a finalize row is in-flight
    and not visible.  Conversely a finalize row whose payload fragment is
    not yet committed (reading an output mid-run, between an epoch's
    close and its payload flush) surfaces with NULL heavy columns —
    streaming visibility semantics, never an error.

    The two tables are read concurrently, each fragment on its own pool
    thread.  Every payload fragment holds encoded audio (``bytes`` +
    ``codec``: the source's own, or ``pcm16``/``f32`` for a transformed
    payload), decoded in one pass: one float32 buffer sized from the
    staged ``n_samples`` holds the whole ``pcm`` column in finalize-row
    order, and each payload row window decodes on a pool thread straight
    into its rows' spans — no copy of the encoded bytes, none of the
    decoded samples.
    """
    light_t = Table(os.path.join(out_root, "replicated"))
    if not with_payload:
        return light_t.to_arrow()
    with futures.ThreadPoolExecutor(1) as pool:
        light_f = pool.submit(light_t.to_arrow)
        payload = Table(os.path.join(out_root, "payload")).to_arrow()
        light = light_f.result()
    if payload.num_rows == 0:
        return light
    if "pcm" in payload.column_names:
        # decoded-pcm fragments (the transformed-payload layout before
        # every payload staged encoded): reading on would null their rows
        raise ValueError(
            "payload table holds decoded 'pcm' fragments, a layout this "
            "reader does not read; replicate into a fresh out root")
    matched = _reconstruct_pcm(payload, _join_index(payload["seq"],
                                                    light["seq"]))
    out = light
    for c in matched.column_names:
        if c != "seq":
            out = out.append_column(c, matched[c])
    return out


def _join_index(pseq: pa.ChunkedArray, lseq: pa.ChunkedArray) -> np.ndarray:
    """Payload row of each finalize row's ``seq`` (-1: not committed)."""
    ps = pseq.to_numpy()
    order = np.argsort(ps, kind="stable")
    ps = ps[order]
    if len(ps) > 1 and (ps[1:] == ps[:-1]).any():
        raise ValueError("cannot reindex on an axis with duplicate labels: "
                         "the payload table repeats a seq")
    ls = lseq.to_numpy()
    pos = np.minimum(np.searchsorted(ps, ls), len(ps) - 1)
    return np.where(ps[pos] == ls, order[pos], -1)


def _reconstruct_pcm(payload: pa.Table, idx: np.ndarray) -> pa.Table:
    """(bytes, codec, sr_hz, n_samples, …) payload rows, joined by ``idx``
    (payload row per output row, -1 = null row) → (pcm, n_samples, …) in
    output order: the logical shape (bytes/codec/sr_hz dropped, pcm in
    their place).

    One float32 buffer is allocated for every row's samples, sized from
    the staged ``n_samples``; each payload row window then decodes on a
    pool thread into its rows' spans.  A row that fails to decode, or
    decodes to another length than staged, fails the read."""
    from .. import audio

    n = len(idx)
    has = pc.is_valid(payload["bytes"]).to_numpy(zero_copy_only=False)
    valid = (idx >= 0) & has[np.maximum(idx, 0)]
    want = payload["n_samples"].fill_null(-1).to_numpy()
    lens = np.where(valid, want[idx], 0)
    if (lens < 0).any():
        raise ValueError("payload rows without n_samples cannot be decoded")
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=offsets[1:])
    buf = np.empty(offsets[-1], np.float32)

    # output rows grouped by payload row: a row window's rows are one run
    rows = np.flatnonzero(valid)
    rows = rows[np.argsort(idx[rows], kind="stable")]
    src = idx[rows]
    lt = read_threads()
    win = max(1, -(-payload.num_rows // lt))
    jobs, r0 = [], 0
    for batch in payload.select(["bytes", "codec", "sr_hz"]).to_batches():
        for w0 in range(0, batch.num_rows, win):
            w = batch.slice(w0, win)
            a, b = np.searchsorted(src, [r0 + w0, r0 + w0 + w.num_rows])
            if b > a:
                jobs.append((w, src[a:b] - (r0 + w0), rows[a:b]))
        r0 += batch.num_rows

    def decode(job):
        w, local, dst = job
        if len(local) != w.num_rows or (local != np.arange(len(local))).any():
            w = w.take(pa.array(local))  # hidden or repeated payload rows
        got, err = audio.decode_batch(
            w["bytes"], w["codec"], w["sr_hz"],
            out=buf, out_offsets=offsets[dst])
        got = got.fill_null(-1).to_numpy()
        errs = err.to_pylist()
        return [e if e is not None else
                f"decoded {g} samples, {lens[d]} staged"
                for e, g, d in zip(errs, got, dst)
                if e is not None or g != lens[d]]

    with futures.ThreadPoolExecutor(max(1, min(len(jobs), lt))) as pool:
        bad = [e for errs in pool.map(decode, jobs) for e in errs]
    if bad:
        # every staged payload decoded cleanly at ingest — a re-decode
        # failure here means corruption at rest; surface it loudly
        # rather than returning silently-empty audio
        raise ValueError(
            f"payload fragment re-decode failed for {len(bad)} rows "
            f"(corruption at rest?): {bad[:3]}")
    pcm = pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()), pa.array(buf, pa.float32()),
        mask=pa.array(~valid) if not valid.all() else None,
    )
    cols = {}
    for c in payload.column_names:
        if c == "bytes":
            cols["pcm"] = pcm
        elif c not in ("codec", "sr_hz", "seq"):
            cols[c] = payload[c].take(pa.array(idx, mask=idx < 0))
    return pa.table(cols)


def _sink_rows(out_root: str, name: str) -> pa.Table:
    """A sink's committed rows; none when the run never enabled the sink
    (``sink_names``), so it has no table."""
    root = os.path.join(out_root, name)
    return Table(root).to_arrow() if Table.exists(root) else pa.table({})


def read_windows_live(out_root: str, kind: str = "windows"):
    """The coherent incremental window view (``early_fire=True`` runs):
    the windows (or, with ``kind="sliding"``, sliding) sink's EXACT
    close-time rows, overlaid with the latest provisional totals for
    cells not yet closed.  Returns a pandas frame with a ``provisional``
    bool column; converges to exactly the final sink as the stream
    drains.  A run without ``early_fire`` has no live sink: the view is
    the finals alone."""
    import pandas as pd

    if kind not in ("windows", "sliding"):
        raise ValueError(f"kind must be windows|sliding, got {kind!r}")
    final = _sink_rows(out_root, kind).to_pandas()
    base_cols = ["clip_id", "window_start", "window_end", "n_clips",
                 "sum_dur_ms"]
    final = (final[[c for c in base_cols if c in final.columns]]
             if len(final) else pd.DataFrame(columns=base_cols))
    out = final.assign(provisional=False)
    live = _sink_rows(out_root, f"{kind}_live").to_pandas()
    if len(live):
        live = (live.sort_values("epoch", kind="mergesort")
                .drop_duplicates(["clip_id", "window_start"], keep="last"))
        closed = set(zip(out["clip_id"], out["window_start"]))
        keep = ~pd.MultiIndex.from_frame(
            live[["clip_id", "window_start"]]).isin(closed)
        extra = live.loc[keep, base_cols].assign(provisional=True)
        out = pd.concat([out, extra], ignore_index=True)
    return out.sort_values(["clip_id", "window_start"]).reset_index(
        drop=True)


def read_sessions_live(out_root: str):
    """Coherent session view for ``early_fire`` runs: the sessions
    sink's exact closed rows, plus the provisional open sessions
    stamped with the main sink's committed epoch.  Every epoch renders
    every open session, so that epoch's rows are the whole open set and
    older rows are superseded snapshots.  The flush epoch renders
    nothing (a drained stream has closed everything, so only finals
    remain), and an epoch whose main commit never landed is not shown.
    A run without ``early_fire`` has no live sink: the view is the
    finals alone."""
    import pandas as pd

    cols = ["clip_id", "session_start", "session_end", "n_clips",
            "sum_dur_ms"]
    final = _sink_rows(out_root, "sessions").to_pandas()
    final = (final[[c for c in cols if c in final.columns]]
             if len(final) else pd.DataFrame(columns=cols))
    out = final.assign(provisional=False)
    last = Table(os.path.join(out_root, "replicated")).committed_epoch(
        "replicate")
    live = _sink_rows(out_root, "sessions_live")
    if live.num_rows:
        live = live.filter(pc.equal(live["epoch"], last)).to_pandas()
        if len(live):
            out = pd.concat(
                [out, live[cols].assign(provisional=True)],
                ignore_index=True)
    return out.sort_values(["clip_id", "session_start"]).reset_index(
        drop=True)


def read_lineage(out_root: str, name: str = "replicate") -> list[dict]:
    """Committed per-epoch lineage from the side log: one entry per epoch
    ≤ the main sink's committed epoch.  The log is one immutable JSON
    object per epoch (``_lineage/<name>/e{epoch}.json`` — appending to a
    shared file would need an append primitive object stores lack); a
    replayed epoch's duplicate write no-ops on the conditional PUT, and
    deterministic replay makes the kept first write equivalent."""
    from ..fs import fget, flist

    t = Table(os.path.join(out_root, "replicated"))
    committed = t.committed_epoch(name)
    ents: dict[int, dict] = {}
    d = os.path.join(out_root, "_lineage", name)
    for fn in flist(d):
        if not fn.endswith(".json") or fn.startswith("."):
            continue
        try:
            e = json.loads(fget(os.path.join(d, fn)))
        except (json.JSONDecodeError, FileNotFoundError):
            continue
        if e.get("epoch") is not None and e["epoch"] <= committed:
            ents[e["epoch"]] = e
    return [ents[e] for e in sorted(ents)]


class ReplicatePipeline:
    MAIN = "replicated"

    def __init__(
        self,
        clips_root: str,
        out_root: str,
        cfg: ReplicateConfig | None = None,
        updates_root: str | None = None,
        name: str = "replicate",
    ):
        self.cfg = cfg = cfg or ReplicateConfig()
        # the config is checked before anything touches storage
        if cfg.keep_checkpoints < 1:
            raise ValueError(
                "keep_checkpoints must be >= 1 (the last committed epoch's "
                "checkpoint chain is always kept)")
        if cfg.neardup:
            if cfg.neardup_signature == "minhash":
                if not 1 <= cfg.neardup_min_band_matches <= cfg.neardup_bands:
                    raise ValueError(
                        "neardup_min_band_matches must be in "
                        "[1, neardup_bands] (≥1 shared lane is what the "
                        "band buckets can find)"
                    )
            elif cfg.neardup_max_hamming >= cfg.neardup_bands:
                raise ValueError(
                    "neardup_max_hamming must be < neardup_bands "
                    "(pigeonhole recall guarantee)"
                )
        self.name = name
        self.clips = Table(clips_root)
        self.updates = Table(updates_root) if updates_root else None
        self.out_root = out_root
        names = sink_names(cfg)
        with futures.ThreadPoolExecutor(len(names)) as pool:
            self.sink = dict(zip(names, pool.map(
                lambda s: Table.create(os.path.join(out_root, s)), names)))
        self.ckpt_root = os.path.join(out_root, "_checkpoints")
        # partition-state base dir: ``ckpt_root/<layout>`` once a rescale
        # committed a new layout generation (state key "ckpt_layout");
        # resolved from committed state at run() start.  Dedup/near-dup
        # shard tiers are content-hash keyed (independent of partition
        # count) and always live at ckpt_root itself.
        self.part_root = self.ckpt_root
        # state hosts, by slot: ``actors[p]`` runs partition p,
        # ``dedup_shards[d]`` / ``neardup_shards[n]`` run those shards
        # (one handle per slot, so hosts repeat across the three lists)
        self.actors = []
        self.frontiers: dict[str, int] = {}
        # sticky hot-key state (persisted in the main sink's commit)
        self._hot: set[str] = set()
        # hot keys whose home-buffered updates reached their salt
        # partitions, and the hot set each epoch's routed launch used
        self._hot_copied: set[str] = set()
        self._routed_hot: dict[int, frozenset] = {}
        self._key_counts: dict[str, int] = {}
        self._total_clips = 0
        self._hot_metrics: dict[str, int] = {}
        # cross-epoch dedup tier (cfg.dedup)
        self.dedup_shards = []
        self._dedup_metrics: dict[str, int] = {}
        self._dedup_epoch_dropped: dict[int, int] = {}
        # cross-epoch near-dup tier (cfg.neardup)
        self.neardup_shards = []
        self._neardup_epoch_dropped: dict[int, int] = {}

    # ----------------------------------------------------------- lifecycle
    def _spawn_actors(self):
        """Start the state hosts: ``host_layout`` deals the partition,
        dedup-shard and near-dup-shard slots to a pool sized from their
        CPU reservation, never from the slot count."""
        import ray

        cfg = self.cfg
        cls = StateHostActor()
        # the hosts get the config itself, minus the ingest-side hooks
        # (they run in the routing tasks, never in state)
        state_cfg = replace(cfg, payload_transform=None, payload_filter=None)
        sink_roots = {s: t.uri for s, t in self.sink.items()}
        host_of, hosts, reserved = {}, [], 0.0
        for slots in host_layout(cfg):
            cpus = round(sum(slot_num_cpus(cfg, s) for s in slots), 4)
            reserved += cpus
            # SPREAD: balance hosts across cluster nodes (a no-op in
            # single-node local mode; on a real cluster it keeps one
            # node's failure from taking out every partition's state)
            h = cls.options(
                num_cpus=cpus, scheduling_strategy="SPREAD",
            ).remote(slots, state_cfg, sink_roots, self.part_root,
                     self.ckpt_root)
            hosts.append(h)
            host_of.update((s, h) for s in slots)
        # the dedup tiers' content pass cuts an epoch's fragments into at
        # most this many row windows: the task slots the hosts leave
        # free, but no more than this node's cores, because declared CPUs
        # may exceed them and a window only pays on an idle core (12k
        # clips, 32 CPUs declared on 4 cores: 24 windows per epoch took
        # the near-dup run from 8.1 s to 11.8 s)
        free = int(round(ray.cluster_resources().get("CPU", 1.0) - reserved, 4))
        self._pass_slots = max(1, min(free, os.cpu_count() or 1))
        self.actors = [host_of["p", i] for i in range(cfg.num_partitions)]
        self.dedup_shards = [host_of["d", i] for i in range(
            cfg.num_dedup_shards if cfg.dedup else 0)]
        self.neardup_shards = [host_of["n", i] for i in range(
            cfg.num_neardup_shards if cfg.neardup else 0)]
        # placement record, read at the end of run() (survives teardown —
        # ops/test introspection); nothing waits for the hosts to start
        # before the first RPC that needs them
        self._node_refs = [h.node_id.remote() for h in hosts]

    def _slots(self, *kinds: str) -> list:
        """``(host, slot)`` pairs of every slot of the given kinds."""
        handles = {"p": self.actors, "d": self.dedup_shards,
                   "n": self.neardup_shards}
        return [(h, (k, i)) for k in kinds for i, h in enumerate(handles[k])]

    def _shutdown_actors(self):
        import ray

        for h in dict.fromkeys(
                self.actors + self.dedup_shards + self.neardup_shards):
            ray.kill(h, no_restart=True)
        self.actors = []
        self.dedup_shards = []
        self.neardup_shards = []

    # ---------------------------------------------------------------- run
    def _next_slice(self, clips_v: int, updates_v: int):
        clips_latest = self.clips.latest_version() or 0
        updates_latest = self.updates.latest_version() or 0 if self.updates else 0
        cv = min(clips_v + self.cfg.max_versions_per_epoch, clips_latest)
        uv = min(updates_v + self.cfg.max_versions_per_epoch, updates_latest)
        return cv, uv, (cv > clips_v or uv > updates_v)

    def run(self, max_epochs: int | None = None) -> dict:
        """Process all available source data (resuming if needed), then
        flush.  Returns the final merged metrics.

        Consecutive epochs PIPELINE: epoch
        e+1's decode/transfer/payload-staging tasks launch as soon as
        epoch e's watermark is known and overlap e's close/checkpoint/
        commit.  Actors stash e+1 rows and apply them at close(e+1), so
        state transitions stay epoch-atomic and replay-deterministic.

        Each epoch is launched once: its source slice is fixed when it is
        first launched (the pre-launch included), and versions that land
        after that go to the next epoch.  No pre-launch is made past the
        last epoch ``max_epochs`` allows.
        """
        import ray

        state = self.sink[self.MAIN].pipeline_state(self.name)
        committed = int(state.get("last_epoch", -1))
        layout = str(state.get("ckpt_layout", "") or "")
        self.part_root = (
            os.path.join(self.ckpt_root, layout) if layout else self.ckpt_root
        )
        if committed >= 0:
            # every commit records the partition count (_finish_epoch)
            if "num_partitions" not in state:
                raise ValueError(
                    f"committed state of pipeline {self.name!r} has no "
                    "num_partitions field; this out root was not written "
                    "by ReplicatePipeline")
            stored_p = int(state["num_partitions"])
            if stored_p != self.cfg.num_partitions:
                raise ValueError(
                    f"committed state has num_partitions={stored_p} but "
                    f"config says {self.cfg.num_partitions}; partition count "
                    "is state layout — run "
                    "hydra_ray.state.rescale.rescale_state first"
                )
            # a checkpoint layout that disagrees with the committed
            # partition count must be refused, never silently restored
            actual = sum(
                1 for d in _fs.flist(self.part_root)
                if d.startswith("p") and d[1:].isdigit()
            )
            if actual != stored_p:
                raise RuntimeError(
                    f"checkpoint layout {self.part_root} has {actual} p* "
                    f"dirs but committed state records num_partitions="
                    f"{stored_p} — layout is inconsistent; re-run "
                    "rescale_state (or point ckpt_layout back at a "
                    "consistent generation via update_pipeline_state)"
                )
        # runs the start-up sink upkeep, then each epoch's aux sink
        # commits and lineage PUT, concurrently
        self._commit_pool = futures.ThreadPoolExecutor(len(self.sink))
        try:
            gc = [self._commit_pool.submit(self._open_sink, s, committed)
                  for s in self.sink]
            if committed >= 0:
                gc.append(self._commit_pool.submit(self._gc_disabled_sinks))
            self._spawn_actors()
            if committed >= 0:
                call_hosts("restore", self._slots("p", "d", "n"), committed)
            # no writer runs before the first ingest launch
            for f in gc:
                f.result()
            epoch = committed + 1
            clips_v = int(state.get("clips_version", 0))
            updates_v = int(state.get("updates_version", 0))
            wm = int(state.get("watermark", -(1 << 62)))
            self.frontiers = {
                k: int(v) for k, v in state.get("frontiers", {}).items()
            }
            self._hot = set(state.get("hot_keys", []))
            # resume re-copies hot buffers (idempotent)
            self._hot_copied = set()
            self._routed_hot = {}
            self._key_counts = {k: int(c) for k, c in state.get("hot_key_counts", [])}
            self._total_clips = int(state.get("total_clips", 0))
            self._hot_metrics = {
                k: int(v) for k, v in state.get("hot_metrics", {}).items()
            }
            self._dedup_metrics = {
                k: int(v) for k, v in state.get("dedup_metrics", {}).items()
            }
            flushed = bool(state.get("flushed", False))
            metrics: dict = {}
            n_epochs = 0
            # the pre-launched next epoch: (launched, clips_to, updates_to)
            pre: tuple | None = None
            while max_epochs is None or n_epochs < max_epochs:
                if pre is not None:
                    # its slice was fixed at launch; what landed since
                    # goes to the epoch after it
                    launched, cv, uv = pre
                    pre = None
                else:
                    cv, uv, has_data = self._next_slice(clips_v, updates_v)
                    if not has_data:
                        if not flushed:
                            metrics = self._finish_epoch(
                                epoch, [], [], clips_v, clips_v, updates_v,
                                updates_v, wm, WATERMARK_MAX, flush=True,
                            )
                            flushed = True
                            epoch += 1
                            n_epochs += 1
                        break
                    launched = self._launch_ingest(
                        epoch, clips_v, cv, updates_v, uv, wm)
                acks, pay_frags = self._collect_acks(launched)
                wm_new = self._advance_watermark(wm, acks)
                # pipeline: overlap the NEXT epoch's ingest with this
                # close, unless max_epochs ends the run at this epoch
                if max_epochs is None or n_epochs + 1 < max_epochs:
                    ncv, nuv, nhas = self._next_slice(cv, uv)
                    if nhas:
                        pre = (self._launch_ingest(
                            epoch + 1, cv, ncv, uv, nuv, wm_new), ncv, nuv)
                metrics = self._finish_epoch(
                    epoch, acks, pay_frags, clips_v, cv, updates_v, uv, wm, wm_new
                )
                wm = metrics["__watermark"]
                clips_v, updates_v = cv, uv
                flushed = False
                epoch += 1
                n_epochs += 1
            self.actor_nodes = ray.get(self._node_refs)
            return {
                k: v for k, v in metrics.items() if not k.startswith("__")
            } | {"epochs": epoch, "watermark": wm}
        finally:
            self._commit_pool.shutdown()
            self._shutdown_actors()

    def _open_sink(self, name: str, committed: int):
        """Run-start upkeep of one sink: delete its orphan fragments and,
        on resume, fast-forward an aux sink whose committed epoch lags
        the main sink's.  The main commit lands only after every aux
        commit of its epoch, so a lag means the sink's feature was off
        for the epochs in between (or the sink is new): it has no rows
        to catch up on, only the epoch gap its next commit would hit."""
        t = self.sink[name]
        t.gc_staged()
        if committed >= 0 and name != self.MAIN:
            t.advance_epoch(self.name, committed)

    def _gc_disabled_sinks(self):
        """On resume, delete the orphan fragments of every sink table an
        earlier run on this out root created and this config does not
        enable (one LIST of the out root).  The table itself stays: its
        committed rows remain readable, and a later run that enables
        the feature again fast-forwards it (``_open_sink``)."""
        for d in _fs.flist(self.out_root):
            root = os.path.join(self.out_root, d)
            if (d not in self.sink and not d.startswith("_")
                    and Table.exists(root)):
                Table(root).gc_staged()

    def _advance_watermark(self, wm_prev: int, acks: list) -> int:
        """Monotone per-source frontiers → wm = min(frontiers) − lateness."""
        for a in acks:
            s = a["source"]
            self.frontiers[s] = max(self.frontiers.get(s, a["max_ts"]), a["max_ts"])
        if not self.frontiers:
            return wm_prev
        return max(
            wm_prev, min(self.frontiers.values()) - self.cfg.allowed_lateness_ms
        )

    def _launch_ingest(
        self,
        epoch: int,
        clips_from: int,
        clips_to: int,
        updates_from: int,
        updates_to: int,
        wm_prev: int,
    ):
        """Fire the epoch's ingest tasks (non-blocking) over the fixed
        slice ``(clips_from, clips_to] × (updates_from, updates_to]``."""
        cfg = self.cfg
        if (cfg.dedup or cfg.neardup) and clips_to > clips_from:
            # two-phase: the content pass runs first (it can pre-launch
            # and overlap the previous epoch's close); the routed ingest
            # launches after resolve with the merged drop set
            from ..state.content_pass import CHUNK, content_pass_task

            task = content_pass_task()
            frags = self.clips.read_fragments(clips_from, clips_to)
            # the audio fingerprint kernel sets the pass time: when it
            # runs, share the pass slots among the epoch's fragments as
            # row windows (each window re-reads the pruned columns);
            # hashing or text signing alone keeps one read per fragment
            slots = (self._pass_slots // max(1, len(frags))
                     if cfg.neardup and cfg.neardup_signature == "audio_fp"
                     else 1)
            refs = []
            for f in frags:
                n = max(1, min(-(-f.rows // CHUNK), slots))
                step = -(-f.rows // n)
                refs += [task.remote(
                    self.clips.fragment_paths([f])[0], self.dedup_shards,
                    self.neardup_shards, epoch, cfg.dedup_cols,
                    cfg.neardup_bands, cfg.neardup_signature,
                    row_lo=p * step, row_cnt=step) for p in range(n)]
            return (
                "dedup",
                (refs, epoch, clips_from, clips_to,
                 updates_from, updates_to, wm_prev),
            )
        return self._launch_routed(
            epoch, clips_from, clips_to, updates_from, updates_to,
            wm_prev, None,
        )

    def _launch_routed(
        self, epoch, clips_from, clips_to, updates_from, updates_to,
        wm_prev, drop,
    ):
        import ray

        cfg = self.cfg
        hot = frozenset(self._hot) if cfg.hot_key_threshold else frozenset()
        # _finish_epoch(epoch) copies the home buffers of keys this
        # launch newly salts
        self._routed_hot[epoch] = hot
        clips_route = _Router(
            self.actors, "clips", wm_prev, "clip_id", cfg.num_partitions,
            # the payload stages encoded audio (see _Router._payload_slice).
            # When nothing in-flight consumes decoded samples (no
            # transform/filter/features), skip materializing them
            # entirely: identical validation + n_samples, no 4 B/sample
            # buffer ever built.
            decoder=AudioDecoder(
                record_size_limit=cfg.record_size_limit,
                keep_bytes=True,
                materialize_pcm=(
                    cfg.payload_transform is not None
                    or cfg.payload_filter is not None
                    or cfg.audio_features
                    or cfg.audio_fbank
                ),
            ),
            payload_root=self.sink["payload"].uri,
            epoch=epoch,
            hot_keys=hot,
            n_salts=cfg.n_salts,
            drop=drop,
            funnel_on=bool(cfg.funnel_steps),
            features=cfg.audio_features,
            fbank=cfg.audio_fbank,
            payload_transform=cfg.payload_transform,
            payload_filter=cfg.payload_filter,
            distinct_k=(cfg.window_distinct_k or cfg.window_mode_k),
            content_cols=cfg.dedup_cols,
        )
        updates_route = _Router(
            self.actors, "updates", wm_prev, "clip_id", cfg.num_partitions,
            epoch=epoch,
            hot_keys=hot,
            n_salts=cfg.n_salts,
        )
        task = _ingest_task_fn()
        refs = []
        if clips_to > clips_from:
            # ship the router once per epoch (object store), not
            # re-pickled into every task submission
            route_ref = ray.put(clips_route)
            for f in self.clips.read_fragments(clips_from, clips_to):
                refs.append(
                    task.remote(
                        self.clips.fragment_paths([f]), route_ref,
                        cfg.batch_size,
                    )
                )
        if self.updates and updates_to > updates_from:
            route_ref = ray.put(updates_route)
            for f in self.updates.read_fragments(updates_from, updates_to):
                refs.append(
                    task.remote(
                        self.updates.fragment_paths([f]), route_ref,
                        cfg.batch_size * 8,
                    )
                )
        return ("refs", refs)

    def _copy_hot_buffers(self, keys: list[str], epoch: int):
        """Fan a newly-hot key's buffered update revisions from its home
        partition to its salt partitions, as replica ingests stashed for
        ``epoch``."""
        P = self.cfg.num_partitions
        keys_np = np.asarray(keys, dtype=object)
        homes = partition_for(keys_np, P)
        by_home: dict[int, list[str]] = {}
        for k, h in zip(keys, homes):
            by_home.setdefault(int(h), []).append(k)
        fetched = call_hosts("buffered_updates_for", [
            (self.actors[h], (("p", h), ks)) for h, ks in by_home.items()])
        items = []
        for (h, _ks), res in zip(by_home.items(), fetched):
            if res is None:
                continue
            ukeys, uts, urev, utext = res
            sp = salt_partitions(ukeys, P, self.cfg.n_salts)
            for p in np.unique(sp):
                p = int(p)
                if p == h:
                    continue
                sel = np.flatnonzero((sp == p).any(axis=1))
                tbl = pa.table(
                    {
                        "clip_id": pa.array(ukeys[sel], pa.string()),
                        "transcript": pa.array(utext[sel], pa.string()),
                        "revision": pa.array(urev[sel].astype(np.int32), pa.int32()),
                        "event_ts": pa.array(uts[sel], pa.timestamp("ms")),
                        "__replica": pa.array(np.ones(len(sel), dtype=bool)),
                    }
                )
                items.append((self.actors[p], (("p", p), "updates", tbl)))
        call_hosts("ingest", items, -(1 << 62), epoch)

    def _collect_acks(self, launched) -> tuple[list, list]:
        """→ (ack dicts, payload fragment json strings)."""
        import ray

        kind, payload = launched
        acks: list = []
        frags: list = []
        if kind == "dedup":
            # phase 2: hash/fingerprint passes done → resolve drop sets →
            # routed ingest with their union
            refs, ep, cf, ct, uf, ut, wm_prev = payload
            ray.get(refs)
            drop_parts = []
            if self.dedup_shards:
                resolved = call_hosts("resolve", self._slots("d"), ep,
                                      wm_prev)
                drop_parts += [r[0] for r in resolved if len(r[0])]
                dropped = int(sum(st["dropped"] for _, st in resolved))
                new_hashes = int(sum(st["new"] for _, st in resolved))
                self._dedup_metrics["dedup_dropped"] = (
                    self._dedup_metrics.get("dedup_dropped", 0) + dropped
                )
                self._dedup_metrics["dedup_new_hashes"] = (
                    self._dedup_metrics.get("dedup_new_hashes", 0) + new_hashes
                )
                self._dedup_epoch_dropped[ep] = dropped
            if self.neardup_shards:
                from ..state.neardup_index import (
                    neardup_metric,
                    neardup_threshold,
                    resolve_near_epoch,
                )

                kept, ndrop = resolve_near_epoch(
                    self._slots("n"), ep, self.cfg.neardup_bands,
                    neardup_threshold(self.cfg), wm_prev,
                    neardup_metric(self.cfg),
                )
                if len(ndrop):
                    drop_parts.append(ndrop)
                self._dedup_metrics["neardup_dropped"] = (
                    self._dedup_metrics.get("neardup_dropped", 0) + len(ndrop)
                )
                self._dedup_metrics["neardup_kept"] = (
                    self._dedup_metrics.get("neardup_kept", 0) + len(kept)
                )
                self._neardup_epoch_dropped[ep] = len(ndrop)
            drop = (
                np.unique(np.concatenate(drop_parts)) if drop_parts else None
            )
            return self._collect_acks(
                self._launch_routed(ep, cf, ct, uf, ut, wm_prev, drop))
        for chunk in ray.get(payload):
            acks.extend(chunk["acks"])
            frags.extend(chunk["frags"])
        return acks, frags

    def _finish_epoch(
        self,
        epoch: int,
        acks: list,
        pay_frags: list,
        clips_from: int,
        clips_to: int,
        updates_from: int,
        updates_to: int,
        wm_prev: int,
        wm: int,
        flush: bool = False,
    ) -> dict:
        cfg = self.cfg
        max_ts = max(
            self.frontiers.values(), default=wm_prev + cfg.allowed_lateness_ms
        )

        if cfg.crash_at == (epoch, "before_close"):
            raise CrashPoint(f"injected crash before close of epoch {epoch}")

        # -- 4. close → staged fragments ------------------------------------
        # keys this epoch's routed launch salts for the first time: their
        # updates of earlier epochs went home only, and all of them are
        # applied there now (closed), so copy them to the salt partitions
        # in time for close(epoch); idempotent — duplicate copies
        # collapse in the max-(ts, rev) join/view
        newly = sorted(self._routed_hot.pop(epoch, frozenset())
                       - self._hot_copied)
        if newly:
            self._copy_hot_buffers(newly, epoch)
            self._hot_copied.update(newly)
        hot_list = sorted(self._hot) if cfg.hot_key_threshold else None
        results = call_hosts("close", self._slots("p"), epoch, wm, hot_list)
        # merge hot-key partials across salt partitions (driver-side: the
        # row count is bounded by hot keys × windows closed this epoch),
        # stage the merged fragments, and hand still-open merged sessions
        # back to each key's home partition BEFORE the checkpoint
        hot_staged = self._process_hot(results, epoch, wm)

        if cfg.crash_at == (epoch, "after_prepare"):
            raise CrashPoint(f"injected crash after prepare of epoch {epoch}")

        staged: dict[str, list[FragmentMeta]] = {s: [] for s in self.sink}
        for r in results:
            for sink_name, frag in r["staged"].items():
                staged[sink_name].append(FragmentMeta.from_json(frag))
        for sink_name, frag in hot_staged:
            staged[sink_name].append(frag)
        if cfg.early_fire and not flush:
            # its render RPC goes first: a host runs one RPC at a time,
            # and the checkpoint below would queue ahead of it
            for sink_name, frag in self._stage_early_windows(results, epoch):
                staged[sink_name].append(frag)
        if not flush:
            for fj in pay_frags:
                staged["payload"].append(FragmentMeta.from_json(json.loads(fj)))

        # -- 5. checkpoint ‖ 6. aux commits + lineage → 7. main commit -----
        # per-epoch lineage goes to an append-only SIDE LOG (bounded
        # manifests at any horizon); the line is written before the commit
        # so a committed epoch always has its entry, and replays write
        # duplicate epoch lines that the reader dedupes (last wins)
        lineage_entry = {
            "epoch": epoch,
            "clips": [clips_from, clips_to],
            "updates": [updates_from, updates_to],
            "wm_prev": wm_prev,
            "wm_close": wm,
        }
        if cfg.dedup:
            lineage_entry["dedup_dropped"] = self._dedup_epoch_dropped.pop(epoch, 0)
        if cfg.neardup:
            lineage_entry["neardup_dropped"] = self._neardup_epoch_dropped.pop(
                epoch, 0
            )
        # the checkpoint (full every K epochs, deltas between), the aux
        # commits and the lineage PUT touch disjoint objects, so they
        # overlap; each commit keeps its own conditional-PUT retry loop.
        # All must land before the main commit (last: the source of
        # truth), and any failure leaves the epoch uncommitted (replay
        # re-commits idempotently).
        full = (epoch % max(cfg.full_checkpoint_every, 1)) == 0
        checkpointed = call_hosts("checkpoint", self._slots("p", "d", "n"),
                                  epoch, wm, full, wait=False)
        pending = [
            self._commit_pool.submit(
                self.sink[s].commit_epoch, self.name, epoch, staged[s])
            for s in self.sink if s != self.MAIN
        ]
        pending.append(self._commit_pool.submit(self._append_lineage,
                                                lineage_entry))
        futures.wait(pending)
        checkpointed()
        for f in pending:
            f.result()

        if cfg.crash_at == (epoch, "before_main_commit"):
            raise CrashPoint(f"injected crash before main commit of epoch {epoch}")

        merged: dict = {}
        for r in results:
            for k, v in r["metrics"].items():
                merged[k] = merged.get(k, 0) + v
        for k, v in self._hot_metrics.items():
            merged[k] = merged.get(k, 0) + v
        for k, v in self._dedup_metrics.items():
            merged[k] = merged.get(k, 0) + v
        self._update_hot_detection(results, acks)
        self.sink[self.MAIN].commit_epoch(
            self.name,
            epoch,
            staged[self.MAIN],
            extra_state={
                "clips_version": clips_to,
                "updates_version": updates_to,
                "watermark": wm if wm < WATERMARK_MAX else max_ts,
                "frontiers": self.frontiers,
                "flushed": flush,
                "lineage_log": os.path.join("_lineage", self.name),
                "metrics": merged,
                # sticky hot-key state: the set committed here routes the
                # NEXT epoch (and any replay of it)
                "hot_keys": sorted(self._hot),
                "hot_key_counts": sorted(
                    self._key_counts.items(), key=lambda kv: -kv[1]
                )[:1024],
                "total_clips": self._total_clips,
                "hot_metrics": dict(self._hot_metrics),
                "dedup_metrics": dict(self._dedup_metrics),
                # partition count is SEMANTIC state layout; a resume with a
                # different count must go through state.rescale first
                "num_partitions": cfg.num_partitions,
            },
        )
        merged["__watermark"] = wm if wm < WATERMARK_MAX else max_ts
        # maintenance: micro-batch epochs leave one tiny fragment per
        # (sink, partition, epoch); periodic bin-pack keeps long-horizon
        # reads from paying a per-file open cost that dwarfs the data.
        # Runs strictly AFTER the commit (pure maintenance — skipping it
        # on crash is safe, replay is unaffected: the pipeline's delta
        # readers track the SOURCE tables, and compaction preserves sink
        # content + time travel by contract, test_lancelite/test_sinks).
        if cfg.compact_sinks_every and (
            (epoch + 1) % cfg.compact_sinks_every == 0
        ):
            for t in self.sink.values():
                t.compact()
                if cfg.keep_history_versions:
                    t.truncate_history(cfg.keep_history_versions)
        elif cfg.keep_history_versions and (epoch + 1) % 8 == 0:
            # history bound must not silently depend on compaction being
            # enabled: without compact_sinks_every it runs every 8 epochs
            for t in self.sink.values():
                t.truncate_history(cfg.keep_history_versions)
        return merged

    def _stage_early_windows(self, results: list, epoch: int):
        """Early-fire driver half: union the per-partition touched-cell
        sets from this close (tumbling AND sliding), fetch every
        partition's CURRENT partial totals for them and its open
        sessions in ONE RPC round (a salted cell's rows span partitions,
        and an untouched partition may hold a touched cell's older
        rows), fold the cells with the partitions' own rule, and stage
        one provisional fragment per live sink.  Every epoch renders
        every open session, so the latest epoch's ``sessions_live`` rows
        are the whole open set.  Deterministic under replay (state is
        epoch-atomic) and routing-independent (the fold is a monoid).
        Returns [(sink_name, FragmentMeta), ...]."""
        cfg = self.cfg

        def union(key):
            tabs = [r[key] for r in results if r.get(key) is not None]
            if not tabs:
                return None
            return pa.concat_tables(tabs).group_by(
                ["clip_id", "window_start"], use_threads=False).aggregate([])

        w_cells = union("early_touched")
        s_cells = union("early_touched_sliding")
        sessions = "sessions_live" in self.sink
        if w_cells is None and s_cells is None and not sessions:
            return []
        parts = call_hosts("render", self._slots("p"), w_cells, s_cells,
                           sessions)
        scratch = PartitionState(-1, cfg)
        scratch.absorb(win=[r for p in parts for r in p[0]],
                       swin=[r for p in parts for r in p[1]])
        tables = {
            name: scratch._window_rows_table(
                [(*kw, *cells[kw]) for kw in sorted(cells)], size)
            for name, cells, size in (
                ("windows_live", scratch.win, cfg.window_size_ms),
                ("sliding_live", scratch.swin, cfg.sliding_size_ms))
            if cells
        }
        sess = [p[2] for p in parts if p[2] is not None]
        if sess:
            tables["sessions_live"] = pa.concat_tables(sess).sort_by(
                [("clip_id", "ascending"), ("session_start", "ascending")])
        return list(zip(tables, stage_fragments([
            (self.sink[name], tbl.append_column(
                "epoch", pa.array([epoch] * tbl.num_rows, pa.int64())),
             epoch, 0)
            for name, tbl in tables.items()], self._commit_pool)))

    def _append_lineage(self, entry: dict):
        """One immutable object per epoch (no file append — object-store
        compatible); a replay's duplicate write no-ops (conditional PUT,
        equivalent content by deterministic replay)."""
        from ..fs import fput

        from ..fs import resolve as _resolve

        fs_i, p = _resolve(
            os.path.join(self.out_root, "_lineage", self.name,
                         f"e{int(entry['epoch']):06d}.json"))
        fs_i.put(p, json.dumps(entry).encode(), mode="create_or_skip",
                 durable=True)

    def _process_hot(self, results: list, epoch: int, wm: int) -> list:
        """Merge hot-key close partials across salt partitions with
        ``close_hot_partials`` (the partitions' own fold and close), stage
        its tables, and ADOPT the merged still-open sessions into each
        key's home partition (must precede the epoch checkpoint).
        Returns [(sink_name, FragmentMeta)] to include in the commit."""
        partials = [r["hot"] for r in results if r["hot"]]
        if not partials:
            return []
        tables, scratch = close_hot_partials(partials, self.cfg, epoch, wm)
        for k, v in scratch.metrics.items():
            self._hot_metrics[k] = self._hot_metrics.get(k, 0) + v
        if scratch.sessions:
            keys = sorted(scratch.sessions)
            homes = partition_for(np.asarray(keys, dtype=object),
                                  self.cfg.num_partitions)
            by_home: dict[int, list] = {}
            for k, h in zip(keys, homes):
                by_home.setdefault(int(h), []).extend(
                    (k, *iv) for iv in scratch.sessions[k])
            call_hosts("adopt_sessions", [
                (self.actors[h], (("p", h), rows))
                for h, rows in by_home.items()])
        return list(zip(tables, stage_fragments(
            [(self.sink[name], tbl, epoch, -1)
             for name, tbl in tables.items()], self._commit_pool)))

    def _update_hot_detection(self, results: list, acks: list):
        """Fold per-epoch key counts into the sticky hot set."""
        cfg = self.cfg
        if not cfg.hot_key_threshold:
            return
        self._total_clips += sum(a["n"] for a in acks if a["source"] == "clips")
        for r in results:
            for k, c in r.get("key_counts", []):
                self._key_counts[k] = self._key_counts.get(k, 0) + int(c)
        if len(self._key_counts) > 4096:
            top = sorted(self._key_counts.items(), key=lambda kv: -kv[1])[:2048]
            self._key_counts = dict(top)
        if self._total_clips:
            floor = cfg.hot_key_threshold * self._total_clips
            for k, c in self._key_counts.items():
                if c >= floor:
                    self._hot.add(k)
