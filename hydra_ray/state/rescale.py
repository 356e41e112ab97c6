"""Offline streaming-state rescale: repartition committed state N → M.

The partition count is SEMANTIC state layout (keys route by
``hash(key) % P``), so a deployment cannot simply restart with a
different ``num_partitions`` — every piece of keyed operator state
would sit on the wrong actor.  This is the savepoint-rescale operation
of mainstream streaming engines (Flink repartitions key groups on
restore from a savepoint): run between jobs, it rewrites the last
committed checkpoint for a new partition count, after which
``ReplicatePipeline`` resumes normally and — because streaming
semantics here are routing-independent by construction (CLAUDE.md
invariant; the salting tests enforce it) — produces byte-identical
outputs.

Shape (all heavy work in Ray tasks, scatter/gather by partition):

1. SPLIT, one task per OLD partition: restore its chain
   (full + deltas), split every state component by the NEW home
   ``partition_for(key, new_P)``, write one shard file per new
   partition (empty ones too, so the storage ops depend on the
   partition counts alone, never on where the keys fall).
2. MERGE, one task per NEW partition: fold its N shard files into a
   fresh ``PartitionState`` and save ONE full checkpoint at the
   committed epoch.  Merge rules mirror the live operators:
   window partials add (a salted hot key's partials live on several
   old partitions) and sessions gap-merge, both through
   ``PartitionState.absorb``;
   the compacted view takes last-write-wins by (ts, rev); buffered
   updates concatenate then dedup by (key, ts, rev) (hot-key fan-out
   replicas are exact copies); clip/funnel buffers are disjoint row
   sets and concatenate.
3. COMMIT: the new checkpoints live in a fresh LAYOUT GENERATION dir
   (``_checkpoints/<gen-…>/p*``) and the main sink's pipeline state
   records ``{"num_partitions": M, "ckpt_layout": "<gen-…>"}`` in ONE
   atomic manifest append — the single commit point, no renames (the
   protocol runs unchanged on object storage).  ``run()`` resolves the
   active layout from committed state.  Dedup/near-dup shard tiers
   (``d*``/``n*`` dirs) are keyed by content hash, independent of
   ``num_partitions``, and stay at the checkpoint root untouched.

Crash safety: the old layout is NEVER touched — a crash anywhere before
the state commit leaves an orphan generation dir (harmless; re-run the
rescale).  Rollback is pure metadata: point ``ckpt_layout`` /
``num_partitions`` back at the previous generation via
``update_pipeline_state`` — no file moves in either direction.
"""

from __future__ import annotations

import os
import pickle
import uuid
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pyarrow as pa

from ..hashing import partition_for
from .store import PartitionState, find_restore_chain

__all__ = ["rescale_state"]


def _empty_shard() -> dict:
    return {"win": {}, "swin": {}, "sessions": {}, "view": {},
            "upd": [], "clips": [], "funnel": {}, "funnel_buf": []}


def _split_one(ckpt_root: str, p: int, epoch: int, cfg, new_p: int,
               tmp_root: str) -> dict:
    """Restore old partition ``p`` and write its shard file for every
    new partition."""
    st = PartitionState(p, cfg)
    chain = find_restore_chain(os.path.join(ckpt_root, f"p{p:04d}"), epoch)
    if chain is None:
        raise RuntimeError(
            f"no restorable checkpoint chain for partition {p} at epoch {epoch}"
        )
    st.restore_chain(*chain)

    shards = [_empty_shard() for _ in range(new_p)]

    # one vectorized home lookup for every distinct key in the dicts
    keyed = set()
    for kw in st.win:
        keyed.add(kw[0])
    for kw in st.swin:
        keyed.add(kw[0])
    keyed.update(st.sessions)
    keyed.update(st.view)
    keyed.update(st.funnel)
    homes: dict = {}
    if keyed:
        ks = np.array(sorted(keyed), dtype=object)
        homes = dict(zip(ks, partition_for(ks, new_p)))

    for kw, acc in st.win.items():
        shards[homes[kw[0]]]["win"][kw] = acc
    for kw, acc in st.swin.items():
        shards[homes[kw[0]]]["swin"][kw] = acc
    for k, lst in st.sessions.items():
        shards[homes[k]]["sessions"][k] = lst
    for k, rec in st.view.items():
        shards[homes[k]]["view"][k] = rec
    for k, chain_times in st.funnel.items():
        shards[homes[k]]["funnel"][k] = chain_times

    for t in st.clip_buf:
        if not t.num_rows:
            continue
        qs = partition_for(t["clip_id"], new_p)
        for q in np.unique(qs):
            shards[q]["clips"].append(t.filter(pa.array(qs == q)))

    ukeys, uts, urev, utext = st._consolidated_updates()
    if len(ukeys):
        qs = partition_for(ukeys, new_p)
        for q in np.unique(qs):
            m = qs == q
            shards[q]["upd"].append((ukeys[m], uts[m], urev[m], utext[m]))

    for fk, ft, fd in st.funnel_buf:
        if not len(fk):
            continue
        qs = partition_for(fk, new_p)
        for q in np.unique(qs):
            m = qs == q
            shards[q]["funnel_buf"].append((fk[m], ft[m], fd[m]))

    from ..fs import fput

    for q, d in enumerate(shards):
        # create_or_skip: a Ray task retry (worker death) re-PUTs
        # deterministic shard content — skipping the existing complete
        # object is correct, raising would abort the whole rescale
        fput(
            os.path.join(tmp_root, "_shards", f"q{q:04d}",
                         f"from_p{p:04d}.pkl"),
            pickle.dumps(d, protocol=pickle.HIGHEST_PROTOCOL),
            mode="create_or_skip",
        )
    return {"max_ts": st.max_ts, "metrics": dict(st.metrics)}


def _merge_one(q: int, tmp_root: str, epoch: int, cfg, max_ts: int,
               metrics: dict, wm: int | None, old_p: int) -> str:
    """Fold new partition ``q``'s shard files, one from each of the
    ``old_p`` old partitions, into one full checkpoint."""
    from ..fs import fget

    st = PartitionState(q, cfg)
    qdir = os.path.join(tmp_root, "_shards", f"q{q:04d}")
    for p in range(old_p):
        d = pickle.loads(fget(os.path.join(qdir, f"from_p{p:04d}.pkl")))
        # salted hot key: partials from several old partitions fold with
        # the partitions' one merge rule (window cells with every sketch,
        # sessions with their sample)
        st.absorb(
            win=[(*kw, *acc) for kw, acc in d["win"].items()],
            swin=[(*kw, *acc) for kw, acc in d["swin"].items()],
            sessions=[(k, *s) for k, lst in d["sessions"].items()
                      for s in lst],
        )
        for k, rec in d["view"].items():
            cur = st.view.get(k)
            if cur is None or (rec[0], rec[1]) >= (cur[0], cur[1]):
                st.view[k] = rec
        st.upd_chunks.extend(d["upd"])
        st.clip_buf.extend(d["clips"])
        st.funnel.update(d["funnel"])          # funnel rows route home: disjoint
        st.funnel_buf.extend(d["funnel_buf"])
    # hot-key fan-out replicated the same update to several partitions;
    # after re-homing, copies meet — dedup by (key, ts, rev)
    ukeys, uts, urev, utext = st._consolidated_updates()
    if len(ukeys):
        dup = np.zeros(len(ukeys), dtype=bool)
        dup[1:] = (ukeys[1:] == ukeys[:-1]) & (uts[1:] == uts[:-1]) & (
            urev[1:] == urev[:-1])
        keep = ~dup
        st.upd_chunks = [(ukeys[keep], uts[keep], urev[keep], utext[keep])]
    st.max_ts = max_ts
    st.metrics = defaultdict(int, metrics)
    out = os.path.join(tmp_root, f"p{q:04d}", f"e{epoch:06d}")
    st.save(out, wm=wm, full=True)
    return out


def rescale_state(out_root: str, new_num_partitions: int, cfg,
                  name: str = "replicate") -> dict:
    """Rewrite the last committed checkpoint of the pipeline at
    ``out_root`` for ``new_num_partitions`` partitions.  ``cfg`` is the
    run's ``ReplicateConfig`` (window/join/session parameters must match
    the committed run — they shape the state being carried).  Returns a
    summary dict; afterwards resume with
    ``ReplicateConfig(num_partitions=new_num_partitions, ...)``."""
    import ray

    from ..table import Table

    from ..fs import resolve

    main = Table(os.path.join(out_root, "replicated"))
    state = main.pipeline_state(name)
    committed = int(state.get("last_epoch", -1))
    if committed < 0:
        raise ValueError(f"no committed epoch for pipeline {name!r} at {out_root}")
    ckpt_root = os.path.join(out_root, "_checkpoints")
    old_layout = str(state.get("ckpt_layout", "") or "")
    old_root = (
        os.path.join(ckpt_root, old_layout) if old_layout else ckpt_root
    )
    old_p = int(state["num_partitions"])
    new_p = int(new_num_partitions)
    if new_p < 1:
        raise ValueError("new_num_partitions must be ≥ 1")
    if new_p == old_p:
        return {"epoch": committed, "old": old_p, "new": new_p, "noop": True}
    wm_raw = state.get("watermark")
    wm = int(wm_raw) if wm_raw is not None else None
    # the hooks run at ingest, never in state (as for the live actors)
    scfg = replace(cfg, payload_transform=None, payload_filter=None)

    # fresh layout generation; the nonce makes re-runs after a crash
    # collision-free (an orphan generation dir is harmless garbage)
    layout = f"gen-e{committed:06d}-P{new_p}-{uuid.uuid4().hex[:8]}"
    new_root = os.path.join(ckpt_root, layout)

    split = ray.remote(_split_one)
    infos = ray.get([
        split.remote(old_root, p, committed, scfg, new_p, new_root)
        for p in range(old_p)
    ])
    max_ts = max(i["max_ts"] for i in infos)
    merged_metrics: dict = {}
    for i in infos:
        for k, v in i["metrics"].items():
            merged_metrics[k] = merged_metrics.get(k, 0) + v

    merge = ray.remote(_merge_one)
    # per-partition metrics cannot be split by key; totals (what the
    # commit merges/reports) ride on new partition 0
    ray.get([
        merge.remote(q, new_root, committed, scfg, max_ts,
                     merged_metrics if q == 0 else {}, wm, old_p)
        for q in range(new_p)
    ])

    # THE commit point: one atomic manifest append records both the new
    # count and the layout pointer — before it the old layout is fully
    # live; after it run() resolves the new one.  No renames anywhere.
    main.update_pipeline_state(
        name,
        {"num_partitions": new_p, "ckpt_layout": layout},
    )
    # scratch shard objects are no longer needed
    fs_i, shards_dir = resolve(os.path.join(new_root, "_shards"))
    fs_i.delete_tree(shards_dir)
    return {"epoch": committed, "old": old_p, "new": new_p,
            "layout": layout, "previous_layout": old_layout}
