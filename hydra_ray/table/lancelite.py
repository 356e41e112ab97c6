"""lancelite — a versioned fragment-table format (Lance-style semantics).

The sandbox has no Lance library, so the engine carries its own minimal
versioned table format with the four properties the streaming design
needs (SURVEY.md §7; BASELINE.json north_star "idempotent exactly-once
Lance sink using per-partition epoch IDs and two-phase commit"):

1. **Versioned manifests** — every commit writes an immutable JSON
   manifest ``_versions/{v:06d}.json`` listing ALL live fragments (parquet
   files) with row counts and the ``(partition, epoch)`` that produced
   them.  Manifest creation is a conditional atomic PUT
   (``fs.put(mode="create")``: locally an `os.link` create-if-absent, on
   an object store S3 ``If-None-Match`` / GCS generation precondition),
   so exactly one writer wins a version number.
2. **Delta reads** — ``read_fragments(after_version, up_to_version)``
   returns only the fragments added in that version range; this is the
   micro-batch source (the reference's seeked consumer stream,
   `ingestors/kafka/.../algebras/KafkaClientAlgebra.scala:402-434`).
3. **Two-phase commit, rename-free** — phase 1: writers write fragment
   objects directly into ``data/`` (``stage_fragment``); a fragment is
   *staged* = written but referenced by no manifest, hence invisible to
   every reader.  Phase 2: the driver calls ``commit_epoch``, which
   appends ONE manifest version referencing the fragments and recording
   the epoch in the table properties — a pure manifest-log append
   (write-new-object + conditional-PUT pointer check), no rename
   anywhere, so the identical protocol runs on S3/GCS.  A crash between
   the phases leaves only unreferenced fragment objects, which
   ``gc_staged`` discards.  Re-committing an already-committed epoch is
   a **no-op** — this is what turns the reference's at-least-once
   redelivery
   (`core/src/main/scala/hydra/core/transport/Transport.scala:27-49`)
   into exact idempotence.
4. **Properties / commit log** — each manifest carries a free-form
   ``properties`` dict (per-pipeline last committed epoch, per-partition
   lineage, checkpoint URIs), the analogue of the reference's
   offsets-checkpoint topic
   (`.../util/ConsumerGroupsOffsetConsumer.scala:59-74, 219-248`).

At 100 TB the same layout holds: fragments are immutable parquet objects,
manifests are tiny JSON objects, and the atomic-create primitive maps to
conditional PUT.  All I/O goes through ``hydra_ray.fs`` (``LocalFS`` by
default; a ``strict://`` root selects the object-store shim that forbids
rename and in-place overwrite — the whole protocol is tested against
both).  Copy-forward manifests grow O(number of fragments); ``compact``
rewrites the list.
"""

from __future__ import annotations

import json
import os
import uuid
from concurrent import futures
from dataclasses import asdict, dataclass, field
from typing import Any

import pyarrow as pa
import pyarrow.parquet as pq

from ..fs import resolve, with_scheme

__all__ = ["FragmentMeta", "Table"]

_MANIFEST_DIR = "_versions"
_DATA_DIR = "data"


@dataclass
class FragmentMeta:
    path: str                      # relative to table root
    rows: int
    bytes: int
    partition: int | None = None   # producing partition (sink fragments)
    epoch: int | None = None       # producing epoch (sink fragments)
    added_version: int = 0

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(d: dict) -> "FragmentMeta":
        return FragmentMeta(**d)


@dataclass
class _Manifest:
    version: int
    fragments: list[FragmentMeta]
    properties: dict[str, Any] = field(default_factory=dict)
    schema_json: str | None = None
    ts_ms: int | None = None       # wall-clock commit stamp (time travel)

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "fragments": [f.to_json() for f in self.fragments],
            "properties": self.properties,
            "schema_json": self.schema_json,
            "ts_ms": self.ts_ms,
        }

    @staticmethod
    def from_json(d: dict) -> "_Manifest":
        return _Manifest(
            version=d["version"],
            fragments=[FragmentMeta.from_json(f) for f in d["fragments"]],
            properties=d.get("properties", {}),
            schema_json=d.get("schema_json"),
            ts_ms=d.get("ts_ms"),
        )


class Table:
    """A lancelite table rooted at ``root`` (a local dir in this sandbox)."""

    _SCHEMA_UNSET = object()

    def __init__(self, root: str):
        self.fs, self.root = resolve(root)
        #: pass ``uri`` (not ``root``) to other processes/actors so they
        #: resolve the same storage backend
        self.uri = with_scheme(self.fs, self.root)
        # per-instance memo for the stage-time schema check (hot path):
        # sink tables are schema-less, so this avoids a manifest parse per
        # staged fragment; mid-run evolution only ADDS nullable columns,
        # which the check accepts against a stale schema anyway
        self._stage_schema: Any = Table._SCHEMA_UNSET

    # ------------------------------------------------------------------ DDL
    @classmethod
    def create(
        cls,
        root: str,
        schema: pa.Schema | None = None,
        key: list[str] | None = None,
    ) -> "Table":
        """Create (or open) a table.

        ``key`` declares primary-key columns — the analogue of the
        reference's in-schema ``hydra.key`` property
        (`avro/src/main/scala/hydra/avro/util/SchemaWrapper.scala:22-91`):
        key fields must exist and be non-nullable, and later schema
        evolution may never change or drop them
        (`avro/.../registry/SchemaRegistry.scala:118-129`).
        """
        t = cls(root)
        t.fs.ensure_dir(os.path.join(t.root, _MANIFEST_DIR))
        t.fs.ensure_dir(os.path.join(t.root, _DATA_DIR))
        if key:
            if schema is None:
                raise ValueError("a key declaration requires a schema")
            for k in key:
                idx = schema.get_field_index(k)
                if idx < 0:
                    raise ValueError(f"key column {k!r} not in schema")
                if schema.field(idx).nullable:
                    raise ValueError(
                        f"key column {k!r} must be non-nullable "
                        "(reference rejects nullable hydra.key fields)"
                    )
        if t.latest_version() is None:
            m = _Manifest(
                version=0,
                fragments=[],
                properties={"key": list(key)} if key else {},
                schema_json=schema.serialize().to_pybytes().hex()
                if schema is not None
                else None,
            )
            t._write_manifest(m)
        elif key:
            # create-or-open with a key declaration: adopt it on a key-less
            # table, verify it on a keyed one (never silently ignore)
            stored = t.key_columns()
            if not stored:
                t._commit_fragments([], {"key": list(key)})
            elif stored != list(key):
                raise ValueError(
                    f"table {t.root} already keyed by {stored}, not {list(key)}"
                )
        return t

    def key_columns(self) -> list[str]:
        return list(self.properties().get("key", []))

    @classmethod
    def exists(cls, root: str) -> bool:
        fs, base = resolve(root)
        return fs.isdir(os.path.join(base, _MANIFEST_DIR))

    def schema(self) -> pa.Schema | None:
        m = self._manifest(self.latest_version())
        if m.schema_json:
            return pa.ipc.read_schema(pa.BufferReader(bytes.fromhex(m.schema_json)))
        return None

    # ------------------------------------------------------------ manifests
    def _manifest_path(self, version: int) -> str:
        return os.path.join(self.root, _MANIFEST_DIR, f"{version:06d}.json")

    def latest_version(self) -> int | None:
        versions = [
            int(name.split(".")[0])
            for name in self.fs.list_dir(os.path.join(self.root, _MANIFEST_DIR))
            if name.endswith(".json") and not name.startswith(".")
        ]
        return max(versions) if versions else None

    def _manifest(self, version: int | None) -> _Manifest:
        if version is None:
            raise FileNotFoundError(f"no manifests in {self.root}")
        return _Manifest.from_json(
            json.loads(self.fs.get(self._manifest_path(version)))
        )

    def _write_manifest(self, m: _Manifest) -> int:
        """Atomically create manifest for ``m.version``; raise if taken
        (conditional PUT — the manifest-log pointer check)."""
        if m.ts_ms is None:
            import time

            m.ts_ms = int(time.time() * 1000)
        self.fs.put(
            self._manifest_path(m.version),
            json.dumps(m.to_json()).encode(),
            mode="create",
            durable=True,    # THE commit point: survive a host crash
        )
        return m.version

    def properties(self) -> dict[str, Any]:
        return self._manifest(self.latest_version()).properties

    # ---------------------------------------------------------------- reads
    def fragments(self, version: int | None = None) -> list[FragmentMeta]:
        v = self.latest_version() if version is None else version
        return self._manifest(v).fragments

    def read_fragments(
        self, after_version: int = 0, up_to_version: int | None = None
    ) -> list[FragmentMeta]:
        """Fragments ADDED in versions (after_version, up_to_version]."""
        v = self.latest_version() if up_to_version is None else up_to_version
        return [f for f in self._manifest(v).fragments if f.added_version > after_version]

    def fragment_paths(self, frags: list[FragmentMeta]) -> list[str]:
        return [self.fs.local_path(os.path.join(self.root, f.path))
                for f in frags]

    def to_dataset(
        self,
        version: int | None = None,
        after_version: int = 0,
        columns: list[str] | None = None,
        **read_kwargs,
    ):
        """A lazy ``ray.data.Dataset`` over a version (or delta) of the table."""
        import ray.data as rd

        frags = self.read_fragments(after_version, version)
        paths = self.fragment_paths(frags)
        if not paths:
            schema = self.schema()
            if schema is not None:
                if columns:
                    schema = pa.schema([schema.field(c) for c in columns])
                return rd.from_arrow(schema.empty_table())
            return rd.from_items([])
        return rd.read_parquet(paths, columns=columns, **read_kwargs)

    def to_arrow(self, version: int | None = None, after_version: int = 0,
                 columns: list[str] | None = None) -> pa.Table:
        frags = self.read_fragments(after_version, version)
        paths = self.fragment_paths(frags)
        if not paths:
            schema = self.schema()
            if schema is not None:
                if columns:
                    schema = pa.schema([schema.field(c) for c in columns])
                return schema.empty_table()
            return pa.table({})
        if len(paths) == 1:
            return pq.read_table(paths[0], columns=columns)
        # one fragment per pool thread: Arrow's own pool follows
        # OMP_NUM_THREADS, which Ray sets to 1
        with futures.ThreadPoolExecutor(
                min(len(paths), read_threads())) as pool:
            tables = list(pool.map(
                lambda p: pq.read_table(p, columns=columns, use_threads=False),
                paths))
        return pa.concat_tables(tables, promote_options="default")

    def count_rows(self, version: int | None = None) -> int:
        return sum(f.rows for f in self.fragments(version))

    # ----------------------------------------------------- schema evolution
    def check_schema(self, new: pa.Schema) -> pa.Schema | None:
        """Enforce the reference's compatibility rules against the stored
        schema (`avro/.../registry/SchemaRegistry.scala:118-157, 237-274`):

        - type changes on existing columns are rejected (this covers
          logical-type changes — Arrow logical types are part of the type);
        - key columns may never be dropped or retyped;
        - dropping a non-nullable column is rejected; nullable columns may
          be absent from a fragment (read-side concat null-fills them);
        - ADDING a column is allowed only if nullable → returns the
          evolved schema to store; otherwise returns None (no change).

        Tables created without a schema are unchecked (sink tables whose
        shape is owned by the pipeline).  The base compatibility kernel is
        shared with the registry (``table.registry.check_compatible``);
        this adds the key-column rules on top.
        """
        from .registry import check_compatible

        stored = self.schema()
        if stored is None:
            return None
        for k in self.key_columns():
            i = new.get_field_index(k)
            if i < 0:
                raise ValueError(f"key column {k!r} missing from write")
            si = stored.get_field_index(k)
            if si >= 0 and new.field(i).type != stored.field(si).type:
                raise ValueError(
                    f"incompatible evolution: column {k!r} type "
                    f"{stored.field(si).type} → {new.field(i).type}"
                )
        return check_compatible(stored, new)

    # --------------------------------------------------------------- writes
    def append(
        self,
        data: pa.Table,
        partition: int | None = None,
        epoch: int | None = None,
        properties_update: dict[str, Any] | None = None,
    ) -> int:
        """Driver-side small append: write one fragment + new manifest."""
        evolved = self.check_schema(data.schema)
        frag = self._write_fragment(data, _DATA_DIR, partition, epoch)
        return self._commit_fragments(
            [frag], properties_update, new_schema=evolved
        )

    def _write_fragment(
        self,
        data: pa.Table,
        subdir: str,
        partition: int | None,
        epoch: int | None,
        compression: str = "zstd",
    ) -> FragmentMeta:
        name = f"f-{uuid.uuid4().hex}.parquet"
        rel = os.path.join(subdir, name)
        # atomic=False: fragment visibility is manifest-gated (phase 2)
        nbytes = self.fs.put_table(
            data, os.path.join(self.root, rel), compression=compression,
            atomic=False,
        )
        return FragmentMeta(
            path=rel,
            rows=data.num_rows,
            bytes=nbytes,
            partition=partition,
            epoch=epoch,
        )

    def _commit_fragments(
        self,
        new_frags: list[FragmentMeta],
        properties_update: dict[str, Any] | None = None,
        max_retries: int = 20,
        new_schema: pa.Schema | None = None,
        replace: bool = False,
        prepare=None,
    ) -> int | None:
        """Append (or with ``replace`` substitute) fragments in a new
        manifest version (optimistic conditional-PUT retry).

        ``prepare(base_manifest) -> dict | None`` — when given, called
        on EVERY attempt with the freshly read base manifest and must
        return the complete new properties dict (or None to abort the
        commit, returning None).  Any read-modify-write on manifest
        state (pipeline epochs, tags) MUST go through ``prepare``: a
        pre-loop snapshot merge is a TOCTOU hole — a concurrent writer's
        commit landing between snapshot and PUT would be clobbered on
        retry (double-committed epochs, lost sibling-pipeline state;
        the broker is the reference's single serialization point,
        `KafkaClientAlgebra.scala:217-262` — here the manifest log is).
        ``properties_update`` remains for write-once top-level keys.
        """
        for _ in range(max_retries):
            base = self._manifest(self.latest_version())
            v = base.version + 1
            if prepare is not None:
                props = prepare(base)
                if props is None:
                    return None
            else:
                props = dict(base.properties)
                if properties_update:
                    props.update(properties_update)
            for f in new_frags:
                f.added_version = v
            m = _Manifest(
                version=v,
                fragments=new_frags if replace else base.fragments + new_frags,
                properties=props,
                schema_json=new_schema.serialize().to_pybytes().hex()
                if new_schema is not None
                else base.schema_json,
            )
            try:
                return self._write_manifest(m)
            except FileExistsError:
                continue  # another writer took v; re-read and retry
        raise RuntimeError(f"could not commit to {self.root}: too much contention")

    # ----------------------------------------- SaveMode / RecordWriter SPI
    def write(self, data: pa.Table, mode: str = "append") -> int:
        """Batch-writer entry with SaveMode semantics (reference sink SPI,
        `avro/src/main/scala/hydra/avro/io/SaveMode.scala:12-45`):

        - ``append``          add rows;
        - ``overwrite``       replace all live fragments with this data;
        - ``error_if_exists`` raise if the table already holds rows;
        - ``ignore``          no-op if the table already holds rows.
        """
        mode = mode.lower()
        if mode == "append":
            return self.append(data)
        if mode == "overwrite":
            evolved = self.check_schema(data.schema)
            frag = self._write_fragment(data, _DATA_DIR, None, None)
            return self._commit_fragments([frag], new_schema=evolved, replace=True)
        if mode in ("error_if_exists", "errorifexists", "error"):
            if self.count_rows() > 0:
                raise FileExistsError(f"table {self.root} already has rows")
            return self.append(data)
        if mode == "ignore":
            if self.count_rows() > 0:
                return self.latest_version()
            return self.append(data)
        raise ValueError(f"unknown SaveMode {mode!r}")

    def upsert(self, data: pa.Table) -> int:
        """Keyed upsert (reference ``Operation.Upsert``,
        `avro/src/main/scala/hydra/avro/io/RecordWriter.scala:12-57`):
        rows append with merge-on-read last-write-wins per key — the
        manifest version is the MVCC order.  Requires a declared key."""
        if not self.key_columns():
            raise ValueError("upsert requires a table created with key=[...]")
        evolved = self.check_schema(data.schema)
        data = data.append_column(
            "__tombstone", pa.array([False] * data.num_rows, pa.bool_())
        )
        frag = self._write_fragment(data, _DATA_DIR, None, None)
        return self._commit_fragments([frag], new_schema=evolved)

    def delete_by_key(self, keys: pa.Table) -> int:
        """Keyed delete (reference ``Operation.DeleteByKey``): appends
        tombstone markers; compaction drops the key."""
        kc = self.key_columns()
        if not kc:
            raise ValueError("delete_by_key requires a table created with key=[...]")
        keys = keys.select(kc).append_column(
            "__tombstone", pa.array([True] * keys.num_rows, pa.bool_())
        )
        frag = self._write_fragment(keys, _DATA_DIR, None, None)
        return self._commit_fragments([frag])

    def read_compacted(self, version: int | None = None) -> pa.Table:
        """Merge-on-read compaction: latest row per key by (manifest
        version, in-fragment position), tombstones dropped — the
        compacted-topic read (`MetadataAlgebra.scala:145-158` semantics)."""
        import numpy as np
        import pandas as pd

        kc = self.key_columns()
        if not kc:
            raise ValueError("read_compacted requires a declared key")
        frags = self.fragments(version)
        if not frags:
            s = self.schema()
            return s.empty_table() if s is not None else pa.table({})
        tables = []
        for f in frags:
            t = self.fs.get_table(os.path.join(self.root, f.path))
            if "__tombstone" not in t.column_names:
                t = t.append_column(
                    "__tombstone", pa.array([False] * t.num_rows, pa.bool_())
                )
            t = t.append_column(
                "__mvcc", pa.array([f.added_version] * t.num_rows, pa.int64())
            )
            tables.append(t)
        cat = pa.concat_tables(tables, promote_options="default")
        df = cat.to_pandas()
        df["__pos"] = np.arange(len(df))
        df = df.sort_values(kc + ["__mvcc", "__pos"], kind="mergesort")
        df = df.drop_duplicates(subset=kc, keep="last")
        df = df[~df["__tombstone"]].drop(columns=["__tombstone", "__mvcc", "__pos"])
        return pa.Table.from_pandas(df.reset_index(drop=True), preserve_index=False)

    # ------------------------------------------------- exactly-once sink API
    def stage_fragment(
        self, data: pa.Table, epoch: int, partition: int, compression: str = "zstd"
    ) -> FragmentMeta:
        """Phase 1 of 2PC: write a staged fragment (sink actors call this).

        The fragment object lands directly in ``data/`` — *staged* means
        "referenced by no manifest yet", so it is invisible to every
        reader and no rename is needed at commit (object-store
        compatible).  ``compression="snappy"`` for payload-heavy
        fragments (float32 PCM barely compresses under zstd but costs
        real CPU per epoch).  Writes against a schema-declared table
        enforce the same evolution rules as ``append`` (evolution itself
        happens via ``append``)."""
        if self.stage_schema() is not None:
            self.check_schema(data.schema)
        return self._write_fragment(data, _DATA_DIR, partition, epoch, compression)

    def stage_schema(self) -> pa.Schema | None:
        """The schema staged fragments are checked against, read once per
        instance (not thread-safe: ``stage_fragments`` fills it before
        threads share the table)."""
        if self._stage_schema is Table._SCHEMA_UNSET:
            self._stage_schema = self.schema()
        return self._stage_schema

    def committed_epoch(self, pipeline: str) -> int:
        """Last committed epoch for ``pipeline`` (-1 = none)."""
        props = self.properties().get("pipelines", {}).get(pipeline, {})
        return int(props.get("last_epoch", -1))

    def pipeline_state(self, pipeline: str) -> dict[str, Any]:
        return dict(self.properties().get("pipelines", {}).get(pipeline, {}))

    def commit_epoch(
        self,
        pipeline: str,
        epoch: int,
        staged: list[FragmentMeta],
        extra_state: dict[str, Any] | None = None,
    ) -> bool:
        """Phase 2 of 2PC: atomically publish one epoch's fragments.

        Returns False (and discards the staged files) if ``epoch`` is not
        exactly ``committed+1`` — i.e. a replayed epoch no-ops, which is
        the idempotence that makes total output rows exactly reproducible.
        The epoch check and the pipelines-state merge both run INSIDE the
        conditional-PUT retry loop against the freshly read manifest, so
        a racing driver (zombie resume, sibling pipeline) can neither
        double-commit an epoch nor have its state clobbered.
        """

        def prepare(base: "_Manifest") -> dict[str, Any] | None:
            pipelines = dict(base.properties.get("pipelines", {}))
            state = dict(pipelines.get(pipeline, {}))
            committed = int(state.get("last_epoch", -1))
            if epoch <= committed:
                return None  # replayed epoch: abort, discard staged
            if epoch != committed + 1:
                raise ValueError(
                    f"epoch gap: committing {epoch} but last committed "
                    f"is {committed}"
                )
            state["last_epoch"] = epoch
            if extra_state:
                state.update(extra_state)
            pipelines[pipeline] = state
            props = dict(base.properties)
            props["pipelines"] = pipelines
            return props

        # the manifest append IS the publish: no file moves (rename-free)
        v = self._commit_fragments(list(staged), prepare=prepare)
        if v is None:
            # replayed epoch: its freshly staged fragments are referenced
            # by no manifest — delete the orphan objects outright
            for f in staged:
                self.fs.delete(os.path.join(self.root, f.path))
            return False
        return True

    def update_pipeline_state(self, pipeline: str, updates: dict[str, Any]) -> int:
        """Merge ``updates`` into one pipeline's committed state WITHOUT
        advancing its epoch (no fragments) — used by offline maintenance
        that changes run parameters recorded in the state (e.g. a state
        rescale updating ``num_partitions``).  Merges against the fresh
        manifest inside the retry loop (see ``_commit_fragments``)."""

        def prepare(base: "_Manifest") -> dict[str, Any]:
            pipelines = dict(base.properties.get("pipelines", {}))
            state = dict(pipelines.get(pipeline, {}))
            state.update(updates)
            pipelines[pipeline] = state
            props = dict(base.properties)
            props["pipelines"] = pipelines
            return props

        return self._commit_fragments([], prepare=prepare)

    def advance_epoch(self, pipeline: str, epoch: int) -> bool:
        """Move ``pipeline``'s committed epoch forward to ``epoch`` without
        fragments, never back: a no-op (and no PUT) when the fresh
        manifest already records ``epoch`` or later.  Used to catch up a
        sink that had no rows to commit for the epochs in between.
        Compares inside the retry loop (see ``_commit_fragments``), so a
        racing ``commit_epoch`` can neither be undone nor replayed."""

        def prepare(base: "_Manifest") -> dict[str, Any] | None:
            pipelines = dict(base.properties.get("pipelines", {}))
            state = dict(pipelines.get(pipeline, {}))
            if int(state.get("last_epoch", -1)) >= epoch:
                return None
            state["last_epoch"] = epoch
            pipelines[pipeline] = state
            props = dict(base.properties)
            props["pipelines"] = pipelines
            return props

        return self._commit_fragments([], prepare=prepare) is not None

    def compact(self, target_rows: int = 200_000,
                reader_horizon: int | None = None) -> int | None:
        """Merge small fragments into ~``target_rows`` ones (maintenance).

        Micro-batch epochs leave one fragment per (partition, epoch);
        at long horizons reads pay per-file open cost that dwarfs the
        data.  Compaction bin-packs fragments under ``target_rows``
        per partition into merged fragments and commits a REPLACEMENT
        manifest version.  Older manifest versions still reference the
        original files (which stay on disk), so time travel is intact.

        Delta-read contract (the reason for ``reader_horizon``): a merged
        fragment carries ``added_version = max(inputs)``, so any delta
        reader with ``after_version >= reader_horizon`` sees no change.
        Only fragments with ``added_version <= reader_horizon`` (default:
        the current latest version) participate; a reader strictly behind
        the horizon must restart from a full scan — the same caveat as
        Delta Lake's OPTIMIZE vs CDC readers.  Single-maintainer op: a
        concurrent compactor aborts on manifest conflict.

        KEYED tables (``read_compacted`` resolves per-key MVCC from
        fragment ``added_version``): merging may only span version RUNS
        with no outside fragment's version inside, and each run is
        pre-compacted per key (keeping tombstones — they still shadow
        rows in older kept fragments), so collapsing the run's versions
        into one cannot reorder any key's history.

        Returns the committed version, or None if nothing to merge.
        """
        base = self._manifest(self.latest_version())
        horizon = base.version if reader_horizon is None else reader_horizon
        keep: list[FragmentMeta] = []
        merged: list[FragmentMeta] = []
        consumed: set[str] = set()

        def eligible(f: FragmentMeta) -> bool:
            return f.added_version <= horizon and f.rows < target_rows

        if self.key_columns():
            kept_versions = {
                f.added_version for f in base.fragments if not eligible(f)
            }
            ordered = sorted(
                enumerate(base.fragments), key=lambda kv: (kv[1].added_version, kv[0])
            )
            runs: list[list[FragmentMeta]] = [[]]
            for _, f in ordered:
                # sharing a version with a kept fragment would make the
                # post-merge equal-version tie-break depend on manifest
                # order — treat such fragments as kept
                if eligible(f) and f.added_version not in kept_versions:
                    runs[-1].append(f)
                else:
                    keep.append(f)
                    runs.append([])  # an outside version breaks the run
            kc = self.key_columns()
            for run in runs:
                if len(run) < 2:
                    keep.extend(run)
                    continue
                tables = []
                for f in run:  # manifest/version order = MVCC order
                    t = self.fs.get_table(os.path.join(self.root, f.path))
                    if "__tombstone" not in t.column_names:
                        t = t.append_column(
                            "__tombstone", pa.array([False] * t.num_rows, pa.bool_())
                        )
                    tables.append(t)
                import numpy as np

                cat = pa.concat_tables(tables, promote_options="default")
                # keep-last per key by row index, then take() on the Arrow
                # table — a pandas round trip would upcast nullable int
                # columns to double and poison later fragment concats
                kdf = cat.select(kc).to_pandas()
                kdf["__i"] = np.arange(len(kdf))
                last = kdf.drop_duplicates(subset=kc, keep="last")["__i"].to_numpy()
                tbl = cat.take(pa.array(np.sort(last)))
                m = self._write_fragment(tbl, _DATA_DIR, None, None)
                m.added_version = max(f.added_version for f in run)
                merged.append(m)
                consumed.update(f.path for f in run)
        else:
            pools: dict[int | None, list[FragmentMeta]] = {}
            for f in base.fragments:
                if eligible(f):
                    pools.setdefault(f.partition, []).append(f)
                else:
                    keep.append(f)
            for part, group in sorted(
                pools.items(), key=lambda kv: (kv[0] is None, kv[0])
            ):
                group.sort(key=lambda f: (f.added_version, f.path))
                bins, cur, rows = [], [], 0
                for f in group:
                    cur.append(f)
                    rows += f.rows
                    if rows >= target_rows:
                        bins.append(cur)
                        cur, rows = [], 0
                if cur:
                    bins.append(cur)
                for b in bins:
                    if len(b) < 2:
                        keep.extend(b)
                        continue
                    tbl = pa.concat_tables(
                        [self.fs.get_table(os.path.join(self.root, f.path))
                         for f in b],
                        promote_options="default",
                    )
                    m = self._write_fragment(tbl, _DATA_DIR, part, None)
                    m.added_version = max(f.added_version for f in b)
                    merged.append(m)
                    consumed.update(f.path for f in b)
        if not merged:
            return None
        for _ in range(5):
            cur_m = self._manifest(self.latest_version())
            cur_paths = {f.path for f in cur_m.fragments}
            if not consumed <= cur_paths:
                raise RuntimeError(
                    f"compact: inputs disappeared under {self.root} "
                    "(concurrent compaction?)"
                )
            # carry fragments added since our snapshot through unchanged
            extra = [f for f in cur_m.fragments
                     if f.path not in consumed
                     and f.path not in {k.path for k in keep}]
            new_list = keep + extra + merged
            m2 = _Manifest(
                version=cur_m.version + 1,
                fragments=new_list,
                properties=dict(cur_m.properties),
                schema_json=cur_m.schema_json,
            )
            try:
                return self._write_manifest(m2)
            except FileExistsError:
                continue
        raise RuntimeError(f"compact: too much commit contention at {self.root}")

    def gc_staged(self) -> int:
        """Discard orphaned fragment objects: files under ``data/`` that
        no manifest version references (aborted/replayed epochs, crashed
        writers).  Single-maintainer contract: call only with no writers
        in flight (the driver runs it between epochs / at startup)."""
        referenced: set[str] = set()
        for name in self.fs.list_dir(os.path.join(self.root, _MANIFEST_DIR)):
            if not name.endswith(".json") or name.startswith("."):
                continue
            m = self._manifest(int(name.split(".")[0]))
            referenced.update(f.path for f in m.fragments)
        n = 0
        for name in self.fs.list_dir(os.path.join(self.root, _DATA_DIR)):
            rel = os.path.join(_DATA_DIR, name)
            if rel not in referenced:
                self.fs.delete(os.path.join(self.root, rel))
                n += 1
        return n

    def version_at(self, ts_ms: int) -> int | None:
        """Newest version committed at or before wall-clock ``ts_ms``
        (time travel: ``to_dataset(version=version_at(t))`` is the
        AS-OF read; every manifest carries its commit stamp,
        ``_write_manifest``).  None when nothing that old exists."""
        best = None
        for name in self.fs.list_dir(os.path.join(self.root, _MANIFEST_DIR)):
            if not name.endswith(".json") or name.startswith("."):
                continue
            v = int(name.split(".")[0])
            m = self._manifest(v)
            if m.ts_ms <= ts_ms and (best is None or v > best):
                best = v
        return best

    # -------------------------------------------------------------- tags
    def tag(self, name: str, version: int | None = None) -> int:
        """Pin a NAMED snapshot (Iceberg-style tag): records
        ``name → version`` in the table properties via one atomic
        manifest append.  Re-tagging an existing name moves it (the
        property commit is the pointer swap).  Returns the tagged
        version."""
        v = self.latest_version() if version is None else int(version)
        if not self.fs.exists(self._manifest_path(v)):
            raise ValueError(f"cannot tag missing version {v}")

        def prepare(base: "_Manifest") -> dict[str, Any]:
            props = dict(base.properties)
            tags = dict(props.get("tags", {}))
            tags[name] = v
            props["tags"] = tags
            return props

        self._commit_fragments([], prepare=prepare)
        return v

    def tags(self) -> dict[str, int]:
        return dict(self.properties().get("tags", {}))

    def tagged_version(self, name: str) -> int:
        tags = self.tags()
        if name not in tags:
            raise KeyError(f"no tag {name!r}; have {sorted(tags)}")
        return int(tags[name])

    def truncate_history(self, keep_versions: int = 64) -> dict:
        """Bound the manifest log on an endless stream: delete manifest
        versions older than ``latest − keep_versions + 1`` and every
        fragment object ONLY those versions referenced.

        Micro-batch epochs append one manifest version each, and
        ``gc_staged`` / time travel scan the whole log — unbounded on an
        endless stream.  Truncation is rename-free and crash-safe in
        either order: a crash after deleting manifests leaves fragments
        that the next ``gc_staged`` removes (they are unreferenced by
        the remaining log); a crash mid-fragment-delete leaves manifests
        whose re-truncation is idempotent.  Time travel shortens to the
        kept window — the same contract as Delta/Iceberg VACUUM +
        ``delete_old_versions``.  Single-maintainer op (run between
        epochs, like ``compact``).  Returns counts."""
        latest = self.latest_version()
        if latest is None or keep_versions < 1:
            return {"versions_deleted": 0, "fragments_deleted": 0}
        horizon = latest - keep_versions + 1
        pinned = set(self.tags().values())   # tagged snapshots never drop
        mdir = os.path.join(self.root, _MANIFEST_DIR)
        old_versions, kept_versions = [], []
        for name in self.fs.list_dir(mdir):
            if not name.endswith(".json") or name.startswith("."):
                continue
            v = int(name.split(".")[0])
            (old_versions if v < horizon and v not in pinned
             else kept_versions).append(v)
        if not old_versions:
            return {"versions_deleted": 0, "fragments_deleted": 0}
        kept_refs: set[str] = set()
        for v in kept_versions:
            kept_refs.update(f.path for f in self._manifest(v).fragments)
        doomed: set[str] = set()
        for v in old_versions:
            for f in self._manifest(v).fragments:
                if f.path not in kept_refs:
                    doomed.add(f.path)
        # fragments first (idempotent), then the manifest objects
        for rel in sorted(doomed):
            self.fs.delete(os.path.join(self.root, rel))
        for v in old_versions:
            self.fs.delete(self._manifest_path(v))
        return {
            "versions_deleted": len(old_versions),
            "fragments_deleted": len(doomed),
        }

    # ---------------------------------------------------------- maintenance
    def register_parquet_dir(self, directory: str) -> int:
        """Adopt every parquet file of LOCAL ``directory`` (e.g. a Ray
        Data ``write_parquet`` output) as fragments — rename on the local
        backend, upload on object backends (``fs.adopt_file``); the
        bulk-load path used to build bench inputs in parallel."""
        frags = []
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".parquet"):
                continue
            rel = os.path.join(_DATA_DIR, f"f-{uuid.uuid4().hex}.parquet")
            src = os.path.join(directory, name)
            md = pq.read_metadata(src)
            self.fs.adopt_file(src, os.path.join(self.root, rel))
            frags.append(
                FragmentMeta(
                    path=rel, rows=md.num_rows,
                    bytes=self.fs.size(os.path.join(self.root, rel)),
                )
            )
        return self._commit_fragments(frags)


def read_threads() -> int:
    """Threads for a read fan-out: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def stage_fragments(jobs: list, pool=None) -> list[FragmentMeta]:
    """Stage ``(table, data, epoch, partition[, compression])`` jobs with
    their PUTs in flight together → one ``FragmentMeta`` per job, in job
    order (``map``, so manifests list fragments in a fixed order).

    Every cold stage-schema memo is filled before the fan-out, one read
    per distinct table: threads sharing a cold table would each read the
    schema.  ``pool`` defaults to one thread per job; a caller's pool must
    not be running the caller itself (nested waits can deadlock)."""
    if len(jobs) <= 1:
        return [t.stage_fragment(*a) for t, *a in jobs]
    if pool is None:
        with futures.ThreadPoolExecutor(len(jobs)) as own:
            return stage_fragments(jobs, own)
    cold = [t for t in {id(t): t for t, *_ in jobs}.values()
            if t._stage_schema is Table._SCHEMA_UNSET]
    list(pool.map(Table.stage_schema, cold))
    return list(pool.map(lambda j: j[0].stage_fragment(*j[1:]), jobs))
