"""Pluggable storage backend for every durable artifact in the engine.

The reference engine's durability contract is a replicated external
service (`ingestors/kafka/.../algebras/KafkaClientAlgebra.scala:217-262`,
`core/.../transport/Transport.scala:13-102`); the multi-node analogue for
this engine is object storage (S3/GCS) reached through one
``pyarrow.fs``-style abstraction.  Object stores have **atomic
whole-object PUT** (optionally conditional: S3 ``If-None-Match``, GCS
generation preconditions), GET, LIST, DELETE — and **no rename, no
append, no in-place mutation**.  Every commit protocol in this repo
(lancelite manifest versions, 2PC epoch publish, checkpoint chains,
partitioned-sink ``_DONE`` markers) is therefore built on exactly that
primitive set:

- ``put(path, data, mode=...)`` — atomic whole-object create;
  ``mode="create"`` raises if the object exists, ``"create_or_skip"``
  returns False instead (the conditional-PUT pointer check that decides
  manifest-version races), ``"overwrite"`` is permitted only on the
  local backend (object-store code paths must never need it).
- ``get`` / ``exists`` / ``list_dir`` / ``delete`` / ``delete_tree``.
- ``put_table`` / ``get_table`` — parquet through an in-memory buffer,
  so a fragment or checkpoint object is either fully visible or absent
  (object-store PUT semantics, emulated locally via temp + hard link).

Backends:

- ``LocalFS`` — the default; plain local filesystem.  It MAY use rename
  internally (e.g. the bulk-load ``adopt_file`` fast path) because
  renames exist there, but no commit protocol RELIES on it.
- ``StrictObjectFS`` — the object-store shim used by tests: same local
  directory underneath (so parquet readers and ``ray.data.read_parquet``
  keep working on the produced files), but the API **forbids rename and
  in-place overwrite** — any code path that still needs either fails
  loudly under this backend.  In a real deployment this class is the
  template for an S3/GCS implementation: swap the os calls for
  conditional PUT / GET / LIST-prefix, and ``local_path`` for the
  object URI handed to ``read_parquet(filesystem=...)``.

Roots are plain paths (→ LocalFS) or ``strict://<path>`` (→ the shim);
``resolve(root)`` returns ``(fs, base_path)``.  The scheme propagates
through every derived path (``os.path.join`` keeps the prefix), so a
whole pipeline — lancelite tables, checkpoints, sinks — switches
backend by prefixing ONE root string.
"""

from __future__ import annotations

import io
import os
import re
import threading
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

__all__ = ["StorageFS", "LocalFS", "StrictObjectFS", "MeteredStrictFS",
           "resolve", "metered_root", "meter_counts"]

_STRICT_SCHEME = "strict://"
_METER_RE = re.compile(r"^metered-([A-Za-z0-9]+)-(\d+)://")
_METER_BASE = "/tmp/hydra_fsmeter"


class StorageFS:
    """Object-store-compatible primitive set (see module docstring)."""

    scheme = ""

    # ----------------------------------------------------------- objects
    def put(self, path: str, data: bytes, *, mode: str = "create",
            durable: bool = False) -> bool:
        """``durable=True`` adds an fsync before publish — reserved for
        COMMIT-POINT objects (manifest versions, lineage entries); data
        objects skip it because their visibility is gated by a later
        durable commit (measured: blanket per-object fsync cost ~20% of
        the streaming headline)."""
        raise NotImplementedError

    def get(self, path: str) -> bytes:
        with open(path, "rb") as f:
            return f.read()

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def isdir(self, path: str) -> bool:
        return os.path.isdir(path)

    def list_dir(self, path: str) -> list[str]:
        """Names directly under ``path`` ([] if absent) — the LIST-prefix
        primitive (local dirs emulate object-key prefixes)."""
        if not os.path.isdir(path):
            return []
        return sorted(os.listdir(path))

    def delete(self, path: str) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass

    def delete_tree(self, path: str) -> None:
        import shutil

        shutil.rmtree(path, ignore_errors=True)

    def size(self, path: str) -> int:
        return os.path.getsize(path)

    def ensure_dir(self, path: str) -> None:
        """mkdir -p; a no-op for real object stores (keys are flat)."""
        os.makedirs(path, exist_ok=True)

    # ------------------------------------------------------------ parquet
    def local_path(self, path: str) -> str:
        """A path readable by parquet readers / ``ray.data.read_parquet``.
        Both sandbox backends store real local files; an S3/GCS
        implementation returns the object URI instead (plus a
        ``pyarrow.fs`` handle via ``read_parquet(filesystem=...)``)."""
        return path

    def put_table(self, table: pa.Table, path: str, *,
                  compression: str = "zstd",
                  compression_level: int | None = 1,
                  mode: str = "create", atomic: bool = True) -> int:
        """Parquet-serialize ``table`` and PUT it as one atomic object.
        Returns the object size in bytes.

        ``atomic=False`` lets a backend skip the buffer + publish dance
        when the object's VISIBILITY is gated elsewhere (lancelite
        fragments are invisible until a manifest references them): the
        local backend then streams parquet straight to the final path —
        one less full-size memcpy + 3 fewer metadata ops per fragment
        (measured on the streaming headline).  Real object stores are
        atomic per PUT anyway, so the shim ignores the flag."""
        sink = pa.BufferOutputStream()
        pq.write_table(
            table, sink, compression=compression,
            compression_level=compression_level
            if compression == "zstd" else None,
        )
        data = sink.getvalue().to_pybytes()
        self.put(path, data, mode=mode)
        return len(data)

    def get_table(self, path: str, columns: list[str] | None = None) -> pa.Table:
        return pq.read_table(self.local_path(path), columns=columns)

    # ---------------------------------------------------------- bulk load
    def adopt_file(self, local_src: str, dest_path: str) -> None:
        """Adopt an existing LOCAL file (e.g. a Ray ``write_parquet``
        output) as a new object at ``dest_path``.  Local backend renames;
        object backends upload (copy) then delete the source."""
        raise NotImplementedError


class LocalFS(StorageFS):
    """Default backend: plain local filesystem."""

    scheme = ""
    supports_rename = True

    def put(self, path: str, data: bytes, *, mode: str = "create",
            durable: bool = False) -> bool:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = os.path.join(
            os.path.dirname(path), f".tmp-{uuid.uuid4().hex}"
        )
        with open(tmp, "wb") as f:
            f.write(data)
            if durable:
                f.flush()
                os.fsync(f.fileno())
        if mode == "overwrite":
            os.replace(tmp, path)
            return True
        try:
            os.link(tmp, path)  # atomic create-if-absent
            return True
        except FileExistsError:
            if mode == "create_or_skip":
                return False
            raise
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def adopt_file(self, local_src: str, dest_path: str) -> None:
        os.makedirs(os.path.dirname(dest_path), exist_ok=True)
        os.replace(local_src, dest_path)

    def put_table(self, table: pa.Table, path: str, *,
                  compression: str = "zstd",
                  compression_level: int | None = 1,
                  mode: str = "create", atomic: bool = True) -> int:
        if atomic:
            return super().put_table(
                table, path, compression=compression,
                compression_level=compression_level, mode=mode)
        # manifest-gated object: stream parquet directly (a crashed
        # half-written file stays unreferenced and is gc'd)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if mode == "create" and os.path.exists(path):
            raise FileExistsError(path)
        pq.write_table(
            table, path, compression=compression,
            compression_level=compression_level
            if compression == "zstd" else None,
        )
        return os.path.getsize(path)


class StrictObjectFS(StorageFS):
    """Object-store shim: forbids rename and in-place overwrite.

    Used by tests to prove every commit protocol works with only the
    S3/GCS primitive set.  Objects are write-once: ``mode="overwrite"``
    raises, ``"create"`` raises on an existing key, ``"create_or_skip"``
    is the conditional PUT.  There is deliberately NO rename API.
    """

    scheme = _STRICT_SCHEME
    supports_rename = False

    def put(self, path: str, data: bytes, *, mode: str = "create",
            durable: bool = False) -> bool:
        if mode == "overwrite":
            raise PermissionError(
                f"StrictObjectFS forbids in-place overwrite: {path}"
            )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = os.path.join(
            os.path.dirname(path), f".tmp-{uuid.uuid4().hex}"
        )
        with open(tmp, "wb") as f:
            f.write(data)
            if durable:
                f.flush()
                os.fsync(f.fileno())
        try:
            os.link(tmp, path)  # emulates atomic conditional PUT
            return True
        except FileExistsError:
            if mode == "create_or_skip":
                return False
            raise
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def adopt_file(self, local_src: str, dest_path: str) -> None:
        with open(local_src, "rb") as f:
            data = f.read()
        self.put(dest_path, data, mode="create")
        os.unlink(local_src)


class MeteredStrictFS(StrictObjectFS):
    """Object-store REALISM shim: ``StrictObjectFS`` semantics plus a
    per-operation round-trip latency injection and an op log.

    At a 30–100 ms object-store round trip, one stray manifest parse per
    batch is the difference between a 6 s and a 60 s epoch — a local-FS
    shim hides chatty protocols completely.  This backend makes them
    measurable: every primitive op (PUT/GET/HEAD/LIST/DELETE) sleeps the
    injected latency and appends one ``op\\tpath`` line to a per-process
    log file, so a test can assert the protocol's op COMPLEXITY (an
    epoch commit is O(1) manifest ops + O(fragments) data PUTs).

    All configuration is encoded in the SCHEME —
    ``metered-<token>-<latency_ms>://<path>`` — because root strings are
    the only thing that reaches Ray worker processes; any process that
    resolves the same path string meters into the same log directory
    (``/tmp/hydra_fsmeter/<token>/``, one append-only file per backend
    instance, no cross-process locking).  Threads of one process share
    the instance's file, so opening and writing it hold a lock (the
    injected sleep does not: concurrent ops overlap as on a real store).
    ``metered_root`` / ``meter_counts`` are the test-facing helpers.
    """

    def __init__(self, token: str, latency_ms: int):
        self.token = token
        self.latency_ms = int(latency_ms)
        self.scheme = f"metered-{token}-{latency_ms}://"
        self._log = None
        self._lock = threading.Lock()

    def _rec(self, op: str, path: str) -> None:
        if self.latency_ms:
            import time

            time.sleep(self.latency_ms / 1000.0)
        with self._lock:
            if self._log is None:
                d = os.path.join(_METER_BASE, self.token)
                os.makedirs(d, exist_ok=True)
                self._log = open(
                    os.path.join(d, f"{os.getpid()}-{uuid.uuid4().hex}.log"),
                    "a", buffering=1,
                )
            self._log.write(f"{op}\t{path}\n")

    def __getstate__(self):
        # the op log and its lock are per-process runtime state; a
        # pickled fs (e.g. a Table shipped through ray.put) re-opens its
        # own log on first op in the receiving process
        d = dict(self.__dict__)
        d["_log"] = None
        del d["_lock"]
        return d

    def __setstate__(self, d):
        self.__dict__.update(d)
        self._lock = threading.Lock()

    def put(self, path, data, *, mode="create", durable=False):
        self._rec("put", path)
        return super().put(path, data, mode=mode, durable=durable)

    def get(self, path):
        self._rec("get", path)
        return super().get(path)

    def get_table(self, path, columns=None):
        self._rec("get", path)
        return super().get_table(path, columns=columns)

    def exists(self, path):
        self._rec("head", path)
        return super().exists(path)

    def size(self, path):
        self._rec("head", path)
        return super().size(path)

    def isdir(self, path):
        self._rec("list", path)
        return super().isdir(path)

    def list_dir(self, path):
        self._rec("list", path)
        return super().list_dir(path)

    def delete(self, path):
        self._rec("delete", path)
        return super().delete(path)

    def delete_tree(self, path):
        self._rec("delete", path)
        return super().delete_tree(path)

    def adopt_file(self, local_src, dest_path):
        # upload (PUT) + local unlink; the PUT is recorded by put()
        return super().adopt_file(local_src, dest_path)

    # ``local_path`` stays unmetered: fragment reads through parquet
    # readers are data-plane GETs a real backend pays, but call sites
    # also build path lists without reading — counting here would
    # overstate.  ``get_table`` (the manifest/checkpoint read path) is
    # what op-complexity assertions care about.


def metered_root(path: str, token: str | None = None,
                 latency_ms: int = 0) -> str:
    """A root string selecting ``MeteredStrictFS`` for ``path``."""
    token = token or uuid.uuid4().hex[:12]
    return f"metered-{token}-{int(latency_ms)}://{path}"


def meter_counts(token: str, classify=None) -> dict:
    """Aggregate op counts across every process that metered ``token``.

    Returns ``{op: n}`` — or, with ``classify(path) -> str | None``,
    ``{(op, cls): n}`` over ops whose class is not None."""
    from collections import Counter

    out: Counter = Counter()
    d = os.path.join(_METER_BASE, token)
    if not os.path.isdir(d):
        return {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name)) as f:
            for line in f:
                op, _, path = line.rstrip("\n").partition("\t")
                if classify is None:
                    out[op] += 1
                else:
                    cls = classify(path)
                    if cls is not None:
                        out[(op, cls)] += 1
    return dict(out)


_LOCAL = LocalFS()
_STRICT = StrictObjectFS()
_METERED: dict[tuple[str, int], MeteredStrictFS] = {}


def resolve(root: str) -> tuple[StorageFS, str]:
    """``root`` → (backend, base path).  ``strict://<path>`` selects the
    object-store shim, ``metered-<token>-<ms>://<path>`` the metered
    shim; anything else is the local backend.  The scheme survives
    ``os.path.join`` on derived paths, so resolving any child path of a
    strict/metered root yields the same backend again."""
    if root.startswith(_STRICT_SCHEME):
        return _STRICT, os.path.abspath(root[len(_STRICT_SCHEME):])
    m = _METER_RE.match(root)
    if m:
        key = (m.group(1), int(m.group(2)))
        fs = _METERED.get(key)
        if fs is None:
            fs = _METERED[key] = MeteredStrictFS(*key)
        return fs, os.path.abspath(root[m.end():])
    return _LOCAL, os.path.abspath(root)


def with_scheme(fs: StorageFS, path: str) -> str:
    """Re-attach ``fs``'s scheme to a resolved path (for handing roots
    to other processes/actors so they resolve the same backend)."""
    return f"{fs.scheme}{path}" if fs.scheme else path


# ------------------------------------------------------------------ helpers
# Path-resolving one-liners for call sites that hold scheme-carrying paths
# (checkpoint trees, sink roots).  ``mode="create_or_skip"`` is the default
# for checkpoint artifacts: a re-save at the same (partition, epoch) comes
# from deterministic replay, so an existing complete object is semantically
# identical and the PUT may no-op (the conditional-PUT idempotence rule).

def fput(path: str, data: bytes, *, mode: str = "create_or_skip") -> bool:
    fs, p = resolve(path)
    return fs.put(p, data, mode=mode)


def fget(path: str) -> bytes:
    fs, p = resolve(path)
    return fs.get(p)


def fexists(path: str) -> bool:
    fs, p = resolve(path)
    return fs.exists(p)


def fisdir(path: str) -> bool:
    fs, p = resolve(path)
    return fs.isdir(p)


def flist(path: str) -> list[str]:
    fs, p = resolve(path)
    return fs.list_dir(p)


def fdelete(path: str) -> None:
    fs, p = resolve(path)
    fs.delete(p)


def fensure_dir(path: str) -> None:
    fs, p = resolve(path)
    fs.ensure_dir(p)


def fput_table(table: pa.Table, path: str, *, compression: str = "zstd",
               compression_level: int | None = 1,
               mode: str = "create_or_skip") -> int:
    fs, p = resolve(path)
    return fs.put_table(table, p, compression=compression,
                        compression_level=compression_level, mode=mode)


def fget_table(path: str, columns: list[str] | None = None) -> pa.Table:
    fs, p = resolve(path)
    return fs.get_table(p, columns=columns)


def fput_npz(path: str, *, mode: str = "create_or_skip", **arrays) -> bool:
    import numpy as np

    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return fput(path, buf.getvalue(), mode=mode)


def fget_npz(path: str):
    import numpy as np

    return np.load(io.BytesIO(fget(path)))
