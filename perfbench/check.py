"""Output check: order- and layout-independent content digests.

A digest covers every value of the selected columns and ignores row
order, fragment layout and compression: each row becomes one canonical
byte string (columns in name order, timestamps as integer ms, binary and
list cells by content hash), and the digest is the SHA-256 of the sorted
row hashes plus the row count.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _cells(col: pa.ChunkedArray) -> list[bytes]:
    arr = col.combine_chunks()
    t = arr.type
    valid = np.asarray(arr.is_valid())
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        offs = arr.offsets.to_numpy(zero_copy_only=False)
        flat = arr.values.to_numpy(zero_copy_only=False)
        return [
            hashlib.blake2b(flat[offs[i]:offs[i + 1]].tobytes(),
                            digest_size=16).digest() if valid[i] else b"\0"
            for i in range(len(arr))
        ]
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return [b"\0" if v is None else hashlib.blake2b(
            v, digest_size=16).digest() for v in arr.to_pylist()]
    if pa.types.is_timestamp(t):
        arr = pc.cast(arr, pa.int64())
    return [repr(v).encode() for v in arr.to_pylist()]


def table_digest(table: pa.Table, columns: list[str] | None = None) -> str:
    names = sorted(columns if columns is not None else table.column_names)
    cols = [_cells(table[n]) for n in names]
    rows = sorted(
        hashlib.blake2b(b"\x1f".join(cells), digest_size=16).digest()
        for cells in zip(*cols)
    )
    h = hashlib.sha256(f"{table.num_rows}|{','.join(names)}|".encode())
    for r in rows:
        h.update(r)
    return h.hexdigest()


def _row_set(table: pa.Table, columns: list[str]) -> set:
    cols = [_cells(table[n]) for n in sorted(columns)]
    return set(zip(*cols))


def compare(name: str, actual: pa.Table, expected: pa.Table,
            columns: list[str]) -> list[str]:
    """Problems found comparing ``actual`` with the reference on
    ``columns`` (empty when the digests match)."""
    missing = [c for c in columns if c not in actual.column_names]
    if missing:
        return [f"{name}: columns {missing} missing"]
    if table_digest(actual, columns) == table_digest(expected, columns):
        return []
    got, want = _row_set(actual, columns), _row_set(expected, columns)
    return [
        f"{name}: digest differs from the reference ({actual.num_rows} rows,"
        f" expected {expected.num_rows}; {len(got - want)} unexpected,"
        f" {len(want - got)} missing, e.g. {sorted(got ^ want)[:2]})"
    ]


def check_outputs(out: dict, ref: dict) -> list[str]:
    """All problems with one run's committed outputs."""
    from .streams import REPLICATED_COLS, SESSIONS_COLS, WINDOWS_COLS

    problems = []
    got = [{k: e[k] for k in ("epoch", "wm_prev", "wm_close")}
           for e in out["lineage"]]
    if got != ref["lineage"]:
        problems.append(f"lineage {got} != expected {ref['lineage']}")
    if out["replicated"].num_rows != ref["kept"]:
        problems.append(f"replicated has {out['replicated'].num_rows} rows,"
                        f" expected the {ref['kept']} kept clips")
    for name, cols in (("replicated", REPLICATED_COLS),
                       ("windows", WINDOWS_COLS),
                       ("sessions", SESSIONS_COLS)):
        problems += compare(name, out[name], ref[name], cols)
    rb = out["readback"]
    if rb.num_rows != ref["kept"]:
        problems.append(f"read-back has {rb.num_rows} rows, expected"
                        f" {ref['kept']}")
    if "pcm" not in rb.column_names or rb["pcm"].null_count:
        problems.append("read-back is missing decoded payload")
    else:
        lens = pc.list_value_length(rb["pcm"]).to_numpy(zero_copy_only=False)
        want = np.round(rb["sr_hz"].to_numpy() * rb["dur_ms"].to_numpy()
                        / 1000.0).astype(np.int64)
        if not np.array_equal(lens, want):
            problems.append(f"{int((lens != want).sum())} read-back clips"
                            " have the wrong sample count")
    return problems
