"""write_partitioned: per-partition _DONE commit + skip-finished resume."""

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from hydra_ray.sinks import done_partitions, write_partitioned


@pytest.fixture()
def rd(ray_session):
    import ray.data as rd

    return rd


def _df(n=1000):
    rng = np.random.default_rng(5)
    return pd.DataFrame({
        "k": rng.integers(0, 200, n).astype(str),
        "v": np.arange(n),
    })


def _read_all(root: str) -> pd.DataFrame:
    parts = []
    for name in sorted(os.listdir(root)):
        if not name.startswith("partition="):
            continue
        d = os.path.join(root, name)
        for f in sorted(os.listdir(d)):
            if f.endswith(".parquet"):
                parts.append(pq.read_table(os.path.join(d, f)).to_pandas())
    return pd.concat(parts) if parts else pd.DataFrame(columns=["k", "v"])


def test_write_partitioned_roundtrip_and_markers(rd, tmp_path):
    root = str(tmp_path / "out")
    df = _df()
    committed = write_partitioned(rd.from_pandas(df).repartition(6), root, "k",
                                  num_partitions=16)
    assert set(committed) == set(range(16))  # empty partitions commit too
    assert done_partitions(root) == set(range(16))
    assert sum(committed.values()) == len(df)
    back = _read_all(root).sort_values("v").reset_index(drop=True)
    assert back["v"].tolist() == df["v"].tolist()
    # marker row counts match files on disk
    for p, rows in committed.items():
        d = os.path.join(root, f"partition={p}")
        disk = sum(pq.read_metadata(os.path.join(d, f)).num_rows
                   for f in os.listdir(d) if f.endswith(".parquet"))
        assert disk == rows


def test_write_partitioned_skips_done(rd, tmp_path):
    """Partitions with _DONE (e.g. from a crashed-then-adopted run) are
    filtered at the map stage: their files are never touched again and
    the second run writes exactly the remaining rows."""
    root = str(tmp_path / "out")
    df = _df()
    full = write_partitioned(rd.from_pandas(df).repartition(6), root, "k",
                             num_partitions=16)
    # wipe markers for half the partitions and delete their files —
    # simulates a run that crashed before committing those partitions
    redo = set(range(8))
    mtimes = {}
    for p in range(16):
        d = os.path.join(root, f"partition={p}")
        if p in redo:
            for f in list(os.listdir(d)):
                os.unlink(os.path.join(d, f))
        else:
            mtimes[p] = os.path.getmtime(os.path.join(d, "_DONE"))
    committed = write_partitioned(rd.from_pandas(df).repartition(6), root, "k",
                                  num_partitions=16)
    assert set(committed) == redo
    assert sum(committed.values()) == sum(full[p] for p in redo)
    # untouched partitions keep their original marker (never rewritten)
    for p, t in mtimes.items():
        assert os.path.getmtime(os.path.join(root, f"partition={p}", "_DONE")) == t
    back = _read_all(root).sort_values("v").reset_index(drop=True)
    assert back["v"].tolist() == df["v"].tolist()


def test_write_partitioned_recovers_from_crash_mid_adoption(rd, tmp_path):
    """Orphan parquet files in a partition dir without _DONE (crash
    between the data write and the _DONE manifest) must not duplicate
    rows on resume."""
    root = str(tmp_path / "out")
    df = pd.DataFrame({"k": [str(i % 40) for i in range(500)], "v": range(500)})
    write_partitioned(rd.from_pandas(df).repartition(4), root, "k",
                      num_partitions=8)
    victim = os.path.join(root, "partition=3")
    os.unlink(os.path.join(victim, "_DONE"))
    assert any(f.endswith(".parquet") for f in os.listdir(victim))
    write_partitioned(rd.from_pandas(df).repartition(4), root, "k",
                      num_partitions=8)
    back = _read_all(root).sort_values("v").reset_index(drop=True)
    assert back["v"].tolist() == list(range(500))  # exactly once, no dups


def test_write_partitioned_drops_preexisting_partition_column(rd, tmp_path):
    from hydra_ray.hashing import add_partition_column

    root = str(tmp_path / "out")
    df = pd.DataFrame({"k": ["a", "b", "c"], "v": [1, 2, 3],
                       "partition": [99, 99, 99]})
    committed = write_partitioned(rd.from_pandas(df), root, "k", num_partitions=4)
    assert sum(committed.values()) == 3


def test_sorted_write_and_read_sorted(ray_session, tmp_path):
    """sorted_write lays ranges out in key order with rows sorted inside
    each part; read_sorted re-reads the tree globally sorted — no
    all-to-all ds.sort anywhere."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ray.data import DataContext

    from hydra_ray.sinks import ordered_execution, read_sorted, sorted_write

    rng = np.random.default_rng(17)
    n = 5_000
    df = pd.DataFrame({
        "v": rng.integers(0, 800, n),          # ties guaranteed
        "id": np.arange(n),
    })
    root = str(tmp_path / "sorted")
    committed = sorted_write(
        rd.from_pandas(df).repartition(8), "v", root,
        tiebreak_cols=("id",), num_partitions=16)
    assert sum(committed.values()) == n

    prev = DataContext.get_current().execution_options.preserve_order
    with ordered_execution():
        assert DataContext.get_current().execution_options.preserve_order
        back = read_sorted(root).to_pandas()
    # the scope restores the process-global flag (ADVICE r2)
    assert DataContext.get_current().execution_options.preserve_order == prev
    assert len(back) == n
    v = back["v"].to_numpy()
    assert (v[1:] >= v[:-1]).all()             # globally sorted
    # tiebreak applied: ids ascend within equal values
    brk = np.r_[True, v[1:] != v[:-1]]
    grp = np.cumsum(brk)
    ids = back["id"].to_numpy()
    same = grp[1:] == grp[:-1]
    assert (ids[1:][same] > ids[:-1][same]).all()
    # content preserved exactly
    assert sorted(ids.tolist()) == list(range(n))


def test_ipc_roundtrip_nested_and_pruned(rd, tmp_path):
    """Arrow IPC edge: nested list<float> + timestamp columns survive
    bit-exactly through write_ipc/read_ipc; column pruning on read;
    empty input dir raises."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from hydra_ray.sources.ipc import read_ipc, write_ipc

    t = pa.table({
        "id": pa.array(range(100), pa.int64()),
        "vec": pa.array([[float(i), i + 0.5] for i in range(100)],
                        pa.list_(pa.float32())),
        "ts": pa.array(
            pd.date_range("2024-01-01", periods=100, freq="h")),
    })
    out = tmp_path / "ipc"
    n = write_ipc(rd.from_arrow(t).repartition(4), str(out))
    assert n == 100
    assert len(list(out.glob("*.arrow"))) >= 2  # one file per batch task

    back = read_ipc(str(out)).to_pandas().sort_values("id").reset_index(drop=True)
    want = t.to_pandas()
    assert back["ts"].equals(want["ts"])
    assert all(np.array_equal(a, b) for a, b in zip(back["vec"], want["vec"]))

    pruned = read_ipc(str(out), columns=["id"]).schema().names
    assert pruned == ["id"]

    with pytest.raises(ValueError):
        read_ipc(str(tmp_path / "nothing_here"))


def test_write_partitioned_on_strict_backend(rd, tmp_path):
    """The _DONE-manifest commit protocol runs on the object-store shim
    (no rename / no overwrite): write, crash-sim (drop one marker),
    resume, read back exactly once via the committed file lists."""
    from hydra_ray.fs import fdelete
    from hydra_ray.sinks import partition_files

    root = f"strict://{tmp_path}/out"
    df = _df(600)
    full = write_partitioned(rd.from_pandas(df).repartition(4), root, "k",
                             num_partitions=8)
    assert sum(full.values()) == len(df)
    # crash-sim: partition 3 loses its commit marker (files remain)
    import os
    fdelete(os.path.join(root, "partition=3", "_DONE"))
    redo = write_partitioned(rd.from_pandas(df).repartition(4), root, "k",
                             num_partitions=8)
    assert set(redo) == {3}
    # committed file lists read back the full frame exactly once
    import pyarrow.parquet as pq2
    parts = []
    for p in range(8):
        for f in partition_files(root, p):
            parts.append(pq2.read_table(f).to_pandas())
    back = pd.concat(parts).sort_values("v").reset_index(drop=True)
    assert back["v"].tolist() == df["v"].tolist()


def test_done_marker_without_file_list_raises(tmp_path):
    """A ``_DONE`` marker that names no files raises instead of treating
    every parquet file in the partition dir as committed."""
    import json

    from hydra_ray.sinks import partition_dir, partition_files

    root = str(tmp_path / "out")
    d = partition_dir(root, 0)
    os.makedirs(d)
    pd.DataFrame({"v": [1]}).to_parquet(os.path.join(d, "orphan.parquet"))
    with open(os.path.join(d, "_DONE"), "w") as f:
        json.dump({"rows": 1}, f)
    with pytest.raises(ValueError, match="names no committed files"):
        partition_files(root, 0)
