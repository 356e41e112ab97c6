"""``read_replicated`` on hand-built out roots (Ray-free): the one-buffer
parallel decode against a take-based oracle kept here — the join, take
and whole-table decode the read path did before."""

import tempfile
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydra_ray.audio import decode_batch, encode
from hydra_ray.pipelines.replicate import read_replicated
from hydra_ray.table import Table

CODECS = ("wav", "pcm16", "flac", "adpcm", "mulaw", "f32")
SR = 8000


def _payload_row(seq: int, codec: str, n: int) -> dict:
    wave = np.random.default_rng(seq).uniform(-0.9, 0.9, n)
    return {"seq": seq, "bytes": encode(wave.astype(np.float32), codec, SR),
            "codec": codec, "sr_hz": SR}


def _write(root: str, rows: pa.Table, cuts: list) -> None:
    """``rows`` as one fragment per span between ``cuts``."""
    t = Table.create(root, schema=rows.schema)
    for a, b in zip([0] + cuts, cuts + [rows.num_rows]):
        if b > a:
            t.append(rows.slice(a, b - a))


def _out_root(root: str, payload: list, light_seqs: list,
              payload_cuts: list, light_cuts: list,
              n_samples: list | None = None) -> None:
    heavy = pa.Table.from_pylist(payload, schema=pa.schema([
        ("seq", pa.int64()), ("bytes", pa.binary()), ("codec", pa.string()),
        ("sr_hz", pa.int32())]))
    if n_samples is None:
        # staged as the passthrough router stages it: n_samples from the
        # validating decode
        n_samples, err = decode_batch(heavy["bytes"], heavy["codec"],
                                      heavy["sr_hz"], validate_only=True)
        assert err.null_count == len(err)
    n_samples = pa.array(n_samples, pa.int32())
    _write(f"{root}/payload", heavy.append_column("n_samples", n_samples),
           payload_cuts)
    light = pa.table({
        "seq": pa.array(light_seqs, pa.int64()),
        "clip_id": pa.array([f"c{s}" for s in light_seqs], pa.string()),
    })
    _write(f"{root}/replicated", light, light_cuts)


def _oracle(root: str) -> pa.Table:
    light = Table(f"{root}/replicated").to_arrow()
    payload = Table(f"{root}/payload").to_arrow()
    pos = {s: i for i, s in enumerate(payload["seq"].to_pylist())}
    matched = payload.take(pa.array(
        [pos.get(s) for s in light["seq"].to_pylist()], pa.int64()))
    pcm, err = decode_batch(matched["bytes"].combine_chunks(),
                            matched["codec"], matched["sr_hz"])
    # the only failed rows are the null (not committed) ones
    assert pc.is_null(err).equals(
        pc.is_valid(matched["bytes"]).combine_chunks())
    return (light.append_column("pcm", pcm)
            .append_column("n_samples", matched["n_samples"]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_read_replicated_matches_take_oracle(data):
    n = data.draw(st.integers(1, 20), label="payload rows")
    codecs = data.draw(st.lists(st.sampled_from(CODECS), min_size=n,
                                max_size=n))
    lens = data.draw(st.lists(st.integers(1, 400), min_size=n, max_size=n))
    seqs = [3 * i + 1 for i in range(n)]
    payload = [_payload_row(s, c, k) for s, c, k in zip(seqs, codecs, lens)]
    # payload rows in any order, split into fragments anywhere
    payload = [payload[i] for i in data.draw(st.permutations(range(n)))]
    payload_cuts = sorted(data.draw(st.sets(st.integers(1, n), max_size=4)))
    # finalize rows: a subset of the payload (the rest is hidden; a seq
    # may repeat) plus rows whose payload is not committed (null rows),
    # shuffled
    shown = data.draw(st.lists(st.sampled_from(seqs), max_size=2 * n))
    missing = [10_000 + j for j in range(data.draw(st.integers(0, 3)))]
    light_seqs = data.draw(st.permutations(shown + missing))
    m = len(light_seqs)
    light_cuts = sorted(data.draw(st.sets(st.integers(1, max(m, 1)),
                                          max_size=3)))
    threads = data.draw(st.integers(1, 6), label="pool threads")
    with tempfile.TemporaryDirectory() as root:
        _out_root(root, payload, light_seqs, payload_cuts, light_cuts)
        with mock.patch("hydra_ray.pipelines.replicate.read_threads",
                        lambda: threads):
            got = read_replicated(root)
        want = _oracle(root)
    assert got.column_names == ["seq", "clip_id", "pcm", "n_samples"]
    assert got.equals(want)
    assert got["pcm"].null_count == len(missing)
    # bit-identical samples, not just equal floats
    flat = [np.asarray(pc.list_flatten(t["pcm"]).combine_chunks(),
                       np.float32).view(np.uint32) for t in (got, want)]
    assert np.array_equal(*flat)


def test_duplicate_payload_seq_raises(tmp_path):
    root = str(tmp_path)
    row = _payload_row(5, "pcm16", 10)
    _out_root(root, [row, dict(row)], [5], [1], [])
    with pytest.raises(ValueError, match="duplicate"):
        read_replicated(root)


def test_staged_length_mismatch_raises(tmp_path):
    """A row that decodes to another length than its staged n_samples
    would leave its span unfilled (or overrun the next): the read fails."""
    root = str(tmp_path)
    rows = [_payload_row(1, "f32", 10), _payload_row(2, "pcm16", 10)]
    _out_root(root, rows, [1, 2], [], [], n_samples=[12, 10])
    with pytest.raises(ValueError, match="re-decode failed.*decoded 10"):
        read_replicated(root)


def test_many_threads_fill_disjoint_spans(tmp_path):
    """More pool threads than CPUs, one row per window, and a short
    switch interval: every row still lands in its own span."""
    import sys

    root = str(tmp_path)
    rows = [_payload_row(s, CODECS[s % len(CODECS)], 50 + 7 * s)
            for s in range(64)]
    light_seqs = list(np.random.default_rng(0).permutation(64)) + [999]
    _out_root(root, rows, light_seqs, [16, 40], [30])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch("hydra_ray.pipelines.replicate.read_threads",
                        lambda: 64):
            got = read_replicated(root)
    finally:
        sys.setswitchinterval(interval)
    assert got.equals(_oracle(root))
