"""The dedup tiers' content pass body (state/content_pass.py), without Ray:
one row window's exact-tier and near-dup-tier index entries."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from hydra_ray.audio import decode_batch
from hydra_ray.stages.audio_features import audio_fingerprint
from hydra_ray.state.content_pass import pass_columns, window_entries
from hydra_ray.state.dedup_index import content_hash_of
from hydra_ray.state.neardup_index import band_entries, shard_of
from hydra_ray.synth import synth_clips_batch

N_DEDUP, N_NEAR, BANDS = 3, 4, 4
COLS = ("bytes",)


def _window() -> pa.Table:
    """40 synth clips (all six codecs, more than one decode chunk) where
    rows 5 and 9 are undecodable (odd-length pcm16) and row 9 is an exact
    copy of row 5; rows 20.. repeat the payloads of rows 0.."""
    t = synth_clips_batch(np.arange(40), 40)
    payloads = t["bytes"].to_pylist()
    codecs = t["codec"].to_pylist()
    for i in range(20, 40):
        payloads[i], codecs[i] = payloads[i - 20], codecs[i - 20]
    for i in (5, 9):
        payloads[i], codecs[i] = b"\x01\x02\x03", "pcm16"
    t = t.set_column(t.schema.get_field_index("bytes"), "bytes",
                     pa.array(payloads, pa.large_binary()))
    t = t.set_column(t.schema.get_field_index("codec"), "codec",
                     pa.array(codecs, pa.string()))
    return t.select(pass_columns(COLS, "audio_fp"))


def _entries(t: pa.Table) -> list:
    return window_entries(t, N_DEDUP, N_NEAR, COLS, BANDS, "audio_fp")


def _rows(entries, kind: str) -> list:
    """The (shard, key…, seq, ts) tuples of one slot kind, sorted."""
    out = []
    for (k, i), arrays, ts in entries:
        if k == kind:
            out += [(i, *row) for row in zip(*(a.tolist() for a in arrays),
                                             ts.tolist())]
    return sorted(out)


def test_window_entries_hash_every_row_fingerprint_decodable_rows():
    t = _window()
    entries = _entries(t)
    seqs = t["seq"].to_numpy()
    ts = t["event_ts"].cast(pa.int64()).to_numpy()

    # exact tier: every row, the undecodable ones included, on shard
    # hash % n
    h = content_hash_of(t, COLS)
    want_d = sorted((int(x % np.uint64(N_DEDUP)), int(x), int(s), int(m))
                    for x, s, m in zip(h, seqs, ts))
    assert _rows(entries, "d") == want_d

    # near-dup tier: the decodable rows' fingerprints, one entry per band
    pcm, err = decode_batch(t["bytes"], t["codec"], t["sr_hz"])
    ok = np.asarray(pc.is_null(err))
    assert ok.sum() == 38 and not ok[5] and not ok[9]
    fps = audio_fingerprint(pa.table({"pcm": pcm.filter(pa.array(ok))}))[
        "afp"].to_numpy().view(np.uint64)
    keys = band_entries(fps, BANDS)
    want_n = sorted(
        (int(d), int(k), int(f), int(s), int(m)) for d, k, f, s, m in zip(
            shard_of(keys, N_NEAR), keys, np.repeat(fps, BANDS),
            np.repeat(seqs[ok], BANDS), np.repeat(ts[ok], BANDS)))
    assert _rows(entries, "n") == want_n


def test_window_entries_split_independent():
    t = _window()
    whole = _entries(t)
    for cut in (1, 6, 33):
        halves = _entries(t.slice(0, cut)) + _entries(t.slice(cut))
        for kind in ("d", "n"):
            assert _rows(halves, kind) == _rows(whole, kind), (cut, kind)


def test_window_entries_tiers_off_and_undecodable_only():
    t = _window()
    assert window_entries(t) == []
    assert {s[0] for s, _, _ in window_entries(t, n_dedup=2,
                                               dedup_cols=COLS)} == {"d"}
    # a window of one undecodable row: hashed, never fingerprinted
    one = _entries(t.slice(5, 1))
    assert [s[0] for s, _, _ in one] == ["d"]
    assert one[0][1][1].tolist() == [5]
