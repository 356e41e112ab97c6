"""M0: synthesis determinism + decode correctness (FIXTURES.md F4 decode oracle).

Per-row invariant vs the reference transform semantics (BASELINE.json
input_hint): decoded PCM allclose with SNR ≥ 30 dB + transcript equality.
"""

import numpy as np
import pyarrow as pa
import pytest

from hydra_ray.audio import (
    DecodeError,
    decode_batch,
    encode,
    encode_pcm16,
    encode_wav,
    snr_db,
    synth_wave,
)
from hydra_ray.stages.decode import AudioDecoder, split_dlq
from hydra_ray.synth import synth_clips_table, synth_updates_table, transcript_for


def test_synth_deterministic():
    a = synth_clips_table(200)
    b = synth_clips_table(200)
    assert a.equals(b)
    # block-independent: synthesizing a sub-range matches the full table
    from hydra_ray.synth import synth_clips_batch

    sub = synth_clips_batch(np.arange(50, 100), 200)
    assert sub.equals(a.slice(50, 50))


def test_hot_keys_present():
    t = synth_clips_table(2000)
    ids = t["clip_id"].to_pylist()
    hot = sum(1 for i, cid in enumerate(ids) if cid != f"clip-{i:08d}")
    assert 100 < hot < 400  # ~10%


def test_decode_oracle_snr():
    t = synth_clips_table(64, hot_fraction=0.0)
    pcm, err = decode_batch(t["bytes"].combine_chunks(), t["codec"], t["sr_hz"])
    assert err.null_count == 64  # all rows ok
    for i in range(64):
        ref = synth_wave(i, t["sr_hz"][i].as_py(), t["dur_ms"][i].as_py())
        got = np.asarray(pcm[i].as_py(), dtype=np.float32)
        assert snr_db(ref, got) >= 30.0, f"row {i}"
        assert t["transcript"][i].as_py() == transcript_for(i)


def test_decode_error_routing():
    wave = synth_wave(0, 8000, 250)
    payloads = pa.array(
        [
            encode_pcm16(wave),
            b"\x01\x02\x03",                      # odd-length pcm16
            encode_wav(wave, 8000),
            b"RIFFbadwavpayload",                  # malformed wav
            encode_pcm16(wave),                    # flac-declared, not FLAC bytes
            encode_pcm16(wave),                    # unknown codec
            encode(wave, "flac", 8000),            # real flac → decodes fine
        ],
        pa.large_binary(),
    )
    codecs = pa.array(["pcm16", "pcm16", "wav", "wav", "flac", "mp3", "flac"])
    srs = pa.array([8000] * 7, pa.int32())
    pcm, err = decode_batch(payloads, codecs, srs)
    errs = err.to_pylist()
    assert errs[0] is None and errs[2] is None and errs[6] is None
    assert "odd byte length" in errs[1]
    assert "RIFF" in errs[3] or "data chunk" in errs[3]
    assert "not a FLAC" in errs[4]
    assert "unknown codec" in errs[5]
    valid = pcm.is_valid().to_pylist() if hasattr(pcm, "is_valid") else []
    assert valid[0] and not valid[1]


def test_wav_sr_mismatch_rejected():
    wave = synth_wave(1, 16000, 250)
    payloads = pa.array([encode_wav(wave, 16000)], pa.large_binary())
    pcm, err = decode_batch(payloads, pa.array(["wav"]), pa.array([8000], pa.int32()))
    assert "sample rate" in err[0].as_py()


def test_decoder_stage_on_dataset(ray_session):
    import ray.data as rd

    t = synth_clips_table(300)
    # poison a few rows
    codecs = t["codec"].to_pylist()
    for i in (5, 17, 40):
        codecs[i] = "flac"
    t = t.set_column(t.schema.get_field_index("codec"), "codec", pa.array(codecs))
    ds = rd.from_arrow(t).map_batches(
        AudioDecoder(), batch_format="pyarrow", batch_size=64
    )
    main, dlq = split_dlq(ds)
    # NB: never take_all() a PCM list column — converting millions of
    # samples to Python objects is pathological; assert on counts/metadata.
    assert main.count() == 297
    dlq_rows = dlq.take_all()
    assert len(dlq_rows) == 3
    assert all("FLAC" in r["decode_error"] for r in dlq_rows)
    assert "bytes" not in main.schema().names
    assert "pcm" in main.schema().names


def test_updates_table_shape():
    u = synth_updates_table(1000)
    assert u.num_rows > 300
    tombs = u["transcript"].null_count
    assert 0 < tombs < u.num_rows * 0.15
    ts = u["event_ts"].to_pylist()
    # arrival order is sorted by nominal arrival, but event_ts of late rows dips
    revs = set(u["revision"].to_pylist())
    assert revs <= {1, 2, 3}


def test_size_limit_filter():
    t = synth_clips_table(16, hot_fraction=0.0)
    dec = AudioDecoder(record_size_limit=10_000)
    out = dec(t)
    errs = [e for e in out["decode_error"].to_pylist() if e]
    assert any("RecordTooLarge" in e for e in errs)


def test_g711_and_pcm8_f32_roundtrip():
    """New real codecs: µ-law/A-law ≈ 37–38 dB SNR, pcm8 ≈ 8-bit linear,
    f32 lossless — all through the batched decode path."""
    from hydra_ray.audio import decode_batch, encode, synth_wave

    wave = synth_wave(7, 16000, 500)
    codecs = ["mulaw", "alaw", "pcm8", "f32"]
    payloads = pa.array([encode(wave, c, 16000) for c in codecs], pa.large_binary())
    pcm, err = decode_batch(payloads, pa.array(codecs), pa.array([16000] * 4))
    assert err.null_count == 4, err.to_pylist()
    floors = {"mulaw": 30.0, "alaw": 30.0, "pcm8": 40.0, "f32": 120.0}
    for i, c in enumerate(codecs):
        got = np.asarray(pcm[i].as_py(), dtype=np.float32)
        s = snr_db(wave, got)
        assert s >= floors[c], (c, s)


def test_f32_bad_length_routed():
    from hydra_ray.audio import decode_batch

    pcm, err = decode_batch(
        pa.array([b"\x00\x00\x00"], pa.large_binary()), pa.array(["f32"]), None
    )
    assert err[0].as_py() is not None


def test_audio_fingerprint_invariance_and_neardup(ray_session):
    """Fingerprint: amplitude-scale invariant, batch-independent; the
    audio_neardup query recovers every planted noisy-copy pair."""
    import numpy as np
    import pyarrow as pa

    from hydra_ray.stages.audio_features import audio_fingerprint

    def clip(seed, n=8000):
        r = np.random.default_rng(seed)
        env = np.repeat(r.uniform(0.2, 1.0, 20), n // 20 + 1)[:n]
        t = np.arange(n) / 16000
        return (env * np.sin(2 * np.pi * (200 + seed * 37 % 800) * t)).astype(
            np.float32
        )

    clips = [clip(i) for i in range(12)]

    def tbl(pcms):
        return pa.table(
            {"pcm": pa.array([p.tolist() for p in pcms], pa.large_list(pa.float32()))}
        )

    fp = audio_fingerprint(tbl(clips))["afp"].to_numpy()
    assert (fp == audio_fingerprint(tbl([c * 2.5 for c in clips]))["afp"].to_numpy()).all()
    singles = np.concatenate(
        [audio_fingerprint(tbl([c]))["afp"].to_numpy() for c in clips]
    )
    assert (fp == singles).all()

    import __ray_entry__ as entrymod

    pairs = entrymod.queries()["audio_neardup"]("/root/testdata/sf0.001").to_pandas()
    planted = {(i - 1, i) for i in range(600) if i % 3 == 1}
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    missed = planted - got
    assert not missed, f"{len(missed)} planted pairs missed: {sorted(missed)[:5]}"
    # false positives are possible in principle but the fixture is distant
    extras = got - planted
    assert len(extras) <= 2, sorted(extras)[:5]


def test_audio_fingerprint_bits_pinned():
    """The fingerprint's bits are fixed: every kernel or chunking change
    must keep this digest of the int64 fingerprints of 36 synth clips (all
    six codecs) plus one empty clip, computed whole and in 1-, 16- and
    32-row chunks.  The near-dup tier's committed indexes hold these bits,
    so a changed bit would silently break near-dup matching across a
    restart onto new code."""
    import hashlib

    from hydra_ray.stages.audio_features import audio_fingerprint
    from hydra_ray.synth import synth_clips_batch

    t = synth_clips_batch(np.arange(36), 36, seed=7)
    assert set(t["codec"].to_pylist()) == {
        "pcm16", "wav", "mulaw", "alaw", "pcm8", "f32"}
    pcm, err = decode_batch(t["bytes"], t["codec"], t["sr_hz"])
    assert err.null_count == len(err)
    pcm = pa.concat_arrays(
        [pcm.slice(0, 17), pa.array([[]], pcm.type), pcm.slice(17)])

    def fps(p):
        return audio_fingerprint(pa.table({"pcm": p}))["afp"].to_numpy()

    pinned = "6f0819da23de72a274b97e81569cf989c65d7d57acc0ab582c71db1c60f14efa"
    for k in (len(pcm), 1, 16, 32):
        got = np.concatenate(
            [fps(pcm.slice(lo, k)) for lo in range(0, len(pcm), k)])
        assert got.dtype == np.int64 and len(got) == 37
        assert hashlib.sha256(got.tobytes()).hexdigest() == pinned, k


def test_validate_only_parity():
    """decode_batch(validate_only=True) must return exactly the full
    path's (n_samples, decode_error) — including flac/adpcm bitstream
    errors and every structural rejection — with no pcm buffer built."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from hydra_ray.audio import decode_batch, encode
    from hydra_ray.synth import synth_clips_table

    t = synth_clips_table(120)
    payloads = list(t["bytes"].to_pylist())
    codecs = list(t["codec"].to_pylist())
    srs = list(t["sr_hz"].to_pylist())
    # poison rows: odd pcm16, garbage wav, truncated f32, unknown codec
    payloads[3] = payloads[3][:-1]; codecs[3] = "pcm16"
    payloads[7] = b"garbage"; codecs[7] = "wav"
    payloads[11] = b"\x00\x01\x02"; codecs[11] = "f32"
    codecs[13] = "opus"
    pl = pa.array(payloads, pa.binary())
    cd = pa.array(codecs, pa.string())
    sr = pa.array(srs, pa.int32())

    pcm, err_full = decode_batch(pl, cd, sr)
    n_full = pc.list_value_length(pcm)
    n_val, err_val = decode_batch(pl, cd, sr, validate_only=True)

    assert err_val.to_pylist() == err_full.to_pylist()
    assert n_val.to_pylist() == n_full.to_pylist()
