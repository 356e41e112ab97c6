"""Vectorized audio encode/decode kernels (the "transform" stage payload).

The reference's transform stage is a per-record JSON→Avro converter
(`avro/src/main/java/com/pluralsight/hydra/avro/JsonConverter.java:120-231`):
parse the opaque payload against a schema, coerce types, route failures.
In this engine the payload is audio — an opaque ``binary`` column plus a
``codec`` column — and the transform is a *vectorized* decode over Arrow
batches:

- ``pcm16``: raw little-endian int16 PCM.  Decoded zero-copy: one
  ``np.frombuffer`` over the Arrow binary column's contiguous data buffer,
  split by the value offsets — no per-row work at all.
- ``wav``: RIFF/WAVE container (PCM16 payload).  Headers are parsed
  per-row (a few bytes each); payloads are decoded with zero-copy
  ``frombuffer`` views.
- ``mulaw`` / ``alaw``: G.711 companded telephony audio, decoded with a
  256-entry float32 lookup table (one gather per row) — real codecs,
  round-trip SNR ≈ 37–38 dB.
- ``pcm8``: unsigned 8-bit linear PCM (WAV convention), LUT decode.
- ``f32``: raw little-endian float32 samples (lossless).
- ``flac``: REAL FLAC-subset codec (``hydra_ray.flaclite``, pure numpy):
  actual FLAC bitstream — STREAMINFO, CRC-8/CRC-16 framing, UTF-8 frame
  numbers, constant/verbatim/fixed-predictor subframes with Rice-coded
  residuals (decode is a vectorized pointer-doubling orbit over the bit
  array, not a per-residual Python loop); LPC subframes (orders 1-32)
  decode too.  Bit-lossless against the pcm16 quantization of the same
  wave; out-of-subset payloads (stereo, non-16-bit, wasted bits) raise
  ``DecodeError`` → DLQ, mirroring the reference's unsupported-type
  rejection (`JsonConverter.java:94-97`).

Decode errors never throw out of the batch kernel: they land in an error
column, and the caller splits main / DLQ — the reference's
deserialization-error router (`KafkaClientAlgebra.scala:354-400`).
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

__all__ = [
    "UnsupportedCodecError",
    "DecodeError",
    "synth_wave",
    "encode_pcm16",
    "encode_wav",
    "encode_mulaw",
    "encode_alaw",
    "encode_pcm8",
    "encode_f32",
    "encode",
    "decode_batch",
    "snr_db",
]

_SUPPORTED_CODECS = ("pcm16", "wav", "mulaw", "alaw", "pcm8", "f32", "flac")


class DecodeError(ValueError):
    """Malformed payload for the declared codec."""


class UnsupportedCodecError(NotImplementedError):
    """Codec is recognized but no decoder is available in this build."""


# ---------------------------------------------------------------------------
# synthesis + encode (used by fixtures and by the decode oracle in tests)
# ---------------------------------------------------------------------------

def synth_wave(i: int, sr_hz: int, dur_ms: int) -> np.ndarray:
    """Deterministic waveform for row ``i`` (FIXTURES.md F1, seed-free).

    ``0.8/1.1 * (sin(2π f t) + 0.1 sin(2π 3f t))``, ``f = 220 + (i % 64)·7``.
    """
    n = int(round(sr_hz * dur_ms / 1000.0))
    t = np.arange(n, dtype=np.float64) / sr_hz
    f = 220.0 + (i % 64) * 7.0
    w = np.sin(2 * np.pi * f * t) + 0.1 * np.sin(2 * np.pi * 3 * f * t)
    return (w * (0.8 / 1.1)).astype(np.float32)


def encode_pcm16(wave: np.ndarray) -> bytes:
    x = np.clip(wave, -1.0, 1.0)
    return (x * 32767.0).astype("<i2").tobytes()


def encode_wav(wave: np.ndarray, sr_hz: int) -> bytes:
    """Minimal canonical 44-byte RIFF/WAVE header + PCM16 data chunk."""
    data = encode_pcm16(wave)
    n = len(data)
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + n, b"WAVE",
        b"fmt ", 16,
        1,                  # PCM
        1,                  # mono
        sr_hz,
        sr_hz * 2,          # byte rate
        2,                  # block align
        16,                 # bits per sample
        b"data", n,
    )
    return hdr + data


_MULAW_ENC_LUT = None


def _mulaw_enc_lut() -> np.ndarray:
    """int16 sample (+32768 offset) → µ-law byte, 64 Ki LUT (built once —
    the per-sample log2 of the direct formula dominates synthesis cost)."""
    global _MULAW_ENC_LUT
    if _MULAW_ENC_LUT is None:
        x = np.arange(-32768, 32768, dtype=np.int32)
        sign = np.where(x < 0, 0x80, 0).astype(np.int32)
        m = np.minimum(np.abs(x), 32635) + 0x84
        exponent = np.clip(np.floor(np.log2(m)).astype(np.int32) - 7, 0, 7)
        mantissa = (m >> (exponent + 3)) & 0x0F
        _MULAW_ENC_LUT = (~(sign | (exponent << 4) | mantissa) & 0xFF).astype(np.uint8)
    return _MULAW_ENC_LUT


def encode_mulaw(wave: np.ndarray) -> bytes:
    """G.711 µ-law companding: 1 byte per sample, ~38 dB SNR at nominal
    level.  One clip/scale pass + one LUT gather."""
    x = (np.clip(wave, -1.0, 1.0) * 32767.0).astype(np.int32)
    return _mulaw_enc_lut()[x + 32768].tobytes()


_MULAW_LUT = None


def _mulaw_lut() -> np.ndarray:
    global _MULAW_LUT
    if _MULAW_LUT is None:
        y = np.arange(256, dtype=np.int32) ^ 0xFF
        sign = y & 0x80
        exponent = (y >> 4) & 0x07
        mantissa = y & 0x0F
        sample = (((mantissa << 3) + 0x84) << exponent) - 0x84
        sample = np.where(sign != 0, -sample, sample)
        _MULAW_LUT = (sample / 32768.0).astype(np.float32)
    return _MULAW_LUT


_ALAW_ENC_LUT = None


def _alaw_enc_lut() -> np.ndarray:
    global _ALAW_ENC_LUT
    if _ALAW_ENC_LUT is None:
        x = np.arange(-32768, 32768, dtype=np.int32)
        sign = np.where(x < 0, 0x80, 0).astype(np.int32)
        a = np.minimum(np.abs(x) >> 4, 0xFFF)
        position = np.maximum(
            np.floor(np.log2(np.maximum(a, 1))).astype(np.int32), 4
        )
        lsb = np.where(position == 4, (a >> 1) & 0x0F, (a >> (position - 4)) & 0x0F)
        _ALAW_ENC_LUT = (((sign | ((position - 4) << 4) | lsb) ^ 0x55) & 0xFF).astype(
            np.uint8
        )
    return _ALAW_ENC_LUT


def encode_alaw(wave: np.ndarray) -> bytes:
    """G.711 A-law companding (12-bit magnitude form), LUT-gather encode."""
    x = (np.clip(wave, -1.0, 1.0) * 32767.0).astype(np.int32)
    return _alaw_enc_lut()[x + 32768].tobytes()


_ALAW_LUT = None


def _alaw_lut() -> np.ndarray:
    global _ALAW_LUT
    if _ALAW_LUT is None:
        y = np.arange(256, dtype=np.int32) ^ 0x55
        sign = y & 0x80
        pos = ((y >> 4) & 0x07) + 4
        lsb = y & 0x0F
        mag = np.where(
            pos != 4,
            (1 << pos) | (lsb << (pos - 4)) | (1 << (pos - 5)),
            (lsb << 1) | 1,
        )
        sample = np.where(sign != 0, -mag, mag)
        _ALAW_LUT = (sample * 16 / 32768.0).astype(np.float32)
    return _ALAW_LUT


def encode_pcm8(wave: np.ndarray) -> bytes:
    """Unsigned 8-bit linear PCM (offset-binary, WAV convention)."""
    x = np.clip(wave, -1.0, 1.0)
    return (np.round(x * 127.0) + 128).astype(np.uint8).tobytes()


_PCM8_LUT = None


def _pcm8_lut() -> np.ndarray:
    global _PCM8_LUT
    if _PCM8_LUT is None:
        _PCM8_LUT = ((np.arange(256, dtype=np.float32) - 128.0) / 127.0).astype(
            np.float32
        )
    return _PCM8_LUT


def encode_f32(wave: np.ndarray) -> bytes:
    """Raw little-endian float32 samples (lossless)."""
    return np.asarray(wave, dtype="<f4").tobytes()


def encode(wave: np.ndarray, codec: str, sr_hz: int) -> bytes:
    if codec == "pcm16":
        return encode_pcm16(wave)
    if codec == "wav":
        return encode_wav(wave, sr_hz)
    if codec == "mulaw":
        return encode_mulaw(wave)
    if codec == "alaw":
        return encode_alaw(wave)
    if codec == "pcm8":
        return encode_pcm8(wave)
    if codec == "f32":
        return encode_f32(wave)
    if codec == "flac":
        from .flaclite import encode_flac

        return encode_flac(wave, sr_hz)
    if codec == "adpcm":
        from .adpcmlite import encode_adpcm

        return encode_adpcm(wave, sr_hz)
    raise UnsupportedCodecError(f"no encoder for codec {codec!r}")


# ---------------------------------------------------------------------------
# vectorized decode
# ---------------------------------------------------------------------------

def _binary_views(col: pa.Array):
    """(flat_data: np.uint8 view, offsets: np.int64, validity) — zero copy."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_large_binary(col.type) or pa.types.is_large_string(col.type):
        off_dtype = np.int64
    else:
        off_dtype = np.int32
    buffers = col.buffers()
    offsets = np.frombuffer(buffers[1], dtype=off_dtype)[
        col.offset : col.offset + len(col) + 1
    ].astype(np.int64)
    data = np.frombuffer(buffers[2], dtype=np.uint8) if buffers[2] is not None else np.empty(0, np.uint8)
    return data, offsets


def _wav_data_span(raw: memoryview) -> tuple[int, int, int]:
    """Parse a RIFF/WAVE header → (data_offset, data_len, sr_hz).

    Walks chunks properly (handles extra chunks before ``data``).
    """
    if len(raw) < 12 or bytes(raw[0:4]) != b"RIFF" or bytes(raw[8:12]) != b"WAVE":
        raise DecodeError("not a RIFF/WAVE payload")
    pos, sr = 12, None
    while pos + 8 <= len(raw):
        cid = bytes(raw[pos : pos + 4])
        (clen,) = struct.unpack_from("<I", raw, pos + 4)
        if cid == b"fmt ":
            fmt_code, channels, sr = struct.unpack_from("<HHI", raw, pos + 8)
            bits = struct.unpack_from("<H", raw, pos + 22)[0]
            if fmt_code != 1 or bits != 16 or channels != 1:
                raise DecodeError(
                    f"unsupported wav format (code={fmt_code}, bits={bits}, ch={channels})"
                )
        elif cid == b"data":
            if sr is None:
                raise DecodeError("wav data chunk before fmt chunk")
            if pos + 8 + clen > len(raw):
                raise DecodeError("wav data chunk truncated")
            return pos + 8, clen, sr
        pos += 8 + clen + (clen & 1)
    raise DecodeError("wav payload has no data chunk")


def decode_batch(
    payloads: pa.Array,
    codecs: pa.Array,
    sr_hz: pa.Array | None = None,
    validate_only: bool = False,
    out: np.ndarray | None = None,
    out_offsets: np.ndarray | None = None,
) -> tuple[pa.LargeListArray, pa.Array]:
    """Decode a batch of audio payloads → (pcm list<float32>, error string).

    Vectorized along these axes:
      * codec dispatch is per-batch (numpy mask), not per-row branching
      * pcm16 rows decode as ONE ``frombuffer`` over the Arrow data buffer
      * wav rows parse a tiny header per row, then zero-copy ``frombuffer``
        slices; the int16→float32 scale is a single vectorized op over the
        concatenated output buffer

    Returns a ``large_list<float32>`` column (null for failed rows) and a
    string error column (null for ok rows).  Mirrors the reference's
    per-record Either[Throwable, Record] decode routing
    (`KafkaClientAlgebra.scala:354-378`) without per-row exceptions.

    ``validate_only=True`` runs the IDENTICAL validation (structural
    checks for the wav-family codecs; flac/adpcm bitstreams decode fully
    either way, their samples are just discarded) but skips assembling
    the float32 output buffer, returning ``(n_samples, errors)`` instead
    — an int32 array (null for failed rows, matching
    ``list_value_length`` of the full path's pcm) and the same error
    column.  Callers that only need (decode_error, n_samples) — the
    passthrough-staging pipeline — avoid materializing 4 bytes/sample
    they would immediately discard.

    ``out`` (a float32 buffer) with ``out_offsets`` (one int64 start per
    row) decodes each row straight into ``out[start:start + n_samples]``
    through the same kernels, and returns ``(n_samples, errors)`` as
    ``validate_only`` does; a row whose span would leave ``out`` is an
    error row.  The caller owns the layout: it checks each row's
    ``n_samples`` against the span it reserved."""
    n = len(payloads)
    data, offsets = _binary_views(payloads)
    codec_np = np.asarray(
        codecs.to_numpy(zero_copy_only=False)
        if isinstance(codecs, (pa.Array, pa.ChunkedArray))
        else codecs,
        dtype=object,
    )
    declared_sr = (
        np.asarray(
            sr_hz.to_numpy(zero_copy_only=False)
            if isinstance(sr_hz, (pa.Array, pa.ChunkedArray))
            else sr_hz
        )
        if sr_hz is not None
        else None
    )

    lengths = offsets[1:] - offsets[:-1]
    errors: list[str | None] = [None] * n
    # span of encoded payload inside `data` for each row (start, n_samples)
    span_start = np.zeros(n, dtype=np.int64)
    span_count = np.zeros(n, dtype=np.int64)
    ok = np.zeros(n, dtype=bool)
    # decode family per row: 0=int16 span, 1=mulaw, 2=alaw, 3=pcm8, 4=f32
    fam = np.full(n, -1, dtype=np.int8)

    is_pcm = codec_np == "pcm16"
    is_wav = codec_np == "wav"

    # --- pcm16: pure offset arithmetic ------------------------------------
    odd = is_pcm & (lengths % 2 == 1)
    good_pcm = is_pcm & ~odd
    span_start[good_pcm] = offsets[:-1][good_pcm]
    span_count[good_pcm] = lengths[good_pcm] // 2
    fam[good_pcm] = 0
    ok |= good_pcm
    for i in np.flatnonzero(odd):
        errors[i] = "pcm16 payload has odd byte length"

    # --- wav: per-row header parse, zero-copy payload span ----------------
    mv = memoryview(data)
    for i in np.flatnonzero(is_wav):
        try:
            d_off, d_len, sr = _wav_data_span(mv[offsets[i] : offsets[i + 1]])
            if d_len % 2:
                raise DecodeError("wav data chunk has odd byte length")
            if declared_sr is not None and int(declared_sr[i]) != sr:
                raise DecodeError(
                    f"wav sample rate {sr} != declared sr_hz {int(declared_sr[i])}"
                )
            span_start[i] = offsets[i] + d_off
            span_count[i] = d_len // 2
            fam[i] = 0
            ok[i] = True
        except DecodeError as e:
            errors[i] = str(e)

    # --- byte-per-sample codecs (G.711 µ-law / A-law, linear pcm8) --------
    for code, codec_name in ((1, "mulaw"), (2, "alaw"), (3, "pcm8")):
        m = codec_np == codec_name
        span_start[m] = offsets[:-1][m]
        span_count[m] = lengths[m]
        fam[m] = code
        ok |= m

    # --- flac (flaclite subset) -------------------------------------------
    is_flac = codec_np == "flac"
    flac_pcm: dict[int, np.ndarray] = {}
    if is_flac.any():
        from .flaclite import FlacError, decode_flac

        for i in np.flatnonzero(is_flac):
            try:
                x16, sr = decode_flac(mv[offsets[i] : offsets[i + 1]])
                if declared_sr is not None and int(declared_sr[i]) != sr:
                    raise FlacError(
                        f"flac sample rate {sr} != declared sr_hz {int(declared_sr[i])}"
                    )
                flac_pcm[i] = x16
                span_count[i] = len(x16)
                fam[i] = 5
                ok[i] = True
            except FlacError as e:
                errors[i] = str(e)

    # --- adpcm (adpcmlite, IMA 4-bit in WAV tag 0x0011) --------------------
    is_adpcm = codec_np == "adpcm"
    adpcm_pcm: dict[int, np.ndarray] = {}
    if is_adpcm.any():
        from .adpcmlite import AdpcmError, decode_adpcm

        # one lockstep pass would need equal block counts per clip; the
        # per-clip call is already block-parallel inside, which is the
        # axis that scales (samples per clip), so per-row dispatch here
        # costs only the container parse
        for i in np.flatnonzero(is_adpcm):
            try:
                x16, sr = decode_adpcm(mv[offsets[i] : offsets[i + 1]])
                if declared_sr is not None and int(declared_sr[i]) != sr:
                    raise AdpcmError(
                        f"adpcm sample rate {sr} != declared sr_hz {int(declared_sr[i])}"
                    )
                adpcm_pcm[i] = x16
                span_count[i] = len(x16)
                fam[i] = 6
                ok[i] = True
            except AdpcmError as e:
                errors[i] = str(e)

    # --- raw float32 ------------------------------------------------------
    is_f32 = codec_np == "f32"
    bad_f32 = is_f32 & (lengths % 4 != 0)
    good_f32 = is_f32 & ~bad_f32
    span_start[good_f32] = offsets[:-1][good_f32]
    span_count[good_f32] = lengths[good_f32] // 4
    fam[good_f32] = 4
    ok |= good_f32
    for i in np.flatnonzero(bad_f32):
        errors[i] = "f32 payload length not a multiple of 4"

    # --- unknown codecs ----------------------------------------------------
    known = is_pcm | is_wav | (fam > 0) | is_f32 | is_flac | is_adpcm
    for i in np.flatnonzero(~known):
        errors[i] = f"unknown codec {codec_np[i]!r}"

    into = out is not None  # caller-owned destination buffer
    if into:
        starts = np.asarray(out_offsets, dtype=np.int64)
        over = ok & ((starts < 0) | (starts + span_count > len(out)))
        for i in np.flatnonzero(over):
            errors[i] = "decoded span overruns the destination buffer"
        ok &= ~over
    if validate_only:
        return (_sample_counts(ok, span_count),
                pa.array(errors, type=pa.string()))

    if not into:
        # --- assemble one flat float32 buffer + list offsets --------------
        out_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.where(ok, span_count, 0), out=out_offsets[1:])
        out = np.empty(out_offsets[-1], dtype=np.float32)
        starts = out_offsets[:-1]
    i16 = data.view(np.int16) if data.size % 2 == 0 else data[: data.size - (data.size % 2)].view(np.int16)
    luts = {1: _mulaw_lut(), 2: _alaw_lut(), 3: _pcm8_lut()}
    inv = np.float32(1.0 / 32767.0)
    for i in np.flatnonzero(ok):
        s, c = span_start[i], span_count[i]
        o0 = starts[i]
        o1 = o0 + c
        f = fam[i]
        if f == 0:
            if s % 2 == 0:
                seg = i16[s // 2 : s // 2 + c]
            else:  # unaligned start (wav payload after odd header) — copy path
                seg = np.frombuffer(bytes(mv[s : s + 2 * c]), dtype="<i2")
            # fused cast+scale: one pass over the output span instead of
            # an int16→f32 copy followed by an in-place multiply
            np.multiply(seg, inv, out=out[o0:o1])
        elif f == 4:
            if s % 4 == 0:
                out[o0:o1] = data[s : s + 4 * c].view(np.float32)
            else:
                out[o0:o1] = np.frombuffer(
                    bytes(mv[s : s + 4 * c]), dtype="<f4")
        elif f == 5:
            np.multiply(flac_pcm[i], inv, out=out[o0:o1])
        elif f == 6:
            np.multiply(adpcm_pcm[i], inv, out=out[o0:o1])
        else:
            out[o0:o1] = luts[int(f)][data[s : s + c]]

    err_col = pa.array(errors, type=pa.string())
    if into:
        return _sample_counts(ok, span_count), err_col
    pcm = pa.LargeListArray.from_arrays(
        pa.array(out_offsets, type=pa.int64()),
        pa.array(out, type=pa.float32()),
        mask=pa.array(~ok) if not ok.all() else None,  # failed rows → null
    )
    return pcm, err_col


def _sample_counts(ok: np.ndarray, span_count: np.ndarray) -> pa.Array:
    """Per-row decoded sample count, int32, null for failed rows."""
    return pa.array(
        np.where(ok, span_count, 0).astype(np.int32),
        pa.int32(),
        mask=~ok if not ok.all() else None,
    )


def snr_db(ref: np.ndarray, test: np.ndarray) -> float:
    """Signal-to-noise ratio of ``test`` against ``ref`` in dB."""
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if ref.shape != test.shape:
        return float("-inf")
    noise = np.sum((ref - test) ** 2)
    if noise == 0:
        return float("inf")
    return float(10.0 * np.log10(np.sum(ref**2) / noise))
