"""Audio feature extraction over decoded PCM columns (vectorized).

The per-clip analysis stage a training-data pipeline runs after decode:
RMS energy, peak amplitude, zero-crossing rate, clipping ratio, and a
crude dominant-frequency estimate — all computed from the Arrow
``large_list<float32>`` PCM column without per-row Python numerics:
one flat buffer view + ``np.*.reduceat`` over the list offsets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["audio_features", "AudioFeatures", "audio_fingerprint",
           "AudioFingerprint", "audio_fbank", "FbankFeatures",
           "audio_pitch", "PitchFeatures"]


# Per-worker-process scratch buffers, keyed by dtype.  Every fresh numpy
# allocation on this host pays lazy-restore first-touch page faults
# (~180 µs/page, CLAUDE.md), so the kernel's full-width temporaries reuse
# one warm buffer per dtype across calls.  Safe: Ray task/actor workers
# run one batch at a time per process.
_SCRATCH: dict = {}


def _scratch(n: int, dtype, tag: str = "") -> np.ndarray:
    key = np.dtype(dtype).str + tag
    buf = _SCRATCH.get(key)
    if buf is None or len(buf) < n:
        buf = np.empty(max(int(n * 5 // 4), 1024), dtype)
        _SCRATCH[key] = buf
    return buf[:n]


def _flat_and_offsets(col) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy float32 view of the flattened PCM + row offsets.

    Stays float32 throughout: casting 10⁸ samples to float64 would double
    the traffic of every subsequent pass for no feature-level benefit."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    offsets = np.asarray(arr.offsets.to_numpy(zero_copy_only=False), dtype=np.int64)
    return flat, offsets


def audio_features(batch: pa.Table, pcm_col: str = "pcm", sr_col: str = "sr_hz") -> pa.Table:
    n = batch.num_rows
    if n == 0:
        for name in ("rms", "peak", "zero_cross_rate", "clip_ratio", "dom_freq_hz"):
            batch = batch.append_column(name, pa.array([], pa.float64()))
        return batch
    flat, offsets = _flat_and_offsets(batch[pcm_col])
    starts = np.minimum(offsets[:-1], max(len(flat) - 1, 0))
    counts = (offsets[1:] - offsets[:-1]).astype(np.float64)
    safe = np.maximum(counts, 1.0)

    # float32 intermediates throughout: ~3 single-width passes total
    # instead of ~6 double-width ones (this kernel is memory-bound), and
    # every temporary lives in a reused per-worker scratch buffer
    nf = len(flat)
    work = _scratch(nf, np.float32)
    mask = _scratch(nf, np.bool_)

    np.multiply(flat, flat, out=work)
    sq_sum = np.add.reduceat(work, starts, dtype=np.float64)
    sq_sum = np.where(counts > 0, sq_sum, 0.0)
    rms = np.sqrt(sq_sum / safe)

    np.abs(flat, out=work)  # |pcm| — feeds both peak and the clip mask
    peak = np.maximum.reduceat(work, starts).astype(np.float64)
    peak = np.where(counts > 0, peak, 0.0)

    np.greater_equal(work, np.float32(0.999), out=mask)
    clip_ratio = np.add.reduceat(
        mask.view(np.uint8), starts, dtype=np.int64
    ).astype(np.float64)
    clip_ratio = np.where(counts > 0, clip_ratio / safe, 0.0)

    # zero crossings: sign change counts per segment (uint8 mask pass)
    np.signbit(flat, out=mask)
    change = _scratch(nf, np.uint8)
    if nf > 1:
        np.not_equal(mask[1:], mask[:-1], out=change[1:])
    if nf > 0:
        change[0] = 0
    change[starts] = 0  # don't count across row boundaries
    zc = np.add.reduceat(change, starts, dtype=np.int64).astype(np.float64)
    zc_rate = np.where(counts > 1, zc / safe, 0.0)

    # dominant frequency ≈ zero-crossing rate × sr / 2 (two crossings per cycle)
    sr = batch[sr_col].to_numpy(zero_copy_only=False).astype(np.float64)
    dom = zc_rate * sr / 2.0

    for name, vals in (
        ("rms", rms),
        ("peak", peak),
        ("zero_cross_rate", zc_rate),
        ("clip_ratio", clip_ratio),
        ("dom_freq_hz", dom),
    ):
        batch = batch.append_column(name, pa.array(vals, pa.float64()))
    return batch


class AudioFeatures:
    """Callable form for ``map_batches`` actor pools."""

    def __init__(self, pcm_col: str = "pcm", sr_col: str = "sr_hz"):
        self.pcm_col = pcm_col
        self.sr_col = sr_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        return audio_features(batch, self.pcm_col, self.sr_col)


def audio_fingerprint(batch: pa.Table, pcm_col: str = "pcm",
                      out_col: str = "afp") -> pa.Table:
    """64-bit perceptual audio fingerprint per clip (near-dup family).

    Haitsma–Kalker-style delta-sign hash, FFT-free so it vectorizes over
    the whole batch: each clip splits into 17 equal frames; per frame we
    take 4 cheap spectral proxies — energy of the signal, of its first
    and second differences (low/mid/high-band emphasis), and the
    zero-crossing count — and each of the 4×16 consecutive-frame deltas
    contributes its sign bit.  Sign-of-delta is invariant to amplitude
    scaling and robust to small additive noise; pair with
    ``stages.neardup.hamming_near_pairs`` (same banded machinery as
    image dHash) for the candidate search.

    One flat-buffer pass per proxy via ``reduceat`` over the 17·n frame
    boundaries — no per-clip Python, temporaries in the shared scratch.
    """
    n = batch.num_rows
    if n == 0:
        return batch.append_column(out_col, pa.array([], pa.int64()))
    flat, offsets = _flat_and_offsets(batch[pcm_col])
    counts = offsets[1:] - offsets[:-1]
    nf = len(flat)
    if nf == 0:  # every clip empty: all-zero fingerprints
        zero = int(np.int64(-(1 << 63)))
        return batch.append_column(out_col, pa.array([zero] * n, pa.int64()))
    F = 17
    k = np.arange(F, dtype=np.int64)
    # frame starts in [0, nf]; the work buffers carry ONE zero pad so
    # reduceat accepts index nf (empty trailing clips) without clamping —
    # clamping to nf-1 truncated the previous clip's final sample, making
    # fingerprints depend on batch composition
    seg = (offsets[:-1, None] + (counts[:, None] * k) // F).reshape(-1)

    # squares in float64: a float32 square underflows to 0 below ~1e-23,
    # which makes the energy deltas (and so the bits) depend on amplitude
    work = _scratch(nf + 1, np.float64)
    mask = _scratch(nf, np.bool_)

    def seg_energy(x: np.ndarray) -> np.ndarray:
        np.multiply(x, x, out=work[:nf], dtype=np.float64)
        work[nf] = 0.0
        e = np.add.reduceat(work[: nf + 1], seg)
        return e.reshape(n, F)

    e0 = seg_energy(flat)
    # first difference, zeroed at clip boundaries so no cross-clip energy
    # (own scratch tag: seg_energy's work buffer must not alias this one)
    d1 = _scratch(nf, np.float32, "diff")
    if nf > 1:
        np.subtract(flat[1:], flat[:-1], out=d1[1:])
    d1[0] = 0.0
    # an empty trailing clip starts at nf — SKIP such positions rather
    # than clamping them into range (clamping zeroed the previous clip's
    # final diff sample, making bits depend on batch composition)
    starts = offsets[:-1]
    d1[starts[starts < nf]] = 0.0
    e1 = seg_energy(d1)
    # second difference: float32 math written straight into the float64
    # work buffer (widening is exact) and squared there in place — no
    # full-width temporary
    d2 = work[:nf]
    if nf > 1:
        np.subtract(d1[1:], d1[:-1], out=d2[1:], dtype=np.float32)
    d2[0] = 0.0
    both = np.concatenate([starts, starts + 1])
    d2[both[both < nf]] = 0.0
    e2 = seg_energy(d2)
    # zero crossings per frame (same one-zero pad as seg_energy)
    np.signbit(flat, out=mask)
    change = _scratch(nf + 1, np.uint8, "fpzc")
    if nf > 1:
        np.not_equal(mask[1:], mask[:-1], out=change[1:nf])
    change[0] = 0
    change[nf] = 0
    # clip-start positions must not count a crossing against the previous
    # clip's last sample; empty clips' starts (== nf) land on the pad
    change[np.minimum(offsets[:-1], nf)] = 0
    # a frame holds < 2³² samples: uint32 counts equal int64 ones, faster
    zc = (
        np.add.reduceat(change[: nf + 1], seg, dtype=np.uint32)
        .reshape(n, F)
        .astype(np.float64)
    )

    bits = np.zeros(n, dtype=np.uint64)
    shift = 0
    for track in (e0, e1, e2, zc):
        delta_pos = track[:, 1:] > track[:, :-1]  # (n, 16) strict: ties -> 0
        for j in range(F - 1):
            bits |= delta_pos[:, j].astype(np.uint64) << np.uint64(shift)
            shift += 1
    out = (bits - np.uint64(1 << 63)).view(np.int64)
    return batch.append_column(out_col, pa.array(out, pa.int64()))


class AudioFingerprint:
    """Callable form for ``map_batches``."""

    def __init__(self, pcm_col: str = "pcm", out_col: str = "afp"):
        self.pcm_col = pcm_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        return audio_fingerprint(batch, self.pcm_col, self.out_col)


# ------------------------------------------------------------- mel filterbank
def _mel_filters(n_mels: int, n_fft: int, sr: float) -> np.ndarray:
    """(n_mels, n_fft//2+1) triangular mel filterbank (HTK mel scale,
    the standard public construction — Davis & Mermelstein 1980)."""
    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, np.float64) / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (np.asarray(m, np.float64) / 2595.0) - 1.0)

    n_bins = n_fft // 2 + 1
    mels = np.linspace(hz_to_mel(0.0), hz_to_mel(sr / 2.0), n_mels + 2)
    freqs = mel_to_hz(mels)
    bins = np.floor((n_fft + 1) * freqs / sr).astype(np.int64)
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, c, hi = bins[m], bins[m + 1], bins[m + 2]
        if c > lo:
            fb[m, lo:c] = (np.arange(lo, c) - lo) / (c - lo)
        if hi > c:
            fb[m, c:hi] = (hi - np.arange(c, hi)) / (hi - c)
    return fb


def _dct2_ortho(n_mfcc: int, n_mels: int) -> np.ndarray:
    """Orthonormal DCT-II matrix (n_mfcc, n_mels) — the standard
    cepstral transform (type-2, 'ortho' norm, as in every speech
    front-end)."""
    k = np.arange(n_mfcc)[:, None]
    m = np.arange(n_mels)[None, :]
    d = np.cos(np.pi * k * (2 * m + 1) / (2 * n_mels)) * np.sqrt(2.0 / n_mels)
    d[0] /= np.sqrt(2.0)
    return d.astype(np.float32)


def audio_fbank(batch: pa.Table, pcm_col: str = "pcm", sr_col: str = "sr_hz",
                n_mels: int = 16, win: int = 400, hop: int = 160,
                n_mfcc: int | None = None) -> pa.Table:
    """Per-clip pooled log-mel filterbank features — the front-end of
    every speech model, pooled (mean + std per band over frames) so the
    output is a fixed-width row regardless of clip length.

    With ``n_mfcc`` set, each frame's log-mel vector additionally passes
    through the orthonormal DCT-II (one matmul over the whole batch's
    frame matrix) and the pooled outputs are cepstra —
    ``mfcc_mean`` / ``mfcc_std`` (fixed_size_list<f32>[n_mfcc]).

    Vectorized over the WHOLE batch: one global frame-index gather pulls
    every clip's (win)-sample Hann-windowed frames out of the flat PCM
    buffer into a single (total_frames, win) matrix, one ``rfft`` over
    that matrix, one matmul against the (n_mels, bins) filterbank, then
    per-clip ``reduceat`` pooling — no per-clip Python.  Emits
    ``fbank_mean`` / ``fbank_std`` (fixed_size_list<f32>[n_mels]) and
    ``n_frames``; clips shorter than one window emit zero frames and
    all-zero pools.  Mixed sample rates in one batch are handled by
    processing each rate's row subset with its own filterbank and
    scattering results back in row order (per-clip results are a pure
    function of the clip — batch-composition independent).
    """
    n = batch.num_rows
    dim = n_mfcc if n_mfcc else n_mels
    pre = "mfcc" if n_mfcc else "fbank"
    zeros = np.zeros(n * dim, np.float32)
    if n == 0:
        empty = pa.FixedSizeListArray.from_arrays(
            pa.array(zeros, pa.float32()), dim)
        return (batch.append_column(f"{pre}_mean", empty)
                     .append_column(f"{pre}_std", empty)
                     .append_column("n_frames", pa.array([], pa.int64())))
    srs = batch[sr_col].to_numpy(zero_copy_only=False)
    if len(np.unique(srs)) > 1:
        mean = np.zeros((n, dim), np.float32)
        std = np.zeros((n, dim), np.float32)
        nf = np.zeros(n, np.int64)
        sub = batch.select([pcm_col, sr_col])
        for sr_v in np.unique(srs):
            idx = np.flatnonzero(srs == sr_v)
            out = audio_fbank(sub.take(pa.array(idx)), pcm_col, sr_col,
                              n_mels, win, hop, n_mfcc)
            mean[idx] = np.asarray(
                out[f"{pre}_mean"].combine_chunks().flatten()
            ).reshape(-1, dim)
            std[idx] = np.asarray(
                out[f"{pre}_std"].combine_chunks().flatten()
            ).reshape(-1, dim)
            nf[idx] = out["n_frames"].to_numpy(zero_copy_only=False)
        return (
            batch.append_column(
                f"{pre}_mean", pa.FixedSizeListArray.from_arrays(
                    pa.array(mean.reshape(-1), pa.float32()), dim))
            .append_column(
                f"{pre}_std", pa.FixedSizeListArray.from_arrays(
                    pa.array(std.reshape(-1), pa.float32()), dim))
            .append_column("n_frames", pa.array(nf, pa.int64()))
        )
    flat, offsets = _flat_and_offsets(batch[pcm_col])
    lengths = np.diff(offsets)
    n_frames = np.where(lengths >= win, (lengths - win) // hop + 1, 0)
    total = int(n_frames.sum())
    sr = float(batch[sr_col][0].as_py())
    if total == 0:
        empty = pa.FixedSizeListArray.from_arrays(
            pa.array(zeros, pa.float32()), dim)
        return (batch.append_column(f"{pre}_mean", empty)
                     .append_column(f"{pre}_std", empty)
                     .append_column("n_frames", pa.array(n_frames, pa.int64())))

    frame_clip = np.repeat(np.arange(n, dtype=np.int64), n_frames)
    run_starts = np.zeros(n, dtype=np.int64)
    np.cumsum(n_frames[:-1], out=run_starts[1:])
    frame_pos = (np.arange(total, dtype=np.int64)
                 - run_starts[frame_clip]) * hop + offsets[frame_clip]
    frames = flat[frame_pos[:, None] + np.arange(win)]
    frames = frames * np.hanning(win).astype(np.float32)[None, :]
    spec = np.fft.rfft(frames, axis=1)
    power = (spec.real * spec.real + spec.imag * spec.imag)
    fb = _mel_filters(n_mels, win, sr)
    mel = np.log(power @ fb.T + 1e-10)           # (total, n_mels)
    if n_mfcc:
        mel = mel @ _dct2_ortho(n_mfcc, n_mels).T.astype(mel.dtype)

    # pool over NON-EMPTY clips only: their run starts are strictly
    # increasing and < total, which is exactly what reduceat needs
    # (clamping empty clips' starts instead would split a neighbor's run)
    nz = np.flatnonzero(n_frames > 0)
    starts_nz = run_starts[nz]
    sums_nz = np.add.reduceat(mel, starts_nz, axis=0)
    sq_nz = np.add.reduceat(mel * mel, starts_nz, axis=0)
    cnt_nz = n_frames[nz].astype(np.float64)[:, None]
    mean = np.zeros((n, dim))
    var = np.zeros((n, dim))
    mean[nz] = sums_nz / cnt_nz
    var[nz] = np.maximum(sq_nz / cnt_nz - mean[nz] * mean[nz], 0.0)
    std = np.sqrt(var)
    mean_col = pa.FixedSizeListArray.from_arrays(
        pa.array(mean.astype(np.float32).reshape(-1), pa.float32()), dim)
    std_col = pa.FixedSizeListArray.from_arrays(
        pa.array(std.astype(np.float32).reshape(-1), pa.float32()), dim)
    return (batch.append_column(f"{pre}_mean", mean_col)
                 .append_column(f"{pre}_std", std_col)
                 .append_column("n_frames", pa.array(n_frames, pa.int64())))


def audio_pitch(batch: pa.Table, pcm_col: str = "pcm", sr_col: str = "sr_hz",
                win_ms: float = 32.0, hop_ms: float = 16.0,
                fmin: float = 80.0, fmax: float = 700.0,
                voiced_threshold: float = 0.5) -> pa.Table:
    """Per-clip F0 (pitch) tracking via frame-wise normalized
    autocorrelation with parabolic sub-sample refinement and octave-down
    correction — the classic ACF pitch detector (Rabiner 1977 family).

    Vectorized over the whole batch: one global frame gather (as in
    ``audio_fbank``), ONE zero-padded ``rfft``/``irfft`` pair computes
    every frame's autocorrelation (Wiener–Khinchin), the lag search +
    parabolic refine are pure array ops, and the per-clip voiced-frame
    MEDIAN comes from a single lexsort over (clip, f0) runs.  Emits
    ``f0_hz`` (median over voiced frames, 0.0 when none), ``f0_std_hz``,
    ``voiced_ratio`` and ``n_frames``.  Mixed sample rates recurse
    per-rate like ``audio_fbank`` (per-clip outputs are a pure function
    of the clip, so batch composition never matters).
    """
    n = batch.num_rows
    out_cols = ("f0_hz", "f0_std_hz", "voiced_ratio")

    def emit(f0, f0s, vr, nf):
        t = batch
        for name, vals in zip(out_cols, (f0, f0s, vr)):
            t = t.append_column(name, pa.array(
                np.asarray(vals, np.float64), pa.float64()))
        return t.append_column("n_frames", pa.array(
            np.asarray(nf, np.int64), pa.int64()))

    if n == 0:
        z = np.empty(0, np.float64)
        return emit(z, z, z, np.empty(0, np.int64))
    srs = batch[sr_col].to_numpy(zero_copy_only=False)
    if len(np.unique(srs)) > 1:
        f0 = np.zeros(n); f0s = np.zeros(n); vr = np.zeros(n)
        nf = np.zeros(n, np.int64)
        sub = batch.select([pcm_col, sr_col])
        for sr_v in np.unique(srs):
            idx = np.flatnonzero(srs == sr_v)
            o = audio_pitch(sub.take(pa.array(idx)), pcm_col, sr_col,
                            win_ms, hop_ms, fmin, fmax, voiced_threshold)
            for name, dst in zip(out_cols, (f0, f0s, vr)):
                dst[idx] = o[name].to_numpy(zero_copy_only=False)
            nf[idx] = o["n_frames"].to_numpy(zero_copy_only=False)
        return emit(f0, f0s, vr, nf)

    sr = float(srs[0])
    win = int(round(sr * win_ms / 1000.0))
    hop = max(1, int(round(sr * hop_ms / 1000.0)))
    lmin = max(2, int(np.floor(sr / fmax)))
    lmax = int(np.ceil(sr / fmin))
    win = max(win, 2 * lmax)        # ≥2 periods of the lowest f0 in frame
    flat, offsets = _flat_and_offsets(batch[pcm_col])
    lengths = np.diff(offsets)
    n_frames = np.where(lengths >= win, (lengths - win) // hop + 1, 0)
    total = int(n_frames.sum())
    if total == 0:
        z = np.zeros(n)
        return emit(z, z, z, n_frames)

    frame_clip = np.repeat(np.arange(n, dtype=np.int64), n_frames)
    run_starts = np.zeros(n, dtype=np.int64)
    np.cumsum(n_frames[:-1], out=run_starts[1:])
    frame_pos = (np.arange(total, dtype=np.int64)
                 - run_starts[frame_clip]) * hop + offsets[frame_clip]
    frames = flat[frame_pos[:, None] + np.arange(win)].astype(np.float32)
    frames -= frames.mean(axis=1, keepdims=True)
    # autocorrelation r[l] for l in [0, lmax+1] via one padded FFT pair
    nfft = 1 << int(np.ceil(np.log2(win + lmax + 2)))
    spec = np.fft.rfft(frames, n=nfft, axis=1)
    np.multiply(spec, np.conj(spec), out=spec)
    r = np.fft.irfft(spec, n=nfft, axis=1)[:, : lmax + 2]
    r0 = np.maximum(r[:, 0], 1e-12)
    rn = r / r0[:, None]

    band = rn[:, lmin: lmax + 1]
    lag = lmin + np.argmax(band, axis=1)
    best = rn[np.arange(total), lag]
    # octave-down correction: a clean period p also peaks at 2p/4p — if
    # (near-)equal correlation exists at half the chosen lag, prefer it
    for _ in range(3):
        half = lag // 2
        ok = (half >= lmin) & (rn[np.arange(total), half] >= 0.9 * best)
        lag = np.where(ok, half, lag)
        best = rn[np.arange(total), lag]
    # parabolic sub-sample refinement
    rm = rn[np.arange(total), lag - 1]
    rp = rn[np.arange(total), lag + 1]
    den = rm - 2.0 * rn[np.arange(total), lag] + rp
    delta = np.zeros(total)
    np.divide(0.5 * (rm - rp), den, out=delta, where=np.abs(den) > 1e-12)
    delta = np.clip(delta, -0.5, 0.5)
    f0_frame = sr / (lag + delta)
    voiced = (best > voiced_threshold) & (r0 > 1e-8)

    # per-clip pooling over voiced frames: counts → voiced_ratio; median
    # via one lexsort over (clip, f0) of the voiced subset; std via
    # sum/sumsq reduceat
    vr = np.zeros(n)
    f0_med = np.zeros(n)
    f0_std = np.zeros(n)
    nz = np.flatnonzero(n_frames > 0)
    vcnt_all = np.bincount(frame_clip, weights=voiced, minlength=n)
    vr[nz] = vcnt_all[nz] / n_frames[nz]
    vidx = np.flatnonzero(voiced)
    if len(vidx):
        vc = frame_clip[vidx]
        vf = f0_frame[vidx]
        order = np.lexsort((vf, vc))
        vc_s, vf_s = vc[order], vf[order]
        runs = np.flatnonzero(np.r_[True, vc_s[1:] != vc_s[:-1]])
        cids = vc_s[runs]
        cnt = np.diff(np.append(runs, len(vc_s)))
        # median of each sorted run (lower/upper average for even n)
        lo = runs + (cnt - 1) // 2
        hi = runs + cnt // 2
        f0_med[cids] = 0.5 * (vf_s[lo] + vf_s[hi])
        s1 = np.add.reduceat(vf_s, runs)
        s2 = np.add.reduceat(vf_s * vf_s, runs)
        f0_std[cids] = np.sqrt(np.maximum(s2 / cnt - (s1 / cnt) ** 2, 0.0))
    return emit(f0_med, f0_std, vr, n_frames)


class PitchFeatures:
    """Callable form for ``map_batches`` actor pools."""

    def __init__(self, pcm_col: str = "pcm", sr_col: str = "sr_hz",
                 win_ms: float = 32.0, hop_ms: float = 16.0,
                 fmin: float = 80.0, fmax: float = 700.0,
                 voiced_threshold: float = 0.5):
        self.args = (pcm_col, sr_col, win_ms, hop_ms, fmin, fmax,
                     voiced_threshold)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return audio_pitch(batch, *self.args)


class FbankFeatures:
    """Callable form for ``map_batches`` actor pools (filterbank matrix
    cached per (sr, win, n_mels) in the worker)."""

    def __init__(self, pcm_col: str = "pcm", sr_col: str = "sr_hz",
                 n_mels: int = 16, win: int = 400, hop: int = 160,
                 n_mfcc: int | None = None):
        self.pcm_col, self.sr_col = pcm_col, sr_col
        self.n_mels, self.win, self.hop = n_mels, win, hop
        self.n_mfcc = n_mfcc

    def __call__(self, batch: pa.Table) -> pa.Table:
        return audio_fbank(batch, self.pcm_col, self.sr_col,
                           self.n_mels, self.win, self.hop, self.n_mfcc)


def fbank_embedding(batch: pa.Table, mean_col: str = "fbank_mean",
                    std_col: str = "fbank_std",
                    out_col: str = "embedding") -> pa.Table:
    """Clip-level audio embedding: mean⊕std pooled fbank bands as one
    fixed-width float32 vector — the classic cheap content embedding for
    similarity search / near-dup over audio (probe with
    ``similarity.cosine_topk``).  Pure per-batch concat of the two
    pooled fixed-size-list columns, zero extra DSP."""
    def flat(col) -> np.ndarray:
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        return np.asarray(arr.flatten().to_numpy(zero_copy_only=False),
                          np.float32).reshape(len(arr), -1)

    emb = np.hstack([flat(batch[mean_col]), flat(batch[std_col])])
    col = pa.FixedSizeListArray.from_arrays(
        pa.array(emb.reshape(-1), pa.float32()), emb.shape[1])
    return batch.append_column(out_col, col)
