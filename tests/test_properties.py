"""Property-based tests (hypothesis) for the pure kernels — inputs the
deterministic fixtures never produce."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydra_ray.stages.neardup import (
    _batch_shingles,
    _char_shingles,
    ngram_jaccard,
    ngram_jaccard_batch,
)
from hydra_ray.stages.windows import (
    assign_tumbling,
    explode_sliding,
    sessionize_sorted,
)

texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80
)


@settings(max_examples=60, deadline=None)
@given(st.lists(texts, max_size=12), st.integers(2, 8))
def test_batch_shingles_match_per_doc_property(docs, k):
    flat, starts = _batch_shingles(docs, k)
    ends = np.append(starts[1:], len(flat)) if len(docs) else starts
    for i, doc in enumerate(docs):
        got = np.unique(flat[starts[i] : ends[i]])
        ref = np.sort(_char_shingles(doc, k))
        assert np.array_equal(got, ref)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(texts, texts), min_size=1, max_size=8))
def test_jaccard_batch_matches_per_pair_property(pairs):
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    got = ngram_jaccard_batch(a, b, 4)
    ref = [ngram_jaccard(x, y, 4) for x, y in pairs]
    assert np.allclose(got, ref)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=50),
    st.integers(1, 10**6),
)
def test_tumbling_assignment_invariant(ts, size):
    ts = np.array(ts, dtype=np.int64)
    w = assign_tumbling(ts, size)
    assert ((w <= ts) & (ts < w + size)).all()
    assert (w % size == 0).all()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 10**9), min_size=1, max_size=30),
    st.integers(1, 20),
    st.integers(1, 6),
)
def test_sliding_explosion_invariant(ts, slide, k):
    size = slide * k
    ts = np.array(ts, dtype=np.int64)
    rows, starts = explode_sliding(ts, size, slide)
    assert len(rows) == len(ts) * k
    assert ((starts <= ts[rows]) & (ts[rows] < starts + size)).all()
    # each row appears in exactly k distinct windows
    for i in range(len(ts)):
        assert len(set(starts[rows == i])) == k


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=50), st.integers(1, 1000))
def test_sessionize_gap_invariant(ts, gap):
    ts = np.sort(np.array(ts, dtype=np.int64))
    sid = sessionize_sorted(ts, gap)
    # ids are 0..max contiguous and non-decreasing
    assert sid[0] == 0 and (np.diff(sid) >= 0).all() and (np.diff(sid) <= 1).all()
    # breaks exactly where the gap is exceeded
    brk = np.diff(ts) > gap
    assert np.array_equal(np.diff(sid) == 1, brk)


@settings(max_examples=30, deadline=None)
@given(st.lists(texts, max_size=10), st.integers(4, 64))
def test_simhash_chunking_invariant(docs, chunk_words):
    """SimHash bits are independent of the scratch chunk size (doc-aligned
    chunking through the int16 LUT path == whole-batch reference)."""
    import pandas as pd
    import pyarrow as pa

    from hydra_ray.stages.neardup import SimHasher

    batch = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                      "text": pa.array(docs, pa.string())})
    small = SimHasher(chunk_words=chunk_words)(batch)["simhash"].to_pylist()
    big = SimHasher(chunk_words=1 << 20)(batch)["simhash"].to_pylist()
    assert small == big
    # naive per-doc recomputation
    shifts = np.arange(64, dtype=np.uint64)
    for doc, got in zip(docs, small):
        words = np.array(str(doc).lower().split(), dtype=object)
        if len(words) == 0:
            assert got == 0
            continue
        h = pd.util.hash_array(words, categorize=False)
        bits = ((h[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
        v = (bits.sum(axis=0) * 2 > len(words)).astype(np.uint64)
        ref = int((v << shifts).sum(dtype=np.uint64) - np.uint64(1 << 63))
        if ref >= 1 << 63:
            ref -= 1 << 64
        assert got == ref


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-1, 1, width=32, allow_nan=False), max_size=200),
        min_size=1, max_size=6,
    ),
    st.integers(-2, 2),
)
# a float32 square of 6.9e-23 / 4 underflows to 0, flipping an energy bit
@example(pcms=[[0.0, 6.879606098423234e-23]], scale_exp=-2)
def test_audio_fingerprint_scale_and_batch_invariant(pcms, scale_exp):
    """Fingerprint bits don't change under positive amplitude scaling and
    don't depend on which clips share a batch.

    Scale is a power of two: float32 scaling is then EXACT, which is the
    regime where sign-of-delta invariance is a theorem.  A non-dyadic
    scale can round a near-tie delta across zero and legitimately flip
    that bit (hypothesis found [1.0, 0.33333334, 0, 0] × 3: the second
    sample rounds to exactly 1.0); that robustness-not-identity regime
    is covered by the planted-noisy-copy recall test instead."""
    import pyarrow as pa

    from hydra_ray.stages.audio_features import audio_fingerprint

    def tbl(rows):
        return pa.table({"pcm": pa.array(rows, pa.large_list(pa.float32()))})

    scale = 2.0**scale_exp
    fp = audio_fingerprint(tbl(pcms))["afp"].to_pylist()
    scaled_pcms = [[x * scale for x in p] for p in pcms]
    # a subnormal sample scaled down loses bits (1.4e-45 x 0.5 rounds to
    # 0): the scaled clip is then a different signal, not a scaled one
    if all(float(np.float32(y)) == y for p in scaled_pcms for y in p):
        scaled = audio_fingerprint(tbl(scaled_pcms))["afp"].to_pylist()
        assert fp == scaled
    singles = [audio_fingerprint(tbl([p]))["afp"].to_pylist()[0] for p in pcms]
    assert fp == singles


@settings(max_examples=25, deadline=None)
@given(
    # -32768 is unreachable through the float wave contract (clip to
    # -1.0 quantizes to -32767), so the property holds on [-32767, 32767]
    st.lists(st.integers(-32767, 32767), min_size=0, max_size=3000),
    st.sampled_from([256, 1024, 4096]),
)
def test_flaclite_roundtrip_property(samples, blocksize):
    """encode→decode is the identity on arbitrary int16 sample streams
    (any blocksize, any subframe type the encoder picks)."""
    from hydra_ray.flaclite import decode_flac, encode_flac

    x = np.asarray(samples, dtype=np.int16)
    wave = x.astype(np.float32) / 32767.0  # pcm16 quantization inverts exactly
    raw = encode_flac(wave, 16000, blocksize=blocksize)
    got, sr = decode_flac(raw, verify_crc=True)
    assert sr == 16000
    assert np.array_equal(got, x)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(texts, max_size=10),
    st.integers(2, 12),
    st.integers(1, 4),
)
def test_window_hash_rows_property(docs, L, stride):
    """Every (id, pos) window emitted by the vectorized pass equals the
    hash of the doc's exact byte window; coverage matches the stride
    arithmetic; nothing crosses a doc boundary."""
    from hydra_ray.stages.neardup import _window_hashes
    from hydra_ray.stages.substr import window_hash_rows

    hashes, ids, pos = window_hash_rows(docs, list(range(len(docs))), L, stride)
    bufs = [d.encode("utf-8") if d else b"" for d in docs]
    expect = []
    for i, b in enumerate(bufs):
        for p in range(0, max(0, len(b) - L + 1), stride):
            expect.append((i, p))
    assert sorted(zip(ids.tolist(), pos.tolist())) == expect
    for h, i, p in zip(hashes, ids, pos):
        w = np.frombuffer(bufs[i][p : p + L], dtype=np.uint8)
        assert h == _window_hashes(w, L)[0]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50)),
             min_size=1, max_size=60),
    st.integers(0, 20),
)
def test_rolling_range_frame_property(rows, R):
    """The composite-axis searchsorted frame equals the brute-force SQL
    RANGE frame (peers included) on arbitrary key/ts multisets."""
    import pandas as pd

    df = pd.DataFrame(rows, columns=["k", "ts"])
    df["v"] = np.arange(len(df), dtype=np.float64)

    # the exact arithmetic grouped_rolling_range's bucket kernel runs
    codes = df["k"].to_numpy()
    ts = df["ts"].to_numpy()
    comp = (pd.factorize(codes)[0].astype(np.int64) << 42) + ts
    posi = np.argsort(comp, kind="stable")
    comp_s = comp[posi]
    v = df["v"].to_numpy()[posi]
    lo = np.searchsorted(comp_s, comp_s - R, side="left")
    hi = np.searchsorted(comp_s, comp_s, side="right")
    csz = np.r_[0.0, np.cumsum(v)]
    wsum, wcnt = csz[hi] - csz[lo], hi - lo
    for out_i, orig_i in enumerate(posi):
        m = (df["k"] == df["k"].iloc[orig_i]) & \
            (df["ts"] >= df["ts"].iloc[orig_i] - R) & \
            (df["ts"] <= df["ts"].iloc[orig_i])
        assert wcnt[out_i] == m.sum()
        assert np.isclose(wsum[out_i], df.loc[m, "v"].sum())


@given(
    st.lists(
        st.text(alphabet="abcdefg μλπ", min_size=0, max_size=25),
        min_size=1, max_size=30,
    ),
    st.text(alphabet="abcdefg μλπ", min_size=0, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_levenshtein_probe_matches_dp(texts, probe):
    """Batch-vectorized edit distance == the classic per-string DP, for
    arbitrary unicode inputs including empty strings/probes."""
    from hydra_ray.stages.text import levenshtein_probe

    def ref(a, b):
        dp = list(range(len(b) + 1))
        for i in range(1, len(a) + 1):
            prev = dp[:]
            dp[0] = i
            for j in range(1, len(b) + 1):
                dp[j] = min(prev[j] + 1, dp[j - 1] + 1,
                            prev[j - 1] + (a[i - 1] != b[j - 1]))
        return dp[len(b)]

    got = levenshtein_probe(texts, probe)
    assert got.tolist() == [ref(t, probe) for t in texts]


@given(
    st.integers(1, 9),     # frames
    st.integers(1, 17),    # height
    st.integers(1, 23),    # width
    st.integers(1, 60),    # fps
    st.sampled_from(["matroska", "webm"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_mkv_roundtrip_any_shape(n, h, w, fps, doctype, seed):
    """encode_mkv → decode_mkv is bit-exact for every frame shape down
    to 1×1, any fps, both doctypes."""
    from hydra_ray.mkvlite import decode_mkv, encode_mkv, parse_mkv

    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, (n, h, w), dtype=np.uint8)
    raw = encode_mkv(frames, fps, doctype=doctype)
    meta = parse_mkv(raw)
    assert meta["doctype"] == doctype
    assert len(meta["blocks"]) == n
    dec, got_fps = decode_mkv(raw)
    assert got_fps == fps
    assert dec.shape == frames.shape
    assert (dec == frames).all()


@given(st.integers(0, 2**49 - 2))
@settings(max_examples=80, deadline=None)
def test_ebml_size_varint_roundtrip(v):
    """_enc_size → _read_vint is the identity for any representable
    data size (and never emits the reserved all-ones pattern)."""
    from hydra_ray.mkvlite import _enc_size, _read_vint

    b = _enc_size(v)
    got, nxt = _read_vint(memoryview(b), 0, len(b), keep_marker=False)
    assert got == v and nxt == len(b)


@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)),
             max_size=40),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)),
             max_size=40),
)
@settings(max_examples=25, deadline=None)
def test_bag_setops_match_multiset_arithmetic(rows_a, rows_b):
    """except_all / intersect_all == counter arithmetic on multisets,
    for any duplicate structure including empty sides."""
    from collections import Counter

    import pandas as pd
    import ray.data as rd

    from hydra_ray.stages.setops import except_all, intersect_all

    cols = ["k", "v"]
    dfa = pd.DataFrame(rows_a or [(9, 9)][:0], columns=cols)
    dfb = pd.DataFrame(rows_b or [(9, 9)][:0], columns=cols)
    if dfa.empty:
        dfa = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                            "v": pd.Series([], dtype="int64")})
    if dfb.empty:
        dfb = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                            "v": pd.Series([], dtype="int64")})
    a, b = rd.from_pandas(dfa), rd.from_pandas(dfb)
    ca, cb = Counter(map(tuple, rows_a)), Counter(map(tuple, rows_b))

    got_e = Counter(map(tuple,
                        except_all(a, b, cols).to_pandas().to_numpy()))
    ref_e = Counter({k: n - cb.get(k, 0) for k, n in ca.items()
                     if n - cb.get(k, 0) > 0})
    assert got_e == ref_e

    got_i = Counter(map(tuple,
                        intersect_all(a, b, cols).to_pandas().to_numpy()))
    ref_i = Counter({k: min(n, cb[k]) for k, n in ca.items() if k in cb})
    assert got_i == ref_i


@given(
    st.lists(
        st.tuples(
            st.integers(-10**9, 10**9),
            st.floats(allow_nan=False, allow_infinity=False,
                      width=64, min_value=-1e12, max_value=1e12),
            st.text(alphabet='ab,"\n \'é-', min_size=0, max_size=12),
        ),
        min_size=1, max_size=25,
    )
)
@settings(max_examples=25, deadline=None)
def test_csv_roundtrip_any_content(rows):
    """pandas to_csv → read_csv_records is lossless for any cell
    content, including embedded delimiters, quotes and newlines
    (shortest-repr doubles parse back bit-exact).  One read block:
    a quoted newline CAN fall on a read_text block boundary, where
    re-join is impossible by design (the documented DLQ contract) —
    in-batch behavior is the property under test."""
    import os
    import tempfile

    import pandas as pd
    import pyarrow as pa

    from hydra_ray.sources.csvlite import read_csv_records

    df = pd.DataFrame(rows, columns=["k", "x", "s"])
    schema = pa.schema([("k", pa.int64()), ("x", pa.float64()),
                       ("s", pa.string())])
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "t.csv")
        df.to_csv(p, index=False)
        back = read_csv_records(
            p, schema, override_num_blocks=1).to_pandas()
        assert back["error"].isna().all()
        back = back.drop(columns="error").sort_values("k", kind="mergesort")
        ref = df.sort_values("k", kind="mergesort")
        assert back["k"].tolist() == ref["k"].tolist()
        assert back["x"].tolist() == ref["x"].tolist()
        # pandas writes empty string as NaN-less empty field; reader
        # may surface it as null — both mean "no content"
        got_s = back["s"].fillna("").tolist()
        assert got_s == ref["s"].fillna("").tolist()


@given(
    st.integers(0, 2**31 - 1),
    st.integers(0, 900_000), st.integers(1, 100_000),
    st.integers(0, 900_000), st.integers(1, 100_000),
)
@settings(max_examples=10, deadline=None)
def test_zorder_box_queries_exact(seed, xlo, xw, ylo, yw):
    """read_clustered over a zorder_write tree returns EXACTLY the
    brute-force box filter for any box (pruning is I/O-only)."""
    import shutil
    import uuid

    import pyarrow as pa
    import ray.data as rd

    from hydra_ray.sinks import read_clustered, zorder_write

    rng = np.random.default_rng(seed)
    n = 3_000
    t = pa.table({
        "row_id": pa.array(np.arange(n, dtype=np.int64)),
        "x": pa.array(rng.integers(0, 1_000_000, n, dtype=np.int64)),
        "y": pa.array(rng.integers(0, 1_000_000, n, dtype=np.int64)),
    })
    root = f"/tmp/hydra_zprop/{uuid.uuid4().hex}"
    try:
        zorder_write(rd.from_arrow(t).repartition(4), ["x", "y"], root,
                     num_partitions=16)
        box = {"x": (xlo, xlo + xw), "y": (ylo, ylo + yw)}
        ds, _files = read_clustered(root, box)
        out = ds.to_pandas()
        # a fully-filtered read loses column names (documented 0-row
        # Dataset behavior) — empty means the empty set
        got = set(out["row_id"]) if len(out) else set()
        x = t["x"].to_numpy()
        y = t["y"].to_numpy()
        m = ((x >= xlo) & (x <= xlo + xw) & (y >= ylo) & (y <= ylo + yw))
        assert got == set(t["row_id"].to_numpy()[m])
    finally:
        shutil.rmtree(root, ignore_errors=True)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_payload_encode_roundtrip_property(data):
    """Property: encode_pcm → decode_batch is BIT-identical for arbitrary
    mixes of int16-grid rows (the decode constant's grid), foreign-grid
    rows, scaled rows with -0.0, empty rows and null rows; non-empty
    grid rows stage as pcm16 and null rows stay null."""
    import numpy as np
    import pyarrow as pa

    from hydra_ray.audio import decode_batch
    from hydra_ray.pipelines.replicate import encode_pcm

    rng_seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    n_rows = data.draw(st.integers(0, 25))
    inv = np.float32(1.0 / 32767.0)
    rows, kinds = [], []
    for _ in range(n_rows):
        kind = int(rng.integers(0, 5))
        k = int(rng.integers(0, 40))
        if kind == 0:     # decode-constant grid
            rows.append(rng.integers(-32767, 32768, k)
                        .astype(np.int16).astype(np.float32) * inv)
        elif kind == 1:   # foreign grid (mulaw-style /32768)
            rows.append(rng.integers(-32768, 32768, k)
                        .astype(np.float32) / np.float32(32768.0))
        elif kind == 2:   # arbitrary scaled floats, with -0.0 planted
            r = rng.random(k).astype(np.float32) * 2.2 - 1.1
            if k:
                r[rng.integers(0, k)] = np.float32(-0.0)
            rows.append(r)
        elif kind == 3:   # empty row
            rows.append(np.empty(0, np.float32))
        else:             # null row
            rows.append(None)
        kinds.append(kind)

    lens = [0 if r is None else len(r) for r in rows]
    offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    flat = (np.concatenate([r for r in rows if r is not None] + [
        np.empty(0, np.float32)]).astype(np.float32))
    valid = np.array([r is not None for r in rows], bool)
    pcm = pa.LargeListArray.from_arrays(
        pa.array(offs, pa.int64()), pa.array(flat, pa.float32()),
        mask=pa.array(~valid))
    raw, codec = encode_pcm(pcm)
    codecs = codec.to_pylist()
    assert [c is None for c in codecs] == list(~valid)
    assert raw.null_count == int((~valid).sum())
    for kind, n, c in zip(kinds, lens, codecs):
        if kind == 0 and n:
            assert c == "pcm16"
    ok = np.flatnonzero(valid)
    back, err = decode_batch(raw.take(pa.array(ok)),
                             codec.take(pa.array(ok)))
    assert err.null_count == len(ok)
    assert [len(x) for x in back.to_pylist()] == [lens[i] for i in ok]
    got = np.asarray(back.flatten(), dtype=np.float32)
    assert np.array_equal(flat.view(np.uint32), got.view(np.uint32))
