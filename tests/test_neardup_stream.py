"""Streaming cross-epoch NEAR-dup tier: kernel determinism, shard-count
independence, crash/resume — mirrors test_dedup_stream.py for the banded
fingerprint index (state/neardup_index.py)."""

import numpy as np
import pytest

from hydra_ray.state.neardup_index import (
    NearDupIndexState,
    band_entries,
    greedy_keep,
    hamming64,
)


def _flip_bits(fp: np.uint64, bits) -> np.uint64:
    out = np.uint64(fp)
    for b in bits:
        out ^= np.uint64(1) << np.uint64(b)
    return out


def test_hamming_and_band_entries():
    rng = np.random.default_rng(0)
    fps = rng.integers(0, 1 << 63, size=100, dtype=np.uint64)
    assert (hamming64(fps, fps) == 0).all()
    flipped = fps ^ np.uint64(0b101)  # bits 0 and 2
    assert (hamming64(fps, flipped) == 2).all()
    keys = band_entries(fps, 4).reshape(100, 4)
    # band id in the high bits, 16-bit value in the low bits
    assert ((keys >> 16) == np.arange(4)).all()
    for b in range(4):
        want = (fps >> np.uint64(16 * b)) & np.uint64(0xFFFF)
        assert (keys[:, b] & 0xFFFF == want.astype(np.uint32)).all()


def test_greedy_keep_chain_and_order_independence():
    base = np.uint64(0x123456789ABCDEF0)
    a = base                              # kept (first)
    b = _flip_bits(base, [0, 17])         # ham(a,b)=2 -> dropped
    c = _flip_bits(b, [33, 48, 5])        # ham(b,c)=3 but ham(a,c)=5 -> kept
    d = _flip_bits(base, [1])             # ham(a,d)=1 -> dropped
    fps = np.array([a, b, c, d], np.uint64)
    seqs = np.array([10, 20, 30, 40], np.int64)
    kept = greedy_keep(seqs, fps, n_bands=4, max_hamming=3)
    assert kept.tolist() == [10, 30]
    # arrival order must not matter: permute the arrays
    perm = np.array([2, 0, 3, 1])
    kept2 = greedy_keep(seqs[perm], fps[perm], n_bands=4, max_hamming=3)
    assert kept2.tolist() == [10, 30]
    # min-seq wins: swap seqs so b precedes a -> b kept, a dropped, c drops
    seqs3 = np.array([20, 10, 30, 40], np.int64)
    kept3 = greedy_keep(seqs3, fps, n_bands=4, max_hamming=3)
    assert 10 in kept3 and 20 not in kept3 and 30 not in kept3


def test_state_matched_vs_committed_and_lsm_runs():
    st = NearDupIndexState(0, max_hamming=3)
    rng = np.random.default_rng(1)
    fps = rng.integers(0, 1 << 63, size=50, dtype=np.uint64)
    seqs = np.arange(50, dtype=np.int64)
    keys = band_entries(fps, 4)
    e0 = [(keys, np.repeat(fps, 4), np.repeat(seqs, 4), None)]
    s, f, m = st.resolve(0, e0)
    assert not m.any()  # empty committed index
    st.commit(0, e0, seqs)
    assert st.n_entries() == 200
    # epoch 1: near-copies of committed rows must match; fresh rows not
    near = fps[:10] ^ np.uint64(0b11)     # ham=2
    fresh = rng.integers(0, 1 << 63, size=10, dtype=np.uint64)
    probe = np.concatenate([near, fresh])
    pseq = np.arange(100, 120, dtype=np.int64)
    s, f, m = st.resolve(1, [(band_entries(probe, 4), np.repeat(probe, 4),
                              np.repeat(pseq, 4), None)])
    per_row = {}
    for seq, hit in zip(s, m):
        per_row[seq] = per_row.get(seq, False) or hit
    for seq in pseq[:10]:
        assert per_row[seq]
    for seq in pseq[10:]:
        assert not per_row.get(seq, False)


def test_checkpoint_full_delta_restore(tmp_path):
    rng = np.random.default_rng(2)
    st = NearDupIndexState(0, max_hamming=3)
    fps0 = rng.integers(0, 1 << 63, size=30, dtype=np.uint64)
    st.commit(0, [(band_entries(fps0, 4), np.repeat(fps0, 4),
                   np.repeat(np.arange(30, dtype=np.int64), 4), None)],
              np.arange(30, dtype=np.int64))
    full = str(tmp_path / "e0")
    st.save(full, full=True)
    fps1 = rng.integers(0, 1 << 63, size=20, dtype=np.uint64)
    st.commit(1, [(band_entries(fps1, 4), np.repeat(fps1, 4),
                   np.repeat(np.arange(100, 120, dtype=np.int64), 4), None)],
              np.arange(100, 120, dtype=np.int64))
    delta = str(tmp_path / "e1")
    st.save(delta, full=False)

    st2 = NearDupIndexState(0, max_hamming=3)
    st2.restore_chain(full, [delta])
    assert st2.n_entries() == st.n_entries() == 200
    near = fps1[:5] ^ np.uint64(0b1)
    m = st2.matched(band_entries(near, 4), np.repeat(near, 4))
    assert m.reshape(5, 4).any(axis=1).all()


def test_resolve_near_epoch_shard_count_independence(ray_session, tmp_path):
    """The global decision must be identical for any shard count (routing
    independence) and match a single-threaded greedy over the corpus."""
    import ray

    from hydra_ray.pipelines.replicate import ReplicateConfig
    from hydra_ray.state.neardup_index import resolve_near_epoch, shard_of
    from hydra_ray.state.store import StateHostActor

    rng = np.random.default_rng(7)
    base = rng.integers(0, 1 << 63, size=40, dtype=np.uint64)
    # epoch 0: 40 distinct; epoch 1: 10 near-copies of epoch 0, 10 fresh,
    # plus an intra-epoch chain pair
    e0_fps, e0_seqs = base, np.arange(40, dtype=np.int64)
    near = base[:10] ^ np.uint64(0b101)
    fresh = rng.integers(0, 1 << 63, size=10, dtype=np.uint64)
    chain_a = fresh[0] ^ np.uint64(1 << 40)          # near fresh[0]
    e1_fps = np.concatenate([near, fresh, [chain_a]])
    e1_seqs = np.arange(100, 121, dtype=np.int64)

    def run(num_shards: int, root: str):
        # shards dealt over up to two hosts: how shards are hosted must not
        # change the decision either
        cfg = ReplicateConfig(neardup=True, num_neardup_shards=num_shards)
        slots = [("n", d) for d in range(num_shards)]
        hosts = [StateHostActor().remote(slots[h::2], cfg, {}, root, root)
                 for h in range(min(2, num_shards))]
        shards = [(hosts[d % len(hosts)], ("n", d)) for d in range(num_shards)]
        out = []
        for ep, (fps, seqs) in enumerate([(e0_fps, e0_seqs), (e1_fps, e1_seqs)]):
            keys = band_entries(fps, 4)
            ef, es = np.repeat(fps, 4), np.repeat(seqs, 4)
            sh = shard_of(keys, num_shards)
            for d in np.unique(sh):
                m = sh == d
                host, slot = shards[d]
                ray.get(host.submit.remote(
                    [(slot, (keys[m], ef[m], es[m]), None)], ep))
            kept, drop = resolve_near_epoch(shards, ep, 4, 3)
            out.append((kept.tolist(), drop.tolist()))
        for h in hosts:
            ray.kill(h)
        return out

    r1 = run(1, str(tmp_path / "s1"))
    r4 = run(4, str(tmp_path / "s4"))
    assert r1 == r4
    kept1, drop1 = r1[1]
    # all 10 near-copies of committed rows dropped; fresh kept; the
    # chain partner of a kept fresh row dropped
    assert set(drop1) >= set(range(100, 110))
    assert set(kept1) == set(range(110, 120))
    assert 120 in drop1


# ------------------------------------------------------------- pipeline tier

N_CLIPS_P = 120  # every i % 3 == 1 row is a faintly-noised copy of row i-1
VERSIONS_P = 4
SR = 16000


def _wave(seed, n_s=4000):
    r = np.random.default_rng(seed)
    t = np.arange(n_s) / SR
    env = np.repeat(r.uniform(0.2, 1.0, 20), n_s // 20 + 1)[:n_s]
    return (env * np.sin(2 * np.pi * (200 + seed * 37 % 800) * t)).astype(
        np.float32
    )


def build_near_sources(root):
    import pyarrow as pa

    from hydra_ray.audio import encode
    from hydra_ray.synth import CLIP_SCHEMA
    from hydra_ray.table import Table

    pcms = []
    for i in range(N_CLIPS_P):
        if i % 3 == 1:
            r = np.random.default_rng(10_000 + i)
            pcms.append(
                pcms[i - 1]
                + 0.003 * r.standard_normal(len(pcms[i - 1])).astype(np.float32)
            )
        else:
            pcms.append(_wave(i))
    base_ms = 1_700_000_000_000
    clips = pa.table(
        {
            "clip_id": pa.array([f"c{i:05d}" for i in range(N_CLIPS_P)]),
            "bytes": pa.array(
                [encode(p, "pcm16", SR) for p in pcms], pa.large_binary()
            ),
            "sr_hz": pa.array([SR] * N_CLIPS_P, pa.int32()),
            "dur_ms": pa.array([len(p) * 1000 // SR for p in pcms], pa.int32()),
            "codec": pa.array(["pcm16"] * N_CLIPS_P),
            "transcript": pa.array([f"t{i}" for i in range(N_CLIPS_P)]),
            "event_ts": pa.array(
                np.arange(N_CLIPS_P) * 50 + base_ms, pa.timestamp("ms")
            ),
            "seq": pa.array(np.arange(N_CLIPS_P, dtype=np.int64)),
        },
        schema=CLIP_SCHEMA,
    )
    ct = Table.create(f"{root}/clips", schema=clips.schema)
    step = N_CLIPS_P // VERSIONS_P
    for v in range(VERSIONS_P):
        ct.append(clips.slice(v * step, step))
    return clips


def _oracle_greedy_fps(clips):
    """Reference kept-seq set: full O(n²) greedy over ACTUAL decoded
    fingerprints — independent of banding/sharding, so it also verifies
    the pigeonhole recall of the banded index."""
    import pyarrow as pa

    from hydra_ray.audio import decode_batch
    from hydra_ray.stages.audio_features import audio_fingerprint

    pcm, err = decode_batch(clips["bytes"], clips["codec"], clips["sr_hz"])
    fps = (
        audio_fingerprint(pa.table({"pcm": pcm}))["afp"]
        .to_numpy()
        .astype(np.int64)
        .view(np.uint64)
    )
    seqs = clips["seq"].to_numpy()
    kept = []
    for i in np.argsort(seqs, kind="stable"):
        if all(bin(int(fps[i]) ^ int(fps[j])).count("1") > 3 for j in kept):
            kept.append(i)
    return sorted(int(seqs[i]) for i in kept)


def _near_cfg(**kw):
    from hydra_ray.pipelines.replicate import ReplicateConfig

    base = dict(
        num_partitions=4,
        join_window_ms=60_000,
        allowed_lateness_ms=30_000,
        window_size_ms=10_000,
        session_gap_ms=5_000,
        sliding_size_ms=20_000,
        sliding_slide_ms=10_000,
        actor_num_cpus=0.25,
        neardup=True,
        num_neardup_shards=3,
    )
    base.update(kw)
    return ReplicateConfig(**base)


@pytest.fixture(scope="module")
def neardup_run(tmp_path_factory, ray_session):
    from hydra_ray.pipelines.replicate import ReplicatePipeline

    root = str(tmp_path_factory.mktemp("neardup"))
    clips = build_near_sources(root)
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out", _near_cfg())
    metrics = pipe.run()
    return root, clips, metrics


def _repl_seqs(out_root):
    from hydra_ray.table import Table

    return sorted(Table(f"{out_root}/replicated").to_arrow()["seq"].to_pylist())


def test_neardup_stream_oracle(neardup_run):
    from hydra_ray.pipelines.replicate import read_lineage

    root, clips, metrics = neardup_run
    kept = _oracle_greedy_fps(clips)
    assert len(kept) < N_CLIPS_P  # the fixture really plants near-dups
    assert _repl_seqs(f"{root}/out") == kept
    assert metrics["neardup_dropped"] == N_CLIPS_P - len(kept)
    assert metrics["neardup_kept"] == len(kept)
    lineage = read_lineage(f"{root}/out")
    assert (
        sum(e.get("neardup_dropped", 0) for e in lineage)
        == metrics["neardup_dropped"]
    )


def test_neardup_stream_shard_count_independence(tmp_path, ray_session, neardup_run):
    from hydra_ray.pipelines.replicate import ReplicatePipeline

    clean = _repl_seqs(f"{neardup_run[0]}/out")
    for shards in (1, 5):
        root = str(tmp_path / f"s{shards}")
        build_near_sources(root)
        pipe = ReplicatePipeline(
            f"{root}/clips", f"{root}/out", _near_cfg(num_neardup_shards=shards)
        )
        pipe.run()
        assert _repl_seqs(f"{root}/out") == clean, shards


def test_neardup_stream_crash_resume(tmp_path, ray_session, neardup_run):
    from hydra_ray.pipelines.replicate import (
        CrashPoint,
        ReplicatePipeline,
    )

    clean = _repl_seqs(f"{neardup_run[0]}/out")
    root = str(tmp_path)
    build_near_sources(root)
    crash_cfg = _near_cfg(
        crash_at=(2, "before_main_commit"), full_checkpoint_every=2
    )
    pipe = ReplicatePipeline(f"{root}/clips", f"{root}/out", crash_cfg)
    with pytest.raises(CrashPoint):
        pipe.run()
    pipe2 = ReplicatePipeline(
        f"{root}/clips", f"{root}/out", _near_cfg(full_checkpoint_every=2)
    )
    pipe2.run()
    assert _repl_seqs(f"{root}/out") == clean


def test_neardup_with_exact_dedup_composes(tmp_path, ray_session, neardup_run):
    """Both tiers on: byte-identical copies resolve identically in both,
    so the union drop set equals the near-dup-only output."""
    from hydra_ray.pipelines.replicate import ReplicatePipeline

    clean = _repl_seqs(f"{neardup_run[0]}/out")
    root = str(tmp_path)
    build_near_sources(root)
    pipe = ReplicatePipeline(
        f"{root}/clips", f"{root}/out", _near_cfg(dedup=True, num_dedup_shards=2)
    )
    pipe.run()
    assert _repl_seqs(f"{root}/out") == clean


def test_neardup_stream_simhash_signature(tmp_path, ray_session):
    """Signature mode 'simhash': transcript near-copies (one word edited)
    drop cross-epoch; distinct transcripts survive.  Oracle = greedy over
    batch-side SimHasher values."""
    import pyarrow as pa

    from hydra_ray.audio import encode
    from hydra_ray.pipelines.replicate import ReplicatePipeline
    from hydra_ray.stages.neardup import SimHasher
    from hydra_ray.synth import CLIP_SCHEMA
    from hydra_ray.table import Table

    rng = np.random.default_rng(13)
    vocab = [f"w{i}" for i in range(400)]
    texts = []
    n = 90
    for i in range(n):
        if i % 3 == 1:
            words = texts[i - 1].split()
            words[7] = "EDITED"
            texts.append(" ".join(words))
        else:
            texts.append(" ".join(rng.choice(vocab, size=40)))
    base_ms = 1_700_000_000_000
    pcm = _wave(0, 800)
    root = str(tmp_path)
    clips = pa.table(
        {
            "clip_id": pa.array([f"c{i:05d}" for i in range(n)]),
            "bytes": pa.array([encode(pcm, "pcm16", SR)] * n, pa.large_binary()),
            "sr_hz": pa.array([SR] * n, pa.int32()),
            "dur_ms": pa.array([50] * n, pa.int32()),
            "codec": pa.array(["pcm16"] * n),
            "transcript": pa.array(texts),
            "event_ts": pa.array(np.arange(n) * 50 + base_ms, pa.timestamp("ms")),
            "seq": pa.array(np.arange(n, dtype=np.int64)),
        },
        schema=CLIP_SCHEMA,
    )
    ct = Table.create(f"{root}/clips", schema=clips.schema)
    for v in range(3):
        ct.append(clips.slice(v * 30, 30))
    pipe = ReplicatePipeline(
        f"{root}/clips", f"{root}/out",
        _near_cfg(neardup_signature="simhash"),
    )
    metrics = pipe.run()
    fps = (
        SimHasher(text_col="transcript", id_col="seq")(clips)["simhash"]
        .to_numpy()
        .view(np.uint64)
    )
    kept = []
    for i in range(n):
        if all(bin(int(fps[i]) ^ int(fps[j])).count("1") > 3 for j in kept):
            kept.append(i)
    assert _repl_seqs(f"{root}/out") == kept
    assert metrics["neardup_dropped"] == n - len(kept)
    assert 0 < len(kept) < n  # the fixture plants real text near-dups


def test_neardup_stream_minhash_signature(tmp_path, ray_session):
    """Signature mode 'minhash' (banded transcript minhash, lane-distance
    metric): token-level near-copies drop when ≥ min_band_matches lanes
    agree; oracle = O(n²) greedy over batch-side minhash_band_signature
    values under the same lane predicate."""
    import pyarrow as pa

    from hydra_ray.audio import encode
    from hydra_ray.pipelines.replicate import ReplicatePipeline
    from hydra_ray.stages.neardup import minhash_band_signature
    from hydra_ray.synth import CLIP_SCHEMA
    from hydra_ray.table import Table

    rng = np.random.default_rng(29)
    vocab = [f"w{i}" for i in range(400)]
    texts = []
    n = 90
    for i in range(n):
        if i % 3 == 1:
            words = texts[i - 1].split()
            words[11] = "EDITED"             # one-token edit: high Jaccard
            texts.append(" ".join(words))
        else:
            texts.append(" ".join(rng.choice(vocab, size=40)))
    base_ms = 1_700_000_000_000
    pcm = _wave(0, 800)
    root = str(tmp_path)
    clips = pa.table(
        {
            "clip_id": pa.array([f"c{i:05d}" for i in range(n)]),
            "bytes": pa.array([encode(pcm, "pcm16", SR)] * n, pa.large_binary()),
            "sr_hz": pa.array([SR] * n, pa.int32()),
            "dur_ms": pa.array([50] * n, pa.int32()),
            "codec": pa.array(["pcm16"] * n),
            "transcript": pa.array(texts),
            "event_ts": pa.array(np.arange(n) * 50 + base_ms, pa.timestamp("ms")),
            "seq": pa.array(np.arange(n, dtype=np.int64)),
        },
        schema=CLIP_SCHEMA,
    )
    ct = Table.create(f"{root}/clips", schema=clips.schema)
    for v in range(3):
        ct.append(clips.slice(v * 30, 30))
    min_matches = 2
    pipe = ReplicatePipeline(
        f"{root}/clips", f"{root}/out",
        _near_cfg(neardup_signature="minhash",
                  neardup_min_band_matches=min_matches),
    )
    metrics = pipe.run()
    fps = minhash_band_signature(texts, n_bands=4)

    def lanes_equal(a, b):
        x = int(a) ^ int(b)
        return sum((x >> (16 * l)) & 0xFFFF == 0 for l in range(4))

    kept = []
    for i in range(n):
        if all(lanes_equal(fps[i], fps[j]) < min_matches for j in kept):
            kept.append(i)
    assert _repl_seqs(f"{root}/out") == kept
    assert metrics["neardup_dropped"] == n - len(kept)
    assert 0 < len(kept) < n  # planted token-level near-dups really match
    # the planted pairs are what gets dropped (token-level recall)
    dropped = set(range(n)) - set(kept)
    assert dropped and all(i % 3 == 1 for i in dropped)


def test_neardup_retention_evicts_and_readmits():
    """neardup_retention_ms: index entries below wm − retention evict;
    a near-copy of evicted content re-admits as a fresh keeper."""
    import numpy as np

    from hydra_ray.state.neardup_index import NearDupIndexState, band_entries

    st = NearDupIndexState(0, max_hamming=3, retention_ms=1_000)
    fp = np.uint64(0x1234_5678_9ABC_DEF0)
    near = fp ^ np.uint64(1)  # hamming 1

    def entries(f):
        k = band_entries(np.array([f], np.uint64), 4)
        return k, np.repeat(np.array([f], np.uint64), 4)

    k, f = entries(fp)
    e0 = [(k, f, np.full(4, 0), np.full(4, 100))]
    s, fps, m = st.resolve(0, e0, wm=0)
    assert not m.any()
    st.commit(0, e0, np.array([0]))
    # within horizon: near-copy matches the committed index
    k2, f2 = entries(int(near))
    e1 = [(k2, f2, np.full(4, 1), np.full(4, 500))]
    s, fps, m = st.resolve(1, e1, wm=400)
    assert m.any()
    st.commit(1, e1, np.empty(0, np.int64))  # dropped: nothing kept
    # horizon passes the anchor (100 < 1500-1000): evicted → re-admitted
    k3, f3 = entries(int(near))
    s, fps, m = st.resolve(2, [(k3, f3, np.full(4, 2), np.full(4, 1600))],
                           wm=1500)
    assert not m.any()
    assert st.metrics["neardup_evicted"] == 4  # all 4 band entries
