"""The three workloads: one stream shape, three configurations.

All three use the ``bench.py`` headline pipeline configuration (8
partitions, batch 128, 10 s tumbling windows, 5 s session gap, updates
stream on).  They differ only in the storage backend of the output root and
in whether the two dedup tiers are on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Input size.  A run is a backlog drain of VERSIONS source versions (one
# epoch each, plus the flush epoch), so the epoch count — not the clip
# count — sets the storage-op cost on the 30 ms backend.  256 clips per
# version are one input fragment of the size bench.py uses.  About 7 KB
# per clip on disk (8 MB per run).
N_CLIPS = 1024
VERSIONS = 4
FRAGMENT_ROWS = 256

# tiny scale for the self-test only
TINY_CLIPS = 256
TINY_VERSIONS = 2

STORE_LATENCY_MS = 30
PARTITION_ACTOR_CPUS = 0.25
SHARD_ACTOR_CPUS = 0.1   # fixed inside ReplicatePipeline._spawn_actors
NUM_SHARDS = 8
JOIN_WINDOW_MS = 60_000
LATENESS_MS = 30_000
WINDOW_MS = 10_000
SESSION_GAP_MS = 5_000
NEARDUP_MAX_HAMMING = 3


@dataclass(frozen=True)
class Workload:
    name: str
    metered: bool        # out root on the 30 ms metered object-store shim
    dedup: bool          # exact + near-dup (audio_fp) tiers, 8 shards each
    # drains per run at least, whatever --seconds says: the first drain in
    # a Ray session is cold (workers and actors start), and one LocalFS
    # drain alone spread clips_per_s and the epoch intervals by about 20 %
    # between runs; the 30 ms store's sleeps keep one drain within 5 %
    min_drains: int = 1

    def config(self):
        from hydra_ray.pipelines.replicate import ReplicateConfig

        return ReplicateConfig(
            num_partitions=8,
            actor_num_cpus=PARTITION_ACTOR_CPUS,
            batch_size=128,
            max_versions_per_epoch=1,
            join_window_ms=JOIN_WINDOW_MS,
            allowed_lateness_ms=LATENESS_MS,
            window_size_ms=WINDOW_MS,
            session_gap_ms=SESSION_GAP_MS,
            dedup=self.dedup,
            num_dedup_shards=NUM_SHARDS,
            neardup=self.dedup,
            num_neardup_shards=NUM_SHARDS,
            # the reference (streams.py) assumes these
            dedup_cols=("bytes",),
            neardup_signature="audio_fp",
            neardup_max_hamming=NEARDUP_MAX_HAMMING,
        )

    def num_cpus(self) -> int:
        """Ray logical CPUs: every actor reservation plus one ingest task
        must fit, or the run deadlocks (8 x 0.25 + 16 x 0.1 = 3.6 leaves
        less than one CPU at 4).  One more CPU lets the next epoch's
        pre-launched ingest run beside the current one."""
        reserved = 8 * PARTITION_ACTOR_CPUS
        if self.dedup:
            reserved += 2 * NUM_SHARDS * SHARD_ACTOR_CPUS
        return math.ceil(reserved + 1) + 1

    def out_root(self, path: str, token: str) -> str:
        if self.metered:
            return f"metered-{token}-{STORE_LATENCY_MS}://{path}"
        return path


WORKLOADS = {
    w.name: w
    for w in (
        Workload("replicate_local", metered=False, dedup=False, min_drains=2),
        Workload("replicate_store30", metered=True, dedup=False),
        Workload("dedup_local", metered=False, dedup=True, min_drains=2),
    )
}
