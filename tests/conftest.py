import os
import shutil
import uuid

import pytest

os.environ.setdefault("RAY_DEDUP_LOGS", "0")


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture
def meter_tok():
    """Make metered-op tokens unique to this test (``meter_counts`` reads
    every log ever written under a token, so a fixed token would also
    count an earlier run's ops); their op-log dirs are deleted at
    teardown, and no other token's."""
    from hydra_ray import fs

    made = []

    def make(prefix: str) -> str:
        made.append(prefix + uuid.uuid4().hex[:8])
        return made[-1]

    yield make
    for tok in made:
        shutil.rmtree(os.path.join(fs._METER_BASE, tok), ignore_errors=True)
