import tracemalloc

import pytest

from firesim.scenario import build_from_seed, default_config


@pytest.fixture(scope="session")
def default_cfg():
    return default_config()


@pytest.fixture(scope="session")
def finished_run(default_cfg):
    """One completed default run shared by read-only tests."""
    sim = build_from_seed(default_cfg, 0)
    sim.run(default_cfg.run.ticks)
    return sim


@pytest.fixture
def traced_peak():
    """``peak(fn, *args, **kwargs)`` -> ``(fn's result, the most bytes traced
    while it ran beyond those traced when it started)``; numpy reports its
    array buffers to ``tracemalloc``."""
    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    return peak
