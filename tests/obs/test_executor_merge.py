"""Engine chunk metrics are a pure function of the chunk plan.

The executor records per-chunk metrics (chunk count, record count, a
chunk-size histogram) and deliberately no timing spans, so a run over
a given ``(n, chunk_size)`` always records the same snapshot.
"""

import numpy as np
import pytest

from repro.core.matrices import keep_else_uniform_matrix
from repro.data.schema import Attribute, Schema
from repro.engine.executor import ColumnTask, ENGINE_CHUNK_BUCKETS, run
from repro.obs.registry import MetricsRegistry, set_registry


@pytest.fixture
def schema():
    return Schema(
        [
            Attribute("a", ("a0", "a1", "a2")),
            Attribute("b", ("b0", "b1")),
        ]
    )


@pytest.fixture
def codes(rng):
    n = 3000
    return np.stack(
        [rng.integers(0, 3, n), rng.integers(0, 2, n)], axis=1
    )


@pytest.fixture
def tasks(schema):
    return [
        ColumnTask((j,), keep_else_uniform_matrix(attr.size, 0.6))
        for j, attr in enumerate(schema)
    ]


def _run_with_metrics(codes, tasks) -> dict:
    registry = MetricsRegistry()
    set_registry(registry)
    run(codes, tasks, rng=5, chunk_size=256)
    set_registry(None)
    return registry.snapshot()


class TestCrossProcessMerge:
    def test_serial_baseline_counts(self, codes, tasks):
        snap = _run_with_metrics(codes, tasks)
        n, chunk_size = codes.shape[0], 256
        n_chunks = -(-n // chunk_size)
        assert snap["counters"]["engine.chunks"] == n_chunks
        assert snap["counters"]["engine.records"] == n
        hist = snap["histograms"]["engine.chunk_records"]
        assert hist["buckets"] == list(ENGINE_CHUNK_BUCKETS)
        assert hist["count"] == n_chunks
        assert hist["sum"] == pytest.approx(float(n))

    def test_disabled_registry_records_nothing(self, codes, tasks):
        set_registry(None)
        run(codes, tasks, rng=5, chunk_size=256)
        from repro.obs.registry import get_registry

        assert get_registry().snapshot()["counters"] == {}
