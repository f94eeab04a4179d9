"""Cross-process metric merge: worker counts must not change totals.

The shard executor records per-chunk metrics (chunk count, record
count, a chunk-size histogram) that are pure functions of the chunk
plan — deliberately no timing spans — so the merged snapshot from 1, 2
and 4 workers over the same ``(n, chunk_size)`` must be identical, the
same discipline ``StreamingCollector`` applies to count vectors.
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


def _run_with_metrics(codes, tasks, workers: int) -> dict:
    registry = MetricsRegistry()
    set_registry(registry)
    run(codes, tasks, rng=5, chunk_size=256, workers=workers)
    set_registry(None)
    return registry.snapshot()


class TestCrossProcessMerge:
    def test_serial_baseline_counts(self, codes, tasks):
        snap = _run_with_metrics(codes, tasks, workers=1)
        n, chunk_size = codes.shape[0], 256
        n_chunks = -(-n // chunk_size)
        assert snap["counters"]["engine.chunks"] == n_chunks
        assert snap["counters"]["engine.records"] == n
        hist = snap["histograms"]["engine.chunk_records"]
        assert hist["buckets"] == list(ENGINE_CHUNK_BUCKETS)
        assert hist["count"] == n_chunks
        assert hist["sum"] == pytest.approx(float(n))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_merged_snapshot_identical_across_worker_counts(
        self, codes, tasks, workers
    ):
        reference = _run_with_metrics(codes, tasks, workers=1)
        merged = _run_with_metrics(codes, tasks, workers=workers)
        assert merged == reference

    def test_disabled_registry_records_nothing(self, codes, tasks):
        set_registry(None)
        run(codes, tasks, rng=5, chunk_size=256, workers=2)
        from repro.obs.registry import get_registry

        assert get_registry().snapshot()["counters"] == {}
