"""Benchmarks of the chunked/sharded execution engine.

Compares the three execution modes of the randomize+estimate pipeline
at production scale (n ∈ {10⁵, 10⁶}, r = 32, general dense matrix —
the O(n·r) path the engine exists to tame):

* **monolithic** — the protocols' default single-shot path;
* **chunked** — the engine, one worker, fixed-size blocks
  (O(chunk·r) peak memory instead of O(n·r));
* **sharded** — the engine fanning chunks across worker processes.

The chunked and sharded variants count the released codes in one
:class:`StreamingCollector` and invert Eq. (2) once.

Also asserts the engine's determinism contract: chunked single-worker
output is byte-identical to the monolithic (single-chunk) engine
execution for a fixed seed.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_engine.py -v
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analysis.streaming import StreamingCollector
from repro.core.matrices import keep_else_uniform_matrix
from repro.data.dataset import Dataset
from repro.data.schema import Attribute, Schema
from repro.engine.executor import ColumnTask, run
from repro.protocols.independent import RRIndependent

R = 32
CHUNK = 65_536
CORES = os.cpu_count() or 1
SIZES = [100_000, 1_000_000]


def _schema() -> Schema:
    return Schema([Attribute("value", tuple(f"v{i}" for i in range(R)))])


def _dataset(n: int) -> Dataset:
    rng = np.random.default_rng(123)
    codes = rng.integers(0, R, size=(n, 1))
    return Dataset(_schema(), codes, copy=False)


def _dense_matrix() -> np.ndarray:
    return keep_else_uniform_matrix(R, 0.7).dense()


def _tasks() -> list:
    return [ColumnTask((0,), _dense_matrix())]


def _randomize_estimate(codes, *, chunk_size=None, workers=1) -> np.ndarray:
    """The pipeline under test: randomize, count, invert Eq. (2) once."""
    released = run(
        codes, _tasks(), rng=0, chunk_size=chunk_size, workers=workers
    ).codes
    collector = StreamingCollector(_schema(), {"value": _dense_matrix()})
    collector.receive_batch(released, validated=True)
    return collector.estimate_marginal("value")


def _monolithic_protocol_pipeline(dataset: Dataset) -> np.ndarray:
    """The pre-engine reference: protocol default path, single shot."""
    protocol = RRIndependent(dataset.schema, matrices={"value": _dense_matrix()})
    released = protocol.randomize(dataset, rng=0)
    return protocol.estimate_marginal(released, "value")


@pytest.fixture(scope="module", params=SIZES, ids=lambda n: f"n={n:_}")
def sized_dataset(request):
    return _dataset(request.param)


def test_chunked_byte_identical_to_monolithic():
    """Acceptance: chunked single-worker == monolithic for a fixed seed."""
    codes = _dataset(100_000).codes
    monolithic = run(codes, _tasks(), rng=0)
    chunked = run(codes, _tasks(), rng=0, chunk_size=CHUNK)
    np.testing.assert_array_equal(monolithic.codes, chunked.codes)
    sharded = run(
        codes, _tasks(), rng=0, chunk_size=CHUNK // 8, workers=min(4, CORES)
    )
    np.testing.assert_array_equal(monolithic.codes, sharded.codes)


def test_randomize_estimate_monolithic(benchmark, sized_dataset):
    estimate = benchmark.pedantic(
        lambda: _monolithic_protocol_pipeline(sized_dataset),
        rounds=3,
        iterations=1,
    )
    assert estimate.shape == (R,)


def test_randomize_estimate_chunked(benchmark, sized_dataset):
    estimate = benchmark.pedantic(
        lambda: _randomize_estimate(sized_dataset.codes, chunk_size=CHUNK),
        rounds=3,
        iterations=1,
    )
    assert estimate.shape == (R,)


def test_randomize_estimate_sharded(benchmark, sized_dataset):
    estimate = benchmark.pedantic(
        lambda: _randomize_estimate(
            sized_dataset.codes, chunk_size=CHUNK, workers=min(4, CORES)
        ),
        rounds=3,
        iterations=1,
    )
    assert estimate.shape == (R,)


@pytest.mark.skipif(
    CORES < 4, reason=f"sharded speedup needs >= 4 cores, have {CORES}"
)
def test_sharded_speedup_at_least_2x():
    """Acceptance: sharded (4 workers) >= 2x monolithic at n=10^6, r=32."""
    dataset = _dataset(1_000_000)
    # Warm both paths once (allocator, imports, fork pool startup cost).
    _monolithic_protocol_pipeline(_dataset(10_000))
    _randomize_estimate(_dataset(10_000).codes, chunk_size=2_500, workers=4)

    start = time.perf_counter()
    _monolithic_protocol_pipeline(dataset)
    monolithic_seconds = time.perf_counter() - start

    start = time.perf_counter()
    _randomize_estimate(dataset.codes, chunk_size=CHUNK, workers=4)
    sharded_seconds = time.perf_counter() - start

    speedup = monolithic_seconds / sharded_seconds
    print(
        f"\nmonolithic {monolithic_seconds:.3f}s  "
        f"sharded(4) {sharded_seconds:.3f}s  speedup {speedup:.2f}x"
    )
    assert speedup >= 2.0, (
        f"sharded path only {speedup:.2f}x faster "
        f"({monolithic_seconds:.3f}s vs {sharded_seconds:.3f}s)"
    )
