"""Benchmarks of the chunked execution engine.

Compares the two execution modes of the randomize+estimate pipeline
at production scale (n ∈ {10⁵, 10⁶}, r = 32, general dense matrix —
the O(n·r) path the engine exists to tame):

* **monolithic** — the protocols' default single-shot path;
* **chunked** — the engine, fixed-size blocks (O(chunk·r) peak memory
  instead of O(n·r)).

The chunked variant counts the released codes in one
:class:`StreamingCollector` and inverts Eq. (2) once.

Also asserts the engine's determinism contract: chunked output is
byte-identical to the monolithic (single-chunk) engine
execution for a fixed seed.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_engine.py -v
"""

from __future__ import annotations

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


def _randomize_estimate(codes, *, chunk_size=None) -> np.ndarray:
    """The pipeline under test: randomize, count, invert Eq. (2) once."""
    released = run(codes, _tasks(), rng=0, chunk_size=chunk_size)
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
    """Acceptance: chunked == monolithic for a fixed seed."""
    codes = _dataset(100_000).codes
    monolithic = run(codes, _tasks(), rng=0)
    for chunk_size in (CHUNK, CHUNK // 8):
        chunked = run(codes, _tasks(), rng=0, chunk_size=chunk_size)
        np.testing.assert_array_equal(monolithic, chunked)


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
