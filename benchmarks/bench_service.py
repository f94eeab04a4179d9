"""Benchmarks of the collector service layer.

Measures the two service hot paths on a synthetic Adult-shaped stream
(m = 8 attributes, 3 B/record packed):

* **ingest throughput** — wire frames through decode -> write-ahead
  log -> batched absorption, reported as reports/sec (the number a
  capacity plan needs), for both durability windows: the group-commit
  default (one fsync per commit window) and the per-frame path (one
  fsync per frame, the PR 2 behaviour);
* **query latency** — marginal + pair-table estimates, cached vs
  uncached, plus the assertion that the cache actually wins (repeat
  dashboard queries must not re-invert matrices).

Codec micro-benchmarks (encode/decode alone) isolate the wire-format
cost from the durability cost.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_service.py -v
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.data.adult import synthesize_adult
from repro.protocols.independent import RRIndependent
from repro.service.codec import ReportCodec
from repro.service.pipeline import CollectorService
from repro.service.query import QueryFrontend

N_REPORTS = 100_000
FRAME_RECORDS = 1_000


@pytest.fixture(scope="module")
def protocol():
    return RRIndependent(synthesize_adult(n=2, rng=0).schema, p=0.7)


@pytest.fixture(scope="module")
def released(protocol):
    data = synthesize_adult(n=N_REPORTS, rng=42)
    return protocol.randomize(data, rng=0, chunk_size=65_536)


@pytest.fixture(scope="module")
def frames(protocol, released):
    codec = ReportCodec(protocol.schema)
    return [
        codec.encode(released.codes[start : start + FRAME_RECORDS])
        for start in range(0, released.n_records, FRAME_RECORDS)
    ]


def test_codec_encode(benchmark, protocol, released):
    codec = ReportCodec(protocol.schema)
    result = benchmark.pedantic(
        lambda: codec.encode(released.codes), rounds=3, iterations=1
    )
    rate = released.n_records / benchmark.stats.stats.mean
    print(
        f"\nencode: {rate:,.0f} reports/sec "
        f"({codec.record_bytes} B/record packed)"
    )
    assert len(result) == codec.frame_size(released.n_records)


def test_codec_decode(benchmark, protocol, released):
    codec = ReportCodec(protocol.schema)
    frame = codec.encode(released.codes)
    decoded = benchmark.pedantic(
        lambda: codec.decode(frame), rounds=3, iterations=1
    )
    print(
        f"\ndecode: {released.n_records / benchmark.stats.stats.mean:,.0f} "
        "reports/sec"
    )
    np.testing.assert_array_equal(decoded, released.codes)


def test_ingest_throughput(benchmark, protocol, frames, tmp_path_factory):
    """decode -> group-commit fsync'd log append -> one absorption pass.

    Steady-state throughput (one warmup round): a capacity plan sizes
    for sustained traffic, not the first request after process start.
    """
    counter = iter(range(10_000))

    def ingest_all():
        state = tmp_path_factory.mktemp(f"ingest{next(counter)}")
        with CollectorService.for_protocol(protocol, state) as service:
            service.ingest_many(frames)
            service.checkpoint()
            return service.n_observed

    observed = benchmark.pedantic(
        ingest_all, rounds=5, iterations=1, warmup_rounds=1
    )
    assert observed == N_REPORTS
    rate = N_REPORTS / benchmark.stats.stats.mean
    print(
        f"\ningest: {rate:,.0f} reports/sec "
        f"({len(frames)} frames of {FRAME_RECORDS}, group commit — "
        "one fsync per commit window)"
    )


def test_ingest_throughput_per_frame_sync(
    benchmark, protocol, frames, tmp_path_factory
):
    """One fsync per frame (``commit_records=1``) for comparison."""
    counter = iter(range(10_000))

    def ingest_all():
        state = tmp_path_factory.mktemp(f"perframe{next(counter)}")
        with CollectorService.for_protocol(protocol, state) as service:
            service.ingest_many(frames, commit_records=1)
            service.checkpoint()
            return service.n_observed

    observed = benchmark.pedantic(
        ingest_all, rounds=3, iterations=1, warmup_rounds=1
    )
    assert observed == N_REPORTS
    rate = N_REPORTS / benchmark.stats.stats.mean
    print(
        f"\ningest (per-frame fsync): {rate:,.0f} reports/sec "
        f"({len(frames)} frames of {FRAME_RECORDS})"
    )


def test_query_latency_cached_vs_uncached(protocol, frames, tmp_path):
    """Repeat dashboard queries must come from the cache, not Eq. (2)."""
    with CollectorService.for_protocol(protocol, tmp_path / "q") as service:
        service.ingest_many(frames)
        front = service.queries
        names = protocol.schema.names
        pairs = [(a, b) for a in names[:4] for b in names[4:]]

        start = time.perf_counter()
        for a, b in pairs:
            front.pair_table(a, b)
        uncached_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(50):
            for a, b in pairs:
                front.pair_table(a, b)
        cached_seconds = (time.perf_counter() - start) / 50

        stats = front.stats
        print(
            f"\nquery {len(pairs)} pair tables: uncached "
            f"{uncached_seconds * 1e3:.2f} ms, cached "
            f"{cached_seconds * 1e3:.2f} ms "
            f"({uncached_seconds / max(cached_seconds, 1e-9):.1f}x), "
            f"stats {stats}"
        )
        assert stats["hits"] >= 50 * len(pairs)
        assert cached_seconds < uncached_seconds


def test_uncached_query_marginal(benchmark, protocol, frames, tmp_path):
    """Lower bound: one fresh Eq. (2) marginal inversion per call."""
    with CollectorService.for_protocol(protocol, tmp_path / "m") as service:
        service.ingest_many(frames)
        collector = service.collector

        def fresh_marginal():
            front = QueryFrontend(collector)  # empty cache every call
            return front.marginal(protocol.schema.names[0])

        estimate = benchmark.pedantic(fresh_marginal, rounds=3, iterations=10)
        assert estimate.shape[0] == protocol.schema.attribute(0).size
