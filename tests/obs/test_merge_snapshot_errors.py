"""``merge_snapshot`` error paths: validate everything, apply nothing.

A fold of N worker snapshots must be all-or-nothing per snapshot: a
conflict discovered on the last instrument must not leave the first
nine already merged (the engine executor folds worker metrics from
these — a half-merged registry would report counts no worker ever
emitted).
"""

from __future__ import annotations

import pytest

from repro.exceptions import ObservabilityError
from repro.obs.registry import MetricsRegistry


def _snapshot_with(counters=None, gauges=None, histograms=None):
    return {
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
    }


def test_histogram_bucket_mismatch_is_typed():
    registry = MetricsRegistry()
    registry.histogram("latency", buckets=(0.1, 1.0, 10.0))
    snapshot = _snapshot_with(
        histograms={
            "latency": {
                "buckets": [0.5, 5.0],
                "counts": [1, 2, 3],
                "sum": 4.2,
                "count": 6,
            }
        }
    )
    with pytest.raises(ObservabilityError, match="boundaries"):
        registry.merge_snapshot(snapshot)


def test_counter_gauge_kind_conflict_is_typed():
    registry = MetricsRegistry()
    registry.counter("service.ingest.frames").inc(3)
    snapshot = _snapshot_with(gauges={"service.ingest.frames": 1.5})
    with pytest.raises(ObservabilityError):
        registry.merge_snapshot(snapshot)
    snapshot = _snapshot_with(counters={"some.gauge": 2})
    registry.gauge("some.gauge").set(1.0)
    with pytest.raises(ObservabilityError):
        registry.merge_snapshot(snapshot)


def test_counts_length_mismatch_is_typed():
    registry = MetricsRegistry()
    registry.histogram("h", buckets=(1.0, 2.0))
    snapshot = _snapshot_with(
        histograms={
            "h": {
                "buckets": [1.0, 2.0],
                "counts": [1, 2],  # needs len(buckets) + 1 == 3
                "sum": 1.0,
                "count": 3,
            }
        }
    )
    with pytest.raises(ObservabilityError, match="counts"):
        registry.merge_snapshot(snapshot)


def test_failed_merge_applies_nothing():
    """Validate-then-apply: the valid instruments in a rejected
    snapshot must not land either."""
    registry = MetricsRegistry()
    registry.counter("good").inc(10)
    registry.histogram("h", buckets=(1.0,)).observe(0.5)
    poisoned = _snapshot_with(
        counters={"good": 5},
        gauges={"good.fill": 2.0},
        histograms={
            "h": {
                "buckets": [99.0],  # boundary conflict, found last
                "counts": [1, 1],
                "sum": 100.0,
                "count": 2,
            }
        },
    )
    before = registry.snapshot()
    with pytest.raises(ObservabilityError):
        registry.merge_snapshot(poisoned)
    after = registry.snapshot()
    assert after["counters"] == before["counters"]
    assert after["histograms"]["h"] == before["histograms"]["h"]
    # Resolution may have *registered* the gauge (name bookkeeping),
    # but no value from the rejected snapshot may have landed.
    assert after["gauges"].get("good.fill", 0.0) == 0.0


def test_valid_merge_still_sums():
    a = MetricsRegistry()
    a.counter("c").inc(2)
    a.histogram("h", buckets=(1.0,)).observe(0.5)
    b = MetricsRegistry()
    b.counter("c").inc(3)
    b.histogram("h", buckets=(1.0,)).observe(2.0)
    fold = MetricsRegistry()
    fold.merge_snapshot(a.snapshot())
    fold.merge_snapshot(b.snapshot())
    merged = fold.snapshot()
    assert merged["counters"]["c"] == 5
    assert merged["histograms"]["h"]["count"] == 2
    assert merged["histograms"]["h"]["counts"] == [1, 1]
