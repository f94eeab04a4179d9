"""Tests for the metrics registry: instruments, children, merging."""

import pytest

from repro.exceptions import ObservabilityError
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_enabled,
    set_registry,
)


class TestCounter:
    def test_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            Counter("x").inc(-1)


class TestGauge:
    def test_moves_both_ways(self):
        g = Gauge("x")
        g.set(10.0)
        g.inc(2.5)
        g.dec(5.0)
        assert g.value == 7.5


class TestHistogram:
    def test_boundary_value_lands_in_bucket(self):
        h = Histogram("x", buckets=(1.0, 10.0))
        h.observe(1.0)  # <= 1.0: first bucket
        h.observe(1.5)  # <= 10.0: second
        h.observe(99.0)  # overflow
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.sum == pytest.approx(101.5)

    def test_overflow_slot_exists(self):
        h = Histogram("x", buckets=(1.0,))
        assert len(h.counts) == 2

    def test_empty_buckets_rejected(self):
        with pytest.raises(ObservabilityError, match="at least one"):
            Histogram("x", buckets=())

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ObservabilityError, match="strictly increase"):
            Histogram("x", buckets=(1.0, 1.0, 2.0))


class TestRegistryInstruments:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.gauge("a")
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.histogram("a")

    def test_histogram_reregistered_same_buckets_ok(self):
        registry = MetricsRegistry()
        h = registry.histogram("h", buckets=(1.0, 2.0))
        assert registry.histogram("h", buckets=(1.0, 2.0)) is h

    def test_histogram_reregistered_different_buckets_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ObservabilityError, match="different"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_bad_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="non-empty"):
            registry.counter("")


class TestSnapshot:
    def test_shape_and_sorted_keys(self):
        registry = MetricsRegistry()
        registry.counter("z.count").inc(3)
        registry.counter("a.count").inc(1)
        registry.gauge("g").set(2.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == ["a.count", "z.count"]
        assert snap["counters"]["z.count"] == 3
        assert snap["gauges"]["g"] == 2.5
        assert snap["histograms"]["h"] == {
            "buckets": [1.0],
            "counts": [1, 0],
            "sum": 0.5,
            "count": 1,
        }

    def test_children_fold_in(self):
        parent = MetricsRegistry()
        parent.counter("shared").inc(1)
        child = parent.child()
        child.counter("shared").inc(10)
        child.counter("child.only").inc(2)
        snap = parent.snapshot()
        assert snap["counters"]["shared"] == 11
        assert snap["counters"]["child.only"] == 2
        # folding a child re-sorts the merged key space
        assert list(snap["counters"]) == sorted(snap["counters"])

    def test_child_histograms_merge_bucket_for_bucket(self):
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        child = parent.child()
        child.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        merged = parent.snapshot()["histograms"]["h"]
        assert merged["counts"] == [1, 1, 0]
        assert merged["count"] == 2
        assert merged["sum"] == pytest.approx(2.0)

    def test_child_histogram_boundary_mismatch_rejected(self):
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(1.0,))
        parent.child().histogram("h", buckets=(2.0,))
        with pytest.raises(ObservabilityError, match="different boundaries"):
            parent.snapshot()


class TestNullRegistry:
    def test_disabled_flag(self):
        assert NullRegistry().enabled is False
        assert MetricsRegistry().enabled is True

    def test_instruments_are_shared_noops(self):
        registry = NullRegistry()
        c = registry.counter("a")
        assert c is registry.counter("totally.different")
        c.inc(100)
        assert c.value == 0
        g = registry.gauge("g")
        g.set(5.0)
        g.inc()
        assert g.value == 0.0
        h = registry.histogram("h")
        h.observe(1.0)
        assert h.count == 0

    def test_snapshot_empty_and_merge_noop(self):
        registry = NullRegistry()
        registry.child().counter("x").inc(5)
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_child_is_null(self):
        assert isinstance(NullRegistry().child(), NullRegistry)


class TestAmbient:
    def test_disabled_by_default(self):
        set_registry(None)
        assert not metrics_enabled()
        assert isinstance(get_registry(), NullRegistry)

    def test_enable_is_idempotent(self):
        set_registry(None)
        first = enable_metrics()
        assert metrics_enabled()
        assert enable_metrics() is first
        assert get_registry() is first

    def test_disable_drops_recorded_metrics(self):
        registry = enable_metrics()
        registry.counter("c").inc()
        disable_metrics()
        assert not metrics_enabled()
        assert get_registry().snapshot()["counters"] == {}

    def test_set_registry_returns_previous(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        assert get_registry() is mine
        assert set_registry(previous) is mine

    def test_default_latency_buckets_strictly_increase(self):
        assert all(
            a < b
            for a, b in zip(DEFAULT_LATENCY_BUCKETS, DEFAULT_LATENCY_BUCKETS[1:])
        )
