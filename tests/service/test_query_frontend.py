"""Tests for the cached query front-end."""

import numpy as np
import pytest

from repro.analysis.queries import PairQuery
from repro.analysis.streaming import StreamingCollector
from repro.exceptions import ServiceError
from repro.protocols.independent import RRIndependent
from repro.service.query import QueryFrontend


@pytest.fixture
def protocol(small_schema):
    return RRIndependent(small_schema, p=0.7)


@pytest.fixture
def released(protocol, small_dataset):
    return protocol.randomize(small_dataset, rng=5)


@pytest.fixture
def collector(protocol, released):
    collector = StreamingCollector.for_protocol(protocol)
    collector.receive_batch(released.codes)
    return collector


@pytest.fixture
def front(collector):
    return QueryFrontend(collector)


class TestCaching:
    def test_repeat_marginal_hits(self, front):
        first = front.marginal("flag")
        second = front.marginal("flag")
        stats = front.stats
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)
        assert stats["bytes"] == first.nbytes
        assert first is second  # the cached object itself

    def test_cached_arrays_are_read_only(self, front):
        estimate = front.marginal("level")
        with pytest.raises(ValueError):
            estimate[0] = 99.0

    def test_new_reports_invalidate_by_key(self, front, collector, released):
        stale = front.marginal("flag")
        collector.receive_batch(released.codes[:40])  # observed counts move
        fresh = front.marginal("flag")
        assert front.stats["misses"] == 2  # second call could not hit
        assert not np.array_equal(stale, fresh)

    def test_marginal_matches_collector(self, front, collector):
        np.testing.assert_array_equal(
            front.marginal("color"), collector.estimate_marginal("color")
        )

    def test_repair_variants_cached_separately(self, front):
        front.marginal("flag", "clip")
        front.marginal("flag", "none")
        assert front.stats["misses"] == 2

    def test_lru_bound(self, collector):
        front = QueryFrontend(collector, max_entries=2)
        front.marginal("flag")
        front.marginal("level")
        front.marginal("color")  # evicts "flag"
        front.marginal("color")
        assert front.stats["entries"] == 2
        front.marginal("flag")  # miss again after eviction
        stats = front.stats
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 4, 2)

    def test_invalidate_clears_entries(self, front):
        front.marginal("flag")
        front.invalidate()
        assert front.stats["entries"] == 0
        front.marginal("flag")
        assert front.stats["misses"] == 2

    def test_streaming_collector_also_supported(self, protocol, released):
        streaming = StreamingCollector(
            protocol.schema, protocol.matrices
        )
        streaming.receive_batch(released.codes)
        front = QueryFrontend(streaming)
        np.testing.assert_array_equal(
            front.marginal("flag"), streaming.estimate_marginal("flag")
        )


class TestQueryShapes:
    def test_pair_table_is_outer_product(self, front, protocol, released):
        table = front.pair_table("flag", "level")
        np.testing.assert_allclose(
            table,
            protocol.estimate_pair_table(released, "flag", "level"),
            atol=1e-12,
        )

    def test_pair_table_cached(self, front):
        front.pair_table("flag", "level")
        front.pair_table("flag", "level")
        # 1 pair hit; the first call also seeded the two marginals
        assert front.stats["hits"] == 1

    def test_pair_needs_distinct(self, front):
        with pytest.raises(ServiceError, match="distinct"):
            front.pair_table("flag", "flag")

    def test_set_frequency_matches_protocol(self, front, protocol, released):
        cells = np.array([[0, 0], [1, 2]])
        expected = protocol.estimate_set_frequency(
            released, ("flag", "level"), cells
        )
        assert front.set_frequency(("flag", "level"), cells) == pytest.approx(
            expected, abs=1e-12
        )

    def test_set_frequency_cached_by_cells(self, front):
        cells_a = np.array([[0, 0]])
        cells_b = np.array([[1, 1]])
        front.set_frequency(("flag", "level"), cells_a)
        front.set_frequency(("flag", "level"), cells_b)
        front.set_frequency(("flag", "level"), cells_a)
        entries = [k for k in front._cache if k[0] == "set"]
        assert len(entries) == 2

    def test_set_frequency_empty_cells_is_zero(self, front):
        cells = np.empty((0, 2), dtype=np.int64)
        assert front.set_frequency(("flag", "level"), cells) == 0.0

    def test_set_frequency_validation(self, front):
        with pytest.raises(ServiceError, match="at least one"):
            front.set_frequency((), np.empty((1, 0)))
        with pytest.raises(ServiceError, match="duplicate"):
            front.set_frequency(("flag", "flag"), np.array([[0, 0]]))
        with pytest.raises(ServiceError, match="shape"):
            front.set_frequency(("flag",), np.array([[0, 0]]))
        with pytest.raises(ServiceError, match="out of range"):
            front.set_frequency(("flag",), np.array([[7]]))

    def test_unknown_attribute(self, front):
        with pytest.raises(ServiceError, match="unknown"):
            front.marginal("ghost")

    def test_count_query_scales_by_n(self, front, collector):
        query = PairQuery("flag", "level", np.array([[0, 0], [1, 1]]))
        count = front.count_query(query)
        frequency = front.set_frequency(
            ("flag", "level"), query.cells
        )
        assert count == pytest.approx(collector.n_observed * frequency)

    def test_marginals_covers_schema(self, front, collector):
        answers = front.marginals()
        assert set(answers) == set(collector.schema.names)

    def test_bad_max_entries(self, collector):
        with pytest.raises(ServiceError, match="max_entries"):
            QueryFrontend(collector, max_entries=0)

    def test_bad_max_bytes(self, collector):
        with pytest.raises(ServiceError, match="max_bytes"):
            QueryFrontend(collector, max_bytes=0)

    def test_bad_repair(self, front):
        with pytest.raises(ServiceError, match="repair"):
            front.marginal("flag", "fix-it")


class TestBytesBudget:
    """Eviction also respects a total-bytes budget, not just a count."""

    @pytest.fixture
    def wide_front(self):
        """A collector whose pair tables are big (64x64 float64 = 32 KiB)."""
        from repro.data.schema import Attribute, Schema

        schema = Schema(
            Attribute(f"a{j}", tuple(range(64))) for j in range(6)
        )
        protocol = RRIndependent(schema, p=0.9)
        collector = StreamingCollector.for_protocol(protocol)
        rng = np.random.default_rng(0)
        collector.receive_batch(rng.integers(0, 64, size=(500, 6)))
        return collector

    def test_flood_of_pair_tables_stays_within_budget(self, wide_front):
        budget = 100_000  # three 32 KiB tables fit, a flood must not
        front = QueryFrontend(wide_front, max_bytes=budget)
        names = wide_front.schema.names
        for a in names:
            for b in names:
                if a != b:
                    front.pair_table(a, b)
                    assert front.stats["bytes"] <= budget
        # the budget forced evictions well below max_entries
        assert front.stats["entries"] < 30

    def test_evicted_bytes_are_released(self, wide_front):
        front = QueryFrontend(wide_front, max_bytes=70_000)
        names = wide_front.schema.names
        front.pair_table(names[0], names[1])
        high = front.stats["bytes"]
        front.pair_table(names[2], names[3])  # evicts older entries
        assert front.stats["bytes"] <= 70_000
        assert front.stats["bytes"] > 0
        assert high <= 70_000

    def test_oversized_answer_served_but_not_cached(self, wide_front):
        front = QueryFrontend(wide_front, max_bytes=1_000)  # < one table
        names = wide_front.schema.names
        table = front.pair_table(names[0], names[1])
        assert table.shape == (64, 64)
        # the marginals (512 B each) fit; the 32 KiB table was not kept
        assert all(key[0] == "marginal" for key in front._cache)
        repeat = front.pair_table(names[0], names[1])
        np.testing.assert_array_equal(table, repeat)

    def test_invalidate_resets_bytes(self, wide_front):
        front = QueryFrontend(wide_front)
        front.marginal(wide_front.schema.names[0])
        assert front.stats["bytes"] > 0
        front.invalidate()
        assert front.stats["bytes"] == 0


class TestCacheMetrics:
    """stats is now a view over query.cache.* instruments."""

    def test_stats_keeps_historical_shape_plus_new_counters(self, front):
        assert set(front.stats) == {
            "hits", "misses", "entries", "bytes", "evictions",
            "oversize_bypass",
        }

    def test_hits_and_misses_counted(self, front):
        name = front.names[0]
        front.marginal(name)
        front.marginal(name)
        assert front.stats["misses"] == 1
        assert front.stats["hits"] == 1

    def test_evictions_counted(self, collector):
        front = QueryFrontend(collector, max_entries=2)
        for name in front.names:  # three marginals, cap of two
            front.marginal(name)
        assert front.stats["evictions"] == 1
        assert front.stats["entries"] == 2

    def test_oversize_bypass_counted(self, collector):
        front = QueryFrontend(collector, max_bytes=8)  # nothing fits
        front.marginal(front.names[0])
        assert front.stats["oversize_bypass"] == 1
        assert front.stats["entries"] == 0

    def test_invalidate_zeroes_gauges_not_counters(self, front):
        front.marginal(front.names[0])
        front.invalidate()
        stats = front.stats
        assert stats["entries"] == 0
        assert stats["bytes"] == 0
        assert stats["misses"] == 1  # counters are monotonic

    def test_injected_registry_receives_instruments(self, collector):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        front = QueryFrontend(collector, metrics=registry)
        assert front.metrics is registry
        front.marginal(front.names[0])
        front.marginal(front.names[0])
        snap = registry.snapshot()
        assert snap["counters"]["query.cache.misses"] == 1
        assert snap["counters"]["query.cache.hits"] == 1
        assert snap["gauges"]["query.cache.entries"] == 1
        assert snap["gauges"]["query.cache.bytes"] > 0
        # compute latency lands in a span histogram
        assert any(k.startswith("span.query.") for k in snap["histograms"])

    def test_stats_work_without_injection(self, front):
        # the default is a private always-real registry even when the
        # ambient one is disabled
        front.marginal(front.names[0])
        assert front.stats["misses"] == 1

    def test_repr_unchanged_shape(self, front):
        front.marginal(front.names[0])
        text = repr(front)
        assert "entries=1" in text and "misses=1" in text
