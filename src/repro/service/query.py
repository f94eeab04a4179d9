"""Invalidation-aware query cache over a collector's estimates.

Dashboard-style consumers ask the same handful of questions — marginal
of one attribute, pair table of two, frequency of a cell set — far more
often than new reports arrive. Every answer is a deterministic function
of ``(query, per-attribute observed counts)``, so the front-end caches
on exactly that key: when more reports are absorbed, the observed
counts move and every stale entry misses *by construction* — there is
no explicit invalidation protocol to get wrong. Entries are LRU-bounded
both by count (``max_entries``) and by total payload size
(``max_bytes``, so a flood of large pair tables cannot pin unbounded
memory), and stored read-only so callers cannot mutate a cached answer
in place.

Queries are routed through the protocol's
:class:`~repro.protocols.base.CollectionLayout`: a marginal (or the
within-cluster part of a pair table / set frequency) is answered by
marginalizing the covering cluster's cached *joint* estimate, and
queries spanning clusters compose by independence (§4) — outer
products of marginals, which for the all-singleton RR-Independent
layout degenerates to Protocol 1's §3.1-step-10 rule exactly. Without
an explicit layout the front-end assumes the all-singleton one, which
is the pre-unification behavior bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.analysis.queries import PairQuery
from repro.exceptions import ServiceError
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import trace
from repro.protocols.base import CollectionLayout

__all__ = ["QueryFrontend", "DEFAULT_CACHE_ENTRIES", "DEFAULT_CACHE_BYTES"]

DEFAULT_CACHE_ENTRIES = 256

#: Total-bytes budget across cached answers. 256 pair tables of two
#: 1024-category attributes would otherwise pin ~2 GiB; the byte bound
#: caps the cache by what entries actually weigh, not how many there
#: are.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

#: Accounting weight of a non-array entry (floats plus key overhead).
_SCALAR_BYTES = 64

_REPAIRS = ("clip", "none")


def _entry_bytes(value) -> int:
    """Accounting size of one cached answer."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    return _SCALAR_BYTES


class QueryFrontend:
    """LRU-cached estimate queries over a streaming collector.

    Parameters
    ----------
    collector:
        A :class:`~repro.analysis.streaming.StreamingCollector` over the
        layout's *collection schema* (anything exposing ``schema``,
        ``estimate_marginal(name, repair)`` and
        ``n_observed_by_attribute`` works).
    layout:
        The protocol's :class:`~repro.protocols.base.CollectionLayout`
        mapping queried (wire-schema) attributes onto the collector's
        release units. ``None`` assumes the all-singleton layout over
        the collector's schema (the RR-Independent case).
    max_entries:
        LRU bound on the number of cached answers.
    max_bytes:
        LRU bound on the total payload bytes of cached answers. An
        answer larger than the whole budget is served but never
        cached.
    metrics:
        Registry the cache instruments record into (``query.cache.*``
        counters, ``query.cache.entries``/``bytes`` gauges). ``None``
        gives the front-end a private always-on registry so
        :attr:`stats` works regardless of the ambient metrics switch;
        a service passes a child of its own registry so cache metrics
        appear in health snapshots.
    """

    def __init__(
        self,
        collector,
        *,
        layout: "CollectionLayout | None" = None,
        max_entries: int = DEFAULT_CACHE_ENTRIES,
        max_bytes: int = DEFAULT_CACHE_BYTES,
        metrics: "MetricsRegistry | None" = None,
    ):
        if max_entries < 1:
            raise ServiceError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ServiceError(f"max_bytes must be >= 1, got {max_bytes}")
        if layout is None:
            layout = CollectionLayout.identity(collector.schema)
        elif layout.collection_schema().names != collector.schema.names:
            raise ServiceError(
                "layout's collection schema does not match the collector: "
                f"{layout.collection_schema().names} vs "
                f"{collector.schema.names}"
            )
        self._collector = collector
        self._layout = layout
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        self._cache: OrderedDict = OrderedDict()
        # The cache counters live in a registry (and `stats` is a view
        # over it). A private registry is always real — a few counter
        # increments per query are nothing next to an estimate — so
        # hit/miss accounting never depends on the ambient switch.
        self._metrics = MetricsRegistry() if metrics is None else metrics
        self._c_hits = self._metrics.counter("query.cache.hits")
        self._c_misses = self._metrics.counter("query.cache.misses")
        self._c_evictions = self._metrics.counter("query.cache.evictions")
        self._c_oversize = self._metrics.counter(
            "query.cache.oversize_bypass"
        )
        self._g_entries = self._metrics.gauge("query.cache.entries")
        self._g_bytes = self._metrics.gauge("query.cache.bytes")
        self._bytes = 0

    # ------------------------------------------------------------------
    @property
    def collector(self):
        return self._collector

    @property
    def layout(self) -> CollectionLayout:
        return self._layout

    @property
    def names(self) -> tuple:
        """Queryable (wire-schema) attribute names."""
        return self._layout.member_names

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry holding the ``query.cache.*`` instruments."""
        return self._metrics

    @property
    def stats(self) -> dict:
        """Cache counters, as a thin view over the metrics registry.

        Keeps the historical dict shape (``hits``, ``misses``,
        ``entries``, ``bytes``) and extends it with ``evictions`` and
        ``oversize_bypass`` — the authoritative values live in the
        ``query.cache.*`` instruments.
        """
        return {
            "hits": self._c_hits.value,
            "misses": self._c_misses.value,
            "entries": len(self._cache),
            "bytes": self._bytes,
            "evictions": self._c_evictions.value,
            "oversize_bypass": self._c_oversize.value,
        }

    def invalidate(self) -> None:
        """Drop every cached answer (stats survive)."""
        self._cache.clear()
        self._bytes = 0
        self._g_entries.set(0)
        self._g_bytes.set(0)

    # ------------------------------------------------------------------
    def _n_by_attribute(self) -> dict:
        return self._collector.n_observed_by_attribute

    def _cluster_of(self, name: str) -> int:
        """Index of the release unit covering ``name`` (or a clean error)."""
        try:
            return self._layout.cluster_of(name)
        except Exception:
            raise ServiceError(f"unknown attribute {name!r}") from None

    def _version(self, names) -> tuple:
        """Cache-key component: observed counts of the release units
        backing the involved (wire-schema) attributes."""
        observed = self._n_by_attribute()
        cluster_names = self._layout.cluster_names
        return tuple(
            observed[cluster_names[self._cluster_of(name)]] for name in names
        )

    def _joint(self, k: int, repair: str) -> np.ndarray:
        """Cached joint estimate of one fused release unit."""
        cluster_name = self._layout.cluster_names[k]
        key = (
            "joint", cluster_name, repair,
            (self._n_by_attribute()[cluster_name],),
        )
        return self._cached(
            key,
            lambda: self._collector.estimate_marginal(cluster_name, repair),
        )

    def _joint_of(self, repair: str):
        """Cached per-release-unit estimates for the layout helpers.

        Singleton units cache under the attribute's marginal key (their
        joint *is* the marginal — and the entry is shared with direct
        ``marginal`` calls); fused units cache under the joint key.
        """

        def joint_of(k: int) -> np.ndarray:
            if self._layout.is_singleton(k):
                name = self._layout.clusters[k][0]
                key = ("marginal", name, repair, self._version((name,)))
                return self._cached(
                    key,
                    lambda: self._collector.estimate_marginal(name, repair),
                )
            return self._joint(k, repair)

        return joint_of

    def _cached(self, key, compute):
        if key in self._cache:
            self._c_hits.inc()
            self._cache.move_to_end(key)
            return self._cache[key]
        self._c_misses.inc()
        with trace("query.compute", self._metrics):
            value = compute()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        size = _entry_bytes(value)
        if size > self._max_bytes:
            # Larger than the whole budget: serve it, never cache it —
            # admitting it would evict everything and still bust the
            # bound.
            self._c_oversize.inc()
            return value
        self._cache[key] = value
        self._bytes += size
        while (
            len(self._cache) > self._max_entries
            or self._bytes > self._max_bytes
        ):
            _, evicted = self._cache.popitem(last=False)
            self._bytes -= _entry_bytes(evicted)
            self._c_evictions.inc()
        self._g_entries.set(len(self._cache))
        self._g_bytes.set(self._bytes)
        return value

    @staticmethod
    def _check_repair(repair: str) -> None:
        if repair not in _REPAIRS:
            raise ServiceError(
                f"repair must be one of {_REPAIRS}, got {repair!r}"
            )

    # ------------------------------------------------------------------
    def marginal(self, name: str, repair: str = "clip") -> np.ndarray:
        """Cached Eq. (2) marginal estimate of one attribute.

        For an attribute randomized jointly with others (a fused
        release unit), the cluster's cached joint estimate is
        marginalized onto the attribute — the §4 within-cluster rule.
        """
        self._check_repair(repair)
        k = self._cluster_of(name)
        joint_of = self._joint_of(repair)
        if self._layout.is_singleton(k):
            return joint_of(k)  # cached under this marginal's own key
        key = ("marginal", name, repair, self._version((name,)))
        return self._cached(
            key,
            lambda: self._layout.marginal_from_joints(joint_of, name),
        )

    def marginals(self, repair: str = "clip") -> dict:
        """Every queryable attribute's cached marginal estimate."""
        return {
            name: self.marginal(name, repair) for name in self.names
        }

    def pair_table(
        self, name_a: str, name_b: str, repair: str = "clip"
    ) -> np.ndarray:
        """Cached bivariate estimate (§4 composition rules).

        Attributes sharing a release unit: the cluster's joint estimate
        marginalized onto the pair — no independence assumption.
        Attributes in different units: independence across clusters,
        outer product of the marginals.
        """
        if name_a == name_b:
            raise ServiceError("pair table needs two distinct attributes")
        self._check_repair(repair)
        self._cluster_of(name_a)  # unknown attributes fail as ServiceError
        self._cluster_of(name_b)
        key = (
            "pair", name_a, name_b, repair, self._version((name_a, name_b)),
        )
        return self._cached(
            key,
            lambda: self._layout.pair_table_from_joints(
                self._joint_of(repair), name_a, name_b
            ),
        )

    def set_frequency(self, names, cells, repair: str = "clip") -> float:
        """Cached frequency estimate of a cell set ``S`` (§3.1 step 10)."""
        self._check_repair(repair)
        names = tuple(names)
        if not names:
            raise ServiceError("set frequency needs at least one attribute")
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate attributes in {names}")
        grid = np.asarray(cells, dtype=np.int64)
        if grid.ndim != 2 or grid.shape[1] != len(names):
            raise ServiceError(
                f"cells must have shape (k, {len(names)}), got {grid.shape}"
            )
        if grid.shape[0] == 0:
            return 0.0  # empty S: frequency is exactly zero
        key = (
            "set", names, repair, grid.shape[0], grid.tobytes(),
            self._version(names),
        )

        def compute() -> float:
            # Validate the cells against the wire schema up front (the
            # layout helper would surface a DomainError deep inside the
            # mixed-radix encode), then delegate the §4 composition —
            # within-unit restriction from the cached joint, across
            # units independence — to the layout. For the all-singleton
            # layout this is exactly the product-of-marginals rule
            # (§3.1 step 10).
            for j, name in enumerate(names):
                column = grid[:, j]
                size = self._layout.schema.attribute(name).size
                if column.min() < 0 or column.max() >= size:
                    raise ServiceError(
                        f"cells out of range for attribute {name!r}"
                    )
            return self._layout.set_frequency_from_joints(
                self._joint_of(repair), names, grid
            )

        return self._cached(key, compute)

    def count_query(self, query: PairQuery, repair: str = "clip") -> float:
        """Estimated count of a §6.5 pair query over the observed stream."""
        frequency = self.set_frequency(
            (query.name_a, query.name_b), query.cells, repair
        )
        version = self._version((query.name_a, query.name_b))
        if len(set(version)) > 1:
            raise ServiceError(
                "attributes observed unevenly; no single record count "
                "exists to scale the query estimate"
            )
        return float(version[0] * frequency)

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"QueryFrontend(entries={stats['entries']}, "
            f"hits={stats['hits']}, misses={stats['misses']})"
        )
