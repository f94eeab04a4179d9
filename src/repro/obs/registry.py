"""Dependency-free metrics registry: counters, gauges, histograms.

The instrumentation substrate of the collector stack. Three instrument
kinds, all plain Python (no client library, no threads):

* :class:`Counter` — a monotonically increasing integer (frames
  ingested, cache misses, segments retired).
* :class:`Gauge` — a point-in-time value that can move both ways
  (pending records, cache bytes).
* :class:`Histogram` — observation counts over *fixed* bucket
  boundaries plus a running sum. Fixed boundaries are what makes
  histograms mergeable: two histograms with the same boundaries merge
  by adding bucket counts, which is associative and commutative — the
  same order-independent discipline
  :class:`~repro.analysis.streaming.StreamingCollector` applies to count
  vectors.

A :class:`MetricsRegistry` owns instruments by name and hands out
*child* registries: a child is an independent sink (a tenant's client
stream, a query front-end) whose instruments fold into the parent's
:meth:`~MetricsRegistry.snapshot` deterministically — sums all the way
down, so the merged totals do not depend on how the work was split
across children.

Zero cost when disabled
-----------------------
The process-wide ambient registry (:func:`get_registry`) defaults to a
:class:`NullRegistry`: every instrument lookup returns a shared no-op
instance whose methods do nothing, and :func:`repro.obs.trace` returns
a shared no-op context manager without reading the clock. Hot paths
therefore instrument unconditionally; flipping :func:`enable_metrics`
is what makes the calls real.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Mapping

from repro.exceptions import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
]

#: Span-latency boundaries (seconds): microseconds through tens of
#: seconds, roughly half-decade steps. Fixed so every span histogram in
#: the process merges bucket-for-bucket.
DEFAULT_LATENCY_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 60.0,
)

def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise ObservabilityError(f"metric name must be a non-empty string, got {name!r}")
    return name


class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self._value += int(amount)


class Gauge:
    """Point-in-time value; moves both ways."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._value -= float(amount)


class Histogram:
    """Observation counts over fixed, strictly increasing boundaries.

    ``counts[i]`` tallies observations ``<= buckets[i]``; the final
    slot ``counts[-1]`` is the overflow bucket (``> buckets[-1]``,
    Prometheus' ``+Inf``). ``sum``/``count`` ride along so rates and
    means survive the bucketing.
    """

    __slots__ = ("name", "buckets", "counts", "_sum", "_count")

    def __init__(self, name: str, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS):
        self.name = name
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError(f"histogram {name!r} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {name!r} boundaries must strictly increase: {bounds}"
            )
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def observe(self, value: float) -> None:
        value = float(value)
        # bisect_left returns the first bound >= value (== lands left),
        # i.e. exactly the "<= buckets[i]" slot; past-the-end is the
        # overflow bucket. One C call beats any Python-level scan.
        self.counts[bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class MetricsRegistry:
    """Named instruments plus deterministic child/snapshot merging."""

    enabled = True

    def __init__(self):
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}
        self._children: list = []
        # Reusable Span instances keyed by span name, owned here so
        # repro.obs.trace pays one dict hit per call instead of a name
        # format + histogram lookup + allocation (see tracing.trace).
        self._span_cache: dict = {}

    # -- instruments ---------------------------------------------------
    def _claim(self, name: str, kind: str) -> None:
        """Refuse one name living as two instrument kinds."""
        stores = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other, store in stores.items():
            if other != kind and name in store:
                raise ObservabilityError(
                    f"metric {name!r} already registered as a {other}, "
                    f"cannot reuse it as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._claim(_check_name(name), "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._claim(_check_name(name), "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._claim(_check_name(name), "histogram")
            instrument = self._histograms[name] = Histogram(name, buckets)
            return instrument
        bounds = tuple(float(b) for b in buckets)
        if bounds != instrument.buckets:
            raise ObservabilityError(
                f"histogram {name!r} re-registered with different "
                f"boundaries: {bounds} vs {instrument.buckets}"
            )
        return instrument

    # -- children ------------------------------------------------------
    def child(self) -> "MetricsRegistry":
        """An independent sink whose instruments fold into snapshots.

        Children are for in-process components that own their counters
        (a query front-end, a sub-service): they record into their own
        registry, and the parent's :meth:`snapshot` merges everything
        deterministically.
        """
        registry = MetricsRegistry()
        self._children.append(registry)
        return registry

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> dict:
        """Merged, deterministically ordered view of self + children.

        The shape is the library's one telemetry schema — health
        snapshots, the Prometheus writer, and benchmark ``--metrics-out``
        files all speak it::

            {"counters":   {name: int},
             "gauges":     {name: float},
             "histograms": {name: {"buckets": [...], "counts": [...],
                                   "sum": float, "count": int}}}

        Keys are sorted; merging children is pure addition (gauges
        merge by sum too — a gauge split across children is a
        partitioned quantity, e.g. per-tenant pending records).
        """
        merged = {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "buckets": list(self._histograms[name].buckets),
                    "counts": list(self._histograms[name].counts),
                    "sum": self._histograms[name].sum,
                    "count": self._histograms[name].count,
                }
                for name in sorted(self._histograms)
            },
        }
        for registry in self._children:
            _merge_into(merged, registry.snapshot())
        return merged


def _merge_into(merged: dict, other: Mapping) -> None:
    """Add one snapshot dict into another in place (shared by children)."""
    for name, value in other["counters"].items():
        merged["counters"][name] = merged["counters"].get(name, 0) + value
    for name, value in other["gauges"].items():
        merged["gauges"][name] = merged["gauges"].get(name, 0.0) + value
    for name, payload in other["histograms"].items():
        existing = merged["histograms"].get(name)
        if existing is None:
            merged["histograms"][name] = {
                "buckets": list(payload["buckets"]),
                "counts": list(payload["counts"]),
                "sum": payload["sum"],
                "count": payload["count"],
            }
            continue
        if existing["buckets"] != list(payload["buckets"]):
            raise ObservabilityError(
                f"histogram {name!r} merged with different boundaries: "
                f"{payload['buckets']} vs {existing['buckets']}"
            )
        existing["counts"] = [
            a + b for a, b in zip(existing["counts"], payload["counts"])
        ]
        existing["sum"] += payload["sum"]
        existing["count"] += payload["count"]
    # Re-sort after the merge so snapshot ordering stays deterministic
    # whatever order children registered their instruments in.
    merged["counters"] = {
        name: merged["counters"][name] for name in sorted(merged["counters"])
    }
    merged["gauges"] = {
        name: merged["gauges"][name] for name in sorted(merged["gauges"])
    }
    merged["histograms"] = {
        name: merged["histograms"][name]
        for name in sorted(merged["histograms"])
    }


class NullRegistry(MetricsRegistry):
    """The disabled registry: every instrument is a shared no-op.

    ``counter``/``gauge``/``histogram`` skip the name dictionaries
    entirely and return process-wide no-op singletons, so an
    instrumented hot path costs one attribute lookup and one dead
    method call — unmeasurable next to a single numpy op (asserted in
    ``benchmarks/bench_obs.py``).
    """

    enabled = False

    _COUNTER = _NullCounter("null")
    _GAUGE = _NullGauge("null")
    _HISTOGRAM = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._COUNTER

    def gauge(self, name: str) -> Gauge:
        return self._GAUGE

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._HISTOGRAM

    def child(self) -> "MetricsRegistry":
        return NullRegistry()

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}



#: The ambient process-wide registry. Disabled by default: importing
#: repro must never make hot paths pay for telemetry nobody asked for.
_AMBIENT: MetricsRegistry = NullRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide ambient registry instrumented code records into."""
    return _AMBIENT


def set_registry(registry: "MetricsRegistry | None") -> MetricsRegistry:
    """Install ``registry`` as ambient (``None`` = disabled); returns the old."""
    global _AMBIENT
    previous = _AMBIENT
    _AMBIENT = NullRegistry() if registry is None else registry
    return previous


def enable_metrics() -> MetricsRegistry:
    """Switch the ambient registry live (idempotent); returns it."""
    global _AMBIENT
    if not _AMBIENT.enabled:
        _AMBIENT = MetricsRegistry()
    return _AMBIENT


def disable_metrics() -> None:
    """Restore the no-op ambient registry (drops recorded metrics)."""
    global _AMBIENT
    _AMBIENT = NullRegistry()


def metrics_enabled() -> bool:
    return _AMBIENT.enabled
