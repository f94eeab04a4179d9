"""Lightweight span tracing over the metrics registry.

``with trace("journal.append_many"):`` times a block and lands the
duration in the ambient registry's ``span.<name>.seconds`` histogram
(fixed :data:`~repro.obs.registry.DEFAULT_LATENCY_BUCKETS` boundaries,
so spans from child registries merge bucket-for-bucket). The histogram's
``count`` doubles as the span's call counter — no separate counter to
drift out of sync.

This is deliberately not a tracing *system*: no span ids, no
propagation, no export protocol. The collector stack needs per-stage
latency distributions and call counts — which stage is slow, how often
does it run — and a histogram per span name answers exactly that at a
cost the hot paths can afford: two clock reads per span when enabled,
one shared no-op context manager (no clock read at all) when disabled.

Time comes from :mod:`repro.obs.clock`, the sanctioned injectable
source — install a :class:`~repro.obs.clock.FakeClock` and spans
record exact, assertable durations.
"""

from __future__ import annotations

from repro.obs import clock
from repro.obs.registry import Histogram, MetricsRegistry, get_registry

__all__ = ["trace", "Span", "SPAN_PREFIX", "SPAN_SUFFIX", "span_metric_name"]

SPAN_PREFIX = "span."
SPAN_SUFFIX = ".seconds"


def span_metric_name(name: str) -> str:
    """Histogram name a span records under (``span.<name>.seconds``)."""
    return f"{SPAN_PREFIX}{name}{SPAN_SUFFIX}"


class Span:
    """Context manager observing its wall duration into a histogram.

    The duration is recorded on *every* exit, exceptional or not — a
    failing append is exactly the latency sample an operator wants to
    see, and dropping it would make the histograms lie under load
    shedding.

    Spans are cached per ``(registry, name)`` and reused across calls
    (entry overwrites the start time), which makes them non-reentrant:
    a span must not nest inside itself. The instrumented call graph
    never does — every nesting level has its own name.
    """

    __slots__ = ("_histogram", "_observe", "_start")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._observe = histogram.observe
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = clock.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        self._observe(clock.monotonic() - self._start)


class _NullSpan:
    """Shared do-nothing span: the disabled path never reads the clock."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


def trace(name: str, registry: "MetricsRegistry | None" = None):
    """Span over ``name``: ``with trace("pipeline.flush"): ...``.

    Records into ``registry`` (default: the ambient registry). When the
    target registry is disabled this returns a shared no-op context
    manager — no allocation, no clock read, no instrument lookup — so
    hot paths trace unconditionally.
    """
    if registry is None:
        registry = get_registry()
    if not registry.enabled:
        return _NULL_SPAN
    span = registry._span_cache.get(name)
    if span is None:
        span = Span(registry.histogram(span_metric_name(name)))
        registry._span_cache[name] = span
    return span
