"""Instrumentation layer: metrics registry, span tracing, health schema.

The collector stack (codec, journal, pipeline, service, query
front-end, engine executor) instruments its hot paths through this
package. Four pieces:

* :mod:`repro.obs.registry` — dependency-free counters, gauges and
  fixed-bucket histograms in a :class:`MetricsRegistry`; child
  registries merge by pure addition, the same order-independent
  discipline as :class:`~repro.analysis.streaming.StreamingCollector`. The process-wide
  ambient registry is a no-op until :func:`enable_metrics` — disabled
  instrumentation costs one dead method call.
* :mod:`repro.obs.tracing` — ``with trace("journal.append_many"):``
  span timing into per-span latency histograms.
* :mod:`repro.obs.clock` — the *only* sanctioned time source in the
  library (the RPL2xx determinism rules ban clock reads everywhere
  else); monotonic in production, a :class:`~repro.obs.clock.FakeClock`
  in tests. Nothing measured here may reach fingerprinted or replayed
  artifacts.
* :mod:`repro.obs.exposition` / :mod:`repro.obs.health` — the two
  export surfaces: Prometheus-style text, and the JSON health/telemetry
  document schema shared by ``CollectorService.health()``, the
  ``repro-anonymize stats`` subcommand and benchmark ``--metrics-out``
  files.

Typical use::

    import repro.obs as obs

    registry = obs.enable_metrics()       # before building the service
    service = CollectorService.for_protocol(protocol, state_dir)
    ...
    print(obs.render_prometheus(registry))
    snapshot = service.health()
"""

from repro.obs import clock
from repro.obs.exposition import prometheus_name, render_prometheus
from repro.obs.health import (
    DETERMINISTIC_SECTIONS,
    HEALTH_SCHEMA_PATH,
    HEALTH_VERSION,
    deterministic_view,
    load_health_schema,
    validate_against,
    validate_health,
)
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
from repro.obs.tracing import Span, span_metric_name, trace

__all__ = [
    "clock",
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
    "trace",
    "Span",
    "span_metric_name",
    "render_prometheus",
    "prometheus_name",
    "HEALTH_VERSION",
    "HEALTH_SCHEMA_PATH",
    "DETERMINISTIC_SECTIONS",
    "load_health_schema",
    "validate_health",
    "validate_against",
    "deterministic_view",
]
