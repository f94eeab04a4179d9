"""Instrumentation overhead benchmarks: metrics must be ~free.

The observability layer's contract has two halves, both asserted by
``--check``:

* **disabled** — the default ``NullRegistry`` path: an instrumented
  call site costs one attribute lookup plus one dead method call, and
  a disabled ``trace()`` never reads the clock. Measured directly in
  ns/op on the no-op instruments.
* **enabled** — a live registry on the full ingest path (codec decode,
  journal append, pipeline absorb, span histograms) must stay within
  2% of the uninstrumented throughput. Both sides are measured
  best-of-N in the same process invocation (same CPU window), like
  BENCH_3/BENCH_4.

Run:    PYTHONPATH=src python benchmarks/bench_obs.py --out BENCH_OBS.json
Check:  PYTHONPATH=src python benchmarks/bench_obs.py --check --quick
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time

from obs_out import write_metrics_document

from repro.data.adult import synthesize_adult
from repro.obs.registry import MetricsRegistry, NullRegistry, set_registry
from repro.obs.tracing import trace
from repro.protocols.independent import RRIndependent
from repro.service.codec import ReportCodec
from repro.service.pipeline import CollectorService

#: Acceptance criterion: instrumented ingest within 2% of uninstrumented.
MAX_ENABLED_OVERHEAD_PCT = 2.0


def best_seconds(func, repeats):
    """Best-of-N wall time: the least-noisy single-core estimator."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def bench_null_ops(iters):
    """ns/op of the disabled instruments versus an empty loop."""
    registry = NullRegistry()
    counter = registry.counter("bench.noop")
    histogram = registry.histogram("bench.noop.hist")

    def empty_loop():
        for _ in range(iters):
            pass

    def counter_loop():
        inc = counter.inc
        for _ in range(iters):
            inc()

    def observe_loop():
        observe = histogram.observe
        for _ in range(iters):
            observe(0.5)

    def span_loop():
        for _ in range(iters):
            with trace("bench.noop", registry):
                pass

    base = best_seconds(empty_loop, 5)
    return {
        "iters": iters,
        "counter_inc_ns": (best_seconds(counter_loop, 5) - base) / iters * 1e9,
        "histogram_observe_ns": (
            (best_seconds(observe_loop, 5) - base) / iters * 1e9
        ),
        "null_span_ns": (best_seconds(span_loop, 5) - base) / iters * 1e9,
    }


def bench_ingest_overhead(n, frame_records, repeats):
    """Full-stack ingest throughput: ambient disabled vs enabled.

    Both services are opened *outside* the timed region (state-dir
    setup, recovery and teardown are identical fixed costs, not ingest)
    and the repeats interleave the two sides, so CPU-frequency drift on
    a shared runner hits both equally. Each pass re-ingests the same
    frame stream — identical work per pass on both sides.
    """
    protocol = RRIndependent(synthesize_adult(n=2, rng=0).schema, p=0.7)
    released = protocol.randomize(
        synthesize_adult(n=n, rng=42), rng=0, chunk_size=65_536
    )
    codec = ReportCodec(protocol.schema)
    frames = [
        codec.encode(released.codes[start : start + frame_records])
        for start in range(0, n, frame_records)
    ]

    enabled_registry = MetricsRegistry()
    root = tempfile.mkdtemp(prefix="bench-obs-")
    disabled_service = CollectorService.for_protocol(
        protocol, f"{root}/disabled", metrics=None
    )
    enabled_service = CollectorService.for_protocol(
        protocol, f"{root}/enabled", metrics=enabled_registry
    )
    try:
        # one warmup pass per side, then paired passes: each repeat
        # times the two sides back to back (shared CPU state) and the
        # overhead is the *median* of the per-pair ratios — one
        # frequency-scaling blip cannot drag the verdict the way it
        # would drag a best-of comparison across sides.
        disabled_service.ingest_many(frames)
        enabled_service.ingest_many(frames)
        disabled_times, enabled_times = [], []
        for i in range(repeats):
            # alternate which side goes first so a systematic
            # first-vs-second effect (GC, page cache) cancels out;
            # scheduler/frequency noise is strictly additive, so the
            # per-side minimum converges on the true cost and one slow
            # pass can never drag the verdict
            if i % 2 == 0:
                order = ((disabled_service, disabled_times),
                         (enabled_service, enabled_times))
            else:
                order = ((enabled_service, enabled_times),
                         (disabled_service, disabled_times))
            for service, times in order:
                start = time.perf_counter()
                service.ingest_many(frames)
                times.append(time.perf_counter() - start)
        assert enabled_service.n_observed == disabled_service.n_observed
    finally:
        disabled_service.close()
        enabled_service.close()
        shutil.rmtree(root, ignore_errors=True)
    disabled, enabled = min(disabled_times), min(enabled_times)
    return {
        "n_reports": n,
        "frame_records": frame_records,
        "disabled_rps": n / disabled,
        "enabled_rps": n / enabled,
        "overhead_pct": (enabled - disabled) / disabled * 100.0,
    }, enabled_registry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="assert the overhead contract: enabled ingest within "
        f"{MAX_ENABLED_OVERHEAD_PCT:.0f}%% of uninstrumented, disabled "
        "instruments in the nanoseconds",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller workloads (CI smoke)",
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="write the results JSON here (e.g. BENCH_OBS.json)",
    )
    parser.add_argument(
        "--metrics-out", type=str, default=None,
        help="write results as a schema-valid health-style document "
        "(bench section + the enabled run's metrics snapshot)",
    )
    args = parser.parse_args(argv)

    # The ingest workload must be big enough that one pass dwarfs timer
    # and scheduler noise — a 2% assertion on a 3 ms pass is a coin
    # flip, so even --quick measures ~10 ms passes.
    if args.quick:
        null_iters, ingest_n, repeats = 200_000, 100_000, 9
    else:
        null_iters, ingest_n, repeats = 1_000_000, 400_000, 11

    set_registry(None)  # the disabled side must see the ambient default
    ingest, enabled_registry = bench_ingest_overhead(
        ingest_n, 1_000, repeats
    )
    results = {
        "bench": "obs",
        "quick": args.quick,
        "null_ops": bench_null_ops(null_iters),
        "ingest": ingest,
    }

    null_ops = results["null_ops"]
    print(
        f"disabled counter.inc   {null_ops['counter_inc_ns']:8.1f} ns/op\n"
        f"disabled hist.observe  {null_ops['histogram_observe_ns']:8.1f} ns/op\n"
        f"disabled trace()       {null_ops['null_span_ns']:8.1f} ns/op\n"
        f"ingest   disabled {ingest['disabled_rps']:>12,.0f} rps   "
        f"enabled {ingest['enabled_rps']:>12,.0f} rps   "
        f"overhead {ingest['overhead_pct']:+.2f}%"
    )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    if args.metrics_out:
        write_metrics_document(args.metrics_out, results, enabled_registry)

    if args.check:
        failures = []
        if ingest["overhead_pct"] > MAX_ENABLED_OVERHEAD_PCT:
            failures.append(
                f"enabled ingest overhead {ingest['overhead_pct']:.2f}% "
                f"exceeds {MAX_ENABLED_OVERHEAD_PCT:.0f}%"
            )
        # "no measurable overhead" when disabled: a dead instrument call
        # must cost nanoseconds, far below any numpy op on the hot path.
        for key in ("counter_inc_ns", "histogram_observe_ns", "null_span_ns"):
            if null_ops[key] > 1_000.0:
                failures.append(
                    f"disabled {key} = {null_ops[key]:.0f} ns/op is measurable"
                )
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("check ok: instrumentation is within the overhead budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
