"""Restart-latency and replay-throughput benchmarks for the journal.

Measures what the segmented log buys a long-running collector:

* **restart** — ``CollectorService.open`` wall time on a prebuilt
  state directory. Segmented + fresh checkpoint (open = manifest +
  one stat per sealed segment + tail seek-scan, replay starts at the
  checkpoint) versus the monolithic full-scan restart a collector
  without checkpoint/segments must pay (decode + absorb the whole
  log). Restart latency is also sampled at several log sizes to show
  the segmented restart staying flat while full-scan grows linearly.
* **replay** — log-tail replay throughput: the windowed
  ``count_many`` + ``add_counts`` path recovery uses, versus a
  per-frame ``decode`` + ``receive_batch`` loop, over the same log
  (identical recovered counts asserted). Live group-commit ingest
  throughput is reported alongside so the replay/live gap is visible.

Run:    PYTHONPATH=src python benchmarks/bench_recovery.py --out BENCH_4.json
Check:  PYTHONPATH=src python benchmarks/bench_recovery.py --check --quick

``--check`` asserts only *relative* wins (>=5x restart, >=3x replay);
absolute thresholds would be flaky on shared CI runners. All sides of
a ratio are measured in the same process invocation (same CPU window),
like BENCH_3.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.streaming import StreamingCollector
from repro.data.adult import synthesize_adult
from repro.protocols.independent import RRIndependent
from repro.service.codec import ReportCodec
from repro.service.journal import IngestionLog, LOG_NAME
from repro.service.pipeline import DEFAULT_COMMIT_RECORDS, CollectorService


def best_seconds(func, repeats):
    """Best-of-N wall time: the least-noisy single-core estimator."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def make_frames(protocol, n, frame_records):
    released = protocol.randomize(
        synthesize_adult(n=n, rng=42), rng=0, chunk_size=65_536
    )
    codec = ReportCodec(protocol.schema)
    return [
        codec.encode(released.codes[start : start + frame_records])
        for start in range(0, n, frame_records)
    ]


def build_state(protocol, frames, root, name, *, segment_bytes, checkpoint):
    state = Path(root) / name
    with CollectorService.for_protocol(
        protocol, state, segment_bytes=segment_bytes
    ) as service:
        # Rotation is checked at commit boundaries; a bounded window
        # yields the multi-segment layout a long-running collector has.
        service.ingest_many(frames, commit_records=8_192)
        if checkpoint:
            service.checkpoint()
    return state


def time_restart(protocol, state, *, segment_bytes, repeats):
    def restart():
        CollectorService.for_protocol(
            protocol, state, segment_bytes=segment_bytes
        ).close()

    return best_seconds(restart, repeats)


def bench_restart(protocol, frames, root, segment_bytes, repeats):
    """Segmented+checkpointed vs monolithic full-scan restart."""
    n_records = sum(ReportCodec(protocol.schema).peek_record_count(f) for f in frames)
    segmented = build_state(
        protocol, frames, root, "restart-seg",
        segment_bytes=segment_bytes, checkpoint=True,
    )
    monolithic = build_state(
        protocol, frames, root, "restart-mono",
        segment_bytes=None, checkpoint=False,
    )
    mono_ckpt = build_state(
        protocol, frames, root, "restart-mono-ckpt",
        segment_bytes=None, checkpoint=True,
    )
    with IngestionLog(segmented / LOG_NAME) as log:
        n_segments = log.n_segments
    result = {
        "n_reports": n_records,
        "n_frames": len(frames),
        "segment_bytes": segment_bytes,
        "n_segments": n_segments,
        "segmented_checkpointed_restart_s": time_restart(
            protocol, segmented, segment_bytes=segment_bytes, repeats=repeats
        ),
        "monolithic_fullscan_restart_s": time_restart(
            protocol, monolithic, segment_bytes=None, repeats=repeats
        ),
        "monolithic_checkpointed_restart_s": time_restart(
            protocol, mono_ckpt, segment_bytes=None, repeats=repeats
        ),
    }
    for name in ("restart-seg", "restart-mono", "restart-mono-ckpt"):
        shutil.rmtree(Path(root) / name, ignore_errors=True)
    return result


def bench_restart_vs_size(protocol, frames, root, segment_bytes, repeats):
    """Restart latency at growing log sizes: flat once checkpointed."""
    points = []
    for fraction in (4, 2, 1):
        subset = frames[: len(frames) // fraction]
        seg = build_state(
            protocol, subset, root, "scale-seg",
            segment_bytes=segment_bytes, checkpoint=True,
        )
        mono = build_state(
            protocol, subset, root, "scale-mono",
            segment_bytes=None, checkpoint=False,
        )
        points.append(
            {
                "n_frames": len(subset),
                "segmented_checkpointed_restart_s": time_restart(
                    protocol, seg, segment_bytes=segment_bytes,
                    repeats=repeats,
                ),
                "monolithic_fullscan_restart_s": time_restart(
                    protocol, mono, segment_bytes=None, repeats=repeats
                ),
            }
        )
        shutil.rmtree(Path(root) / "scale-seg", ignore_errors=True)
        shutil.rmtree(Path(root) / "scale-mono", ignore_errors=True)
    return points


def bench_replay(protocol, frames, root, segment_bytes, repeats):
    """Tail replay: windowed count_many vs the per-frame loop."""
    codec = ReportCodec(protocol.schema)
    state = build_state(
        protocol, frames, root, "replay",
        segment_bytes=segment_bytes, checkpoint=False,
    )
    n_records = sum(codec.peek_record_count(frame) for frame in frames)

    def replay_vectorized():
        collector = StreamingCollector.for_protocol(protocol)
        with IngestionLog(state / LOG_NAME) as log:
            for window in codec.iter_frame_windows(
                log.replay(0), window_records=DEFAULT_COMMIT_RECORDS
            ):
                collector.add_counts(
                    codec.count_many(window, protocol.collection)
                )
        assert collector.n_observed == n_records
        return collector

    def replay_per_frame():
        collector = StreamingCollector.for_protocol(protocol)
        with IngestionLog(state / LOG_NAME) as log:
            for frame in log.replay(0):
                collector.receive_batch(codec.decode(frame), validated=True)
        assert collector.n_observed == n_records
        return collector

    # identical recovered counts before timing anything
    vec, ref = replay_vectorized(), replay_per_frame()
    for name in protocol.schema.names:
        assert (
            vec.estimate_marginal(name).tobytes()
            == ref.estimate_marginal(name).tobytes()
        )

    def live_ingest():
        live = Path(root) / "replay-live"
        shutil.rmtree(live, ignore_errors=True)
        with CollectorService.for_protocol(
            protocol, live, segment_bytes=segment_bytes
        ) as service:
            service.ingest_many(frames)

    result = {
        "n_reports": n_records,
        "n_frames": len(frames),
        "replay_vectorized_rps": n_records
        / best_seconds(replay_vectorized, repeats),
        "replay_per_frame_rps": n_records
        / best_seconds(replay_per_frame, max(2, repeats // 2)),
        "live_ingest_rps": n_records / best_seconds(live_ingest, repeats),
    }
    shutil.rmtree(state, ignore_errors=True)
    shutil.rmtree(Path(root) / "replay-live", ignore_errors=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="assert the segmented/vectorized paths beat what they "
        "replaced (relative only — safe on shared runners)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller workloads (CI smoke)"
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="write the results JSON here (e.g. BENCH_4.json)",
    )
    parser.add_argument(
        "--metrics-out", type=str, default=None,
        help="enable the ambient metrics registry for the run and "
        "write results as a schema-valid health-style document "
        "(bench section + metrics snapshot)",
    )
    args = parser.parse_args(argv)

    registry = None
    if args.metrics_out:
        from repro.obs.registry import MetricsRegistry, set_registry

        registry = MetricsRegistry()
        set_registry(registry)

    if args.quick:
        n, frame_records, segment_bytes, repeats = 60_000, 32, 32_768, 3
    else:
        n, frame_records, segment_bytes, repeats = (
            1_000_000, 64, 524_288, 3,
        )

    protocol = RRIndependent(synthesize_adult(n=2, rng=0).schema, p=0.7)
    frames = make_frames(protocol, n, frame_records)

    root = tempfile.mkdtemp(prefix="bench-recovery-")
    try:
        results = {
            "bench": "recovery",
            "quick": args.quick,
            "restart": bench_restart(
                protocol, frames, root, segment_bytes, repeats
            ),
            "restart_vs_log_size": bench_restart_vs_size(
                protocol, frames, root, segment_bytes, repeats
            ),
            "replay": bench_replay(
                protocol, frames, root, segment_bytes, repeats
            ),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)

    restart = results["restart"]
    replay = results["replay"]
    for key, value in list(restart.items()):
        if key.endswith("_s"):
            restart[key] = round(value, 6)
    for point in results["restart_vs_log_size"]:
        for key, value in list(point.items()):
            if key.endswith("_s"):
                point[key] = round(value, 6)
    for key, value in list(replay.items()):
        if key.endswith("_rps"):
            replay[key] = round(value)

    restart_ratio = (
        restart["monolithic_fullscan_restart_s"]
        / restart["segmented_checkpointed_restart_s"]
    )
    replay_ratio = (
        replay["replay_vectorized_rps"] / replay["replay_per_frame_rps"]
    )
    print(
        f"restart  segmented+checkpoint "
        f"{restart['segmented_checkpointed_restart_s'] * 1e3:9.2f} ms   "
        f"monolithic full-scan "
        f"{restart['monolithic_fullscan_restart_s'] * 1e3:9.2f} ms "
        f"({restart_ratio:.1f}x)  "
        f"[{restart['n_segments']} segments, {restart['n_frames']} frames, "
        f"{restart['n_reports']:,} reports]\n"
        f"replay   vectorized {replay['replay_vectorized_rps']:>12,} rps   "
        f"per-frame {replay['replay_per_frame_rps']:>12,} rps "
        f"({replay_ratio:.1f}x)   "
        f"live ingest {replay['live_ingest_rps']:>12,} rps "
        f"(replay/live "
        f"{replay['replay_vectorized_rps'] / replay['live_ingest_rps']:.2f})"
    )
    for point in results["restart_vs_log_size"]:
        print(
            f"  at {point['n_frames']:>7} frames: segmented "
            f"{point['segmented_checkpointed_restart_s'] * 1e3:8.2f} ms   "
            f"full-scan "
            f"{point['monolithic_fullscan_restart_s'] * 1e3:8.2f} ms"
        )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    if args.metrics_out:
        from obs_out import write_metrics_document

        write_metrics_document(args.metrics_out, results, registry)

    if args.check:
        failures = []
        if restart_ratio < 5.0:
            failures.append(
                "segmented+checkpointed restart is not >=5x faster than "
                f"monolithic full-scan restart (got {restart_ratio:.2f}x)"
            )
        if replay_ratio < 3.0:
            failures.append(
                "vectorized tail replay is not >=3x the per-frame replay "
                f"(got {replay_ratio:.2f}x)"
            )
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print(
            "check ok: restart >=5x and vectorized replay >=3x over the "
            "paths they replaced"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
