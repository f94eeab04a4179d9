"""Collector service: encode -> crash -> recover -> query.

The paper's collector pools all randomized responses and inverts the
RR matrices once; a deployed collector receives reports as *bytes*,
over time, and must survive restarts. This example walks the full
service loop:

1. parties randomize locally and encode reports as wire frames,
2. a collector ingests them with a segmented write-ahead log +
   checkpoints,
3. the collector "crashes" mid-stream,
4. a fresh process recovers (checkpoint + log tail) and finishes,
5. an offline scrub deep-verifies every byte recovery depends on —
   frame CRCs, manifest accounting, the checkpoint pair — the
   periodic bit-rot patrol for a state directory that lives for
   months (also: `repro-anonymize scrub -s <state-dir>`),
6. compaction retires the log segments the checkpoint covers,
   bounding disk for a collector that never stops,
7. a cached query front-end serves estimates — byte-identical to an
   uninterrupted run,
8. the whole run is instrumented: a health snapshot summarizes the
   journal, checkpoint coverage and every metric the stack recorded.

Run:  python examples/collector_service.py
      python examples/collector_service.py --state-dir /tmp/demo-state
      # (--state-dir keeps the collector state around, e.g. for
      #  `repro-anonymize stats -s /tmp/demo-state/collector-state`)
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.obs import enable_metrics
from repro.obs.health import validate_health
from repro.service import CollectorService, ReportCodec, scrub_state_dir


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--state-dir", type=Path, default=None,
        help="run against this directory and keep it afterwards "
        "(default: a temporary directory, removed on exit)",
    )
    args = parser.parse_args(argv)

    # Instrument the whole run: every component below records into the
    # ambient registry, and health() exposes it all in one document.
    enable_metrics()
    data = repro.synthesize_adult(n=20_000, rng=7)
    protocol = repro.RRIndependent(data.schema, p=0.7)

    # --- 1. Party side: randomize locally, encode as wire frames ------
    released = protocol.randomize(data, rng=0)
    codec = ReportCodec(data.schema)
    frames = [
        codec.encode(released.codes[start : start + 500])
        for start in range(0, released.n_records, 500)
    ]
    packed = codec.record_bytes
    raw = 8 * data.schema.width
    print(
        f"encoded {released.n_records} reports into {len(frames)} frames: "
        f"{packed} B/record packed vs {raw} B raw int64 "
        f"({raw / packed:.0f}x smaller)"
    )

    if args.state_dir is not None:
        args.state_dir.mkdir(parents=True, exist_ok=True)
        tmp_context = None
        tmp = str(args.state_dir)
    else:
        tmp_context = tempfile.TemporaryDirectory()
        tmp = tmp_context.name
    try:
        state_dir = Path(tmp) / "collector-state"

        # --- 2. Collector: durable ingestion ---------------------------
        # A tiny segment size so this small stream rotates the log the
        # way months of traffic would rotate 64 MiB segments.
        service = CollectorService.for_protocol(
            protocol, state_dir, checkpoint_every=10, segment_bytes=16_384
        )
        for frame in frames[:27]:  # checkpoints fire at frames 10 and 20
            service.ingest_frame(frame)
        print(
            f"ingested {service.frames_applied} frames "
            f"({service.n_observed} reports), last checkpoint at frame 20"
        )

        # --- 3. Crash: the process dies. Frames 21-27 exist only in the
        # write-ahead log; nothing else is saved. -----------------------
        del service
        print("collector crashed (no clean shutdown, no final checkpoint)")

        # --- 4. Recovery: checkpoint counts + replay of the log tail ---
        recovered = CollectorService.for_protocol(
            protocol, state_dir, checkpoint_every=10, segment_bytes=16_384
        )
        print(
            f"recovered {recovered.frames_applied} frames "
            f"({recovered.n_observed} reports) — nothing lost"
        )
        recovered.ingest_many(frames[27:])

        # --- 5. Scrub: the offline integrity patrol --------------------
        # Read-only and lock-free (safe on a live collector's
        # directory): every retained frame's CRC and schema
        # fingerprint, sealed segment sizes against the manifest, and
        # the checkpoint pair are re-verified from disk, so bit rot is
        # found on patrol instead of by the recovery that needed the
        # bytes.
        report = scrub_state_dir(state_dir)
        print(
            f"\nscrub: ok={report['ok']} — verified "
            f"{report['journal']['frames_verified']} frames / "
            f"{report['journal']['bytes_verified']} bytes, "
            f"{len(report['errors'])} errors, "
            f"{len(report['warnings'])} warnings"
        )
        assert report["ok"], report["errors"]

        # --- 6. Compaction: checkpoint, then retire covered segments ---
        def log_files():
            return sorted(
                p.name
                for p in state_dir.iterdir()
                if p.name.startswith("ingest.log")
            )

        before = log_files()
        stats = recovered.compact()
        print(
            f"\ncompacted: retired {stats['segments_retired']} log "
            f"segments ({stats['bytes_freed']} bytes) covered by the "
            f"checkpoint at frame {stats['covered_frames']}"
        )
        print(f"log files before: {len(before)}, after: {len(log_files())}")

        # --- 7. Cached queries -----------------------------------------
        front = recovered.queries
        income = front.marginal("income")
        front.marginal("income")  # dashboard refresh: served from cache
        table = front.pair_table("education", "income")
        print(f"\nestimated income marginal: {np.round(income, 4)}")
        print(f"pair table education x income: shape {table.shape}")
        print(f"cache stats: {front.stats}")

        # The recovered run matches an uninterrupted one byte for byte.
        reference = CollectorService.for_protocol(
            protocol, Path(tmp) / "reference"
        )
        reference.ingest_many(frames)
        for name in data.schema.names:
            assert (
                recovered.estimate_marginal(name).tobytes()
                == reference.estimate_marginal(name).tobytes()
            )
        print("\nrecovered estimates are byte-identical to an "
              "uninterrupted run")

        # --- 8. Health snapshot: one schema-validated document ---------
        health = validate_health(recovered.health())
        journal, counters = health["journal"], health["metrics"]["counters"]
        print(
            f"\nhealth: {journal['n_frames']} frames in "
            f"{journal['n_segments']} segments "
            f"({journal['total_bytes']} bytes), checkpoint at frame "
            f"{health['checkpoint']['frames_applied']}; "
            f"{counters['service.ingest.frames']} frames ingested this "
            f"process, {counters['journal.replay.frames']} replayed on "
            f"recovery, {len(health['metrics']['histograms'])} span "
            f"histograms"
        )
        recovered.close()
        reference.close()

        # --- 9. Any protocol, one design document ----------------------
        # The same service stack serves RR-Clusters (or RR-Joint): the
        # design travels as a versioned JSON document, the collector
        # rebuilds the protocol from it, and queries route through the
        # cluster layout — a pair table inside a cluster comes from the
        # cluster's joint estimate, not an independence assumption.
        clustered = repro.RRClusters.design(
            data, p=0.7, max_cells=50, min_dependence=0.1)
        design_path = Path(tmp) / "design.json"
        clustered.to_design().write(design_path)
        served, _ = repro.load_design(design_path)
        print(
            f"\ndesign document round trip: {design_path.name} -> "
            f"{served!r}"
        )

        released_c = clustered.randomize(data, rng=1)
        codec_c = ReportCodec(served.schema)
        cluster_service = CollectorService.for_protocol(
            served, Path(tmp) / "cluster-state"
        )
        cluster_service.ingest_many(
            codec_c.encode(released_c.codes[i : i + 500])
            for i in range(0, released_c.n_records, 500)
        )
        front_c = cluster_service.queries
        fused = next(
            (c for c in front_c.layout.clusters if len(c) >= 2),
            front_c.layout.clusters[0],
        )
        a, b = (fused[0], fused[1]) if len(fused) >= 2 else (
            "education", "income")
        pair = front_c.pair_table(a, b)  # joint-backed, not outer product
        print(
            f"served {cluster_service.n_observed} RR-Clusters reports; "
            f"clusters: {front_c.layout.clusters}; "
            f"pair {a} x {b}: shape {pair.shape}"
        )
        cluster_service.close()
        if args.state_dir is not None:
            print(
                f"\nstate kept at {state_dir} — inspect it with "
                f"`repro-anonymize stats -s {state_dir}`"
            )
    finally:
        if tmp_context is not None:
            tmp_context.cleanup()


if __name__ == "__main__":
    main()
