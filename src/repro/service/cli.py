"""``repro-anonymize encode|ingest|query|compact|stats|scrub|serve`` — the service CLI.

End-to-end wiring of the service layer on CSV input:

* ``encode`` — the party side: randomize a CSV locally with **any** of
  the paper's protocols (``--protocol independent|joint|clusters``) and
  write the responses as wire frames plus a versioned JSON *design
  document* (:mod:`repro.design` — the schema, the protocol tag, its
  mechanism parameters and fingerprints; everything a collector needs
  to reconstruct the matching matrices, and never the party seed).
* ``ingest`` — the collector side: stream a report file into a
  checkpointed state directory (write-ahead log + periodic snapshots).
  ``--stop-after`` aborts mid-stream without a final checkpoint — a
  scriptable crash — and ``--resume`` recovers and continues where the
  crashed run left off.
* ``query`` — the consumer side: recover the collector from its state
  directory and print Eq. (2) estimates as JSON. Queries route through
  the protocol's collection layout: pair tables inside a cluster come
  from the cluster's joint estimate, across clusters from the §4
  independence composition.
* ``compact`` — maintenance: checkpoint, then retire the write-ahead
  log segments the checkpoint covers, bounding the state directory's
  disk footprint.
* ``stats`` — observability: report a state directory's health
  document (journal layout, checkpoint coverage, design fingerprints).
  Without ``--design`` it is a read-only on-disk inspection, safe to
  run against a *live* collector's directory; with ``--design`` it
  opens the collector (recovering state) and reports the full live
  snapshot including counts and metrics, as JSON or Prometheus text.
* ``scrub`` — integrity patrol: deep-verify every retained frame's
  CRC-32 and schema fingerprint, sealed segment sizes against the
  manifest, and the checkpoint pair, all read-only; exits non-zero
  when anything recovery depends on is damaged (bit rot found early
  instead of by the recovery that needed the bytes).
* ``serve`` — the network front-end (:mod:`repro.service.net`): a
  multi-tenant asyncio collector server speaking the wire frames over
  TCP. ``ingest --connect HOST:PORT --tenant NAME`` streams a report
  file over the network with windowed pipelining and exact resend
  after reconnect (the WELCOME's durable index is the resume cursor,
  so re-running the same command never double-counts); ``query
  --connect`` and ``stats --connect`` hit the live server. ``stats``
  and ``scrub`` also recognize a server state root or a single tenant
  directory offline.

Examples::

    repro-anonymize encode survey.csv -o reports.rrw \
        --design design.json --p 0.7 --seed 42
    repro-anonymize encode survey.csv -o reports.rrw \
        --design design.json --p 0.7 \
        --protocol clusters --clusters "smokes+alcohol,stress"
    repro-anonymize ingest reports.rrw -s state/ --design design.json \
        --checkpoint-every 50
    repro-anonymize query -s state/ --design design.json --marginal smokes
    repro-anonymize stats -s state/ --check-schema
    repro-anonymize stats -s state/ --design design.json --format prometheus
    repro-anonymize scrub -s state/
    repro-anonymize serve -s srvroot/ --tenant acme=design.json --port 9099
    repro-anonymize ingest reports.rrw --connect 127.0.0.1:9099 \
        --tenant acme --design design.json --client-id party-1
    repro-anonymize query --connect 127.0.0.1:9099 --tenant acme \
        --design design.json --marginal smokes
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.cli import (
    _build_schema,
    _parse_clusters,
    _read_csv,
    non_negative_int,
    positive_int,
)
from repro.data.dataset import Dataset
from repro.design import load_design as _load_design
from repro.design import write_design as _write_design
from repro.exceptions import ReproError, ServiceError
from repro.obs.exposition import render_prometheus
from repro.obs.health import validate_health
from repro.obs.registry import MetricsRegistry
from repro.protocols.clusters import RRClusters
from repro.protocols.independent import RRIndependent
from repro.protocols.joint import RRJoint
from repro.service.codec import ReportCodec
from repro.service.health import storage_health
from repro.service.journal import (
    DEFAULT_SEGMENT_BYTES,
    FrameWriter,
    read_frames,
    resolve_state_root,
)
from repro.service.pipeline import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_COMMIT_RECORDS,
    CollectorService,
)
from repro.service.scrub import scrub_state_dir

__all__ = ["service_main", "SERVICE_COMMANDS"]

#: Records per wire frame written by ``encode`` (one log entry each).
DEFAULT_FRAME_RECORDS = 512

#: ``--protocol`` choices of the encode subcommand.
ENCODE_PROTOCOLS = ("independent", "joint", "clusters")


def _build_protocol(args, schema, parser):
    """The protocol an encode invocation asked for, over ``schema``."""
    if args.protocol == "independent":
        if args.clusters:
            parser.error("--clusters requires --protocol clusters")
        return RRIndependent(schema, p=args.p)
    if args.protocol == "joint":
        if args.clusters:
            parser.error("--clusters requires --protocol clusters")
        return RRJoint(schema, p=args.p)
    if not args.clusters:
        parser.error("--protocol clusters requires --clusters 'a+b,c'")
    return RRClusters(_parse_clusters(args.clusters, schema), p=args.p)


def _service_from_design(args) -> CollectorService:
    protocol, _ = _load_design(args.design)
    return CollectorService.for_protocol(
        protocol,
        args.state_dir,
        batch_size=args.batch_size,
        checkpoint_every=getattr(args, "checkpoint_every", None),
        segment_bytes=getattr(args, "segment_bytes", DEFAULT_SEGMENT_BYTES),
    )


def _state_dir_has_state(state_dir: Path) -> bool:
    # Server roots and tenant directories count too: stats and scrub
    # recurse into their client streams.
    return resolve_state_root(state_dir) != "empty"


def _parse_connect(value: str, parser) -> "tuple[str, int]":
    """``HOST:PORT`` (IPv6 hosts bracketed) → ``(host, port)``."""
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        parser.error(f"--connect expects HOST:PORT, got {value!r}")
    return host.strip("[]"), int(port)


def _net_client(args, parser):
    """A connected `CollectorClient` from ``--connect`` CLI arguments."""
    from repro.service.net import CollectorClient

    if args.design is None:
        parser.error("--connect requires --design (handshake fingerprints)")
    if not args.tenant:
        parser.error("--connect requires --tenant")
    _, document = _load_design(args.design)
    return CollectorClient(
        _parse_connect(args.connect, parser),
        tenant=args.tenant,
        client=getattr(args, "client_id", None) or "cli",
        design=document,
    )


# ----------------------------------------------------------------------
# encode
# ----------------------------------------------------------------------
def _encode(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-anonymize encode",
        description="Randomize a CSV and write wire-format report frames.",
    )
    parser.add_argument("input", type=Path, help="input CSV (with header)")
    parser.add_argument(
        "-o", "--output", type=Path, required=True,
        help="binary report file (length-prefixed wire frames)",
    )
    parser.add_argument(
        "--design", type=Path, required=True,
        help="write the JSON design file the collector ingests with",
    )
    parser.add_argument(
        "--p", type=float, required=True,
        help="keep probability of the §6.3.1 matrix (0 < p < 1)",
    )
    parser.add_argument(
        "--protocol", choices=ENCODE_PROTOCOLS, default="independent",
        help="randomization protocol: independent RR per attribute, "
        "joint RR over the full product domain, or cluster-wise joint "
        "RR calibrated to the same budget (default: %(default)s)",
    )
    parser.add_argument(
        "--clusters", type=str, default=None,
        help="attribute clusters for --protocol clusters, e.g. 'a+b,c'",
    )
    parser.add_argument(
        "--columns", type=str, default=None,
        help="comma-separated columns to randomize (default: all)",
    )
    # `encode` runs on the party's side of the trust boundary: the seed
    # stays in this process and never enters the emitted frames or the
    # design document (tested in tests/test_cli.py).
    # repro-lint: ignore[RPL103]
    parser.add_argument("--seed", type=non_negative_int, default=None)
    parser.add_argument(
        "--frame-records", type=positive_int, default=DEFAULT_FRAME_RECORDS,
        help="records per wire frame (default: %(default)s)",
    )
    parser.add_argument(
        "--chunk-size", type=positive_int, default=None,
        help="randomize in blocks of this many records",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.p < 1.0:
        parser.error("--p must be strictly between 0 and 1")

    _, rows, selected, positions = _read_csv(args.input, _columns(args))
    schema = _build_schema(rows, selected, positions)
    codes = np.array(
        [
            [
                schema.attribute(j).index_of(row[pos])
                for j, pos in enumerate(positions)
            ]
            for row in rows
        ],
        dtype=np.int64,
    )
    dataset = Dataset(schema, codes, copy=False)
    protocol = _build_protocol(args, schema, parser)
    released = protocol.randomize(dataset, args.seed, chunk_size=args.chunk_size)
    codec = ReportCodec(schema)
    n_frames = 0
    with FrameWriter(args.output) as writer:
        for start in range(0, released.n_records, args.frame_records):
            stop = min(start + args.frame_records, released.n_records)
            writer.write(codec.encode(released.codes[start:stop]))
            n_frames += 1
        writer.sync()
    # The design document travels to the collector: it must carry only
    # what estimation needs (schema + mechanism parameters, all derived
    # from the protocol object itself). The randomization seed stays
    # party-side — the sampler's draws are data-independent, so a seed
    # in collector hands would reveal exactly which records were kept
    # and void the RR guarantee.
    _write_design(args.design, protocol, {"n_records": released.n_records})
    print(
        f"encoded {released.n_records} records into {n_frames} frames "
        f"({codec.record_bytes} B/record packed) -> {args.output}"
    )
    return 0


def _columns(args):
    return (
        [c.strip() for c in args.columns.split(",")] if args.columns else None
    )


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
def _ingest(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-anonymize ingest",
        description="Stream report frames into a checkpointed collector.",
    )
    parser.add_argument("reports", type=Path, help="binary report file")
    parser.add_argument(
        "-s", "--state-dir", type=Path, default=None,
        help="collector state directory (log + checkpoints); "
        "local-ingest mode",
    )
    parser.add_argument(
        "--design", type=Path, required=True,
        help="design file written by encode",
    )
    parser.add_argument(
        "--connect", type=str, default=None, metavar="HOST:PORT",
        help="stream the frames to a running collector server instead "
        "of a local state directory; resumes automatically from the "
        "stream's durable frame index (exact resend, no double-count)",
    )
    parser.add_argument(
        "--tenant", type=str, default=None,
        help="tenant name on the server (--connect mode)",
    )
    parser.add_argument(
        "--client-id", type=str, default=None,
        help="stable client stream id on the server; reconnects and "
        "resumed uploads must reuse it (--connect mode, default: cli)",
    )
    parser.add_argument(
        "--batch-size", type=positive_int, default=DEFAULT_COMMIT_RECORDS,
        help="records per group commit: one fsync'd log write and one "
        "absorption pass per batch — the durability window of bulk "
        "ingestion (default: %(default)s)",
    )
    parser.add_argument(
        "--checkpoint-every", type=positive_int, default=None,
        help="snapshot state every N ingested frames, checked at group-"
        "commit boundaries (default: only at end)",
    )
    parser.add_argument(
        "--segment-bytes", type=positive_int, default=DEFAULT_SEGMENT_BYTES,
        help="rotate the write-ahead log into segments of about this "
        "many bytes; restart cost is O(segments + tail) "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--compact", action="store_true",
        help="after the final checkpoint, delete log segments it covers "
        "(bounds disk; the checkpoint then becomes required for recovery)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="recover existing state and skip frames already ingested",
    )
    parser.add_argument(
        "--stop-after", type=positive_int, default=None,
        help="stop after N frames without a final checkpoint "
        "(simulated crash; use --resume to continue)",
    )
    args = parser.parse_args(argv)

    if args.connect is not None:
        return _ingest_connect(args, parser)
    if args.state_dir is None:
        parser.error("one of --state-dir or --connect is required")
    if not args.resume and _state_dir_has_state(args.state_dir):
        print(
            f"error: {args.state_dir} already holds collector state; "
            "pass --resume to recover and continue",
            file=sys.stderr,
        )
        return 1
    service = _service_from_design(args)
    try:
        skip = service.frames_applied if args.resume else 0
        reports_stream = read_frames(args.reports)
        if skip:
            # Resume skips by count, so bind the identity too: the
            # skipped prefix must be byte-equal to what the log holds,
            # or we would silently continue an unrelated stream (e.g. a
            # re-encoded reports file with a fresh seed). Streamed
            # frame-by-frame — neither file is materialized. Frames
            # compacted out of the log head can no longer be compared
            # byte-for-byte; they are consumed uncheckable (their
            # counts are pinned inside the covering checkpoint).
            verified_from = min(skip, service.log.first_retained_frame)
            for _ in range(verified_from):
                if next(reports_stream, None) is None:
                    # Exhaustion is still checkable even when the frame
                    # bytes no longer are.
                    raise ServiceError(
                        f"{args.reports}: fewer frames than the {skip} "
                        f"already ingested into {args.state_dir}; "
                        "resume requires the same reports file the "
                        "crashed run was ingesting"
                    )
            logged = service.log.replay(verified_from)
            for _ in range(skip - verified_from):
                if next(reports_stream, None) != next(logged, None):
                    raise ServiceError(
                        f"{args.reports}: the first {skip} frames do not "
                        "match the frames already ingested into "
                        f"{args.state_dir}; resume requires the same "
                        "reports file the crashed run was ingesting"
                    )
            logged.close()
        ingested = service.ingest_many(
            reports_stream,
            commit_records=args.batch_size,
            limit=args.stop_after,
        )
        stopped_early = (
            args.stop_after is not None and ingested >= args.stop_after
        )
        compaction = None
        if not stopped_early:
            if args.compact:
                compaction = service.compact()  # checkpoints first
            else:
                service.checkpoint()
        summary = {
            "reports": str(args.reports),
            "state_dir": str(args.state_dir),
            "frames_skipped": skip,
            "frames_ingested": ingested,
            "frames_applied_total": service.frames_applied,
            "n_observed": service.n_observed,
            "checkpointed": not stopped_early,
        }
        if compaction is not None:
            summary["compaction"] = compaction
    finally:
        service.close()
    print(json.dumps(summary, indent=2, sort_keys=True))
    if stopped_early:
        print(
            f"stopped after {ingested} frames without checkpoint "
            "(simulated crash); rerun with --resume to continue",
            file=sys.stderr,
        )
    return 0


def _ingest_connect(args, parser) -> int:
    """``ingest --connect``: stream the report file to a server."""
    client = _net_client(args, parser)
    try:
        durable = client.connect()
        skipped = 0
        frames = []
        for frame in read_frames(args.reports):
            # The durable index is the resume cursor: frame i of the
            # file is frame i of the stream, so everything below the
            # index is already journaled server-side and is not resent.
            if skipped < durable:
                skipped += 1
                continue
            frames.append(frame)
        total = client.ingest(frames)
        summary = {
            "reports": str(args.reports),
            "connect": args.connect,
            "tenant": args.tenant,
            "client": client.client,
            "frames_skipped": skipped,
            "frames_ingested": len(frames),
            "durable": total,
        }
    finally:
        client.close()
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# compact
# ----------------------------------------------------------------------
def _compact(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-anonymize compact",
        description="Checkpoint a collector and retire the log segments "
        "the checkpoint covers, bounding the state directory's disk.",
    )
    parser.add_argument(
        "-s", "--state-dir", type=Path, required=True,
        help="collector state directory",
    )
    parser.add_argument(
        "--design", type=Path, required=True,
        help="design file written by encode",
    )
    parser.add_argument(
        "--segment-bytes", type=positive_int, default=DEFAULT_SEGMENT_BYTES,
        help="rotation threshold for future appends (default: %(default)s)",
    )
    parser.add_argument(
        "--batch-size", type=positive_int, default=DEFAULT_BATCH_SIZE,
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)

    if not _state_dir_has_state(args.state_dir):
        # Opening would create fresh (empty) collector state — turn a
        # typo'd path into an error instead of a pinned empty dir.
        print(
            f"error: {args.state_dir} holds no collector state to compact",
            file=sys.stderr,
        )
        return 1
    service = _service_from_design(args)
    try:
        stats = service.compact()
        summary = {
            "state_dir": str(args.state_dir),
            "frames_applied": service.frames_applied,
            "segments_remaining": service.log.n_segments,
            **stats,
        }
    finally:
        service.close()
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# query
# ----------------------------------------------------------------------
def _query(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-anonymize query",
        description="Recover a collector and print Eq. (2) estimates.",
    )
    parser.add_argument(
        "-s", "--state-dir", type=Path, default=None,
        help="collector state directory (local mode)",
    )
    parser.add_argument(
        "--design", type=Path, required=True,
        help="design file written by encode",
    )
    parser.add_argument(
        "--connect", type=str, default=None, metavar="HOST:PORT",
        help="query a running collector server (the tenant's merged "
        "estimates across every client stream) instead of local state",
    )
    parser.add_argument(
        "--tenant", type=str, default=None,
        help="tenant name on the server (--connect mode)",
    )
    parser.add_argument(
        "--marginal", action="append", default=None, metavar="NAME",
        help="estimate one attribute's marginal (repeatable; "
        "default: all attributes)",
    )
    parser.add_argument(
        "--pair", nargs=2, action="append", default=None,
        metavar=("A", "B"), help="estimate a pair table (repeatable)",
    )
    parser.add_argument(
        "--repair", choices=("clip", "none"), default="clip",
        help="post-processing of raw Eq. (2) estimates (default: clip)",
    )
    parser.add_argument(
        "--batch-size", type=positive_int, default=DEFAULT_BATCH_SIZE,
        help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the JSON answer here instead of stdout",
    )
    args = parser.parse_args(argv)

    if args.connect is not None:
        return _query_connect(args, parser)
    if args.state_dir is None:
        parser.error("one of --state-dir or --connect is required")
    service = _service_from_design(args)
    try:
        front = service.queries
        names = args.marginal or list(front.names)
        answer = {
            "n_observed": service.n_observed,
            "repair": args.repair,
            "marginals": {
                name: [float(x) for x in front.marginal(name, args.repair)]
                for name in names
            },
        }
        if args.pair:
            answer["pairs"] = {
                f"{a}|{b}": [
                    [float(x) for x in row]
                    for row in front.pair_table(a, b, args.repair)
                ]
                for a, b in args.pair
            }
        answer["cache"] = front.stats
    finally:
        service.close()
    text = json.dumps(answer, indent=2, sort_keys=True)
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _query_connect(args, parser) -> int:
    """``query --connect``: tenant-level merged estimates over the wire."""
    args.client_id = "cli-query"
    client = _net_client(args, parser)
    try:
        if args.marginal:
            marginals = {
                name: client.query_marginal(name, repair=args.repair)
                for name in args.marginal
            }
        else:
            marginals = client.query_marginals(repair=args.repair)
        answer = {
            "connect": args.connect,
            "tenant": args.tenant,
            "repair": args.repair,
            "marginals": marginals,
        }
        if args.pair:
            answer["pairs"] = {
                f"{a}|{b}": client.query_pair(a, b, repair=args.repair)
                for a, b in args.pair
            }
    finally:
        client.close()
    text = json.dumps(answer, indent=2, sort_keys=True)
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def _stats(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-anonymize stats",
        description="Report a collector state directory's health "
        "document (journal layout, checkpoint coverage, design "
        "fingerprints; with --design also live counts and metrics).",
    )
    parser.add_argument(
        "-s", "--state-dir", type=Path, default=None,
        help="collector state directory — or a collector-server state "
        "root / tenant directory, both rendered offline",
    )
    parser.add_argument(
        "--design", type=Path, default=None,
        help="design file written by encode; when given, the collector "
        "is opened (recovering state, taking the state-dir lock) and "
        "the full live health snapshot is reported — omit it to "
        "inspect the directory read-only, e.g. while a collector runs",
    )
    parser.add_argument(
        "--connect", type=str, default=None, metavar="HOST:PORT",
        help="fetch the live health document (or Prometheus text) from "
        "a running collector server; needs --design and --tenant for "
        "the session handshake",
    )
    parser.add_argument(
        "--tenant", type=str, default=None,
        help="tenant name on the server (--connect mode)",
    )
    parser.add_argument(
        "--format", choices=("json", "prometheus"), default="json",
        help="output format; prometheus renders the metrics section of "
        "a live snapshot and therefore needs --design "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--check-schema", action="store_true",
        help="validate the document against the checked-in health "
        "schema before printing it",
    )
    parser.add_argument(
        "--batch-size", type=positive_int, default=DEFAULT_BATCH_SIZE,
        help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the document here instead of stdout",
    )
    args = parser.parse_args(argv)

    if args.connect is not None:
        return _stats_connect(args, parser)
    if args.state_dir is None:
        parser.error("one of --state-dir or --connect is required")
    if not _state_dir_has_state(args.state_dir):
        print(
            f"error: {args.state_dir} holds no collector state",
            file=sys.stderr,
        )
        return 1
    if args.design is not None:
        protocol, _ = _load_design(args.design)
        service = CollectorService.for_protocol(
            protocol,
            args.state_dir,
            batch_size=args.batch_size,
            metrics=MetricsRegistry(),
        )
        try:
            document = service.health()
        finally:
            service.close()
    else:
        if args.format == "prometheus":
            parser.error(
                "--format prometheus needs --design (live metrics)"
            )
        document = storage_health(args.state_dir)
    if args.check_schema:
        validate_health(document)
    if args.format == "prometheus":
        text = render_prometheus(document["metrics"]).rstrip("\n")
    else:
        text = json.dumps(document, indent=2, sort_keys=True)
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _stats_connect(args, parser) -> int:
    """``stats --connect``: the live server's health or Prometheus text."""
    args.client_id = "cli-stats"
    client = _net_client(args, parser)
    try:
        if args.format == "prometheus":
            text = client.metrics_text().rstrip("\n")
        else:
            document = client.health()
            if args.check_schema:
                validate_health(document)
            text = json.dumps(document, indent=2, sort_keys=True)
    finally:
        client.close()
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _parse_tenant_spec(value: str, parser) -> "tuple[str, Path]":
    name, sep, design = value.partition("=")
    if not sep or not name or not design:
        parser.error(
            f"--tenant expects NAME=DESIGN.json, got {value!r}"
        )
    return name, Path(design)


def _serve(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-anonymize serve",
        description="Run the multi-tenant collector server: accept "
        "report frames over TCP, ack each one once durably journaled, "
        "answer queries from the merged tenant estimates. SIGTERM "
        "drains: in-flight batches commit, every tenant checkpoints, "
        "then the process exits 0.",
    )
    parser.add_argument(
        "-s", "--root", type=Path, required=True,
        help="server state root (tenant directories live below it)",
    )
    parser.add_argument(
        "--tenant", action="append", default=[], metavar="NAME=DESIGN",
        help="serve tenant NAME pinned to the design document DESIGN "
        "(repeatable; at least one required)",
    )
    parser.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="bind address (default: %(default)s)",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="bind port; 0 picks a free port and prints it "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--max-connections", type=positive_int, default=None,
        help="admission-control cap on concurrent connections",
    )
    parser.add_argument(
        "--max-tenants", type=positive_int, default=None,
        help="LRU bound on tenants held open at once",
    )
    parser.add_argument(
        "--budget-bytes", type=positive_int, default=None,
        help="per-tenant in-flight byte budget before the server "
        "stops reading that tenant's sockets (backpressure)",
    )
    parser.add_argument(
        "--batch-size", type=positive_int, default=None,
        help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--checkpoint-every", type=positive_int, default=None,
        help="checkpoint each stream every N frames",
    )
    parser.add_argument(
        "--segment-bytes", type=positive_int, default=None,
        help="journal segment size for each stream",
    )
    parser.add_argument(
        "--max-frame-bytes", type=positive_int, default=None,
        help="reject envelopes larger than this (oversize protection)",
    )
    args = parser.parse_args(argv)

    if not args.tenant:
        parser.error("at least one --tenant NAME=DESIGN is required")
    designs = {}
    for spec in args.tenant:
        name, design_path = _parse_tenant_spec(spec, parser)
        if name in designs:
            parser.error(f"duplicate --tenant {name!r}")
        designs[name] = design_path

    import asyncio

    from repro.service.net import (
        DEFAULT_BUDGET_BYTES,
        DEFAULT_MAX_CONNECTIONS,
        DEFAULT_MAX_PAYLOAD,
        DEFAULT_MAX_TENANTS,
        CollectorServer,
    )

    server = CollectorServer(
        args.root,
        designs,
        host=args.host,
        port=args.port,
        max_connections=args.max_connections or DEFAULT_MAX_CONNECTIONS,
        max_tenants=args.max_tenants or DEFAULT_MAX_TENANTS,
        budget_bytes=args.budget_bytes or DEFAULT_BUDGET_BYTES,
        batch_size=args.batch_size or DEFAULT_BATCH_SIZE,
        checkpoint_every=args.checkpoint_every,
        segment_bytes=args.segment_bytes,
        max_payload=args.max_frame_bytes or DEFAULT_MAX_PAYLOAD,
    )

    async def _run() -> None:
        await server.start()
        # Parsed by scripts (and the CI smoke step): flush so the
        # address is visible before the first connection arrives.
        print(f"listening on {server.host}:{server.port}", flush=True)
        await server.serve_forever(install_signals=True)

    asyncio.run(_run())
    print("drained", flush=True)
    return 0


# ----------------------------------------------------------------------
# scrub
# ----------------------------------------------------------------------
def _scrub(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-anonymize scrub",
        description="Deep-verify a collector state directory offline: "
        "re-check every retained frame's CRC and schema fingerprint, "
        "sealed segment sizes against the manifest, and the checkpoint "
        "pair's CRC, fingerprints, and coverage. Read-only; exits "
        "non-zero when anything recovery depends on is damaged.",
    )
    parser.add_argument(
        "-s", "--state-dir", type=Path, required=True,
        help="collector state directory",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the report here instead of stdout",
    )
    args = parser.parse_args(argv)

    if not _state_dir_has_state(args.state_dir):
        print(
            f"error: {args.state_dir} holds no collector state",
            file=sys.stderr,
        )
        return 1
    report = scrub_state_dir(args.state_dir)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0 if report["ok"] else 1


# ----------------------------------------------------------------------
SERVICE_COMMANDS = {
    "encode": _encode,
    "ingest": _ingest,
    "query": _query,
    "compact": _compact,
    "stats": _stats,
    "scrub": _scrub,
    "serve": _serve,
}


def service_main(argv) -> int:
    """Dispatch ``argv`` (starting with the subcommand name)."""
    command, rest = argv[0], argv[1:]
    try:
        return SERVICE_COMMANDS[command](rest)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
