"""``repro-anonymize`` — randomize a CSV of categorical microdata.

The operational face of the library: take a CSV where each row is one
individual's record, apply RR-Independent (or RR-Clusters with an
explicit partition) locally per record, and write the randomized CSV
plus a JSON report with the privacy ledger — everything a data
controller needs to publish alongside the release so analysts can run
Eq. (2) on their side.

The collector-service subcommands (``encode``, ``ingest``, ``query``,
see :mod:`repro.service.cli`) cover the streaming deployment instead:
parties encode randomized reports as wire frames, a durable collector
ingests them with crash recovery, and consumers query cached estimates.

Examples::

    repro-anonymize survey.csv -o survey_rr.csv --p 0.7
    repro-anonymize survey.csv -o out.csv --p 0.7 \
        --columns smokes,alcohol,therapy \
        --clusters "smokes+alcohol,therapy" \
        --report release.json --design design.json --seed 42
    repro-anonymize encode survey.csv -o reports.rrw \
        --design design.json --p 0.7 --seed 42 \
        --protocol clusters --clusters "smokes+alcohol,therapy"
    repro-anonymize ingest reports.rrw -s state/ --design design.json
    repro-anonymize query -s state/ --design design.json
    repro-anonymize stats -s state/ --check-schema
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from repro._rng import ensure_rng
from repro.clustering.algorithm import Clustering
from repro.data.dataset import Dataset
from repro.data.schema import Attribute, Schema
from repro.exceptions import ReproError
from repro.protocols.clusters import RRClusters
from repro.protocols.independent import RRIndependent

__all__ = ["main", "anonymize_csv", "positive_int", "non_negative_int"]


def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a {kind} integer, got {text!r}"
        ) from None
    if value < low:
        raise argparse.ArgumentTypeError(
            f"expected a {kind} integer (>= {low}), got {value}"
        )
    return value


def positive_int(text: str) -> int:
    """Argparse type for strictly positive integer flags.

    Rejects non-numeric and non-positive values at parse time with a
    clear message instead of letting them surface as deep tracebacks
    from the engine or service internals.
    """
    return _int_at_least(text, 1, "positive")


def non_negative_int(text: str) -> int:
    """Argparse type for seed flags: any integer ``>= 0``, checked at
    parse time like :func:`positive_int`."""
    return _int_at_least(text, 0, "non-negative")


def _read_csv(path: Path, columns: list | None):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ReproError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = [[field.strip() for field in row] for row in reader if row]
    if columns is None:
        columns = header
    unknown = [c for c in columns if c not in header]
    if unknown:
        raise ReproError(f"columns not in header: {unknown}")
    positions = [header.index(c) for c in columns]
    for number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ReproError(
                f"{path}: line {number} has {len(row)} fields, "
                f"expected {len(header)}"
            )
    return header, rows, columns, positions


def _build_schema(rows, columns, positions) -> Schema:
    attributes = []
    for name, pos in zip(columns, positions):
        values = sorted({row[pos] for row in rows})
        if len(values) < 2:
            raise ReproError(
                f"column {name!r} has {len(values)} distinct value(s); "
                "randomized response needs at least 2"
            )
        attributes.append(Attribute(name, tuple(values)))
    return Schema(attributes)


def _parse_clusters(spec: str, schema: Schema) -> Clustering:
    clusters = []
    for group in spec.split(","):
        names = tuple(n.strip() for n in group.split("+") if n.strip())
        if not names:
            raise ReproError(f"empty cluster in spec {spec!r}")
        clusters.append(names)
    return Clustering(schema=schema, clusters=tuple(clusters))


def anonymize_csv(
    input_path: Path,
    output_path: Path,
    p: float,
    columns: list | None = None,
    clusters: str | None = None,
    seed: int | None = None,
    report_path: Path | None = None,
    chunk_size: int | None = None,
    design_path: Path | None = None,
) -> dict:
    """Randomize the categorical columns of a CSV file.

    Returns the report dictionary (also written to ``report_path`` when
    given). Columns not selected are passed through unchanged — callers
    are responsible for dropping direct identifiers beforehand.
    ``chunk_size`` routes the randomization through the chunked engine
    (:mod:`repro.engine`) for blockwise memory on large files.
    ``design_path`` additionally writes the protocol's versioned design
    document (:mod:`repro.design`) so analysts — or a collector
    service — can reconstruct the estimation matrices without this
    process's state (the seed never enters the document).
    """
    header, rows, selected, positions = _read_csv(input_path, columns)
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

    rng = ensure_rng(seed)
    if clusters:
        protocol = RRClusters(_parse_clusters(clusters, schema), p=p)
        ledger = protocol.accountant()
    else:
        protocol = RRIndependent(schema, p=p)
        ledger = protocol.accountant()
    released = protocol.randomize(dataset, rng, chunk_size=chunk_size)

    with open(output_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i, row in enumerate(rows):
            out = list(row)
            for j, pos in enumerate(positions):
                attr = schema.attribute(j)
                out[pos] = attr.categories[int(released.codes[i, j])]
            writer.writerow(out)

    report = {
        "input": str(input_path),
        "output": str(output_path),
        "n_records": dataset.n_records,
        "p": p,
        "protocol": "RR-Clusters" if clusters else "RR-Independent",
        "clusters": (
            [list(c) for c in protocol.clustering.clusters]
            if clusters
            else [[name] for name in schema.names]
        ),
        "attributes": {
            attr.name: {
                "categories": list(attr.categories),
                "size": attr.size,
            }
            for attr in schema
        },
        "epsilon_per_release": {
            label: (eps if np.isfinite(eps) else None)
            for label, eps in ledger.by_label().items()
        },
        "epsilon_total": (
            ledger.total_epsilon if np.isfinite(ledger.total_epsilon) else None
        ),
        "seed": seed,
        "engine": {"chunk_size": chunk_size},
    }
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as handle:
            # The report is the controller's own audit record: whoever
            # runs anonymize_csv already holds the raw data, so the seed
            # reveals nothing extra. Contrast the design document below,
            # which travels to analysts and is tested seed-free.
            json.dump(report, handle, indent=2)  # repro-lint: ignore[RPL102]
    if design_path is not None:
        # Imported here (not at module top) to avoid a cycle: the
        # design module layers on the protocols imported above.
        from repro.design import write_design

        write_design(
            design_path, protocol, {"n_records": dataset.n_records}
        )
    return report


def main(argv=None) -> int:
    """Entry point: dispatch service subcommands, else anonymize a CSV.

    Dispatch is by the first argument only, keeping the original
    positional-input interface intact. A CSV literally named
    ``encode``/``ingest``/``query``/``compact``/``stats``/``scrub``/
    ``serve`` routes to the subcommand — pass it as ``./encode`` to
    anonymize it.
    """
    args = list(sys.argv[1:]) if argv is None else list(argv)
    if args and args[0] in (
        "encode", "ingest", "query", "compact", "stats", "scrub", "serve"
    ):
        # Imported here (not at module top) to avoid a cycle:
        # repro.service.cli imports the CSV helpers from this module.
        from repro.service.cli import service_main

        return service_main(args)
    return _anonymize_main(args)


def _anonymize_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-anonymize",
        description="Locally anonymize a CSV with randomized response "
        "(subcommands encode/ingest/query drive the collector service).",
    )
    parser.add_argument("input", type=Path, help="input CSV (with header)")
    parser.add_argument(
        "-o", "--output", type=Path, required=True, help="randomized CSV"
    )
    parser.add_argument(
        "--p",
        type=float,
        required=True,
        help="keep probability of the §6.3.1 matrix (0 < p < 1)",
    )
    parser.add_argument(
        "--columns",
        type=str,
        default=None,
        help="comma-separated columns to randomize (default: all)",
    )
    parser.add_argument(
        "--clusters",
        type=str,
        default=None,
        help="explicit attribute clusters, e.g. 'a+b,c' (default: "
        "independent per-attribute RR)",
    )
    parser.add_argument("--seed", type=non_negative_int, default=None)
    parser.add_argument(
        "--report", type=Path, default=None, help="write a JSON release report"
    )
    parser.add_argument(
        "--design", type=Path, default=None,
        help="write the versioned design document analysts (or a "
        "collector service) estimate with",
    )
    parser.add_argument(
        "--chunk-size",
        type=positive_int,
        default=None,
        help="randomize in blocks of this many records (bounded memory; "
        "default: whole file in one shot)",
    )
    args = parser.parse_args(argv)

    if not 0.0 < args.p < 1.0:
        parser.error("--p must be strictly between 0 and 1")
    columns = (
        [c.strip() for c in args.columns.split(",")] if args.columns else None
    )
    try:
        report = anonymize_csv(
            input_path=args.input,
            output_path=args.output,
            p=args.p,
            columns=columns,
            clusters=args.clusters,
            seed=args.seed,
            report_path=args.report,
            chunk_size=args.chunk_size,
            design_path=args.design,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    eps = report["epsilon_total"]
    eps_text = "inf" if eps is None else f"{eps:.3f}"
    print(
        f"randomized {report['n_records']} records "
        f"({report['protocol']}, p={report['p']}, eps={eps_text}) "
        f"-> {report['output']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
