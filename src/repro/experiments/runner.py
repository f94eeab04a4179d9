"""Command-line entry point: regenerate any paper artifact.

Usage (installed as ``repro-experiments``)::

    repro-experiments figure1
    repro-experiments table1 --runs 100 --seed 7
    repro-experiments all --output-dir results/

Each command prints the paper-style text rendering; ``--output-dir``
additionally writes the raw result as JSON so EXPERIMENTS.md numbers
can be traced to an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.cli import non_negative_int, positive_int
from repro.experiments import (
    ablations,
    extensions,
    figure1,
    figure2,
    figure3,
    table1,
    table2,
)

__all__ = ["main", "EXPERIMENTS"]


def _run_ablations(runs: int | None, seed: int | None):
    del runs  # ablations have their own trial counts
    results = {
        "accuracy_analysis": ablations.run_accuracy_analysis(),
        "attenuation": ablations.run_attenuation(rng=seed),
        "estimator_comparison": ablations.run_estimator_comparison(rng=seed),
        "projection": ablations.run_projection(rng=seed),
    }
    return results


def _render_ablations(results) -> str:
    return "\n\n".join(
        [
            ablations.render_accuracy_analysis(results["accuracy_analysis"]),
            ablations.render_attenuation(results["attenuation"]),
            ablations.render_estimator_comparison(
                results["estimator_comparison"]
            ),
            ablations.render_projection(results["projection"]),
        ]
    )


def _dictify_ablations(results) -> dict:
    return {name: result.to_dict() for name, result in results.items()}


#: name -> (run(runs, seed), render(result), to_dict(result))
EXPERIMENTS = {
    "figure1": (
        lambda runs, seed: figure1.run(),
        figure1.render,
        lambda r: r.to_dict(),
    ),
    "figure2": (
        lambda runs, seed: figure2.run(runs=runs, rng=seed),
        figure2.render,
        lambda r: r.to_dict(),
    ),
    "table1": (
        lambda runs, seed: table1.run(runs=runs, rng=seed),
        table1.render,
        lambda r: r.to_dict(),
    ),
    "figure3": (
        lambda runs, seed: figure3.run(runs=runs, rng=seed),
        figure3.render,
        lambda r: r.to_dict(),
    ),
    "table2": (
        lambda runs, seed: table2.run(runs=runs, rng=seed),
        table2.render,
        lambda r: r.to_dict(),
    ),
    "ablations": (_run_ablations, _render_ablations, _dictify_ablations),
    "kway": (
        lambda runs, seed: extensions.run_kway_queries(runs=runs, rng=seed),
        extensions.render_kway_queries,
        lambda r: r.to_dict(),
    ),
    "clustering-comparison": (
        lambda runs, seed: extensions.run_clustering_comparison(
            runs=runs, rng=seed
        ),
        extensions.render_clustering_comparison,
        lambda r: r.to_dict(),
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--runs",
        type=positive_int,
        default=None,
        help="randomized trials per configuration (default: REPRO_RUNS or 31; "
        "the paper uses 1000)",
    )
    parser.add_argument(
        "--seed", type=non_negative_int, default=None,
        help="base seed (default: REPRO_SEED)",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="directory for raw JSON results",
    )
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        run, render, to_dict = EXPERIMENTS[name]
        # Wall-clock here only feeds the "[name: 12.3s]" progress line;
        # no experiment output depends on it.
        started = time.time()  # repro-lint: ignore[RPL204]
        result = run(args.runs, args.seed)
        elapsed = time.time() - started  # repro-lint: ignore[RPL204]
        print(render(result))
        print(f"[{name}: {elapsed:.1f}s]")
        print()
        if args.output_dir is not None:
            args.output_dir.mkdir(parents=True, exist_ok=True)
            path = args.output_dir / f"{name}.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(to_dict(result), handle, indent=2)
            print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
