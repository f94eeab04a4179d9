"""Hot-path micro-benchmarks: vectorized fast paths vs their references.

Measures the three layers of the columnar fast path on one core and
records a perf trajectory for future PRs to beat:

* **codec** — uint64-lane/gather payload packing vs the per-bit Python
  reference loops (`tests/codec_reference.py`),
  plus full-frame encode/decode rates;
* **ingest** — `CollectorService.ingest_many` group commit (one fsync
  per commit window) vs one fsync per frame (`commit_records=1`), end
  to end through the write-ahead log and batched absorption;
* **dense sampling** — grouped-`searchsorted` inverse CDF vs the
  O(n·r) comparison-sum, asserting code-identical output;
* **fingerprint** — `matrix_fingerprint` of a constant-diagonal matrix
  hashed from its parameters vs the same matrix densified
  (`matrix_fingerprint(matrix.dense())`, which validates the array and
  checks that it is constant-diagonal before folding to the same
  digest), asserting identical hex.

Run:    PYTHONPATH=src python benchmarks/bench_hotpaths.py --out BENCH_3.json
Check:  PYTHONPATH=src python benchmarks/bench_hotpaths.py --check --quick

``--check`` asserts only *relative* wins (vectorized beats reference);
absolute thresholds would be flaky on shared CI runners.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.matrices import keep_else_uniform_matrix
from repro.core.mechanism import (
    inverse_cdf_codes,
    inverse_cdf_comparison_sum,
)
from repro.data.adult import synthesize_adult
from repro.protocols.independent import RRIndependent
from repro.service.codec import ReportCodec, matrix_fingerprint
from repro.service.pipeline import CollectorService

# The per-bit payload loops are test-support code, not part of the package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from codec_reference import (  # noqa: E402
    pack_payload_reference,
    unpack_payload_reference,
)


def best_seconds(func, repeats):
    """Best-of-N wall time: the least-noisy single-core estimator."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def bench_codec(n, repeats):
    schema = synthesize_adult(n=2, rng=0).schema
    codec = ReportCodec(schema)
    rng = np.random.default_rng(1)
    batch = np.stack(
        [rng.integers(0, size, n) for size in schema.sizes], axis=1
    ).astype(np.int64)
    frame = codec.encode(batch)
    payload = np.frombuffer(
        frame, dtype=np.uint8, count=n * codec.record_bytes, offset=18
    ).reshape(n, codec.record_bytes)
    assert codec._pack_payload(batch) == pack_payload_reference(codec, batch)
    np.testing.assert_array_equal(
        codec._unpack_payload(payload),
        unpack_payload_reference(codec, payload),
    )
    return {
        "n_records": n,
        "record_bytes": codec.record_bytes,
        "encode_rps": n / best_seconds(lambda: codec.encode(batch), repeats),
        "decode_rps": n / best_seconds(lambda: codec.decode(frame), repeats),
        "pack_vectorized_rps": n
        / best_seconds(lambda: codec._pack_payload(batch), repeats),
        "pack_reference_rps": n
        / best_seconds(lambda: pack_payload_reference(codec, batch), repeats),
        "unpack_vectorized_rps": n
        / best_seconds(lambda: codec._unpack_payload(payload), repeats),
        "unpack_reference_rps": n
        / best_seconds(
            lambda: unpack_payload_reference(codec, payload), repeats
        ),
    }


def bench_ingest(n, frame_records, repeats):
    protocol = RRIndependent(synthesize_adult(n=2, rng=0).schema, p=0.7)
    released = protocol.randomize(
        synthesize_adult(n=n, rng=42), rng=0, chunk_size=65_536
    )
    codec = ReportCodec(protocol.schema)
    frames = [
        codec.encode(released.codes[start : start + frame_records])
        for start in range(0, n, frame_records)
    ]

    def run(commit_records):
        state = tempfile.mkdtemp(prefix="hotpath-ingest-")
        try:
            with CollectorService.for_protocol(protocol, state) as service:
                service.ingest_many(frames, commit_records=commit_records)
                service.checkpoint()
                assert service.n_observed == n
        finally:
            shutil.rmtree(state, ignore_errors=True)

    return {
        "n_reports": n,
        "frame_records": frame_records,
        "group_commit_rps": n / best_seconds(lambda: run(None), repeats),
        "per_frame_fsync_rps": n
        / best_seconds(lambda: run(1), max(2, repeats // 2)),
    }


def bench_dense_sampling(n, r, repeats):
    rng = np.random.default_rng(5)
    matrix = rng.random((r, r))
    matrix /= matrix.sum(axis=1, keepdims=True)
    cumulative = np.cumsum(matrix, axis=1)
    values = rng.integers(0, r, n)
    u = rng.random(n)
    np.testing.assert_array_equal(
        inverse_cdf_codes(cumulative, values, u),
        inverse_cdf_comparison_sum(cumulative, values, u),
    )
    return {
        "n_records": n,
        "domain_size": r,
        "searchsorted_rps": n
        / best_seconds(
            lambda: inverse_cdf_codes(cumulative, values, u), repeats
        ),
        "comparison_sum_rps": n
        / best_seconds(
            lambda: inverse_cdf_comparison_sum(cumulative, values, u),
            max(2, repeats // 2),
        ),
    }


def bench_fingerprint(r, repeats):
    matrix = keep_else_uniform_matrix(r, 0.9)
    assert matrix_fingerprint(matrix) == matrix_fingerprint(matrix.dense())
    return {
        "domain_size": r,
        "structured_s": best_seconds(
            lambda: matrix_fingerprint(matrix), repeats
        ),
        "dense_s": best_seconds(
            lambda: matrix_fingerprint(matrix.dense()), repeats
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="assert the vectorized paths beat their references "
        "(relative only — safe on shared runners)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller workloads (CI smoke)",
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="write the results JSON here (e.g. BENCH_3.json)",
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
        codec_n, ingest_n, sample_n, r, repeats = 30_000, 30_000, 100_000, 64, 3
        fingerprint_r = 1_024
    else:
        codec_n, ingest_n, sample_n, r, repeats = (
            200_000, 100_000, 1_000_000, 128, 5,
        )
        fingerprint_r = 2_048

    results = {
        "bench": "hotpaths",
        "quick": args.quick,
        "codec": bench_codec(codec_n, repeats),
        "ingest": bench_ingest(ingest_n, 1_000, repeats),
        "dense_sampling": bench_dense_sampling(sample_n, r, repeats),
        "fingerprint": bench_fingerprint(fingerprint_r, repeats),
    }
    for section in ("codec", "ingest", "dense_sampling"):
        for key, value in results[section].items():
            if key.endswith("_rps"):
                results[section][key] = round(value)

    codec = results["codec"]
    ingest = results["ingest"]
    sampling = results["dense_sampling"]
    fingerprint = results["fingerprint"]
    print(
        f"codec    encode {codec['encode_rps']:>12,} rps   "
        f"decode {codec['decode_rps']:>12,} rps\n"
        f"  pack   vector {codec['pack_vectorized_rps']:>12,} rps   "
        f"reference {codec['pack_reference_rps']:>9,} rps "
        f"({codec['pack_vectorized_rps'] / codec['pack_reference_rps']:.2f}x)\n"
        f"  unpack vector {codec['unpack_vectorized_rps']:>12,} rps   "
        f"reference {codec['unpack_reference_rps']:>9,} rps "
        f"({codec['unpack_vectorized_rps'] / codec['unpack_reference_rps']:.2f}x)\n"
        f"ingest   group-commit {ingest['group_commit_rps']:>12,} rps   "
        f"per-frame fsync {ingest['per_frame_fsync_rps']:>12,} rps "
        f"({ingest['group_commit_rps'] / ingest['per_frame_fsync_rps']:.2f}x)\n"
        f"sampling searchsorted {sampling['searchsorted_rps']:>12,} rps   "
        f"comparison-sum  {sampling['comparison_sum_rps']:>12,} rps "
        f"({sampling['searchsorted_rps'] / sampling['comparison_sum_rps']:.2f}x, "
        f"r={sampling['domain_size']})\n"
        f"fingerprint structured {fingerprint['structured_s'] * 1e3:>9.2f} ms   "
        f"dense {fingerprint['dense_s'] * 1e3:>9.2f} ms "
        f"({fingerprint['dense_s'] / fingerprint['structured_s']:.2f}x, "
        f"r={fingerprint['domain_size']})"
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
        if codec["pack_vectorized_rps"] <= codec["pack_reference_rps"]:
            failures.append("vectorized pack is not faster than reference")
        if codec["unpack_vectorized_rps"] <= codec["unpack_reference_rps"]:
            failures.append("vectorized unpack is not faster than reference")
        if ingest["group_commit_rps"] <= ingest["per_frame_fsync_rps"]:
            failures.append("group commit is not faster than per-frame fsync")
        if sampling["searchsorted_rps"] <= sampling["comparison_sum_rps"]:
            failures.append(
                "searchsorted sampling is not faster than comparison-sum"
            )
        if fingerprint["structured_s"] >= fingerprint["dense_s"]:
            failures.append(
                "structured fingerprint is not faster than the dense one"
            )
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("check ok: every vectorized path beats its reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
