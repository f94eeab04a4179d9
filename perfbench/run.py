"""Lifecycle benchmark of the three randomized-response protocols.

Drives the whole report lifecycle — party randomize, encode, wire,
journal group commit and fsync, absorb, checkpoint and recovery, Eq. (2)
query — on one of two workloads and checks that every answer is
correct:

    python3 perfbench/run.py --workload offline-lifecycle --seed 1 \\
        --seconds 30 --trace 0

* ``offline-lifecycle`` — one process, no network (``offline.py``).
* ``net-mixed`` — a ``repro-anonymize serve`` child process under
  loopback load (``net.py``, ``serve.py``).

``--trace 0`` reports the end-to-end metrics. Each workload repeats a
fixed *round* of work until ``--seconds`` is spent and takes each
figure from many short samples (per round, per protocol, per server
start). Throughputs, latencies and set-up/recovery times are a quantile
on the fast side of those samples (``common.fast_side`` says why);
offline ``query_p50_ms`` and ``query_p99_ms`` are those of each
protocol's fastest query mix, averaged over the protocols
(``offline.run`` says why).
``server_rss_mb`` is a peak.

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics as means per traced round; it prints each layer's
self time, the unattributed remainder, the tracing overhead (traced
minus untraced round wall) and the top three layers as findings.

Human-readable lines come first; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. A fuller
document, with a host block, is written under ``.bench_state/results``.

``--quick`` shrinks every workload to a smoke-test size
(``perfbench/smoke.py``). Needs the repository's ``src`` tree next to
this directory; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("offline-lifecycle", "net-mixed")

#: End-to-end metrics (``--trace 0``) and their units.
E2E = {
    "reports_per_s": "reports/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "setup_s": "s",
    "recovery_s": "s",
    "server_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units; both workloads
#: measure each one. Times and counts are per traced round, except on
#: ``net-mixed``: ``service.open_s`` (HELLO -> WELCOME) and
#: ``design.fingerprint_s`` (server-side) per server setup,
#: ``service.recover_s`` and ``journal.replay_s`` per restart, and
#: ``protocols.*`` / ``codec.encode_s`` per 65,536-record party sample.
#: ``client.*`` is time spent in the caller's ingest calls and queries.
#: Offline has no network, so ``net.*`` reads 0 there.
LAYERS = {
    "protocols.randomize_rps": "reports/s",
    "protocols.randomize_s": "s",
    "codec.encode_s": "s",
    "codec.decode_many_s": "s",
    "codec.bytes_per_report": "B",
    "journal.append_many_s": "s",
    "journal.commits": "count",
    "journal.fsyncs": "count",
    "journal.fsync_s": "s",
    "journal.bytes_per_report": "B",
    "journal.replay_s": "s",
    "pipeline.flush_s": "s",
    "service.commit_s": "s",
    "service.open_s": "s",
    "service.checkpoint_s": "s",
    "service.recover_s": "s",
    "design.fingerprint_s": "s",
    "query.compute_s": "s",
    "query.cache_hit_ratio": "ratio",
    "client.ingest_s": "s",
    "client.query_s": "s",
    "net.acks_per_frame": "ratio",
    "net.backpressure.stalls": "count",
    "round.wall_s": "s",
    "unattributed_s": "s",
    "attributed_share": "ratio",
    "tracing.overhead_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny sizes (smoke test)"
    )
    return parser.parse_args(argv)


def self_time_report(workload: str, layers: dict) -> tuple:
    """Print the self-time table and findings; returns (unattributed, share)."""
    wall = layers["wall"]
    self_times = {
        name[len("self:"):]: seconds
        for name, seconds in layers.items()
        if name.startswith("self:")
    }
    attributed = sum(self_times.values())
    unattributed = wall - attributed
    print(f"[{workload}] per-layer self time per round (traced wall {wall:.4f} s)")
    for name, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<12} {seconds:10.4f} s  {seconds / wall:6.1%}")
    print(f"  {'unattributed':<12} {unattributed:10.4f} s  {unattributed / wall:6.1%}")
    print(f"  tracing overhead {layers['tracing.overhead_s']:+.4f} s per round")
    for name, seconds in sorted(self_times.items(), key=lambda kv: -kv[1])[:3]:
        print(
            f"finding {workload}: {name} {seconds * 1e3:.1f} ms/round "
            f"({seconds / wall:.0%} of wall); {layer_detail(name, layers)}"
        )
    return unattributed, attributed / wall


def layer_detail(name: str, layers: dict) -> str:
    commits = layers["journal.commits"]
    fsyncs = layers["journal.fsyncs"]
    if name in ("journal", "fsync"):
        fsync_s = layers["journal.fsync_s"]
        return (
            f"{commits:.0f} commits, {fsyncs:.0f} fsyncs × "
            f"{fsync_s / max(1.0, fsyncs) * 1e3:.2f} ms"
        )
    if name == "design":
        return (
            f"matrix_fingerprint {layers['design.fingerprint_s']:.3f} s; "
            f"service.open_s {layers['service.open_s']:.3f} s"
        )
    if name == "service":
        return (
            f"commit windows {layers['service.commit_s'] * 1e3:.1f} ms, "
            f"checkpoints {layers['service.checkpoint_s'] * 1e3:.1f} ms; "
            f"acks/frame = {layers['net.acks_per_frame']:.2f}"
        )
    if name == "query":
        return (
            f"cache hit ratio {layers['query.cache_hit_ratio']:.2f}; callers "
            f"wait {layers['client.query_s'] * 1e3:.1f} ms for "
            f"{layers['query.compute_s'] * 1e3:.1f} ms of query.compute"
        )
    if name == "codec":
        return f"{layers['codec.bytes_per_report']:.2f} B/report on the wire"
    if name == "protocols":
        split = ", ".join(
            f"{p} {layers[f'randomize_s.{p}']:.3f} s"
            for p in ("independent", "joint", "clusters")
        )
        return f"randomize {split}"
    if name == "pipeline":
        return f"flush {layers['pipeline.flush_s'] * 1e3:.1f} ms"
    return ""


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "repro").is_dir():
        print(
            f"error: no src/repro next to {HERE.name}/; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE))

    from common import STATE_ROOT, Ledger, host_block

    run_root = STATE_ROOT / f"run-{os.getpid()}"
    run_root.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        host = host_block(run_root)
        print("host " + json.dumps(host, sort_keys=True))
        if args.workload == "offline-lifecycle":
            import offline as workload
        else:
            import net as workload
        result = workload.run(args, ledger, run_root)
    finally:
        shutil.rmtree(run_root, ignore_errors=True)

    info = result["info"]
    if args.trace:
        layers = result["layers"]
        unattributed, share = self_time_report(args.workload, layers)
        if "setups_s" in info:
            setup = sorted(info["setups_s"])[len(info["setups_s"]) // 2]
            fingerprint = layers["design.fingerprint_s"]
            print(
                f"setup {args.workload}: spawn -> WELCOME {setup:.3f} s, of "
                f"which server-side fingerprints {fingerprint:.3f} s "
                f"({fingerprint / setup:.0%}); server peak RSS "
                f"{max(info['server_rss_mb']):.0f} MB"
            )
            recovery = sorted(info["recoveries_s"])[len(info["recoveries_s"]) // 2]
            print(
                f"recovery {args.workload}: respawn -> WELCOME {recovery:.3f} s, "
                f"of which service.recover {layers['service.recover_s']:.3f} s "
                f"(journal replay {layers['journal.replay_s']:.3f} s)"
            )
        if args.workload == "offline-lifecycle" and not args.quick:
            ledger.check(
                share >= 0.9,
                f"layer self times cover {share:.1%} of the traced wall, < 90%",
            )
        values = dict(layers)
        values["round.wall_s"] = layers["wall"]
        values["unattributed_s"] = unattributed
        values["attributed_share"] = share
        units = LAYERS
    else:
        values = result["e2e"]
        units = E2E
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    if not args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<16} {metric['value']:14.4f} {metric['unit']}")
    info["failed_ops_ratio"] = ledger.ratio
    print(f"[{args.workload}] " + json.dumps(info, sort_keys=True))
    for failure in ledger.failures:
        print(f"FAILED: {failure}")

    document = {
        "host": host,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "info": info,
        "metrics": metrics,
        "failures": ledger.failures,
    }
    results = STATE_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
