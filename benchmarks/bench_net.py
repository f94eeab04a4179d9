"""Network front-end benchmarks: loopback throughput, ack latency,
pipelining payoff, and backpressure engagement.

What the asyncio collector server costs and guarantees on one box:

* **identity** — estimates served over the wire (multi-client ingest,
  windowed pipelining) are byte-identical to a single offline
  ``CollectorService`` run over the same frames. Re-asserted on the
  benchmark workload before timing anything.
* **ingest** — sustained loopback reports/sec at the default window
  versus ``window=1`` (one ack round-trip per frame). The gap is the
  pipelining payoff; ``window=1`` seconds-per-frame is the ack
  latency floor.
* **backpressure** — the same stream against a server whose per-tenant
  in-flight budget is two frames: the reader must stall (engagement
  counted by the server's own metric) and the result must still be
  byte-identical — backpressure slows, never corrupts.

Run:    PYTHONPATH=src python benchmarks/bench_net.py --out BENCH_10.json
Check:  PYTHONPATH=src python benchmarks/bench_net.py --check --quick

``--check`` always asserts identity and backpressure engagement
(deterministic); the pipelined-vs-window-1 speedup is asserted
relative-only (>= 1.5x) — absolute rps is host noise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.data.adult import synthesize_adult
from repro.protocols.independent import RRIndependent
from repro.service.codec import ReportCodec
from repro.service.net import CollectorClient, ThreadedCollectorServer
from repro.service.pipeline import CollectorService


def make_frames(protocol, n, frame_records):
    released = protocol.randomize(
        synthesize_adult(n=n, rng=42), rng=0, chunk_size=65_536
    )
    codec = ReportCodec(protocol.schema)
    return [
        codec.encode(released.codes[start : start + frame_records])
        for start in range(0, released.n_records, frame_records)
    ]


def marginal_bytes(frontend, names):
    return {name: frontend.marginal(name).tobytes() for name in names}


def offline_marginals(protocol, frames, state):
    service = CollectorService.for_protocol(protocol, state)
    try:
        service.ingest_many(frames)
        return marginal_bytes(
            service.queries, protocol.collection.member_names
        )
    finally:
        service.close()


def network_ingest(root, protocol, frames, *, window, n_clients=1,
                   budget_bytes=None, tag="run"):
    """Ship ``frames`` over loopback; returns (seconds, marginals, health)."""
    design = protocol.to_design()
    kwargs = {}
    if budget_bytes is not None:
        kwargs["budget_bytes"] = budget_bytes
    with ThreadedCollectorServer(
        Path(root) / tag, {"acme": (protocol, design)}, **kwargs
    ) as server:
        address = (server.server.host, server.server.port)
        start = time.perf_counter()
        if n_clients == 1:
            with CollectorClient(
                address, tenant="acme", client="p0", design=design,
                window=window,
            ) as client:
                client.ingest(frames)
        else:
            import threading

            def ship(i):
                with CollectorClient(
                    address, tenant="acme", client=f"p{i}", design=design,
                    window=window,
                ) as client:
                    client.ingest(frames[i::n_clients])

            threads = [
                threading.Thread(target=ship, args=(i,))
                for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        elapsed = time.perf_counter() - start
        with CollectorClient(
            address, tenant="acme", client="reader", design=design
        ) as reader:
            import numpy as np

            remote = {
                name: np.asarray(reader.query_marginal(name)).tobytes()
                for name in protocol.collection.member_names
            }
        health = server.health()
    return elapsed, remote, health


def bench_identity(root, protocol, frames):
    expected = offline_marginals(protocol, frames, Path(root) / "offline")
    _, remote, _ = network_ingest(
        root, protocol, frames, window=64, n_clients=3, tag="identity"
    )
    return {
        "n_frames": len(frames),
        "n_clients": 3,
        "network_equals_offline": remote == expected,
    }


def bench_ingest(root, protocol, frames, n_records):
    pipelined_s, _, _ = network_ingest(
        root, protocol, frames, window=64, tag="pipelined"
    )
    serial_s, _, _ = network_ingest(
        root, protocol, frames, window=1, tag="serial"
    )
    return {
        "n_reports": n_records,
        "n_frames": len(frames),
        "pipelined_rps": n_records / pipelined_s,
        "window_1_rps": n_records / serial_s,
        "ack_latency_s": serial_s / len(frames),
        "pipelining_speedup": serial_s / pipelined_s,
    }


def bench_backpressure(root, protocol, frames):
    budget = 2 * len(frames[0])
    _, remote, health = network_ingest(
        root, protocol, frames, window=64,
        budget_bytes=budget, tag="backpressure",
    )
    expected = offline_marginals(protocol, frames, Path(root) / "bp-offline")
    return {
        "budget_bytes": budget,
        "stalls": int(health["server"]["backpressure_stalls"]),
        "network_equals_offline": remote == expected,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="assert identity, backpressure engagement, and the "
        "pipelining speedup (relative-only)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller workloads (CI smoke)"
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="write the results JSON here (e.g. BENCH_10.json)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        n, frame_records = 20_000, 64
    else:
        n, frame_records = 100_000, 64

    protocol = RRIndependent(synthesize_adult(n=2, rng=0).schema, p=0.7)
    frames = make_frames(protocol, n, frame_records)

    root = tempfile.mkdtemp(prefix="bench-net-")
    try:
        results = {
            "bench": "net",
            "quick": args.quick,
            "identity": bench_identity(root, protocol, frames),
            "ingest": bench_ingest(root, protocol, frames, n),
            "backpressure": bench_backpressure(root, protocol, frames),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)

    ingest = results["ingest"]
    for key in ("pipelined_rps", "window_1_rps"):
        ingest[key] = round(ingest[key])
    ingest["ack_latency_s"] = round(ingest["ack_latency_s"], 6)
    ingest["pipelining_speedup"] = round(ingest["pipelining_speedup"], 2)

    identity = results["identity"]
    backpressure = results["backpressure"]
    print(
        f"identity      network ({identity['n_clients']} clients) == "
        f"offline: {identity['network_equals_offline']}  "
        f"[{identity['n_frames']} frames]\n"
        f"ingest        pipelined {ingest['pipelined_rps']:>11,} rps   "
        f"window=1 {ingest['window_1_rps']:>11,} rps "
        f"({ingest['pipelining_speedup']:.2f}x, "
        f"ack latency {ingest['ack_latency_s'] * 1e3:.3f} ms)\n"
        f"backpressure  {backpressure['stalls']} stalls under a "
        f"{backpressure['budget_bytes']}-byte budget, identity "
        f"{backpressure['network_equals_offline']}"
    )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")

    if args.check:
        failures = []
        if not identity["network_equals_offline"]:
            failures.append(
                "multi-client network estimates diverge from offline"
            )
        if not backpressure["network_equals_offline"]:
            failures.append("backpressured estimates diverge from offline")
        if backpressure["stalls"] < 1:
            failures.append(
                "backpressure never engaged under a two-frame budget"
            )
        if ingest["pipelining_speedup"] < 1.5:
            failures.append(
                f"pipelining speedup {ingest['pipelining_speedup']:.2f}x "
                "< 1.5x over window=1"
            )
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
