"""The network collector, end to end on loopback.

The paper's deployment story (§7): many parties randomize locally and
ship reports to an untrusted-with-the-truth collector, who can only
ever aggregate. This walks the wire version of that loop:

1. start a multi-tenant :class:`ThreadedCollectorServer`;
2. three parties ingest concurrently over TCP, acks carrying the
   durable frame index;
3. one party's connection dies mid-stream (an injected socket fault) —
   its client reconnects and resends exactly from the durable index;
4. estimates are queried over the wire and shown byte-identical to a
   single offline ingest of the same frames;
5. the server's health document and Prometheus text are fetched;
6. SIGTERM-style drain: every tenant stream checkpoints, the state
   root is inspectable offline.

Run:  PYTHONPATH=src python examples/network_collector.py
"""

import tempfile
import threading
from pathlib import Path

import numpy as np

import repro
from repro.faults.net import SocketFaultPlan, SocketFaultRule
from repro.service.codec import ReportCodec
from repro.service.health import storage_health
from repro.service.journal import RetryPolicy
from repro.service.net import CollectorClient, ThreadedCollectorServer
from repro.service.pipeline import CollectorService


def main() -> None:
    data = repro.synthesize_adult(n=6_000, rng=7)
    protocol = repro.RRIndependent(data.schema, p=0.7)
    design = protocol.to_design()

    # Parties randomize locally; only wire frames leave the machine.
    released = protocol.randomize(data, rng=0)
    codec = ReportCodec(protocol.schema)
    frames = [
        codec.encode(released.codes[start : start + 100])
        for start in range(0, released.n_records, 100)
    ]
    print(f"{released.n_records} records -> {len(frames)} wire frames")

    root = Path(tempfile.mkdtemp(prefix="net-collector-"))
    with ThreadedCollectorServer(
        root, {"survey": (protocol, design)}
    ) as server:
        address = (server.server.host, server.server.port)
        print(f"server listening on {address[0]}:{address[1]}")

        # Party 1's socket dies mid-frame on its 5th send; the client
        # reconnects under its retry policy and resends exactly from
        # the durable index in the reconnect WELCOME.
        plans = {
            0: SocketFaultPlan(
                rules=[SocketFaultRule(op="send", nth=5, torn_bytes=9)]
            )
        }

        def ship(party: int) -> None:
            with CollectorClient(
                address,
                tenant="survey",
                client=f"party-{party}",
                design=design,
                retry=RetryPolicy(attempts=5, backoff_seconds=0.01),
                faults=plans.get(party),
            ) as client:
                durable = client.ingest(frames[party::3])
                print(f"  party-{party}: {durable} frames durable")

        threads = [
            threading.Thread(target=ship, args=(party,)) for party in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        fired = plans[0].fired_log
        print(f"party-0 socket faults fired: {len(fired)} (reconnected)")

        # Query over the wire...
        with CollectorClient(
            address, tenant="survey", client="analyst", design=design
        ) as analyst:
            remote = np.asarray(analyst.query_marginal("education"))
            health = analyst.health()
            prometheus = analyst.metrics_text()

        print(
            f"server health: {health['server']['connections']} live "
            f"connections, {health['server']['backpressure_stalls']} "
            f"backpressure stalls, "
            f"{health['tenants']['survey']['frames_applied']} frames applied"
        )
        print(f"prometheus exposition: {len(prometheus.splitlines())} lines")

        # ...and verify byte-identity against one offline ingest.
        offline = CollectorService.for_protocol(protocol, root / "offline")
        try:
            offline.ingest_many(frames)
            expected = offline.queries.marginal("education")
        finally:
            offline.close()
        assert np.array_equal(remote, expected)
        print("network estimates byte-identical to offline ingest: True")

    # Context exit drained: every stream checkpointed. Inspect offline.
    document = storage_health(root)
    streams = document["tenants"]["survey"]["clients"]
    print(
        f"after drain: {len(streams)} client streams on disk, "
        f"checkpoints present: "
        f"{all(s['checkpoint']['present'] for s in streams.values())}"
    )


if __name__ == "__main__":
    main()
