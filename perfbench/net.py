"""``net-mixed``: the lifecycle over loopback TCP.

The collector server runs in its own process: ``serve.py`` runs the
public ``repro-anonymize serve`` command, with ``--checkpoint-every``
one round's frames, after installing a counting ``IOPlane`` and a
``matrix_fingerprint`` timer. The load comes from this process.

RR-Joint over 6,720 cells. One party connection uploads 4-frame
batches of 64-record frames and an analyst connection asks one
marginal or pair query after each batch, single-threaded, so every
query follows a write. One round = ``CYCLES_PER_ROUND`` such cycles.
Party frames are randomized and encoded before any timer starts.

Setup is timed from spawning a server on a fresh root until the party
stream's WELCOME (tenant open included), several times. On the last
server an *archive* stream then uploads ``CHECKPOINT_EVERY`` party
frames, which the server checkpoints, and a tail of ``ARCHIVE_TAIL``
large frames. The load then runs over ``EPOCHS`` server lifetimes,
each ended by SIGKILL after the last acked batch. The time from the
respawn until the archive stream's WELCOME — its checkpoint loaded
and its log tail replayed — is one recovery sample. Every restarted stream's durable
index must equal the frames it sent, and the served marginals, before
the last kill and after the last restart, must equal an offline
``CollectorService`` ingest of the same frames byte for byte.

With tracing on, rounds alternate untraced / traced. A traced round
reads the server's span histograms and counters
(``CollectorClient.health()``) and its plane and fingerprint totals
(``ServerProcess.probe()``) before and after it, and is followed by one
party-side randomize + encode sample. Each setup reads the server's
fingerprint time, and each restart the archive stream's recovery spans.
"""

from __future__ import annotations

import signal
import time
from collections import Counter

import numpy as np

from repro.data.adult import synthesize_adult
from repro.data.dataset import Dataset
from repro.protocols.joint import RRJoint
from repro.service.codec import ReportCodec
from repro.service.net import CollectorClient
from repro.service.pipeline import CollectorService

from common import (
    JOINT_NAMES,
    KEEP_P,
    QUICK_JOINT_NAMES,
    ServerProcess,
    delta,
    fast_side,
    median,
    percentile,
    span_calls,
    span_s,
    span_totals,
    vmhwm_mb,
)
from offline import CHUNK_SIZE, query_mix

TENANT = "bench"
PARTY, ARCHIVE, ANALYST = "p0", "archive", "analyst"
FRAME_RECORDS = 64
WINDOW = 64
BATCH_FRAMES = 4
CYCLES_PER_ROUND = 32
#: The server checkpoints each stream every this many frames: once a
#: round for the party stream.
CHECKPOINT_EVERY = CYCLES_PER_ROUND * BATCH_FRAMES
#: Frames of the archive stream past its checkpoint, which every
#: restart replays, and their records: 12.6M reports in all, cycled
#: from a few distinct frames.
ARCHIVE_TAIL = 96
TAIL_RECORDS = 131_072
#: Records per party-side randomize + encode sample (traced runs).
RANDOMIZE_RECORDS = 65_536
#: Queries per block of the query_p99_ms figure: at least ten beyond p99.
P99_BLOCK = 1_024
#: The load runs in this many server lifetimes; each respawn after a
#: kill is one recovery sample.
EPOCHS = 5


def party_frames(protocol, sample, records: int, rng: int):
    """Seeded party-side frames, randomized and encoded before any timer."""
    codec = ReportCodec(protocol.schema)
    codes = protocol.randomize(sample, rng=rng, chunk_size=CHUNK_SIZE).codes
    return [
        codec.encode(codes[i : i + records]) for i in range(0, len(codes), records)
    ]


def randomize_sample(protocol, part, rng: int) -> dict:
    """Party-side randomize, then encode, of one slice, timed apart."""
    codec = ReportCodec(protocol.schema)
    start = time.perf_counter()
    codes = protocol.randomize(part, rng=rng, chunk_size=CHUNK_SIZE).codes
    randomized = time.perf_counter()
    for i in range(0, len(codes), FRAME_RECORDS):
        codec.encode(codes[i : i + FRAME_RECORDS])
    return {
        "randomize_s": randomized - start,
        "encode_s": time.perf_counter() - randomized,
        "records": len(codes),
    }


def ask(client, query):
    if query[0] == "marginal":
        return client.query_marginal(query[1])
    return client.query_pair(query[1], query[2])


class Deployment:
    """The server under test on one root plus the benchmark's clients."""

    def __init__(self, root, design_path, design):
        self.root = root
        self.design = design
        self.design_path = design_path
        self.server = None
        self.clients = []

    def connect(self, stream: str) -> CollectorClient:
        client = CollectorClient(
            self.server.address,
            tenant=TENANT,
            client=stream,
            design=self.design,
            window=WINDOW,
        )
        client.connect()
        self.clients.append(client)
        return client

    def start(self, first_stream: str):
        """Spawn the server; returns (client, spawn→WELCOME s, HELLO→WELCOME s)."""
        start = time.perf_counter()
        self.server = ServerProcess(
            self.root,
            TENANT,
            self.design_path,
            "--checkpoint-every",
            str(CHECKPOINT_EVERY),
        )
        listening = time.perf_counter()
        client = self.connect(first_stream)
        welcome = time.perf_counter()
        return client, welcome - start, welcome - listening

    def stop(self, signum=signal.SIGTERM) -> None:
        """Close the clients, then SIGTERM (drain) or SIGKILL the server."""
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop(signum)
            self.server = None


class Load:
    """The closed-loop party and analyst, and what the party sent."""

    def __init__(self, batches, mix, ledger):
        self.batches = batches
        self.mix = mix
        self.ledger = ledger
        self.sent = 0  # batches acked; batch k is batches[k % len(batches)]
        self.asked = 0

    def round(self, party, analyst) -> dict:
        """One round; ``window`` runs from the first frame to the last ack."""
        ack, query = [], []
        start = time.perf_counter()
        for _ in range(CYCLES_PER_ROUND):
            batch = self.batches[self.sent % len(self.batches)]
            sent = time.perf_counter()
            self.ledger.op(lambda: party.ingest(batch), f"{PARTY} ingest")
            last_ack = time.perf_counter()
            ack.append(last_ack - sent)
            self.sent += 1
            q = self.mix[self.asked % len(self.mix)]
            self.asked += 1
            self.ledger.op(lambda: ask(analyst, q), f"{q[0]} query")
            query.append(time.perf_counter() - last_ack)
        return {
            "ack": ack,
            "query": query,
            "window": last_ack - start,
            "wall": time.perf_counter() - start,
            "reports": CYCLES_PER_ROUND * BATCH_FRAMES * FRAME_RECORDS,
        }

    def sent_frames(self) -> list:
        return [
            frame
            for k in range(self.sent)
            for frame in self.batches[k % len(self.batches)]
        ]


def server_state(analyst, server) -> tuple:
    return span_totals(analyst.health()["metrics"]), server.probe()


def server_layers(before: tuple, after: tuple) -> dict:
    """One traced round's server-side figures from health and probe deltas."""
    d = delta(after[0], before[0])
    counters = d["counters"]
    return {
        "commit": span_s(d, "service.commit_window"),
        "decode": span_s(d, "codec.decode_many"),
        "append": span_s(d, "journal.append_many"),
        "commits": span_calls(d, "journal.append_many"),
        "checkpoint": span_s(d, "service.checkpoint"),
        "flush": span_s(d, "pipeline.flush"),
        "compute": span_s(d, "query.compute"),
        "fsyncs": after[1]["fsyncs"] - before[1]["fsyncs"],
        "fsync_s": after[1]["fsync_s"] - before[1]["fsync_s"],
        "bytes": counters.get("journal.append.bytes", 0),
        "records": counters.get("service.ingest.records", 0),
        "hits": counters.get("query.cache.hits", 0),
        "misses": counters.get("query.cache.misses", 0),
        "acks": counters.get("net.acks.sent", 0),
        "frames": counters.get("net.frames.received", 0),
        "stalls": counters.get("net.backpressure.stalls", 0),
    }


def recovery_layers(archive, server) -> dict:
    """Spans of a fresh server that has opened only the archive stream."""
    t = span_totals(archive.health()["metrics"])
    recover = span_s(t, "service.recover")
    return {
        "recover": recover,
        "replay": recover
        - span_s(t, "codec.decode_many")
        - span_s(t, "pipeline.flush"),
        "replayed_frames": t["counters"].get("journal.replay.frames", 0),
        "fingerprint": server.probe()["fingerprint_s"],
    }


def offline_marginals(protocol, frames, state) -> dict:
    """Estimates of one offline CollectorService over ``frames``."""
    service = CollectorService.for_protocol(protocol, state)
    try:
        service.ingest_many(frames)
        frontend = service.queries
        return {
            name: frontend.marginal(name).tobytes()
            for name in protocol.collection.member_names
        }
    finally:
        service.close()


def same_estimates(remote, expected: dict) -> bool:
    return remote is not None and set(remote) == set(expected) and all(
        np.asarray(remote[name], dtype=float).tobytes() == expected[name]
        for name in expected
    )


def run(args, ledger, root) -> dict:
    quick = args.quick
    schema = synthesize_adult(n=2, rng=0).schema
    protocol = RRJoint(
        schema, names=QUICK_JOINT_NAMES if quick else JOINT_NAMES, p=KEEP_P
    )
    sample = synthesize_adult(n=8_192 if quick else 262_144, rng=args.seed)
    frames = party_frames(protocol, sample, FRAME_RECORDS, rng=0)
    batches = [
        frames[i : i + BATCH_FRAMES] for i in range(0, len(frames), BATCH_FRAMES)
    ]
    tail_records = 4_096 if quick else TAIL_RECORDS
    distinct = [
        frame
        for rng in range(1, 5)
        for frame in party_frames(protocol, sample, tail_records, rng=rng)
    ]
    archive = frames[:CHECKPOINT_EVERY] + [
        distinct[i % len(distinct)] for i in range(ARCHIVE_TAIL)
    ]
    part_records = 4_096 if quick else RANDOMIZE_RECORDS
    parts = [
        Dataset(sample.schema, sample.codes[i : i + part_records])
        for i in range(0, sample.n_records, part_records)
    ]
    mix = query_mix(
        np.random.default_rng(args.seed), protocol, kinds=("marginal", "pair")
    )
    load = Load(batches, mix, ledger)
    design = protocol.to_design()
    design_path = root / "design.json"
    root.mkdir(parents=True, exist_ok=True)
    design.write(design_path)
    design.fingerprint()  # cached on the document the clients share

    setups, handshakes, setup_fingerprints = [], [], []
    rounds, recoveries, restarts, rss = [], [], [], []
    served = recovered = None
    epochs = 2 if quick else EPOCHS
    min_rounds = 2 if args.trace else 1
    deployment = None
    try:
        # -- setup: spawn -> first WELCOME on a fresh root, several times
        for i in range(1 if quick else 3):
            if deployment is not None:
                deployment.stop()
            deployment = Deployment(root / f"server{i}", design_path, design)
            party, seconds, handshake = deployment.start(PARTY)
            setups.append(seconds)
            handshakes.append(handshake)
            if args.trace:
                setup_fingerprints.append(deployment.server.probe()["fingerprint_s"])

        # -- the archive: a checkpoint plus a fixed log tail to replay --
        archiver = deployment.connect(ARCHIVE)
        for part in (archive[:CHECKPOINT_EVERY], archive[CHECKPOINT_EVERY:]):
            ledger.op(lambda: archiver.ingest(part), f"{ARCHIVE} ingest")

        # -- load, over several server lifetimes, each ended by SIGKILL --
        for epoch in range(epochs + 1):
            if epoch:
                archiver, seconds, _ = deployment.start(ARCHIVE)
                recoveries.append(seconds)
                if args.trace:
                    restarts.append(recovery_layers(archiver, deployment.server))
                ledger.check(
                    archiver.durable == len(archive),
                    f"restarted {ARCHIVE} durable index {archiver.durable} "
                    f"!= {len(archive)} frames sent",
                )
                party = deployment.connect(PARTY)
                expected = load.sent * BATCH_FRAMES
                ledger.check(
                    party.durable == expected,
                    f"restarted {PARTY} durable index {party.durable} "
                    f"!= {expected} frames sent",
                )
            analyst = deployment.connect(ANALYST)
            if epoch == epochs:
                recovered = ledger.op(analyst.query_marginals, "marginals query")
                break
            spent, epoch_rounds = 0.0, 0
            while epoch_rounds < min_rounds or spent < args.seconds / epochs:
                started = time.perf_counter()
                traced = bool(args.trace) and len(rounds) % 2 == 1
                before = server_state(analyst, deployment.server) if traced else None
                result = load.round(party, analyst)
                result["traced"] = traced
                if traced:
                    after = server_state(analyst, deployment.server)
                    result["server"] = server_layers(before, after)
                    result.update(
                        randomize_sample(
                            protocol,
                            parts[len(rounds) % len(parts)],
                            args.seed * 1_000 + len(rounds),
                        )
                    )
                rounds.append(result)
                epoch_rounds += 1
                spent += time.perf_counter() - started
            if epoch == epochs - 1:
                served = ledger.op(analyst.query_marginals, "marginals query")
            rss.append(vmhwm_mb(deployment.server.pid))
            deployment.stop(signal.SIGKILL)
    finally:
        if deployment is not None:
            deployment.stop()

    # -- correctness: network == offline ingest of the same frames ------
    sent_frames = load.sent_frames()
    expected = offline_marginals(protocol, archive + sent_frames, root / "offline")
    ledger.check(
        same_estimates(served, expected),
        "network estimates differ from offline ingest of the same frames",
    )
    ledger.check(
        same_estimates(recovered, expected),
        "estimates after restart differ from offline ingest",
    )

    untraced = [r for r in rounds if not r["traced"]]
    ack = [t for r in untraced for t in r["ack"]]
    queries = [t for r in untraced for t in r["query"]]
    e2e = {
        "reports_per_s": fast_side(
            [r["reports"] / r["window"] for r in untraced], 0.1, True
        ),
        "query_p50_ms": fast_side(
            [percentile(r["query"], 50) for r in untraced], 0.1
        )
        * 1e3,
        # p99 of each block of P99_BLOCK queries in order, so that a
        # slow spell of the host inflates only the blocks it covers.
        "query_p99_ms": fast_side(
            [
                percentile(queries[i : i + P99_BLOCK], 99)
                for i in range(0, max(1, len(queries) - P99_BLOCK + 1), P99_BLOCK)
            ],
            0.25,
        )
        * 1e3,
        "setup_s": fast_side(setups, 0.25),
        "recovery_s": fast_side(recoveries, 0.25),
        "server_rss_mb": max(rss),
    }
    info = {
        "rounds": len(rounds),
        "joint_cells": protocol.domain.size,
        "frames_sent": len(sent_frames),
        "archive_frames": len(archive),
        "archive_tail_records": ARCHIVE_TAIL * tail_records,
        "ack_p50_ms": percentile(ack, 50) * 1e3,
        "ack_p99_ms": percentile(ack, 99) * 1e3,
        "ack_samples": len(ack),
        "query_samples": len(queries),
        "setups_s": setups,
        "recoveries_s": recoveries,
        "server_rss_mb": rss,
    }
    layers = None
    if args.trace:
        info["setup_fingerprints_s"] = setup_fingerprints
        info["restarts"] = restarts
        layers = layer_metrics(
            rounds, frames, handshakes, setup_fingerprints, restarts
        )
    return {"e2e": e2e, "layers": layers, "info": info}


def layer_metrics(rounds, frames, handshakes, setup_fingerprints, restarts):
    """Per traced round, except open/fingerprint (per setup) and
    recover/replay (per restart)."""
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    sums = Counter()
    for r in traced:
        for name, value in r["server"].items():
            sums[name] += value
        for name in ("randomize_s", "encode_s", "wall"):  # the sample is outside wall
            sums[name] += r[name]
        sums["ingest"] += sum(r["ack"])
        sums["query"] += sum(r["query"])
    mean = {name: value / len(traced) for name, value in sums.items()}
    out = {
        "protocols.randomize_rps": fast_side(
            [r["records"] / (r["randomize_s"] + r["encode_s"]) for r in traced],
            0.25,
            True,
        ),
        "protocols.randomize_s": mean["randomize_s"],
        "codec.encode_s": mean["encode_s"],
        "codec.decode_many_s": mean["decode"],
        "codec.bytes_per_report": sum(len(f) for f in frames)
        / (len(frames) * FRAME_RECORDS),
        "journal.append_many_s": mean["append"],
        "journal.commits": mean["commits"],
        "journal.fsyncs": mean["fsyncs"],
        "journal.fsync_s": mean["fsync_s"],
        "journal.bytes_per_report": sums["bytes"] / max(1, sums["records"]),
        "journal.replay_s": median([r["replay"] for r in restarts]),
        "pipeline.flush_s": mean["flush"],
        "service.commit_s": mean["commit"],
        "service.open_s": median(handshakes),
        "service.checkpoint_s": mean["checkpoint"],
        "service.recover_s": median([r["recover"] for r in restarts]),
        "design.fingerprint_s": median(setup_fingerprints),
        "query.compute_s": mean["compute"],
        "query.cache_hit_ratio": sums["hits"] / max(1, sums["hits"] + sums["misses"]),
        "client.ingest_s": mean["ingest"],
        "client.query_s": mean["query"],
        "net.acks_per_frame": sums["acks"] / max(1, sums["frames"]),
        "net.backpressure.stalls": mean["stalls"],
        "wall": mean["wall"],
        "tracing.overhead_s": median([r["wall"] for r in traced])
        - median([r["wall"] for r in untraced]),
    }
    # Server self times. Every query flushes the streams it merges, so
    # pipeline.flush runs on the query path and a commit window holds
    # none; each checkpoint runs inside the commit window of the frame
    # that reached CHECKPOINT_EVERY; every fsync is inside an append or
    # a checkpoint.
    out.update(
        {
            "self:codec": mean["decode"],
            "self:journal": mean["append"] + mean["checkpoint"] - mean["fsync_s"],
            "self:fsync": mean["fsync_s"],
            "self:pipeline": mean["flush"],
            "self:service": mean["commit"]
            - mean["decode"]
            - mean["append"]
            - mean["checkpoint"],
            "self:query": mean["compute"],
        }
    )
    return out
