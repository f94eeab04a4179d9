"""``offline-lifecycle``: the whole report lifecycle in one process.

One *round* runs, for RR-Independent, RR-Joint and RR-Clusters in turn,
on the same seeded synthetic Adult sample:

    randomize (chunked engine) -> encode 1024-record frames
    -> CollectorService.for_protocol on a fresh state directory
    -> ingest_many(first half) -> checkpoint -> ingest_many(rest)
    -> seeded query mix (marginal, pair, 2-attribute set_frequency,
       each asked several times, so repeats hit the cache)
    -> close -> reopen (checkpoint + replayed log tail) -> the mix again

Rounds repeat until ``--seconds`` is spent. After each round, outside
its timer, the reopened counts are compared with the counts before
close and every served marginal with ``protocol.make_estimator()`` over
the released records.

``server_rss_mb`` is the collector's own memory: the peak RSS of the
collector phase (open through the query mix) above the RSS at its
start, which already holds the sample, the released records and the
encoded frames. The peak is reset before each protocol's open.

With tracing on, rounds alternate untraced / traced. A traced round
passes an enabled ``MetricsRegistry`` to the services, installs a
counting ``IOPlane`` and times ``matrix_fingerprint``; every public
call is wrapped in a benchmark-side timer and the registry's span
deltas split each call into the layers below it.
"""

from __future__ import annotations

import itertools
import shutil
import time
from collections import defaultdict

import numpy as np

from repro.data.adult import ADULT_N_RECORDS, synthesize_adult
from repro.faults import set_plane
from repro.obs.registry import MetricsRegistry
from repro.protocols.clusters import RRClusters
from repro.protocols.independent import RRIndependent
from repro.protocols.joint import RRJoint
from repro.service.codec import ReportCodec
from repro.service.pipeline import CollectorService

from common import (
    JOINT_NAMES,
    KEEP_P,
    QUICK_JOINT_NAMES,
    FingerprintTimer,
    TimingPlane,
    delta,
    fast_side,
    median,
    percentile,
    reset_peak_rss,
    span_totals,
    vmhwm_mb,
)

FRAME_RECORDS = 1024
CHUNK_SIZE = 65_536
QUERY_REPEATS = 4
#: Cells of a set-frequency query; every attribute has >= 2 categories.
SET_CELLS = np.array([[0, 0], [1, 1], [0, 1]])


def build_protocols(quick: bool) -> dict:
    """The three protocols; RR-Clusters is designed on a fixed sample."""
    reference = synthesize_adult(n=4_000 if quick else ADULT_N_RECORDS, rng=0)
    schema = reference.schema
    return {
        "independent": RRIndependent(schema, p=KEEP_P),
        "joint": RRJoint(
            schema, names=QUICK_JOINT_NAMES if quick else JOINT_NAMES, p=KEEP_P
        ),
        "clusters": RRClusters.design(
            reference, p=KEEP_P, max_cells=1000, min_dependence=0.1
        ),
    }


def query_mix(rng, protocol, kinds=("marginal", "pair", "set")):
    """Every marginal, and a pair and a set query per attribute pair.

    The distinct queries are fixed by the protocol, so every seed asks
    the same amount of work; the seed only orders the repeats.
    """
    names = protocol.collection.member_names
    distinct = []
    if "marginal" in kinds:
        distinct.extend(("marginal", a) for a in names)
    for a, b in itertools.combinations(names, 2):
        if "pair" in kinds:
            distinct.append(("pair", a, b))
        if "set" in kinds:
            distinct.append(("set", (a, b), SET_CELLS))
    mix = distinct * QUERY_REPEATS
    return [mix[i] for i in rng.permutation(len(mix))]


def run_query(frontend, query):
    kind = query[0]
    if kind == "marginal":
        return frontend.marginal(query[1])
    if kind == "pair":
        return frontend.pair_table(query[1], query[2])
    return frontend.set_frequency(query[1], query[2])


class Phases:
    """Per-phase wall times plus, when traced, what ran inside them."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = defaultdict(float)
        self.inner = defaultdict(lambda: defaultdict(float))
        if traced:
            self.registry = MetricsRegistry()
            self.plane = TimingPlane()
            self.fingerprints = FingerprintTimer()
        else:
            self.registry = None

    def __enter__(self) -> "Phases":
        if self.traced:
            set_plane(self.plane)
            self.fingerprints.install()
        return self

    def __exit__(self, *exc) -> None:
        if self.traced:
            self.fingerprints.remove()
            set_plane(None)

    def _probe(self):
        return (
            span_totals(self.registry.snapshot()),
            self.plane.totals(),
            self.fingerprints.seconds,
        )

    def run(self, kind: str, func):
        """Time ``func()`` as phase ``kind`` and return its result."""
        before = self._probe() if self.traced else None
        start = time.perf_counter()
        result = func()
        self.wall[kind] += time.perf_counter() - start
        if self.traced:
            after = self._probe()
            spans = delta(after[0], before[0])
            inner = self.inner[kind]
            for name, (span_seconds, calls) in spans["spans"].items():
                inner[name] += span_seconds
                inner[f"{name}#calls"] += calls
            for name, value in spans["counters"].items():
                inner[f"counter:{name}"] += value
            inner["fsyncs"] += after[1][0] - before[1][0]
            inner["fsync_s"] += after[1][1] - before[1][1]
            inner["bytes"] += after[1][2] - before[1][2]
            inner["fingerprint_s"] += after[2] - before[2]
        return result


def self_times(phases: Phases) -> dict:
    """Exclusive seconds per layer, from phase walls and inner spans.

    Nesting inside the collector (see ``CollectorService``): an ingest
    call holds decode_many, journal.append_many (which holds its fsync)
    and pipeline.flush; checkpoint and close hold a flush and fsyncs; an
    open holds the fingerprints, fsyncs of fresh metadata and the
    recover span, which holds the replay's decode_many and flush.
    """
    w, inner = phases.wall, phases.inner

    def s(kind, name):
        return inner[kind][name]

    opens = ("open", "reopen")
    replay = sum(
        s(k, "service.recover") - s(k, "codec.decode_many") - s(k, "pipeline.flush")
        for k in opens
    )
    service = (
        sum(
            w[k] - s(k, "fingerprint_s") - s(k, "service.recover") - s(k, "fsync_s")
            for k in opens
        )
        + w["ingest"]
        - s("ingest", "codec.decode_many")
        - s("ingest", "journal.append_many")
        - s("ingest", "pipeline.flush")
        + sum(
            w[k] - s(k, "pipeline.flush") - s(k, "fsync_s")
            for k in ("checkpoint", "close")
        )
    )
    return {
        "protocols": sum(v for k, v in w.items() if k.startswith("randomize:")),
        "codec": w["encode"] + sum(inner[k]["codec.decode_many"] for k in inner),
        "journal": s("ingest", "journal.append_many") - s("ingest", "fsync_s") + replay,
        "fsync": sum(inner[k]["fsync_s"] for k in inner),
        "pipeline": sum(inner[k]["pipeline.flush"] for k in inner),
        "design": sum(inner[k]["fingerprint_s"] for k in inner),
        "service": service,
        "query": w["query"],
    }


def lifecycle_round(ctx, round_index: int, traced: bool, ledger) -> dict:
    """One timed lifecycle over the three protocols; checks run after."""
    sample, protocols, n = ctx["sample"], ctx["protocols"], ctx["n"]
    phases = Phases(traced)
    registry = phases.registry
    latencies = []
    services, released, before_close, per_protocol = {}, {}, {}, {}
    frame_bytes = 0

    def ask(name, service):
        """The protocol's query mix, one timed call per query."""
        frontend = service.queries
        times = []
        for query in ctx["mixes"][name]:
            start = time.perf_counter()
            ledger.op(lambda: run_query(frontend, query), f"{name} {query[0]} query")
            times.append(time.perf_counter() - start)
        return times

    with phases:
        round_start = time.perf_counter()
        for name, protocol in protocols.items():
            mark = dict(phases.wall)
            out = phases.run(
                f"randomize:{name}",
                lambda: protocol.randomize(
                    sample,
                    rng=ctx["seed"] * 1_000 + round_index,
                    chunk_size=CHUNK_SIZE,
                ),
            )
            released[name] = out
            codec = ReportCodec(protocol.schema)
            codes = out.codes
            frames = phases.run(
                "encode",
                lambda: [
                    codec.encode(codes[i : i + FRAME_RECORDS])
                    for i in range(0, n, FRAME_RECORDS)
                ],
            )
            frame_bytes += sum(len(f) for f in frames)
            state = ctx["state"] / f"round{round_index}-{name}"
            rss_base = reset_peak_rss()
            service = phases.run(
                "open",
                lambda: CollectorService.for_protocol(
                    protocol, state, metrics=registry
                ),
            )
            half = len(frames) // 2
            for kind, call in (
                ("ingest", lambda: service.ingest_many(frames[:half])),
                ("checkpoint", service.checkpoint),
                ("ingest", lambda: service.ingest_many(frames[half:])),
            ):
                ledger.op(lambda: phases.run(kind, call), f"{name} {kind}")
            before_close[name] = (
                service.frames_applied,
                {
                    k: np.asarray(v).tobytes()
                    for k, v in service.collector.merged.snapshot_counts().items()
                },
            )
            # The mix is asked before close and again after reopen, so
            # the run has two samples of it per round (see run()).
            mixes = [phases.run("query", lambda: ask(name, service))]
            phases.run("close", service.close)
            service = None  # so the closed service is not in the reopen's peak
            service = phases.run(
                "reopen",
                lambda: CollectorService.for_protocol(
                    protocol, state, metrics=registry
                ),
            )
            services[name] = service
            mixes.append(phases.run("query", lambda: ask(name, service)))
            latencies.extend(t for mix in mixes for t in mix)
            collector_mb = vmhwm_mb() - rss_base
            spent = {k: v - mark.get(k, 0.0) for k, v in phases.wall.items()}
            per_protocol[name] = {
                "party": spent[f"randomize:{name}"] + spent["encode"],
                "collect": spent["ingest"] + spent["checkpoint"],
                "setup": spent["open"],
                "recovery": spent["reopen"],
                "query_p50s": [percentile(mix, 50) for mix in mixes],
                "query_p99s": [percentile(mix, 99) for mix in mixes],
                "collector_mb": collector_mb,
            }
        round_wall = time.perf_counter() - round_start

    for name, protocol in protocols.items():
        service = services[name]
        frames_applied, counts = before_close[name]
        after = {
            k: np.asarray(v).tobytes()
            for k, v in service.collector.merged.snapshot_counts().items()
        }
        ledger.check(
            after == counts and service.frames_applied == frames_applied,
            f"{name}: reopened state differs from the state before close",
        )
        estimator = protocol.make_estimator()
        estimator.absorb(released[name])
        served = service.queries
        for attr in protocol.collection.member_names:
            ledger.check(
                served.marginal(attr).tobytes() == estimator.marginal(attr).tobytes(),
                f"{name}: served marginal of {attr} differs from make_estimator()",
            )
        service.close()
        shutil.rmtree(service.state_dir, ignore_errors=True)

    return {
        "traced": traced,
        "wall": round_wall,
        "phases": phases,
        "latencies": latencies,
        "per_protocol": per_protocol,
        "bytes_per_report": frame_bytes / (n * len(protocols)),
    }


def layer_metrics(rounds: list, randomize_rps: float) -> dict:
    """Per-layer figures, as means over the traced rounds."""
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    k = len(traced)
    totals = defaultdict(float)
    hits = misses = 0
    for r in traced:
        phases = r["phases"]
        w, inner = phases.wall, phases.inner
        for name in ("independent", "joint", "clusters"):
            totals[f"randomize_s.{name}"] += w[f"randomize:{name}"]
            totals["protocols.randomize_s"] += w[f"randomize:{name}"]
        totals["codec.encode_s"] += w["encode"]
        totals["client.ingest_s"] += w["ingest"]
        totals["client.query_s"] += w["query"]
        for kind in inner:
            totals["codec.decode_many_s"] += inner[kind]["codec.decode_many"]
            totals["service.commit_s"] += inner[kind]["service.commit_window"]
            totals["journal.append_many_s"] += inner[kind]["journal.append_many"]
            totals["journal.commits"] += inner[kind]["journal.append_many#calls"]
            totals["journal.fsyncs"] += inner[kind]["fsyncs"]
            totals["journal.fsync_s"] += inner[kind]["fsync_s"]
            totals["pipeline.flush_s"] += inner[kind]["pipeline.flush"]
            totals["service.recover_s"] += inner[kind]["service.recover"]
            totals["design.fingerprint_s"] += inner[kind]["fingerprint_s"]
            totals["query.compute_s"] += inner[kind]["query.compute"]
        totals["journal.replay_s"] += sum(
            inner[o]["service.recover"]
            - inner[o]["codec.decode_many"]
            - inner[o]["pipeline.flush"]
            for o in ("open", "reopen")
        )
        totals["journal.bytes"] += inner["ingest"]["bytes"]
        totals["journal.records"] += inner["ingest"]["counter:service.ingest.records"]
        totals["service.open_s"] += w["open"] + w["reopen"]
        totals["service.checkpoint_s"] += inner["checkpoint"]["service.checkpoint"]
        hits += inner["query"]["counter:query.cache.hits"]
        misses += inner["query"]["counter:query.cache.misses"]
        totals["codec.bytes_per_report"] += r["bytes_per_report"]
        totals["wall"] += r["wall"]
        for layer, seconds in self_times(phases).items():
            totals[f"self:{layer}"] += seconds
    out = {name: value / k for name, value in totals.items()}
    out["journal.bytes_per_report"] = totals["journal.bytes"] / max(
        1, totals["journal.records"]
    )
    out["query.cache_hit_ratio"] = hits / max(1, hits + misses)
    out["protocols.randomize_rps"] = randomize_rps
    # No network offline: no acks, no socket to stall.
    out["net.acks_per_frame"] = 0.0
    out["net.backpressure.stalls"] = 0.0
    out["tracing.overhead_s"] = median([r["wall"] for r in traced]) - median(
        [r["wall"] for r in untraced]
    )
    return out


def run(args, ledger, ctx_root) -> dict:
    quick = args.quick
    n = 20_000 if quick else 1_000_000
    protocols = build_protocols(quick)
    rng = np.random.default_rng(args.seed)
    ctx = {
        "seed": args.seed,
        "n": n,
        "sample": synthesize_adult(n=n, rng=args.seed),
        "protocols": protocols,
        "mixes": {
            name: query_mix(rng, protocol) for name, protocol in protocols.items()
        },
        "state": ctx_root,
    }
    rounds = []
    min_rounds = 2 if args.trace else (1 if quick else 3)
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(lifecycle_round(ctx, len(rounds), traced, ledger))

    untraced = [r for r in rounds if not r["traced"]]
    latencies = [t for r in untraced for t in r["latencies"]]

    def fast_seconds(key):
        """Per-round seconds at the fast quartile, summed over protocols."""
        return sum(
            fast_side([r["per_protocol"][name][key] for r in untraced], 0.25)
            for name in protocols
        )

    reports = n * len(protocols)
    randomize_rps = reports / fast_seconds("party")
    # The same query mix runs at one of two speeds: its p50 is ~1.6x
    # higher in the host's slow spells, and the share of slow mixes
    # ranges from one in ten to three in four between runs, so a
    # percentile over all of a run's queries moves with it. Each
    # protocol's figure is that of its fastest mix instead (a mix is
    # asked twice a round), averaged over the protocols. A mix has 100
    # to 324 queries, so its p99 is one of its two to four slowest.
    def fastest_mix_ms(key):
        return 1e3 * float(
            np.mean(
                [
                    min(v for r in untraced for v in r["per_protocol"][name][key])
                    for name in protocols
                ]
            )
        )

    e2e = {
        "reports_per_s": reports / fast_seconds("collect"),
        "query_p50_ms": fastest_mix_ms("query_p50s"),
        "query_p99_ms": fastest_mix_ms("query_p99s"),
        "setup_s": fast_seconds("setup"),
        "recovery_s": fast_seconds("recovery"),
        "server_rss_mb": median(
            [
                max(p["collector_mb"] for p in r["per_protocol"].values())
                for r in untraced
            ]
        ),
    }
    info = {
        "randomize_rps": randomize_rps,
        "collector_mb": {
            name: median([r["per_protocol"][name]["collector_mb"] for r in untraced])
            for name in protocols
        },
        "query_p99_all_ms": percentile(latencies, 99) * 1e3,
        "rounds": len(rounds),
        "reports_per_round": reports,
        "queries": len(latencies),
        "joint_cells": protocols["joint"].domain.size,
        "clusters": list(protocols["clusters"].collection.cluster_names),
    }
    layers = layer_metrics(rounds, randomize_rps) if args.trace else None
    return {"e2e": e2e, "layers": layers, "info": info}
