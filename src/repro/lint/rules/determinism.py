"""RPL2xx — determinism.

Byte-identical replay across chunk sizes, worker counts and restarts
(PR 1/PR 4) holds only if every random draw flows from an explicit,
counter-based stream and no serialized byte depends on hidden ambient
state. These rules forbid the ambient-entropy APIs everywhere outside
the two sanctioned modules that *implement* the policy:

* RPL201 — ``np.random.*`` module-level (global-state) calls.
* RPL202 — unseeded ``np.random.default_rng()`` / ``SeedSequence()``.
* RPL203 — the stdlib ``random`` module.
* RPL204 — clock reads: wall clocks (``time.time``, ``datetime.now``)
  and monotonic/performance clocks (``time.monotonic``,
  ``time.perf_counter``). Telemetry timing goes through the injectable
  :mod:`repro.obs.clock` instead, which is sanctioned below — it is
  the policy for time the way ``repro._rng`` is for entropy, and
  nothing it measures may reach fingerprinted or replayed artifacts.
* RPL205 — iterating a ``set`` where the element order can reach
  output (set iteration order is hash-randomized across processes).
* RPL206 — process signalling (``os.kill``): library code never
  signals processes. Crashes are the business of test harnesses and
  benchmark drivers outside ``src/``; a sanctioned exception needs a
  commented suppression naming its contract.
"""

from __future__ import annotations

import ast

from repro.lint.registry import rule
from repro.lint.walker import ModuleContext

__all__ = [
    "check_numpy_global_state",
    "check_unseeded_generators",
    "check_stdlib_random",
    "check_wall_clock",
    "check_set_iteration_order",
    "check_process_signals",
]

#: Modules allowed to touch ambient entropy or clocks: they are the
#: policy (repro.obs.clock is the one sanctioned time source).
_SANCTIONED = frozenset(
    {"repro._rng", "repro.engine.sampling", "repro.obs.clock"}
)

#: numpy.random entry points that are explicit-stream safe.
_NP_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator",
     "Philox", "PCG64", "PCG64DXSM", "MT19937", "SFC64"}
)

#: Constructors RPL202 requires to be seeded.
_SEEDABLE = frozenset(
    {"numpy.random.default_rng", "numpy.random.SeedSequence"}
)

_WALL_CLOCK = frozenset(
    {"time.time", "time.time_ns",
     "time.monotonic", "time.monotonic_ns",
     "time.perf_counter", "time.perf_counter_ns",
     "datetime.datetime.now", "datetime.datetime.utcnow",
     "datetime.datetime.today", "datetime.date.today"}
)

#: Consumers whose result does not depend on element order.
_ORDER_FREE_CONSUMERS = frozenset(
    {"sorted", "len", "min", "max", "sum", "any", "all", "set",
     "frozenset", "bool"}
)


def _sanctioned(ctx: ModuleContext) -> bool:
    return ctx.module in _SANCTIONED


@rule(
    "RPL201",
    "numpy-global-rng",
    "np.random.* global-state call (hidden, process-wide stream)",
)
def check_numpy_global_state(ctx: ModuleContext):
    if _sanctioned(ctx):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qualname = ctx.resolve(node.func)
        if not qualname or not qualname.startswith("numpy.random."):
            continue
        tail = qualname.split(".")[2:]
        if len(tail) == 1 and tail[0] not in _NP_RANDOM_OK:
            yield ctx.finding(
                node,
                "RPL201",
                f"global-state call np.random.{tail[0]}() breaks "
                "replayability",
                hint="thread an explicit numpy.random.Generator (see "
                "repro._rng.ensure_rng) instead of the process-global "
                "stream",
            )


@rule(
    "RPL202",
    "unseeded-generator",
    "unseeded default_rng()/SeedSequence() outside the sanctioned "
    "entropy modules",
)
def check_unseeded_generators(ctx: ModuleContext):
    if _sanctioned(ctx):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qualname = ctx.resolve(node.func)
        if qualname not in _SEEDABLE:
            continue
        has_arguments = bool(node.args) or any(
            keyword.arg in (None, "seed", "entropy") for keyword in node.keywords
        )
        if not has_arguments:
            short = qualname.split(".")[-1]
            yield ctx.finding(
                node,
                "RPL202",
                f"unseeded {short}() draws OS entropy; replay cannot "
                "reproduce it",
                hint="accept an rng argument and normalize it through "
                "repro._rng.ensure_rng / engine.executor.seed_sequence_from",
            )


@rule(
    "RPL203",
    "stdlib-random",
    "stdlib random module (global Mersenne Twister state)",
)
def check_stdlib_random(ctx: ModuleContext):
    if _sanctioned(ctx):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.name == "random" or name.name.startswith("random."):
                    yield ctx.finding(
                        node,
                        "RPL203",
                        "stdlib random imported; its global state defeats "
                        "byte-identical replay",
                        hint="use numpy Generators threaded through rng "
                        "arguments",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module == "random":
                yield ctx.finding(
                    node,
                    "RPL203",
                    "stdlib random imported; its global state defeats "
                    "byte-identical replay",
                    hint="use numpy Generators threaded through rng "
                    "arguments",
                )


@rule(
    "RPL204",
    "wall-clock",
    "clock read (time.time / time.monotonic / datetime.now) outside "
    "repro.obs.clock",
)
def check_wall_clock(ctx: ModuleContext):
    if _sanctioned(ctx):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qualname = ctx.resolve(node.func)
        if qualname in _WALL_CLOCK:
            yield ctx.finding(
                node,
                "RPL204",
                f"{qualname}() makes output depend on when it ran",
                hint="time telemetry through repro.obs.clock (injectable, "
                "fake-able in tests); fingerprinted or serialized "
                "artifacts must be a function of their inputs",
            )


_PROCESS_SIGNALS = frozenset(
    {"os.kill", "os.killpg", "signal.raise_signal"}
)


@rule(
    "RPL206",
    "process-signal",
    "process signalling (os.kill) in library code",
)
def check_process_signals(ctx: ModuleContext):
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qualname = ctx.resolve(node.func)
        if qualname in _PROCESS_SIGNALS:
            yield ctx.finding(
                node,
                "RPL206",
                f"{qualname}() signals a process from library code",
                hint="the collector never kills or signals processes; "
                "crash testing belongs to harnesses outside src/ — "
                "suppress with a comment naming the contract that "
                "sanctions it",
            )


def _is_set_expression(ctx: ModuleContext, node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve(node.func) in ("set", "frozenset")
    return False


@rule(
    "RPL205",
    "set-iteration-order",
    "iteration over a set where element order can reach output",
)
def check_set_iteration_order(ctx: ModuleContext):
    for node in ast.walk(ctx.tree):
        if not _is_set_expression(ctx, node):
            continue
        parent = ctx.parent(node)
        flagged = False
        if isinstance(parent, (ast.For, ast.AsyncFor)) and parent.iter is node:
            flagged = True
        elif isinstance(parent, ast.comprehension) and parent.iter is node:
            flagged = True
        elif isinstance(parent, ast.Call):
            if node in parent.args:
                qualname = ctx.resolve(parent.func)
                if qualname in _ORDER_FREE_CONSUMERS:
                    flagged = False
                elif qualname in ("list", "tuple", "enumerate", "iter"):
                    flagged = True
                elif (
                    isinstance(parent.func, ast.Attribute)
                    and parent.func.attr == "join"
                ):
                    flagged = True
        if flagged:
            yield ctx.finding(
                node,
                "RPL205",
                "set iteration order is hash-randomized across processes",
                hint="wrap in sorted(...) before the order can reach "
                "serialized or fingerprinted output",
            )
