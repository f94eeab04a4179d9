"""Socket-fault plane: scheduled disconnects, truncated sends, lost acks.

The storage contract is proven by scheduling faults through a counted,
deterministic plane (:mod:`repro.faults.plane`). This module extends
the idiom to the *network* layer so the collector front-end's
resend contract can be proven the same way: a :class:`SocketFaultRule`
disconnects the client's socket on the n-th matching send or receive —
optionally after only the first ``torn_bytes`` of the buffer went out,
which is exactly what a connection dying mid-frame looks like to the
server — or stretches the operation by a scheduled delay.

The plane wraps the *client's* socket (:class:`FaultySocket`): the
server under test sees real kernel-level connection loss (a reset or
half-sent frame on a genuine TCP stream), not a mock. Triggers count
operations from 0 in plan order, so replaying the same frame stream
under the same plan severs the connection at the same byte offsets
every time; :func:`random_socket_plan` draws seeded multi-fault
schedules for the randomized property suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from repro.exceptions import ReproError

__all__ = [
    "SOCKET_OPS",
    "SocketFaultRule",
    "SocketFaultPlan",
    "FaultySocket",
    "random_socket_plan",
]

#: The socket operations the plane mediates. ``connect`` covers the
#: dial; ``send`` and ``recv`` the established stream.
SOCKET_OPS = ("connect", "send", "recv")

_KINDS = ("disconnect", "delay")


@dataclass(frozen=True)
class SocketFaultRule:
    """One deterministic socket fault on the n-th matching operation.

    * ``disconnect`` — the socket is closed and the operation raises
      ``ConnectionError``. On a ``send`` with ``torn_bytes > 0`` the
      first ``torn_bytes`` bytes are transmitted first, so the peer
      receives a prefix of the message — a disconnect *mid-frame*.
    * ``delay`` — the operation succeeds after ``delay_seconds`` on
      the plan's injectable ``sleep`` (tests pass a no-op clock).

    ``nth`` counts matching operations from 0 across the whole plan's
    lifetime (reconnects included, so "the 2nd connect" is the first
    reconnect); ``sticky=True`` keeps the rule firing on every later
    match.
    """

    op: str
    nth: int = 0
    kind: str = "disconnect"
    torn_bytes: int = 0
    delay_seconds: float = 0.0
    sticky: bool = False

    def __post_init__(self):
        if self.op not in SOCKET_OPS:
            raise ReproError(
                f"unknown socket op {self.op!r}; expected one of {SOCKET_OPS}"
            )
        if self.kind not in _KINDS:
            raise ReproError(
                f"unknown socket fault kind {self.kind!r}; "
                f"expected one of {_KINDS}"
            )
        if self.torn_bytes and self.op != "send":
            raise ReproError("torn_bytes only applies to send faults")
        if self.nth < 0 or self.torn_bytes < 0 or self.delay_seconds < 0:
            raise ReproError("nth/torn_bytes/delay_seconds must be >= 0")


class SocketFaultPlan:
    """An ordered set of socket fault rules plus their trigger state.

    One plan instance schedules one client lifetime (all reconnect
    attempts included): per-rule match counters are stateful, so reuse
    a *fresh* plan built from the same rules to replay a schedule.
    ``sleep`` is only consulted by ``delay`` rules and is injectable
    so scheduled delays cost nothing under test.
    """

    def __init__(
        self,
        rules,
        *,
        name: str = "",
        sleep: "Callable[[float], None] | None" = None,
    ):
        self._rules: Tuple[SocketFaultRule, ...] = tuple(rules)
        self._seen = [0] * len(self._rules)
        self._fired = [False] * len(self._rules)
        self.name = name
        self._sleep = (lambda _s: None) if sleep is None else sleep
        self.fired_log: List[Tuple[str, int, str]] = []

    @property
    def rules(self) -> Tuple[SocketFaultRule, ...]:
        return self._rules

    def match(self, op: str) -> "SocketFaultRule | None":
        """The rule firing on this operation, advancing trigger state."""
        hit: "SocketFaultRule | None" = None
        for index, rule in enumerate(self._rules):
            if rule.op != op:
                continue
            seen = self._seen[index]
            self._seen[index] = seen + 1
            fires = (
                seen == rule.nth
                or (rule.sticky and seen > rule.nth)
                or (self._fired[index] and rule.sticky)
            )
            if fires and hit is None:
                self._fired[index] = True
                self.fired_log.append((op, seen, rule.kind))
                hit = rule
        return hit

    def sleep(self, seconds: float) -> None:
        self._sleep(seconds)

    def __repr__(self) -> str:
        return (
            f"SocketFaultPlan({len(self._rules)} rules, "
            f"fired={len(self.fired_log)}, name={self.name!r})"
        )


class FaultySocket:
    """A socket proxy that consults a :class:`SocketFaultPlan`.

    Wraps an already-connected socket object; ``sendall`` and ``recv``
    route through the plan, everything else proxies. A ``disconnect``
    rule closes the underlying socket *before* raising, so the peer
    observes genuine connection loss.
    """

    def __init__(self, inner, plan: SocketFaultPlan):
        self._inner = inner
        self._plan = plan

    def sendall(self, data: bytes) -> None:
        rule = self._plan.match("send")
        if rule is None:
            self._inner.sendall(data)
            return
        if rule.kind == "delay":
            self._plan.sleep(rule.delay_seconds)
            self._inner.sendall(data)
            return
        if rule.torn_bytes and rule.torn_bytes < len(data):
            try:
                self._inner.sendall(data[: rule.torn_bytes])
            except OSError:
                pass
        self._inner.close()
        raise ConnectionResetError(
            "scheduled socket fault: disconnect mid-send"
        )

    def recv(self, n: int) -> bytes:
        rule = self._plan.match("recv")
        if rule is None:
            return self._inner.recv(n)
        if rule.kind == "delay":
            self._plan.sleep(rule.delay_seconds)
            return self._inner.recv(n)
        self._inner.close()
        raise ConnectionResetError(
            "scheduled socket fault: disconnect before recv"
        )

    def __getattr__(self, name):
        return getattr(self._inner, name)


def random_socket_plan(
    seed: int,
    *,
    n_sends: int,
    n_recvs: int = 0,
    max_faults: int = 2,
    torn_span: int = 64,
    name: "str | None" = None,
) -> SocketFaultPlan:
    """A seeded multi-fault schedule over a known operation budget.

    ``n_sends``/``n_recvs`` bound where triggers may land (run the
    workload once clean to profile them; overshooting just means a
    rule never fires, which is a valid clean schedule). Disconnects
    dominate the draw — they are the faults the resend contract is
    about — and mid-frame truncation offsets come from ``torn_span``.
    """
    if n_sends < 1:
        raise ReproError(f"n_sends must be >= 1, got {n_sends}")
    rng = np.random.default_rng(seed)
    rules = []
    for _ in range(int(rng.integers(1, max_faults + 1))):
        if n_recvs > 0 and rng.random() < 0.3:
            rules.append(
                SocketFaultRule(
                    op="recv", nth=int(rng.integers(0, n_recvs))
                )
            )
        else:
            rules.append(
                SocketFaultRule(
                    op="send",
                    nth=int(rng.integers(0, n_sends)),
                    torn_bytes=int(rng.integers(0, torn_span)),
                )
            )
    return SocketFaultPlan(
        rules, name=f"seed={seed}" if name is None else name
    )
