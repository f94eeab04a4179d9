"""Deterministic fault schedules: which I/O operation fails, and how.

A :class:`FaultPlan` is a list of :class:`FaultRule` entries plus the
mutable trigger state (per-rule match counters, the ENOSPC byte
budget). The :class:`~repro.faults.plane.FaultyIOPlane` consults the
plan before/after every file operation it mediates; the plan decides
*whether* this particular call fails and *how*, entirely from counted
state — no clocks, no ambient entropy — so replaying the same workload
under the same plan injects the same faults at the same byte offsets
every time.

Rules model the storage faults a production collector actually sees:

* ``fail`` — the operation raises ``OSError(errno_code)`` without
  touching the file (a failed fsync, a failed rename, a read error).
* ``torn`` — a write persists only its first ``torn_bytes`` bytes and
  then raises (power cut mid-write at an arbitrary byte offset).
* ``enospc_after`` — writes succeed until the matched byte budget is
  exhausted, then persist the remaining allowance and raise ENOSPC;
  the device stays full afterwards (implicitly sticky).
* ``bitflip`` — a read succeeds but one bit of the returned data is
  inverted (bit rot in a sealed segment or checkpoint).

:func:`random_plan` draws a seeded multi-fault schedule from an
operation-count profile (produced by running the workload once under
an empty plan), which is how the property suite generates its
randomized schedules.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import ReproError

__all__ = [
    "OPS",
    "FaultRule",
    "FaultPlan",
    "random_plan",
]

#: The operation kinds the I/O plane mediates. ``fsync`` covers file
#: and directory syncs alike (rules discriminate by path if needed).
OPS = ("write", "read", "fsync", "rename", "truncate", "unlink")

_KINDS = ("fail", "torn", "enospc_after", "bitflip")

#: Which rule kinds make sense for which operation.
_KIND_OPS = {
    "fail": frozenset(OPS),
    "torn": frozenset({"write"}),
    "enospc_after": frozenset({"write"}),
    "bitflip": frozenset({"read"}),
}


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: the nth matching ``op`` fails as ``kind``.

    ``nth`` counts matching operations from 0 in plan order;
    ``sticky=True`` keeps the rule firing on every later match too
    (a disk that stays broken). ``path_pattern`` is an ``fnmatch``
    glob against the file's basename, so a rule can target e.g. only
    ``checkpoint.npz`` reads or only sealed-segment files.
    """

    op: str
    nth: int = 0
    kind: str = "fail"
    errno_code: int = errno.EIO
    torn_bytes: int = 0
    byte_budget: int = 0
    bit_index: int = 0
    path_pattern: Optional[str] = None
    sticky: bool = False

    def __post_init__(self):
        if self.op not in OPS:
            raise ReproError(f"unknown fault op {self.op!r}; expected one of {OPS}")
        if self.kind not in _KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.op not in _KIND_OPS[self.kind]:
            raise ReproError(
                f"fault kind {self.kind!r} does not apply to op {self.op!r}"
            )
        if self.nth < 0:
            raise ReproError(f"nth must be >= 0, got {self.nth}")
        if self.torn_bytes < 0 or self.byte_budget < 0 or self.bit_index < 0:
            raise ReproError("torn_bytes/byte_budget/bit_index must be >= 0")

    def matches_path(self, path) -> bool:
        if self.path_pattern is None:
            return True
        return fnmatch(os.path.basename(str(path)), self.path_pattern)


@dataclass
class _RuleState:
    """Mutable trigger bookkeeping for one rule."""

    seen: int = 0  # matching operations observed so far
    fired: bool = False
    bytes_written: int = 0  # enospc_after budget consumed


class FaultPlan:
    """An ordered set of fault rules plus their trigger state.

    One plan instance schedules one workload run: trigger counters are
    stateful, so reuse a *fresh* plan (same rules) to replay the same
    schedule. ``fired`` records every injection as ``(rule, op_index)``
    for diagnostics; an empty plan injects nothing and is the cheap way
    to profile a workload's operation counts through the plane.
    """

    def __init__(self, rules: Iterable[FaultRule] = (), *, name: str = ""):
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.name = name
        self._state = [_RuleState() for _ in self.rules]
        self.fired: List[Tuple[FaultRule, int]] = []
        self._total_ops = 0
        #: Bytes the most recent ``enospc_after`` fire still allowed
        #: the triggering write to persist (read by the plane).
        self.last_allowance = 0

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"FaultPlan({len(self.rules)} rules{label}, "
            f"{len(self.fired)} fired)"
        )

    def match(self, op: str, path, nbytes: int = 0) -> "FaultRule | None":
        """The rule (if any) that fires for this operation.

        Called by the plane once per mediated operation *before*
        performing it. Each matching rule's counter advances whether or
        not it fires, so two rules on the same op kind see the same
        operation sequence. At most one rule fires per call (the first
        in plan order).
        """
        hit: "FaultRule | None" = None
        for rule, state in zip(self.rules, self._state):
            if rule.op != op or not rule.matches_path(path):
                continue
            index = state.seen
            state.seen += 1
            if hit is not None:
                continue
            if rule.kind == "enospc_after":
                # Budget-based: fires on the write that would exceed
                # the allowance. The plane persists the remaining
                # allowance before raising, so the budget is marked
                # fully consumed here — every later non-empty write
                # fails too (the device stays full).
                if state.bytes_written + nbytes > rule.byte_budget:
                    hit = rule
                    state.fired = True
                    self.last_allowance = rule.byte_budget - state.bytes_written
                    state.bytes_written = rule.byte_budget
                else:
                    state.bytes_written += nbytes
                continue
            if state.fired and not rule.sticky:
                continue
            if index >= rule.nth and (rule.sticky or index == rule.nth):
                state.fired = True
                hit = rule
        if hit is not None:
            self.fired.append((hit, self._total_ops))
        return hit

    def note_op(self) -> None:
        """Advance the plane's global operation index (diagnostics)."""
        self._total_ops += 1

    def flip_bits(self, rule: FaultRule, data: bytes) -> bytes:
        """Apply a ``bitflip`` rule to read data (deterministically)."""
        if not data:
            return data
        bit = rule.bit_index % (len(data) * 8)
        corrupted = bytearray(data)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        return bytes(corrupted)


def random_plan(
    seed: int,
    profile: dict,
    *,
    n_faults: "int | None" = None,
    ops: Iterable[str] = OPS,
) -> FaultPlan:
    """A seeded multi-fault schedule drawn from an op-count profile.

    ``profile`` maps op kind to how many such operations a clean run of
    the workload performs (measure it by running under an empty plan
    and reading the plane's ``op_counts``). The same seed over the same
    profile always yields the same rules — schedules are reproducible
    by construction.
    """
    rng = np.random.default_rng(seed)
    ops = [op for op in ops if profile.get(op, 0) > 0]
    if not ops:
        return FaultPlan(name=f"random:{seed}")
    if n_faults is None:
        n_faults = int(rng.integers(1, 4))
    rules = []
    for _ in range(n_faults):
        op = ops[int(rng.integers(0, len(ops)))]
        nth = int(rng.integers(0, profile[op]))
        sticky = bool(rng.integers(0, 2))
        kinds = [k for k, allowed in _KIND_OPS.items() if op in allowed]
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "torn":
            rules.append(
                FaultRule(
                    op=op, nth=nth, kind="torn",
                    torn_bytes=int(rng.integers(0, 64)),
                    errno_code=int(
                        rng.choice([errno.EIO, errno.ENOSPC])
                    ),
                    sticky=sticky,
                )
            )
        elif kind == "enospc_after":
            rules.append(
                FaultRule(
                    op="write", kind="enospc_after",
                    byte_budget=int(rng.integers(0, 4096)),
                    errno_code=errno.ENOSPC,
                )
            )
        elif kind == "bitflip":
            rules.append(
                FaultRule(
                    op="read", nth=nth, kind="bitflip",
                    bit_index=int(rng.integers(0, 1 << 16)),
                    sticky=sticky,
                )
            )
        else:
            rules.append(
                FaultRule(
                    op=op, nth=nth, kind="fail",
                    errno_code=int(
                        rng.choice(
                            [errno.EIO, errno.ENOSPC, errno.EAGAIN]
                        )
                    ),
                    sticky=sticky,
                )
            )
    return FaultPlan(rules, name=f"random:{seed}")
