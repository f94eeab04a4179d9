"""Fault-injection plane for the collector's storage layer.

The durability story of :mod:`repro.service` (WAL-first journal, atomic
checkpoints, crash-point hooks) is proven against clean process death;
this package proves it against the I/O faults a production collector
actually sees — full disks, failed fsyncs, writes torn at arbitrary
byte offsets, bit rot in sealed segments, failed renames.

Two halves:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultRule`:
  deterministic, seed-schedulable fault rules ("fail the 3rd fsync",
  "ENOSPC after 4096 bytes", "tear the 2nd write at byte 17", "flip
  bit 1009 of the next checkpoint read").
* :mod:`repro.faults.plane` — the I/O shim all journal/checkpoint file
  operations route through. The ambient default (:class:`IOPlane`) is
  a pure passthrough, so the hot path is untouched; installing a plan
  (:func:`install_plan`) swaps in a :class:`FaultyIOPlane` that
  surfaces the scheduled faults as ordinary ``OSError`` values.

* :mod:`repro.faults.net` — the *socket* plane (PR 10): scheduled
  disconnects (optionally mid-frame, after a torn byte prefix) and
  delays on the network client's socket, so the collector front-end's
  reconnect/resend contract is proven against genuine kernel-level
  connection loss under deterministic and seeded schedules.

The property suite under ``tests/faults`` runs ingest / compact /
checkpoint workloads under exhaustive and randomized schedules and
asserts the storage contract: after any schedule, recovery is
byte-identical to a clean run over the durably logged frames, or the
service refuses with a typed error
(:class:`~repro.exceptions.StorageFullError`,
:class:`~repro.exceptions.TransientIOError`,
:class:`~repro.exceptions.SegmentQuarantinedError`) — no third
outcome.
"""

from repro.faults.net import (
    SOCKET_OPS,
    FaultySocket,
    SocketFaultPlan,
    SocketFaultRule,
    random_socket_plan,
)
from repro.faults.plan import OPS, FaultPlan, FaultRule, random_plan
from repro.faults.plane import (
    FaultyIOPlane,
    IOPlane,
    get_plane,
    install_plan,
    set_plane,
)

__all__ = [
    "OPS",
    "FaultPlan",
    "FaultRule",
    "random_plan",
    "IOPlane",
    "FaultyIOPlane",
    "get_plane",
    "set_plane",
    "install_plan",
    "SOCKET_OPS",
    "SocketFaultRule",
    "SocketFaultPlan",
    "FaultySocket",
    "random_socket_plan",
]
