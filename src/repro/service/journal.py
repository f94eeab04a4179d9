"""Segmented log-structured ingestion journal and checkpointed state.

Durability layer of the collector service. Three artifacts live in a
*state directory*:

* ``ingest.log`` (+ sealed ``ingest.log.NNNNNNNN`` segments and the
  ``ingest.log.manifest.json`` manifest) — the write-ahead ingestion
  log, an append-only sequence of length-prefixed wire frames
  (:mod:`repro.service.codec`) rotated into bounded *segments*. Every
  frame is written *before* it is folded into the in-memory collector,
  so the log is always a superset of the absorbed state (write-ahead
  discipline).
* ``checkpoint.npz`` + ``checkpoint.json`` — a periodic snapshot of the
  per-attribute count vectors plus a sidecar recording how many log
  frames the snapshot covers and the fingerprints of the schema and
  every randomization matrix. The sidecar carries a CRC of the npz so
  a torn checkpoint pair is detected instead of silently restoring
  mismatched counts.

Segmented log layout
--------------------
Appends always go to the *active* segment. When it exceeds
``segment_bytes`` it is *sealed*: its frame count and byte length are
recorded in the manifest (one durable JSON replace) and a fresh active
segment is opened. Segment 0 keeps the plain ``ingest.log`` name, so a
log that never rotates — and any state directory written before
segmentation existed — is byte-identical to the single-file layout and
opens with no migration step. The manifest is only ever created by the
first rotation.

Opening a segmented log is O(#segments) I/O and O(1) memory: sealed
segments are validated by a single ``stat`` against their manifest
entry (they were fsynced before the manifest named them, so their
bytes are settled), and only the active tail segment is scanned —
payload bytes are seeked over, not read. A torn final entry in the
tail (crash mid-append) is truncated away; the write was never
acknowledged, so dropping it loses nothing that was confirmed.
``replay(start)`` skips whole segments by their manifest frame counts
and seeks over skipped payloads inside the first relevant segment, so
recovery reads only the checkpoint tail.

``retire(upto_frame)`` bounds disk for an immortal collector: sealed
segments wholly covered by the latest durable checkpoint are dropped
from the manifest (durably, first) and then unlinked. Frame indices
stay *global* — manifest entries carry their base frame — so
checkpoint bookkeeping survives any number of compactions. A crash
between the manifest write and the unlinks leaves orphan segment
files, which the next open deletes.

Recovery is ``checkpoint counts + replay of the log tail``: because
Eq. (2) estimation is a deterministic function of integer counts, the
recovered estimate is byte-identical to an uninterrupted run over the
same frames.
"""

from __future__ import annotations

import errno
import io
import json
import os
import re
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Mapping

import numpy as np

from repro.exceptions import (
    SegmentQuarantinedError,
    ServiceError,
    StorageFullError,
    TransientIOError,
)
from repro.faults.plane import get_plane
from repro.obs.registry import get_registry
from repro.obs.tracing import trace

__all__ = [
    "LOG_NAME",
    "MANIFEST_SUFFIX",
    "CHECKPOINT_NPZ",
    "CHECKPOINT_JSON",
    "SERVICE_META",
    "SERVER_META",
    "TENANT_META",
    "QUARANTINE_SUFFIX",
    "DEFAULT_SEGMENT_BYTES",
    "RetryPolicy",
    "SegmentInfo",
    "FrameWriter",
    "read_frames",
    "scan_frames",
    "log_exists",
    "resolve_state_root",
    "walk_state_root",
    "IngestionLog",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "save_service_meta",
    "load_service_meta",
]

LOG_NAME = "ingest.log"
MANIFEST_SUFFIX = ".manifest.json"
CHECKPOINT_NPZ = "checkpoint.npz"
CHECKPOINT_JSON = "checkpoint.json"
SERVICE_META = "service.json"
#: Marker of a collector-server state root (tenants live below it).
SERVER_META = "server.json"
#: Design pin of one tenant directory of a server root.
TENANT_META = "tenant.json"
#: Marker of a root written by the removed multi-process sharded
#: collector; only ever looked for, so such a root can be refused.
SHARDING_META = "sharding.json"

#: Suffix a corrupt sealed segment is renamed aside with when its
#: frames are covered by a durable checkpoint (see ``IngestionLog``).
QUARANTINE_SUFFIX = ".quarantined"

#: Rotation threshold of the active segment. Restart cost is
#: O(#segments + tail): large enough that a long-lived log stays a
#: handful of files, small enough that the tail scan stays trivial.
DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct("<I")
_CHECKPOINT_VERSION = 1
_META_VERSION = 1
_MANIFEST_VERSION = 1

#: Sealed-segment file suffix: ``<log name>.NNNNNNNN`` (8 digits).
_SEGMENT_SUFFIX = re.compile(r"\.(\d{8})$")


def _crash_point(label: str) -> None:
    """Deterministic fault-injection hook — a no-op in production.

    Called at every ordering point inside segment rotation and
    compaction. Crash-recovery property tests monkeypatch it to raise
    at a named point, proving that every intermediate on-disk state a
    real crash could leave recovers byte-identically.
    """


#: errno values that mean "the device has no room", not "the operation
#: glitched": retrying cannot help until an operator frees space.
_STORAGE_FULL_ERRNOS = frozenset({errno.ENOSPC, errno.EDQUOT, errno.EFBIG})


def _storage_error(exc: OSError, context: str) -> ServiceError:
    """Map an ``OSError`` into the typed storage-failure taxonomy.

    Out-of-space errnos become :class:`StorageFullError` (permanent
    until an operator intervenes — retrying is pointless); everything
    else becomes :class:`TransientIOError` (the caller may have retried
    already; the type records that retrying *could* have helped).
    """
    if exc.errno in _STORAGE_FULL_ERRNOS:
        return StorageFullError(f"{context}: device full ({exc})")
    return TransientIOError(f"{context}: {exc}")


def _mix64(value: int) -> int:
    """splitmix64 finalizer: a stateless, uniform 64-bit hash.

    Pure integer arithmetic — no RNG object, no ambient entropy — so
    the retry jitter it drives is byte-stable by construction.
    """
    mask = 0xFFFFFFFFFFFFFFFF
    value = (value + 0x9E3779B97F4A7C15) & mask
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & mask
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & mask
    return value ^ (value >> 31)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic seeded jitter.

    Storage-full errors are never retried (the device will not drain
    itself between attempts); everything else gets ``attempts`` tries
    with delays ``backoff_seconds * 2**k``, each stretched by a
    uniform draw in ``[0, jitter]`` of itself. The draw comes from a
    stateless splitmix64 hash of ``(jitter_seed, k)`` — the same seed
    always yields the same schedule (byte-stable under test). ``sleep``
    is injectable so tests run the schedule without wall-clock waits.
    """

    attempts: int = 3
    backoff_seconds: float = 0.01
    sleep: Callable[[float], None] = time.sleep
    jitter: float = 0.5
    jitter_seed: int = 0

    def __post_init__(self):
        if self.attempts < 1:
            raise ServiceError(
                f"retry attempts must be >= 1, got {self.attempts}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ServiceError(
                f"retry jitter must be in [0, 1], got {self.jitter}"
            )

    def delays(self) -> Iterator[float]:
        """The full backoff schedule (``attempts - 1`` waits), jittered."""
        delay = self.backoff_seconds
        for k in range(self.attempts - 1):
            fraction = _mix64(self.jitter_seed * 0x5851F42D + k) / 2.0**64
            yield delay * (1.0 + self.jitter * fraction)
            delay *= 2


def _fsync_dir(directory: Path) -> None:
    """Persist a directory's entries (the second half of a durable rename)."""
    handle = os.open(directory, os.O_RDONLY)
    try:
        get_plane().fsync(handle, path=directory)
    finally:
        os.close(handle)


def _replace_durably(tmp: Path, final: Path) -> None:
    """``os.replace`` with the fsyncs that make it mean something.

    The file's bytes are synced before the rename and the directory
    entry after it, so a power cut cannot persist the new name over
    unwritten content.
    """
    # Callers fsync tmp's bytes before handing it over (see the
    # checkpoint/manifest writers); this helper owns only the rename and
    # the directory sync.
    get_plane().replace(tmp, final)
    _fsync_dir(final.parent)


# ----------------------------------------------------------------------
# Length-prefixed frame container (report files and the ingestion log)
# ----------------------------------------------------------------------
class FrameWriter:
    """Append length-prefixed frames to a binary file.

    Opened unbuffered: every :meth:`write` is the actual ``write``
    syscall, not a Python-level buffer fill, so write boundaries are
    real — the ambient I/O plane mediates them one-to-one, and a torn
    or failed write leaves the file exactly where the kernel left it
    (which the journal's rollback then truncates away).
    """

    def __init__(self, path, *, append: bool = False):
        self._path = Path(path)
        self._handle = open(self._path, "ab" if append else "wb", buffering=0)
        self._dirty = False

    def write(self, frame: bytes) -> None:
        # Length prefix and payload go down as ONE buffer: a frame
        # costs a single syscall (unbuffered handles don't coalesce),
        # and a torn write cannot separate a prefix from its payload.
        if not frame:
            raise ServiceError("refusing to write an empty frame")
        get_plane().write(self._handle, _LENGTH.pack(len(frame)) + frame)
        self._dirty = True

    def write_many(self, frames) -> int:
        """Append a batch of frames as one contiguous write.

        The group-commit building block: the length-prefixed entries
        are joined in memory and handed to the OS in a single
        ``write``, so a batch costs one syscall instead of one per
        frame. Durability still requires a :meth:`sync`.
        """
        frames = list(frames)
        if any(not frame for frame in frames):
            raise ServiceError("refusing to write an empty frame")
        if frames:
            get_plane().write(
                self._handle,
                b"".join(
                    _LENGTH.pack(len(frame)) + frame for frame in frames
                ),
            )
            self._dirty = True
        return len(frames)

    def sync(self) -> None:
        """Fsync — the durability point of a frame.

        A no-op when nothing was written since the last sync, so read
        paths that sync defensively (e.g. replay) don't pay an fsync
        on an already-clean log.
        """
        if not self._dirty or self._handle.closed:
            return
        get_plane().fsync(self._handle.fileno(), path=self._path)
        self._dirty = False

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "FrameWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _iter_entries(path, handle) -> Iterator[bytes]:
    """Yield complete frames sequentially; O(frame) memory.

    A torn final entry ends iteration by raising ``_TornTail`` carrying
    the good length, so callers choose between repair and refusal.
    """
    plane = get_plane()
    good = 0
    while True:
        head = plane.read(handle, _LENGTH.size)
        if not head:
            return
        if len(head) < _LENGTH.size:
            raise _TornTail(good)
        (length,) = _LENGTH.unpack(head)
        if length == 0:
            raise ServiceError(
                f"{path}: zero-length frame at offset {good}; "
                "container corrupted"
            )
        frame = plane.read(handle, length)
        if len(frame) < length:
            raise _TornTail(good)
        good += _LENGTH.size + length
        yield frame


def _skip_entries(path, handle, count: int) -> None:
    """Seek ``handle`` past ``count`` complete frames without reading them.

    Payload bytes are seeked over, so skipping a prefix costs one tiny
    read per frame however large the frames are. The prefix is known
    complete (manifest-counted or already scanned), so a short read
    here means the file changed underneath us.
    """
    plane = get_plane()
    for _ in range(count):
        head = plane.read(handle, _LENGTH.size)
        if len(head) < _LENGTH.size:
            raise ServiceError(
                f"{path}: frame container shorter than its recorded "
                "frame count; the file was modified outside this process"
            )
        (length,) = _LENGTH.unpack(head)
        if length == 0:
            raise ServiceError(
                f"{path}: zero-length frame while skipping a replay "
                "prefix; container corrupted"
            )
        handle.seek(length, os.SEEK_CUR)


class _TornTail(Exception):
    """Internal: a partially written final entry, at ``good_length``."""

    def __init__(self, good_length: int):
        super().__init__(good_length)
        self.good_length = good_length


def scan_frames(path) -> "tuple[int, int, bool]":
    """Count the complete frames of a container file, O(1) memory.

    Returns ``(n_frames, good_length, torn)`` where ``good_length`` is
    the byte offset after the last complete frame and ``torn`` says
    whether trailing bytes of a partially written entry follow it.
    Payload bytes are seeked over, never read or materialized, so
    scanning costs O(n_frames) small reads regardless of file size —
    use :func:`read_frames` to stream the frame contents.
    """
    plane = get_plane()
    size = os.path.getsize(path)
    n_frames = 0
    good = 0
    torn = False
    with open(path, "rb") as handle:
        while True:
            head = plane.read(handle, _LENGTH.size)
            if not head:
                break
            if len(head) < _LENGTH.size:
                torn = True
                break
            (length,) = _LENGTH.unpack(head)
            if length == 0:
                raise ServiceError(
                    f"{path}: zero-length frame at offset {good}; "
                    "container corrupted"
                )
            if good + _LENGTH.size + length > size:
                torn = True
                break
            handle.seek(length, os.SEEK_CUR)
            good += _LENGTH.size + length
            n_frames += 1
    return n_frames, good, torn


def read_frames(path, *, start: int = 0) -> Iterator[bytes]:
    """Stream complete frames of a container file, skipping ``start``.

    O(frame) memory. Raises :class:`~repro.exceptions.ServiceError` on
    a torn tail — report files written by ``encode`` are complete by
    construction, so a torn tail there means the file was damaged, not
    crash-truncated.
    """
    if start < 0:
        raise ServiceError(f"start must be >= 0, got {start}")
    with open(path, "rb") as handle:
        try:
            for index, frame in enumerate(_iter_entries(path, handle)):
                if index >= start:
                    yield frame
        except _TornTail:
            raise ServiceError(
                f"{path}: torn trailing entry; file is truncated or "
                "corrupted"
            ) from None


# ----------------------------------------------------------------------
# Segment bookkeeping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentInfo:
    """One log segment: where its frames sit in the global log order.

    ``base_frame`` is the global index of the segment's first frame —
    global indices survive compaction, so checkpoint bookkeeping never
    shifts when the log head is retired.
    """

    seq: int
    base_frame: int
    n_frames: int
    n_bytes: int

    @property
    def end_frame(self) -> int:
        return self.base_frame + self.n_frames


def _segment_path(base: Path, seq: int) -> Path:
    """Segment 0 keeps the bare log name (single-file compatibility)."""
    return base if seq == 0 else base.with_name(f"{base.name}.{seq:08d}")


def _manifest_path(base: Path) -> Path:
    return base.with_name(base.name + MANIFEST_SUFFIX)


def log_exists(path) -> bool:
    """Whether a log base path holds any durable state.

    After a rotation the manifest is the authoritative marker — a
    fully compacted log may have retired the bare segment-0 file while
    later segments (or only the manifest) remain.
    """
    base = Path(path)
    if _manifest_path(base).exists():
        return True
    return base.exists() and base.stat().st_size > 0


def resolve_state_root(state_dir) -> str:
    """What ``state_dir`` holds: ``"server"``, ``"tenant"``,
    ``"collector"`` or ``"empty"``.

    The one place the on-disk layout is decided from marker files; it
    only looks, so it is safe on a live collector's directory and runs
    before anything is created or locked. A root written by the removed
    multi-process sharded collector (``sharding.json``) is refused with
    :class:`~repro.exceptions.ServiceError`: nothing in the package can
    open, inspect or scrub it any more.
    """
    state = Path(state_dir)
    if (state / SHARDING_META).exists():
        raise ServiceError(
            f"{state} holds {SHARDING_META}: it is a sharded collector "
            "root, and sharded roots were removed together with the "
            "multi-process collector fleet (see CHANGES.md). Re-ingest "
            "its reports into a fresh state directory."
        )
    if (state / SERVER_META).exists():
        return "server"
    if (state / TENANT_META).exists():
        return "tenant"
    # log_exists also recognizes a rotated/compacted log whose bare
    # ingest.log segment has been retired (manifest present).
    if (state / CHECKPOINT_JSON).exists() or log_exists(state / LOG_NAME):
        return "collector"
    return "empty"


def walk_state_root(state_dir) -> "tuple[str, dict]":
    """:func:`resolve_state_root`'s kind plus, read-only, every tenant's
    ``(tenant_dir, {client: client_dir})`` in name order: the one
    enumeration of a state root that ``stats`` and ``scrub`` fold over."""
    state = Path(state_dir)
    kind = resolve_state_root(state)
    tenant_dirs = {state.name: state} if kind == "tenant" else {}
    if kind == "server":
        from repro.service.net.storage import LocalFSBackend  # imports us

        backend = LocalFSBackend(state)
        tenant_dirs = {t: backend.tenant_dir(t) for t in backend.list_tenants()}
    tenants = {}
    for tenant, tenant_dir in tenant_dirs.items():
        root = tenant_dir / "clients"
        found = sorted(root.iterdir(), key=lambda e: e.name) if root.is_dir() else []
        tenants[tenant] = (tenant_dir, {e.name: e for e in found if e.is_dir()})
    return kind, tenants


def _load_manifest(
    base: Path,
) -> "tuple[List[SegmentInfo], int, int, dict]":
    """Sealed segments + the active segment's (seq, base frame).

    A missing manifest is the never-rotated (or pre-segmentation)
    layout: no sealed segments, active segment 0 starting at frame 0.
    The fourth element maps sealed-segment seq to the quarantine reason
    for segments whose files were found corrupt and renamed aside —
    they stay in the sealed list (so frame accounting and contiguity
    validation are unchanged) but must never be read.
    """
    path = _manifest_path(base)
    if not path.exists():
        return [], 0, 0, {}
    try:
        payload = json.loads(get_plane().read_bytes(path).decode("utf-8"))
    except ValueError as exc:
        # JSONDecodeError or (bit rot) UnicodeDecodeError alike.
        raise ServiceError(f"{path}: corrupt manifest: {exc}") from None
    except OSError as exc:
        raise _storage_error(exc, f"{path}: manifest read failed") from exc
    if payload.get("version") != _MANIFEST_VERSION:
        raise ServiceError(
            f"unsupported log manifest version {payload.get('version')!r}"
        )
    try:
        next_seq = int(payload["next_seq"])
        next_base = int(payload["next_base_frame"])
        sealed = [
            SegmentInfo(
                seq=int(entry["seq"]),
                base_frame=int(entry["base_frame"]),
                n_frames=int(entry["frames"]),
                n_bytes=int(entry["bytes"]),
            )
            for entry in payload["segments"]
        ]
        quarantined = {
            int(entry["seq"]): str(entry["quarantined"])
            for entry in payload["segments"]
            if "quarantined" in entry
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"{path}: malformed manifest: {exc!r}") from None
    expected_seq, expected_base = None, None
    for segment in sealed:
        if segment.seq >= next_seq or segment.n_frames < 0:
            raise ServiceError(f"{path}: inconsistent manifest entries")
        if expected_seq is not None and (
            segment.seq < expected_seq or segment.base_frame != expected_base
        ):
            raise ServiceError(
                f"{path}: manifest segments out of order or with "
                "non-contiguous frame ranges"
            )
        expected_seq = segment.seq + 1
        expected_base = segment.end_frame
    if sealed and sealed[-1].end_frame != next_base:
        raise ServiceError(
            f"{path}: manifest next_base_frame does not continue the "
            "last sealed segment"
        )
    return sealed, next_seq, next_base, quarantined


def _save_manifest(
    base: Path,
    sealed: List[SegmentInfo],
    next_seq: int,
    next_base: int,
    quarantined: "Mapping | None" = None,
) -> None:
    """Durably replace the manifest (tmp + fsync + rename + dir fsync)."""
    path = _manifest_path(base)
    quarantined = quarantined or {}
    segments = []
    for segment in sealed:
        entry = {
            "seq": segment.seq,
            "base_frame": segment.base_frame,
            "frames": segment.n_frames,
            "bytes": segment.n_bytes,
        }
        if segment.seq in quarantined:
            entry["quarantined"] = quarantined[segment.seq]
        segments.append(entry)
    payload = {
        "version": _MANIFEST_VERSION,
        "next_seq": next_seq,
        "next_base_frame": next_base,
        "segments": segments,
    }
    plane = get_plane()
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb", buffering=0) as handle:
        plane.write(
            handle, json.dumps(payload, indent=2).encode("utf-8")
        )
        plane.fsync(handle.fileno(), path=tmp)
    _replace_durably(tmp, path)


class IngestionLog:
    """Segmented, append-only write-ahead log of ingested report frames.

    ``path`` names the *active* segment (conventionally
    ``state_dir/ingest.log``); sealed segments and the manifest derive
    their names from it. ``segment_bytes`` is the rotation threshold —
    ``None`` never rotates (the legacy single-file behavior), but an
    existing manifest is always honored regardless.

    Opening is O(#segments) I/O and O(1) memory: sealed segments are
    validated by size against the manifest, only the active tail is
    scanned (seeking over payloads), and a torn final entry there
    (crash mid-append) is truncated away so new appends extend a clean
    tail. Orphan segment files from an interrupted compaction — and
    orphan ``*.tmp`` files from an interrupted durable replace — are
    deleted.

    ``covered_frames`` is the frame count of the latest durable
    checkpoint (0 without one). It gates corruption handling: a
    damaged sealed segment whose frames the checkpoint covers is
    *quarantined* (renamed aside with :data:`QUARANTINE_SUFFIX`,
    recorded in the manifest) and opening proceeds — those frames live
    on in the checkpoint counts. A damaged segment the checkpoint does
    NOT cover would mean silently dropping acknowledged counts, so
    opening refuses with
    :class:`~repro.exceptions.SegmentQuarantinedError` instead.

    Append failures roll the partial tail back to the last
    acknowledged byte and surface as
    :class:`~repro.exceptions.StorageFullError` (device full) or
    :class:`~repro.exceptions.TransientIOError` (anything else, after
    ``retry`` bounded backoff) — never a raw ``OSError``, never a
    silently shortened log.
    """

    def __init__(
        self,
        path,
        *,
        segment_bytes: "int | None" = None,
        metrics=None,
        covered_frames: int = 0,
        retry: "RetryPolicy | None" = None,
    ):
        if segment_bytes is not None and segment_bytes < 1:
            raise ServiceError(
                f"segment_bytes must be >= 1, got {segment_bytes}"
            )
        if covered_frames < 0:
            raise ServiceError(
                f"covered_frames must be >= 0, got {covered_frames}"
            )
        self._base = Path(path)
        self._dir = self._base.parent
        self._segment_bytes = segment_bytes
        self._retry = RetryPolicy() if retry is None else retry
        #: Set when a rollback or rotation failed in a way that may
        #: desync in-memory bookkeeping from disk; writes refuse until
        #: the log is reopened (reopen re-scans and self-heals).
        self._broken = False
        #: Bytes of torn tail truncated at open (0 on a clean open).
        self.torn_tail_bytes = 0
        #: Orphan ``*.tmp`` files deleted at open.
        self.tmp_swept = 0
        # Resolve instrument handles before the tail scan: opening may
        # already rotate (oversized tail after a crash) and rotation
        # counts. No-ops when the ambient registry is disabled.
        self._metrics = get_registry() if metrics is None else metrics
        self._c_append_frames = self._metrics.counter("journal.append.frames")
        self._c_append_bytes = self._metrics.counter("journal.append.bytes")
        self._c_append_retries = self._metrics.counter(
            "journal.append.retries"
        )
        self._c_rollbacks = self._metrics.counter("journal.rollbacks")
        self._c_rotations = self._metrics.counter("journal.rotations")
        self._c_segments_retired = self._metrics.counter(
            "journal.segments_retired"
        )
        self._c_bytes_retired = self._metrics.counter("journal.bytes_retired")
        self._c_replay_frames = self._metrics.counter("journal.replay.frames")
        self._c_torn_events = self._metrics.counter("journal.torn_tail.events")
        self._c_torn_bytes = self._metrics.counter("journal.torn_tail.bytes")
        self._c_quarantined = self._metrics.counter(
            "journal.segments_quarantined"
        )
        self._c_tmp_swept = self._metrics.counter("journal.tmp_swept")
        self._sp_append_many = trace("journal.append_many", self._metrics)
        try:
            self._open(covered_frames)
        except OSError as exc:
            # Typed-failure contract: opening never leaks a raw OSError.
            raise _storage_error(
                exc, f"{self._base}: opening journal failed"
            ) from exc

    def _open(self, covered_frames: int) -> None:
        (
            self._sealed,
            self._active_seq,
            self._active_base,
            self._quarantined,
        ) = _load_manifest(self._base)
        for segment in list(self._sealed):
            if segment.seq in self._quarantined:
                continue  # already renamed aside; nothing to validate
            seg_path = _segment_path(self._base, segment.seq)
            if not seg_path.exists():
                self._quarantine(segment, covered_frames, "file missing")
            elif seg_path.stat().st_size != segment.n_bytes:
                self._quarantine(
                    segment,
                    covered_frames,
                    f"resized to {seg_path.stat().st_size} bytes "
                    f"(manifest records {segment.n_bytes})",
                )
        self._remove_orphans()
        self._sweep_tmp_files()
        plane = get_plane()
        active = _segment_path(self._base, self._active_seq)
        if active.exists():
            self._active_frames, self._active_bytes, torn = scan_frames(
                active
            )
            if torn:
                dropped = os.path.getsize(active) - self._active_bytes
                with open(active, "r+b") as handle:
                    plane.truncate(handle, self._active_bytes)
                    plane.fsync(handle.fileno(), path=active)
                self.torn_tail_bytes = dropped
                self._c_torn_events.inc()
                self._c_torn_bytes.inc(dropped)
        else:
            # Either a fresh log or a crash between sealing the last
            # segment and creating its successor — an empty tail both
            # ways.
            active.touch()
            _fsync_dir(self._dir)
            self._active_frames = 0
            self._active_bytes = 0
        self._writer = FrameWriter(active, append=True)
        # A crash between filling the active segment and sealing it
        # leaves an oversized tail; seal it now so segment sizes stay
        # bounded no matter where the last run stopped.
        self._maybe_rotate()

    def _quarantine(
        self, segment: SegmentInfo, covered_frames: int, reason: str
    ) -> None:
        """Set a damaged sealed segment aside — or refuse to open.

        Only frames a durable checkpoint covers may be quarantined:
        they survive in the checkpoint counts, so recovery stays
        byte-identical without ever reading the damaged file. Frames
        past the checkpoint exist nowhere else — quarantining them
        would silently drop acknowledged counts, so opening refuses
        with a typed error and leaves the directory untouched for
        forensics. The rename happens before the manifest record; a
        crash in between re-enters here as ``file missing`` on the
        next open and completes the record.
        """
        seg_path = _segment_path(self._base, segment.seq)
        if segment.end_frame > covered_frames:
            raise SegmentQuarantinedError(
                f"{seg_path}: sealed segment is damaged ({reason}) and "
                f"frames [{segment.base_frame}, {segment.end_frame}) are "
                f"not covered by a durable checkpoint (covers "
                f"{covered_frames} frames); refusing to open rather than "
                "silently dropping acknowledged counts"
            )
        if seg_path.exists():
            aside = seg_path.with_name(seg_path.name + QUARANTINE_SUFFIX)
            get_plane().replace(seg_path, aside)
            _fsync_dir(self._dir)
        self._quarantined[segment.seq] = reason
        _save_manifest(
            self._base,
            self._sealed,
            self._active_seq,
            self._active_base,
            self._quarantined,
        )
        self._c_quarantined.inc()

    def _remove_orphans(self) -> None:
        """Delete segment files the manifest no longer owns.

        A crash between compaction's manifest write and its unlinks
        leaves retired files behind; finishing the deletion here keeps
        the disk bound. A segment file *newer* than the manifest's
        active sequence cannot exist by the rotation ordering, so it is
        outside interference and refused. Quarantined ``.quarantined``
        files are not segment files and are left alone.
        """
        plane = get_plane()
        retained = {segment.seq for segment in self._sealed}
        retained.add(self._active_seq)
        for candidate in self._dir.glob(self._base.name + ".*"):
            match = _SEGMENT_SUFFIX.search(candidate.name)
            if not match or candidate.name[: match.start()] != self._base.name:
                continue
            seq = int(match.group(1))
            if seq in retained:
                continue
            if seq > self._active_seq:
                raise ServiceError(
                    f"{candidate}: segment file newer than the manifest's "
                    "active segment; the log was modified outside this "
                    "process"
                )
            plane.unlink(candidate)
        if 0 not in retained and self._base.exists():
            plane.unlink(self._base)

    def _sweep_tmp_files(self) -> None:
        """Delete orphan ``*.tmp`` files from interrupted replaces.

        Every durable replace in this module writes ``<final>.tmp``
        first; a crash between the tmp write and the rename strands
        the tmp file. Only the module's own tmp names are swept —
        unrelated files in a shared directory are never touched.
        """
        plane = get_plane()
        for name in (
            _manifest_path(self._base).name + ".tmp",
            CHECKPOINT_NPZ + ".tmp",
            CHECKPOINT_JSON + ".tmp",
            SERVICE_META + ".tmp",
        ):
            candidate = self._dir / name
            if candidate.exists():
                plane.unlink(candidate)
                self.tmp_swept += 1
                self._c_tmp_swept.inc()

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """The log's base path (the name of segment 0 / the state file)."""
        return self._base

    @property
    def n_frames(self) -> int:
        """Global number of durable frames ever appended (incl. retired)."""
        return self._active_base + self._active_frames

    @property
    def first_retained_frame(self) -> int:
        """Global index of the oldest frame still on disk.

        0 until a compaction retires the log head; replay can never
        start before this.
        """
        if self._sealed:
            return self._sealed[0].base_frame
        return self._active_base

    @property
    def segments(self) -> "List[SegmentInfo]":
        """Sealed segments plus the active tail, in log order."""
        return [*self._sealed, self._active_info()]

    @property
    def n_segments(self) -> int:
        return len(self._sealed) + 1

    @property
    def quarantined(self) -> "List[dict]":
        """Audit records of quarantined sealed segments, in log order.

        Each record carries the segment's identity and frame range
        (the frames live on in checkpoint counts, never on disk) plus
        the reason it was set aside.
        """
        return [
            {
                "seq": segment.seq,
                "base_frame": segment.base_frame,
                "frames": segment.n_frames,
                "bytes": segment.n_bytes,
                "reason": self._quarantined[segment.seq],
            }
            for segment in self._sealed
            if segment.seq in self._quarantined
        ]

    def _active_info(self) -> SegmentInfo:
        return SegmentInfo(
            seq=self._active_seq,
            base_frame=self._active_base,
            n_frames=self._active_frames,
            n_bytes=self._active_bytes,
        )

    # ------------------------------------------------------------------
    def _commit(self, frames: "List[bytes]") -> None:
        """Write + fsync ``frames`` with rollback and bounded retries.

        On any ``OSError`` the partial tail is rolled back to the last
        acknowledged byte, so the on-disk log is identical whether the
        attempt never happened or is about to be retried. Storage-full
        errors surface immediately (the device will not drain itself);
        transients get the retry schedule, then surface typed. Either
        way the caller sees the log exactly as acknowledged — no raw
        ``OSError`` and no silent partial frame, ever.
        """
        if self._broken:
            raise TransientIOError(
                f"{self._base}: journal writer disabled after an "
                "unrecoverable I/O failure; reopen the log to recover"
            )
        delays = self._retry.delays()
        for attempt in range(self._retry.attempts):
            try:
                if len(frames) == 1:
                    self._writer.write(frames[0])
                else:
                    self._writer.write_many(frames)
                self._writer.sync()
                return
            except OSError as exc:
                mapped = _storage_error(exc, f"{self._base}: append failed")
                self._rollback()
                if (
                    isinstance(mapped, StorageFullError)
                    or attempt == self._retry.attempts - 1
                ):
                    raise mapped from exc
                self._c_append_retries.inc()
                self._retry.sleep(next(delays))

    def _rollback(self) -> None:
        """Truncate the active segment back to the acknowledged prefix.

        A failed or torn append may have persisted any prefix of the
        attempted bytes past ``_active_bytes`` (everything before that
        offset was fsynced and acknowledged). Truncating restores the
        exact acknowledged log, so a retry — or a typed refusal — is
        indistinguishable on disk from the fault never happening. If
        the rollback itself fails, the writer is marked broken (disk
        and bookkeeping may disagree) and only a reopen, which rescans
        and re-truncates, can resume writing.
        """
        try:
            self._writer.close()
        except OSError:
            pass
        active = _segment_path(self._base, self._active_seq)
        plane = get_plane()
        try:
            with open(active, "r+b") as handle:
                plane.truncate(handle, self._active_bytes)
                plane.fsync(handle.fileno(), path=active)
            self._writer = FrameWriter(active, append=True)
        except OSError as exc:
            self._broken = True
            raise _storage_error(
                exc, f"{active}: rollback after a failed append also failed"
            ) from exc
        self._c_rollbacks.inc()

    def append(self, frame: bytes) -> int:
        """Durably append one frame; returns its global log index."""
        if not frame:
            raise ServiceError("refusing to write an empty frame")
        self._commit([frame])
        index = self.n_frames
        self._active_frames += 1
        entry_bytes = _LENGTH.size + len(frame)
        self._active_bytes += entry_bytes
        self._c_append_frames.inc()
        self._c_append_bytes.inc(entry_bytes)
        self._maybe_rotate()
        return index

    def append_many(self, frames) -> range:
        """Group-commit: durably append a batch under a single fsync.

        All frames go down in one contiguous write followed by one
        ``fsync`` — the whole batch becomes durable (and acknowledged)
        together. A crash mid-commit can leave a prefix of the batch,
        or a torn final entry, on disk; neither was acknowledged, and
        reopening truncates the torn entry, so the write-ahead
        contract (log ⊇ absorbed state) is unchanged. Rotation is
        checked after the batch, so a segment can overshoot
        ``segment_bytes`` by at most one commit window. Returns the
        batch's global log index range.
        """
        frames = list(frames)
        start = self.n_frames
        if not frames:
            return range(start, start)
        if any(not frame for frame in frames):
            raise ServiceError("refusing to write an empty frame")
        with self._sp_append_many:
            self._commit(frames)
        self._active_frames += len(frames)
        batch_bytes = sum(_LENGTH.size + len(frame) for frame in frames)
        self._active_bytes += batch_bytes
        self._c_append_frames.inc(len(frames))
        self._c_append_bytes.inc(batch_bytes)
        self._maybe_rotate()
        return range(start, self.n_frames)

    def _maybe_rotate(self) -> None:
        if (
            self._segment_bytes is None
            or self._active_bytes < self._segment_bytes
        ):
            return
        self._rotate()

    def _rotate(self) -> None:
        """Seal the active segment and open its successor.

        Ordering (each step durable before the next): sync + close the
        active file, record it in the manifest, create the new active
        file. A crash before the manifest write leaves an oversized
        tail that reopen re-seals; a crash after it leaves a manifest
        whose active segment does not exist yet, which reopen creates
        empty. Frames are never moved or rewritten.

        An I/O failure mid-rotation may leave in-memory bookkeeping
        ahead of disk, so it marks the writer broken (appends refuse)
        and surfaces typed; every already-appended frame is durable,
        and reopening re-runs the interrupted rotation from the disk
        state.
        """
        try:
            with trace("journal.rotate", self._metrics):
                _crash_point("rotate:before-seal")
                self._writer.sync()
                self._writer.close()
                _crash_point("rotate:sealed")
                self._sealed.append(self._active_info())
                self._active_seq += 1
                self._active_base = self._sealed[-1].end_frame
                self._active_frames = 0
                self._active_bytes = 0
                _save_manifest(
                    self._base,
                    self._sealed,
                    self._active_seq,
                    self._active_base,
                    self._quarantined,
                )
                _crash_point("rotate:manifest-written")
                active = _segment_path(self._base, self._active_seq)
                active.touch()
                _fsync_dir(self._dir)
                _crash_point("rotate:active-created")
                self._writer = FrameWriter(active, append=True)
        except OSError as exc:
            self._broken = True
            raise _storage_error(
                exc, f"{self._base}: segment rotation failed"
            ) from exc
        self._c_rotations.inc()

    # ------------------------------------------------------------------
    def retire(self, upto_frame: int) -> "tuple[int, int]":
        """Delete sealed segments wholly covered by ``upto_frame``.

        ``upto_frame`` must be the frame count of a *durable*
        checkpoint: once a segment is retired the log alone can no
        longer reconstruct it, so recovery depends on that checkpoint.
        The manifest drops the segments first (durably), then the
        files are unlinked — a crash in between leaves orphans the
        next open deletes. The active segment is never retired.
        Returns ``(segments_retired, bytes_freed)``.
        """
        if upto_frame < 0 or upto_frame > self.n_frames:
            raise ServiceError(
                f"retire upto_frame {upto_frame} out of range for "
                f"{self.n_frames} frames"
            )
        retirable = [
            segment
            for segment in self._sealed
            if segment.end_frame <= upto_frame
        ]
        if not retirable:
            return 0, 0
        try:
            with trace("journal.retire", self._metrics):
                _crash_point("retire:before-manifest")
                self._sealed = self._sealed[len(retirable):]
                retired_quarantine = {
                    segment.seq for segment in retirable
                } & set(self._quarantined)
                for seq in retired_quarantine:
                    del self._quarantined[seq]
                _save_manifest(
                    self._base,
                    self._sealed,
                    self._active_seq,
                    self._active_base,
                    self._quarantined,
                )
                _crash_point("retire:manifest-written")
                plane = get_plane()
                freed = 0
                for segment in retirable:
                    seg_path = _segment_path(self._base, segment.seq)
                    if segment.seq in retired_quarantine:
                        # The damaged file lives under the aside name.
                        seg_path = seg_path.with_name(
                            seg_path.name + QUARANTINE_SUFFIX
                        )
                    try:
                        plane.unlink(seg_path)
                    except FileNotFoundError:
                        pass
                    freed += segment.n_bytes
                    _crash_point("retire:unlinked-one")
                _fsync_dir(self._dir)
        except OSError as exc:
            self._broken = True
            raise _storage_error(
                exc, f"{self._base}: compaction failed"
            ) from exc
        self._c_segments_retired.inc(len(retirable))
        self._c_bytes_retired.inc(freed)
        return len(retirable), freed

    # ------------------------------------------------------------------
    def replay(self, start: int = 0) -> Iterator[bytes]:
        """Stream frames from global index ``start`` onward (recovery).

        O(frame) memory and O(tail) I/O: segments ending at or before
        ``start`` are skipped entirely (no reads), and inside the
        first relevant segment the skipped prefix is seeked over.
        ``start`` below :attr:`first_retained_frame` is refused —
        those frames were retired under a checkpoint and no longer
        exist. A torn entry mid-log means outside interference (the
        tail was truncated clean on open; appends are whole frames)
        and raises.
        """
        if start < 0 or start > self.n_frames:
            raise ServiceError(
                f"replay start {start} out of range for "
                f"{self.n_frames} frames"
            )
        if start < self.first_retained_frame:
            raise ServiceError(
                f"replay start {start} precedes the first retained frame "
                f"{self.first_retained_frame}; earlier frames were "
                "compacted away under a checkpoint"
            )
        self._writer.sync()
        for segment in self.segments:
            if segment.end_frame <= start or segment.n_frames == 0:
                continue
            path = _segment_path(self._base, segment.seq)
            if segment.seq in self._quarantined:
                raise SegmentQuarantinedError(
                    f"{path}: frames [{segment.base_frame}, "
                    f"{segment.end_frame}) were quarantined "
                    f"({self._quarantined[segment.seq]}); replay from "
                    f"{start} would cross them — recover from the "
                    "checkpoint that covers them instead"
                )
            skip = max(0, start - segment.base_frame)
            try:
                with open(path, "rb") as handle:
                    _skip_entries(path, handle, skip)
                    try:
                        for frame in _iter_entries(path, handle):
                            self._c_replay_frames.inc()
                            yield frame
                    except _TornTail:
                        if segment.seq != self._active_seq:
                            raise SegmentQuarantinedError(
                                f"{path}: torn entry inside a sealed "
                                "segment; its frames are corrupt on "
                                "disk and not recoverable from the "
                                "log alone"
                            ) from None
                        raise ServiceError(
                            f"{path}: torn entry in an open log; the "
                            "file was modified outside this process"
                        ) from None
            except OSError as exc:
                raise _storage_error(
                    exc, f"{path}: replay read failed"
                ) from exc

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "IngestionLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Checkpoint:
    """A restored collector snapshot.

    ``counts`` maps attribute name to its int64 count vector;
    ``frames_applied`` is the number of log frames the snapshot covers
    (replay resumes there); the fingerprints pin the design the counts
    were collected under.
    """

    counts: Mapping
    frames_applied: int
    schema_fingerprint: int
    matrix_fingerprints: Mapping


def save_checkpoint(
    state_dir,
    *,
    counts: Mapping,
    order,
    frames_applied: int,
    schema_fp: int,
    matrix_fps: Mapping,
) -> None:
    """Atomically write the checkpoint pair into ``state_dir``.

    ``order`` fixes the attribute order of the npz keys (``counts_0``,
    ``counts_1``, ...) so attribute names never have to be valid zip
    member names. Both files go through ``os.replace``; the sidecar
    carries a CRC of the npz bytes, so a crash between the two replaces
    is detected at load time instead of restoring mismatched state.
    """
    state = Path(state_dir)
    state.mkdir(parents=True, exist_ok=True)
    order = list(order)
    if set(order) != set(counts):
        raise ServiceError(
            f"checkpoint order {order} does not cover counts for "
            f"{sorted(counts)}"
        )
    arrays = {
        f"counts_{i}": np.asarray(counts[name], dtype=np.int64)
        for i, name in enumerate(order)
    }
    # Serialize the npz in memory once: the same bytes feed the CRC and
    # the file write, instead of writing then re-reading for the CRC.
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    raw = buffer.getvalue()
    npz_crc = zlib.crc32(raw)
    sidecar = {
        "version": _CHECKPOINT_VERSION,
        "attributes": order,
        "frames_applied": int(frames_applied),
        "schema_fingerprint": int(schema_fp),
        "matrix_fingerprints": {
            name: matrix_fps[name] for name in order
        },
        "npz_crc32": npz_crc,
    }
    plane = get_plane()
    npz_tmp = state / (CHECKPOINT_NPZ + ".tmp")
    json_tmp = state / (CHECKPOINT_JSON + ".tmp")
    try:
        with open(npz_tmp, "wb", buffering=0) as handle:
            plane.write(handle, raw)
            plane.fsync(handle.fileno(), path=npz_tmp)
        with open(json_tmp, "wb", buffering=0) as handle:
            plane.write(
                handle, json.dumps(sidecar, indent=2).encode("utf-8")
            )
            plane.fsync(handle.fileno(), path=json_tmp)
        # Both file bodies are already fsynced; rename the pair and
        # persist the directory entries with ONE fsync. A crash between
        # the two renames leaves a mixed pair, which the sidecar's npz
        # CRC detects at load time — the same guarantee two directory
        # fsyncs gave, at half the cost on the checkpoint hot path.
        plane.replace(npz_tmp, state / CHECKPOINT_NPZ)
        plane.replace(json_tmp, state / CHECKPOINT_JSON)
        _fsync_dir(state)
    except OSError as exc:
        # A failed checkpoint never damages the previous pair: final
        # names only change via the atomic replaces above, and a
        # stranded tmp file is swept on the next journal open.
        raise _storage_error(exc, f"{state}: checkpoint write failed") from exc


def load_checkpoint(state_dir) -> "Checkpoint | None":
    """Load and validate the checkpoint pair; ``None`` when absent."""
    state = Path(state_dir)
    json_path = state / CHECKPOINT_JSON
    npz_path = state / CHECKPOINT_NPZ
    if not json_path.exists():
        return None
    if not npz_path.exists():
        raise ServiceError(
            f"{state}: checkpoint sidecar present but {CHECKPOINT_NPZ} "
            "missing; checkpoint is unusable"
        )
    plane = get_plane()
    try:
        sidecar = json.loads(plane.read_bytes(json_path).decode("utf-8"))
    except ValueError as exc:
        # JSONDecodeError, or UnicodeDecodeError from bit rot.
        raise ServiceError(f"{json_path}: corrupt sidecar: {exc}") from None
    except OSError as exc:
        raise _storage_error(
            exc, f"{json_path}: checkpoint read failed"
        ) from exc
    if sidecar.get("version") != _CHECKPOINT_VERSION:
        raise ServiceError(
            f"unsupported checkpoint version {sidecar.get('version')!r}"
        )
    try:
        raw = plane.read_bytes(npz_path)
    except OSError as exc:
        raise _storage_error(
            exc, f"{npz_path}: checkpoint read failed"
        ) from exc
    if zlib.crc32(raw) != sidecar["npz_crc32"]:
        raise ServiceError(
            f"{npz_path}: CRC mismatch against sidecar; the checkpoint "
            "pair is torn (crash between writes) or corrupted"
        )
    order = sidecar["attributes"]
    with np.load(io.BytesIO(raw)) as archive:
        counts = {
            name: archive[f"counts_{i}"].astype(np.int64)
            for i, name in enumerate(order)
        }
    return Checkpoint(
        counts=counts,
        frames_applied=int(sidecar["frames_applied"]),
        schema_fingerprint=int(sidecar["schema_fingerprint"]),
        matrix_fingerprints=dict(sidecar["matrix_fingerprints"]),
    )


# ----------------------------------------------------------------------
# Service meta (the design a state directory was created for)
# ----------------------------------------------------------------------
def save_service_meta(state_dir, *, schema_fp: int, matrix_fps: Mapping) -> None:
    """Pin a state directory to one collection design, durably.

    Written once when the directory is first used. Checkpoints carry
    the same fingerprints, but a crash before the first checkpoint
    leaves only the log — and log frames are pinned to the *schema*
    alone, not the matrices, so without this file a log-only directory
    could be resumed under a different-matrix design and silently
    invert the wrong channel.
    """
    state = Path(state_dir)
    state.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": _META_VERSION,
        "schema_fingerprint": int(schema_fp),
        "matrix_fingerprints": dict(matrix_fps),
    }
    plane = get_plane()
    tmp = state / (SERVICE_META + ".tmp")
    try:
        with open(tmp, "wb", buffering=0) as handle:
            plane.write(
                handle, json.dumps(payload, indent=2).encode("utf-8")
            )
            plane.fsync(handle.fileno(), path=tmp)
        _replace_durably(tmp, state / SERVICE_META)
    except OSError as exc:
        raise _storage_error(
            exc, f"{state}: service meta write failed"
        ) from exc


def load_service_meta(state_dir) -> "dict | None":
    """The design fingerprints a state directory is pinned to, if any."""
    path = Path(state_dir) / SERVICE_META
    if not path.exists():
        return None
    try:
        payload = json.loads(get_plane().read_bytes(path).decode("utf-8"))
    except ValueError as exc:
        raise ServiceError(f"{path}: corrupt service meta: {exc}") from None
    except OSError as exc:
        raise _storage_error(
            exc, f"{path}: service meta read failed"
        ) from exc
    if payload.get("version") != _META_VERSION:
        raise ServiceError(
            f"unsupported service meta version {payload.get('version')!r}"
        )
    return payload
