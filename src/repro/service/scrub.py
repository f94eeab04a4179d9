"""Offline deep verification of a collector state directory.

``repro-anonymize stats`` answers "what is in this directory?" from
metadata alone; ``repro-anonymize scrub`` answers the harder operator
question "is every byte of it still trustworthy?" — the periodic
bit-rot patrol a durable store needs, because a corrupt sealed segment
or checkpoint is otherwise only discovered by the recovery that needed
it.

:func:`scrub_state_dir` walks the whole directory read-only (no lock,
no mutation, safe against a live collector's directory):

* every retained journal segment is streamed entry by entry, and every
  frame's wire envelope is re-verified — magic, version, flags, CRC-32
  trailer, and schema fingerprint against the directory's pinned
  design;
* sealed segments must hold exactly the frame and byte counts their
  manifest entry records; the active tail may end in a torn entry
  (an un-acknowledged crash artifact, reported but not an error);
* the checkpoint npz is re-read and its CRC-32 checked against the
  sidecar, the sidecar's fingerprints against the pinned design, and
  its frame coverage against the log's bounds;
* quarantined segments and orphan ``*.tmp`` files are reported.

The result is a JSON-ready report; ``ok`` is True iff nothing that
recovery depends on is damaged. Scrubbing never repairs — repair
decisions (reopen to truncate a torn tail, quarantine via reopen,
restore from the checkpoint) belong to the operator and the service.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path

from repro.exceptions import ServiceError
from repro.service.codec import _HEADER, _TRAILER, MAGIC, WIRE_VERSION
from repro.service.journal import (
    CHECKPOINT_JSON,
    CHECKPOINT_NPZ,
    LOG_NAME,
    QUARANTINE_SUFFIX,
    SERVICE_META,
    _iter_entries,
    _load_manifest,
    _manifest_path,
    _segment_path,
    _TornTail,
    load_checkpoint,
    load_service_meta,
    walk_state_root,
)

__all__ = ["scrub_state_dir", "verify_frame_envelope"]


def verify_frame_envelope(frame: bytes, *, schema_fp: "int | None") -> None:
    """Re-verify one wire frame's envelope without decoding its codes.

    The schema-independent subset of the codec's validation: magic,
    version, flags, CRC-32 of the whole body, and (when the directory
    pins a design) the schema fingerprint. Raises
    :class:`~repro.exceptions.ServiceError` on the first violation.
    """
    if len(frame) < _HEADER.size + _TRAILER.size:
        raise ServiceError(
            f"frame of {len(frame)} bytes is shorter than the "
            f"{_HEADER.size + _TRAILER.size}-byte envelope"
        )
    magic, version, flags, fingerprint, count = _HEADER.unpack_from(frame)
    if magic != MAGIC:
        raise ServiceError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise ServiceError(f"unsupported wire version {version}")
    if flags != 0:
        raise ServiceError(f"unsupported flags {flags:#x}")
    if count < 1:
        raise ServiceError("frame claims zero records")
    if schema_fp is not None and fingerprint != schema_fp:
        raise ServiceError(
            f"schema fingerprint {fingerprint} does not match the "
            f"directory's pinned design ({schema_fp})"
        )
    (crc,) = _TRAILER.unpack_from(frame, len(frame) - _TRAILER.size)
    if crc != zlib.crc32(frame[: -_TRAILER.size]):
        raise ServiceError("CRC-32 mismatch: frame bytes are corrupt")


def _scrub_segment(path: Path, *, schema_fp, sealed: bool) -> dict:
    """Stream one segment file, re-verifying every frame envelope.

    Returns ``{"frames", "bytes", "torn_tail_bytes", "errors"}``.
    A torn final entry is an error in a sealed segment (its bytes were
    settled before the manifest named it) but only a report for the
    active tail (an unacknowledged crash artifact reopening truncates).
    """
    frames = 0
    good = 0
    torn_tail = 0
    errors = []
    with open(path, "rb") as handle:
        iterator = _iter_entries(path, handle)
        while True:
            try:
                frame = next(iterator)
            except StopIteration:
                break
            except _TornTail as torn:
                dropped = os.path.getsize(path) - torn.good_length
                if sealed:
                    errors.append(
                        f"{path}: torn entry after {frames} frames in a "
                        "sealed segment"
                    )
                else:
                    torn_tail = dropped
                break
            except ServiceError as exc:
                errors.append(str(exc))
                break
            try:
                verify_frame_envelope(frame, schema_fp=schema_fp)
            except ServiceError as exc:
                errors.append(f"{path}: frame {frames}: {exc}")
                break
            frames += 1
            good += 4 + len(frame)  # length prefix + payload
    return {
        "frames": frames,
        "bytes": good,
        "torn_tail_bytes": torn_tail,
        "errors": errors,
    }


def _scrub_checkpoint(state: Path, *, meta, n_frames, first_retained):
    """Verify the checkpoint pair; returns ``(section, errors)``."""
    section = {"present": False, "frames_applied": None}
    errors = []
    if not (state / CHECKPOINT_JSON).exists() and not (
        state / CHECKPOINT_NPZ
    ).exists():
        if first_retained > 0:
            errors.append(
                f"log frames before {first_retained} were compacted away "
                "but no checkpoint exists; the directory is unrecoverable"
            )
        return section, errors
    try:
        # load_checkpoint re-reads the npz and checks its CRC-32
        # against the sidecar — the deep half of this verification.
        checkpoint = load_checkpoint(state)
    except ServiceError as exc:
        errors.append(f"checkpoint: {exc}")
        return {"present": True, "frames_applied": None}, errors
    if checkpoint is None:
        # npz without its sidecar: the pair is incomplete, so recovery
        # would ignore it — an orphan worth flagging, not trusting.
        errors.append(
            f"checkpoint: {CHECKPOINT_NPZ} exists without its "
            f"{CHECKPOINT_JSON} sidecar"
        )
        return {"present": True, "frames_applied": None}, errors
    section = {
        "present": True,
        "frames_applied": int(checkpoint.frames_applied),
    }
    if meta is not None:
        if checkpoint.schema_fingerprint != meta["schema_fingerprint"]:
            errors.append(
                "checkpoint: schema fingerprint does not match the "
                "directory's pinned design"
            )
        if checkpoint.matrix_fingerprints != meta["matrix_fingerprints"]:
            errors.append(
                "checkpoint: matrix fingerprints do not match the "
                "directory's pinned design"
            )
    if checkpoint.frames_applied > n_frames:
        errors.append(
            f"checkpoint covers {checkpoint.frames_applied} frames but "
            f"the log only holds {n_frames}"
        )
    if checkpoint.frames_applied < first_retained:
        errors.append(
            f"checkpoint covers only {checkpoint.frames_applied} frames "
            f"but the log starts at {first_retained}; the gap is "
            "unrecoverable"
        )
    return section, errors


def scrub_state_dir(state_dir) -> dict:
    """Deep-verify every artifact of ``state_dir``; returns a report.

    Read-only and lock-free — safe to run against a live collector's
    directory (a frame appended mid-scan can at worst look like a torn
    active tail, which is a report, not an error). ``ok`` is True iff
    every byte recovery depends on verified: all retained sealed
    segments and the active tail's complete prefix, the checkpoint
    pair, and their mutual coverage bounds.

    A collector-*server* root (``server.json``) or a single tenant
    directory (``tenant.json``) recurses: every client stream's state
    directory is scrubbed as its own collector, and ``ok`` is True iff
    every stream verified.
    """
    state = Path(state_dir)
    if not state.is_dir():
        raise ServiceError(f"{state}: not a state directory")
    kind, tenants = walk_state_root(state)
    if kind == "server":
        return _scrub_server_root(state, tenants)
    if kind == "tenant":
        return _scrub_tenant_dir(*tenants[state.name])
    return _scrub_flat_dir(state)


def _scrub_tenant_dir(state: Path, client_dirs: dict) -> dict:
    """Scrub every client stream of one tenant directory."""
    # Imported here (not at module top) to keep the scrub module free
    # of the network package at import time — scrub is the one tool
    # operators run on machines that never serve.
    from repro.service.net.storage import load_tenant_meta

    pin = load_tenant_meta(state)
    errors = []
    clients = {}
    for name, client_dir in client_dirs.items():
        report = scrub_state_dir(client_dir)
        clients[name] = report
        errors.extend(f"client {name}: {m}" for m in report["errors"])
        # The tenant pin and each stream's own design pin must agree:
        # a client dir pinned to a different schema was written by a
        # different design and cannot merge into this tenant.
        stream_fp = report.get("design", {}).get("schema_fingerprint")
        if stream_fp is not None and pin is not None:
            if int(stream_fp) != int(pin["schema_fingerprint"]):
                errors.append(
                    f"client {name}: stream pinned to schema {stream_fp}, "
                    f"tenant pinned to {pin['schema_fingerprint']}"
                )
    return {
        "state_dir": str(state),
        "ok": not errors,
        "errors": errors,
        "warnings": [],
        "tenant": dict(pin or {}),
        "clients": clients,
    }


def _scrub_server_root(state: Path, tenant_dirs: dict) -> dict:
    """Scrub every tenant (and every client stream) of a server root."""
    errors = []
    tenants = {}
    for tenant, (tenant_dir, client_dirs) in tenant_dirs.items():
        report = _scrub_tenant_dir(tenant_dir, client_dirs)
        tenants[tenant] = report
        errors.extend(f"tenant {tenant}: {m}" for m in report["errors"])
    return {
        "state_dir": str(state),
        "ok": not errors,
        "errors": errors,
        "warnings": [],
        "tenants": tenants,
    }


def _scrub_flat_dir(state: Path) -> dict:
    errors = []
    warnings = []
    meta = None
    try:
        meta = load_service_meta(state)
    except ServiceError as exc:
        errors.append(f"service meta: {exc}")
    schema_fp = None if meta is None else int(meta["schema_fingerprint"])
    base = state / LOG_NAME
    sealed, active_seq, active_base, quarantined = _load_manifest(base)
    segments_report = []
    scanned_frames = 0
    scanned_bytes = 0
    torn_tail_bytes = 0
    for segment in sealed:
        seg_path = _segment_path(base, segment.seq)
        entry = {
            "seq": segment.seq,
            "base_frame": segment.base_frame,
            "frames": segment.n_frames,
            "bytes": segment.n_bytes,
            "verified": False,
        }
        if segment.seq in quarantined:
            entry["quarantined"] = quarantined[segment.seq]
            warnings.append(
                f"segment {segment.seq}: quarantined "
                f"({quarantined[segment.seq]}); frames "
                f"[{segment.base_frame}, {segment.end_frame}) live only "
                "in checkpoint counts"
            )
            segments_report.append(entry)
            continue
        if not seg_path.exists():
            errors.append(f"{seg_path}: sealed segment file missing")
            segments_report.append(entry)
            continue
        result = _scrub_segment(seg_path, schema_fp=schema_fp, sealed=True)
        errors.extend(result["errors"])
        if not result["errors"] and (
            result["frames"] != segment.n_frames
            or result["bytes"] != segment.n_bytes
        ):
            errors.append(
                f"{seg_path}: holds {result['frames']} frames / "
                f"{result['bytes']} bytes but the manifest records "
                f"{segment.n_frames} / {segment.n_bytes}"
            )
        else:
            entry["verified"] = not result["errors"]
        scanned_frames += result["frames"]
        scanned_bytes += result["bytes"]
        segments_report.append(entry)
    active_path = _segment_path(base, active_seq)
    active_frames = 0
    if active_path.exists():
        result = _scrub_segment(active_path, schema_fp=schema_fp, sealed=False)
        errors.extend(result["errors"])
        active_frames = result["frames"]
        torn_tail_bytes = result["torn_tail_bytes"]
        scanned_frames += result["frames"]
        scanned_bytes += result["bytes"]
        segments_report.append(
            {
                "seq": active_seq,
                "base_frame": active_base,
                "frames": result["frames"],
                "bytes": result["bytes"],
                "verified": not result["errors"],
            }
        )
        if torn_tail_bytes:
            warnings.append(
                f"{active_path}: {torn_tail_bytes} bytes of torn tail "
                "(unacknowledged crash artifact; reopening truncates it)"
            )
    n_frames = active_base + active_frames
    first_retained = sealed[0].base_frame if sealed else active_base
    checkpoint_section, checkpoint_errors = _scrub_checkpoint(
        state, meta=meta, n_frames=n_frames, first_retained=first_retained
    )
    errors.extend(checkpoint_errors)
    tmp_files = sorted(
        candidate.name
        for candidate in (
            _manifest_path(base).with_name(_manifest_path(base).name + ".tmp"),
            state / (CHECKPOINT_NPZ + ".tmp"),
            state / (CHECKPOINT_JSON + ".tmp"),
            state / (SERVICE_META + ".tmp"),
        )
        if candidate.exists()
    )
    for name in tmp_files:
        warnings.append(
            f"{name}: orphan tmp file from an interrupted replace "
            "(reopening the collector sweeps it)"
        )
    quarantine_files = sorted(
        candidate.name
        for candidate in state.glob(base.name + ".*" + QUARANTINE_SUFFIX)
    )
    return {
        "state_dir": str(state),
        "ok": not errors,
        "errors": errors,
        "warnings": warnings,
        "journal": {
            "n_frames": int(n_frames),
            "first_retained_frame": int(first_retained),
            "frames_verified": int(scanned_frames),
            "bytes_verified": int(scanned_bytes),
            "torn_tail_bytes": int(torn_tail_bytes),
            "segments": segments_report,
            "quarantine_files": quarantine_files,
        },
        "checkpoint": checkpoint_section,
        "design": {
            "pinned": meta is not None,
            "schema_fingerprint": schema_fp,
        },
        "tmp_files": tmp_files,
    }
