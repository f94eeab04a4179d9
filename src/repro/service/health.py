"""Offline, read-only health inspection of a collector state directory.

``repro-anonymize stats`` (and any operator tooling) needs to answer
"what is in this state directory?" *without* opening a live
:class:`~repro.service.pipeline.CollectorService`: opening takes the
exclusive state-dir lock (refusing while a collector is running),
replays the log tail, and truncates a torn final entry — none of which
an inspection should do. :func:`storage_health` reads the manifest,
scans the segment files, and parses the checkpoint sidecar and service
meta as plain files, mutating nothing and taking no lock, so it is safe
to point at the state directory of a *running* collector.

The result is the same document shape as
:meth:`~repro.service.pipeline.CollectorService.health` (validated by
``repro.obs.health_schema.json``) minus the live-only sections
(``counts``, ``cache``, ``runtime``, ``metrics``): the journal layout,
checkpoint coverage, and design fingerprints are all derivable from
disk alone.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.exceptions import ServiceError
from repro.obs.health import HEALTH_VERSION
from repro.service.journal import (
    CHECKPOINT_JSON,
    LOG_NAME,
    SegmentInfo,
    _load_manifest,
    _segment_path,
    load_service_meta,
    scan_frames,
    walk_state_root,
)

__all__ = ["storage_health"]


def _tenant_summary(tenant_dir: Path, client_dirs: dict) -> dict:
    """Offline roll-up of one tenant directory's client streams."""
    from repro.service.net.storage import load_tenant_meta

    pin = load_tenant_meta(tenant_dir) or {}
    clients = {name: storage_health(d) for name, d in client_dirs.items()}
    frames = sum(int(doc["journal"]["n_frames"]) for doc in clients.values())
    return {
        "protocol": pin.get("protocol"),
        "schema_fingerprint": pin.get("schema_fingerprint"),
        "design_fingerprint": pin.get("design_fingerprint"),
        "clients_open": 0,
        "sessions": 0,
        "frames_applied": int(frames),
        "clients": clients,
    }


def _server_storage_health(root: Path, tenant_dirs: dict) -> dict:
    """Offline inspection of a collector-server state root.

    The ``server`` section mirrors the live
    :meth:`~repro.service.net.server.CollectorServer.health` shape
    with the connection-time numbers at rest (no connections, no
    in-flight bytes); ``tenants`` carries the per-tenant roll-ups so
    ``repro-anonymize stats`` renders a whole multi-tenant root from
    disk alone.
    """
    tenants = {
        name: _tenant_summary(*entry) for name, entry in tenant_dirs.items()
    }
    return {
        "version": HEALTH_VERSION,
        "state_dir": str(root),
        "server": {
            "version": 1,
            "connections": 0,
            "tenants_open": len(tenants),
            "bytes_in_flight": 0,
            "backpressure_stalls": 0,
        },
        "tenants": tenants,
    }


def _checkpoint_section(state: Path) -> dict:
    """Checkpoint coverage from the sidecar alone (no npz load).

    A corrupt sidecar still reports ``present`` (the file exists; a
    recovery would warn and fall back to full replay) with an unknown
    ``frames_applied`` — an inspector describes what is on disk, it
    does not judge recoverability.
    """
    sidecar_path = state / CHECKPOINT_JSON
    if not sidecar_path.exists():
        return {"present": False, "frames_applied": None}
    try:
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        frames_applied = int(sidecar["frames_applied"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        frames_applied = None
    return {"present": True, "frames_applied": frames_applied}


def _design_section(state: Path) -> dict:
    # A refused service.json (unsupported version, corrupt) raises the
    # same ServiceError the opening commands and scrub report.
    meta = load_service_meta(state)
    if meta is None:
        return {"schema_fingerprint": None, "matrix_fingerprints": None}
    fps = meta["matrix_fingerprints"]
    return {
        "schema_fingerprint": int(meta["schema_fingerprint"]),
        "matrix_fingerprints": {name: fps[name] for name in sorted(fps)},
    }


def storage_health(state_dir) -> dict:
    """Inspect ``state_dir`` from disk alone; returns a health document.

    Journal numbers are computed exactly the way reopening would see
    them — sealed segments from the manifest, the active tail by
    scanning its clean prefix (a torn final entry is *counted out* but
    not truncated) — so for a cleanly closed directory this matches the
    ``journal`` section of the live service's ``health()`` byte for
    byte.
    """
    state = Path(state_dir)
    if not state.is_dir():
        raise ServiceError(f"{state}: not a state directory")
    kind, tenants = walk_state_root(state)
    if kind == "server":
        return _server_storage_health(state, tenants)
    if kind == "tenant":
        return {
            "version": HEALTH_VERSION,
            "state_dir": str(state),
            "tenants": {state.name: _tenant_summary(*tenants[state.name])},
        }
    base = state / LOG_NAME
    sealed, active_seq, active_base, quarantined = _load_manifest(base)
    active_path = _segment_path(base, active_seq)
    torn_tail_bytes = 0
    if active_path.exists():
        active_frames, active_bytes, torn = scan_frames(active_path)
        if torn:
            # Counted out but not truncated: inspection never mutates.
            torn_tail_bytes = active_path.stat().st_size - active_bytes
    else:
        active_frames, active_bytes = 0, 0
    segments = [
        *sealed,
        SegmentInfo(
            seq=active_seq,
            base_frame=active_base,
            n_frames=active_frames,
            n_bytes=active_bytes,
        ),
    ]
    return {
        "version": HEALTH_VERSION,
        "state_dir": str(state),
        "journal": {
            "n_frames": int(active_base + active_frames),
            "first_retained_frame": int(
                sealed[0].base_frame if sealed else active_base
            ),
            "n_segments": len(segments),
            "total_bytes": int(sum(s.n_bytes for s in segments)),
            "torn_tail_bytes": int(torn_tail_bytes),
            "quarantined": [
                {
                    "seq": int(s.seq),
                    "base_frame": int(s.base_frame),
                    "frames": int(s.n_frames),
                    "bytes": int(s.n_bytes),
                    "reason": quarantined[s.seq],
                }
                for s in sealed
                if s.seq in quarantined
            ],
            "segments": [
                {
                    "seq": int(s.seq),
                    "base_frame": int(s.base_frame),
                    "frames": int(s.n_frames),
                    "bytes": int(s.n_bytes),
                }
                for s in segments
            ],
        },
        "checkpoint": _checkpoint_section(state),
        "design": _design_section(state),
    }
