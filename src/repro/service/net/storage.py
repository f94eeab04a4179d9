"""Storage connector seam for the multi-tenant collector server.

The tenant manager never touches the filesystem directly: it resolves
every tenant and client-stream state directory through a
:class:`StorageBackend`. Today that is :class:`LocalFSBackend` — plain
directories under one server root — but the seam is the abstraction
the ROADMAP asks for: a journal living behind an object store or a
database connector later only has to implement this surface.

On-disk layout of a server root (local FS backend)::

    <root>/
        server.json                  # root marker + registry metadata
        tenants/
            <tenant>/
                tenant.json          # design pin for the tenant
                clients/
                    <client>/        # one CollectorService state dir
                        service.json, journal segments, checkpoint...

Each (tenant, client) stream owns a *whole* collector state directory
— single writer, single journal — which is what makes the ack's
durable frame index exact. Tenant-level answers merge the
per-client counts, which is sound because randomized-response counts
are additive and order-independent.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from pathlib import Path
from typing import List

from repro.exceptions import HandshakeError, ServiceError
from repro.faults.plane import get_plane
from repro.service.journal import (
    SERVER_META,
    TENANT_META,
    _replace_durably,
    _storage_error,
)
from repro.service.net.protocol import valid_name

__all__ = [
    "SERVER_META",
    "TENANT_META",
    "StorageBackend",
    "LocalFSBackend",
    "save_server_meta",
    "load_server_meta",
    "save_tenant_meta",
    "load_tenant_meta",
]

_SERVER_META_VERSION = 1
_TENANT_META_VERSION = 2


def _write_json_durably(path: Path, payload: dict, *, context: str) -> None:
    """The repo's durable small-JSON idiom: tmp + fsync + replace."""
    plane = get_plane()
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb", buffering=0) as handle:  # repro-lint: ignore[RPL302] -- JSON meta, not frame data
            plane.write(handle, json.dumps(payload, indent=2).encode("utf-8"))
            plane.fsync(handle.fileno(), path=tmp)
        _replace_durably(tmp, path)
    except OSError as exc:
        raise _storage_error(exc, f"{path}: {context} write failed") from exc


def _read_json(path: Path, *, context: str) -> "dict | None":
    if not path.exists():
        return None
    try:
        payload = json.loads(get_plane().read_bytes(path).decode("utf-8"))
    except ValueError as exc:
        raise ServiceError(f"{path}: corrupt {context}: {exc}") from None
    except OSError as exc:
        raise _storage_error(exc, f"{path}: {context} read failed") from exc
    return payload


def save_server_meta(root, *, payload: "dict | None" = None) -> None:
    """Mark ``root`` as a collector-server state root, durably."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    doc = {"version": _SERVER_META_VERSION, **(payload or {})}
    _write_json_durably(root / SERVER_META, doc, context="server meta")


def load_server_meta(root) -> "dict | None":
    """The server-root marker document, if ``root`` is one."""
    payload = _read_json(Path(root) / SERVER_META, context="server meta")
    if payload is None:
        return None
    if payload.get("version") != _SERVER_META_VERSION:
        raise ServiceError(
            f"unsupported server meta version {payload.get('version')!r}"
        )
    return payload


def save_tenant_meta(
    tenant_dir,
    *,
    tenant: str,
    protocol: str,
    schema_fp: int,
    design_fp: str,
) -> None:
    """Pin a tenant directory to one design document, durably.

    Written once when the tenant is first opened; every later open —
    and every session handshake — verifies against it, so a server
    restarted with a different design file for the same tenant name
    refuses loudly instead of mixing streams encoded under different
    matrices.
    """
    tenant_dir = Path(tenant_dir)
    tenant_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "version": _TENANT_META_VERSION,
        "tenant": str(tenant),
        "protocol": str(protocol),
        "schema_fingerprint": int(schema_fp),
        "design_fingerprint": str(design_fp),
    }
    _write_json_durably(tenant_dir / TENANT_META, doc, context="tenant meta")


def load_tenant_meta(tenant_dir) -> "dict | None":
    """The design pin of a tenant directory, if one exists."""
    payload = _read_json(
        Path(tenant_dir) / TENANT_META, context="tenant meta"
    )
    if payload is None:
        return None
    if payload.get("version") != _TENANT_META_VERSION:
        raise ServiceError(
            f"{tenant_dir}: unsupported tenant meta version "
            f"{payload.get('version')!r} (expected {_TENANT_META_VERSION}); "
            "its design fingerprint predates the parametric format, so "
            "serve the tenant from a fresh state root"
        )
    return payload


class StorageBackend(ABC):
    """Where tenant and client-stream state lives.

    The tenant manager resolves every directory through this seam and
    persists the root/tenant markers through it, so a backend that
    stages state somewhere other than the local filesystem only has to
    override this class. Methods that take names must reject anything
    :func:`~repro.service.net.protocol.valid_name` refuses — the
    backend is the last line against path traversal.
    """

    @abstractmethod
    def tenant_dir(self, tenant: str) -> Path:
        """The state directory of ``tenant`` (not necessarily created)."""

    @abstractmethod
    def client_dir(self, tenant: str, client: str) -> Path:
        """The collector state directory of one (tenant, client) stream."""

    @abstractmethod
    def list_tenants(self) -> List[str]:
        """Tenant names with on-disk state, sorted."""

    @abstractmethod
    def list_clients(self, tenant: str) -> List[str]:
        """Client-stream names of ``tenant`` with on-disk state, sorted."""

    @abstractmethod
    def load_server_meta(self) -> "dict | None":
        """The root marker document, if the root is initialized."""

    @abstractmethod
    def save_server_meta(self, payload: "dict | None" = None) -> None:
        """Initialize / refresh the root marker document, durably."""


class LocalFSBackend(StorageBackend):
    """Plain directories under one local server root."""

    def __init__(self, root):
        self.root = Path(root)

    @staticmethod
    def _checked(name: str, *, what: str) -> str:
        if not valid_name(name):
            raise HandshakeError(f"invalid {what} name {name!r}")
        return name

    def tenant_dir(self, tenant: str) -> Path:
        return self.root / "tenants" / self._checked(tenant, what="tenant")

    def client_dir(self, tenant: str, client: str) -> Path:
        return (
            self.tenant_dir(tenant)
            / "clients"
            / self._checked(client, what="client")
        )

    def list_tenants(self) -> List[str]:
        tenants = self.root / "tenants"
        if not tenants.is_dir():
            return []
        return sorted(
            entry.name
            for entry in tenants.iterdir()
            if entry.is_dir() and valid_name(entry.name)
        )

    def list_clients(self, tenant: str) -> List[str]:
        clients = self.tenant_dir(tenant) / "clients"
        if not clients.is_dir():
            return []
        return sorted(
            entry.name
            for entry in clients.iterdir()
            if entry.is_dir() and valid_name(entry.name)
        )

    def load_server_meta(self) -> "dict | None":
        return load_server_meta(self.root)

    def save_server_meta(self, payload: "dict | None" = None) -> None:
        save_server_meta(self.root, payload=payload)

    def __repr__(self) -> str:
        return f"LocalFSBackend({str(self.root)!r})"
