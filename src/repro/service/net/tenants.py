"""Multi-tenant state management for the collector server.

One server process multiplexes many *tenants* — independent collection
campaigns, each pinned to one design document — onto per-tenant state
directories resolved through a :class:`~repro.service.net.storage.StorageBackend`.
Within a tenant, every *client stream* owns a whole collector service
(its own journal, checkpoint, collector): single-writer streams are
what make the ack's durable frame index exact, so a reconnecting
client resends precisely the frames the journal never fsynced and
nothing double-counts. Tenant-level queries merge the per-client
counts — sound because randomized-response counts are additive and
order-independent, and proven byte-identical to a single offline
ingest of the same frames by the network test suite.

The manager is deliberately synchronous: the asyncio server calls it
only between ``await`` points, so single-threaded event-loop execution
is the mutual exclusion (the journal fsyncs are blocking either way —
that is the group-commit cost, and it is documented at the server).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.streaming import StreamingCollector
from repro.design import load_design
from repro.exceptions import HandshakeError, ServiceError
from repro.obs.registry import MetricsRegistry
from repro.service.net.storage import (
    LocalFSBackend,
    StorageBackend,
    load_tenant_meta,
    save_tenant_meta,
)
from repro.service.pipeline import CollectorService
from repro.service.query import QueryFrontend

__all__ = ["TenantManager", "DEFAULT_BUDGET_BYTES", "DEFAULT_MAX_TENANTS"]

#: Per-tenant in-flight byte budget: frames accepted off sockets but
#: not yet durably journaled. Past it, the server stops *reading* the
#: tenant's sockets (real backpressure) instead of buffering further.
DEFAULT_BUDGET_BYTES = 4 * 1024 * 1024

#: Open-tenant LRU bound: tenants idle beyond it are checkpointed and
#: closed; their state reopens lazily on the next session.
DEFAULT_MAX_TENANTS = 16


def _refuse(code: str, message: str) -> HandshakeError:
    """A typed handshake refusal carrying its wire error code."""
    error = HandshakeError(message)
    error.code = code
    return error


@dataclass
class _TenantState:
    """Everything the server holds for one open tenant."""

    name: str
    protocol: object
    schema_fp: int
    design_fp: str
    metrics: MetricsRegistry
    services: "Dict[str, CollectorService]" = field(default_factory=dict)
    sessions: "set[str]" = field(default_factory=set)
    bytes_in_flight: int = 0
    stalls: int = 0
    frames_ingested: int = 0
    last_used: int = 0
    _query_frontend: "Optional[QueryFrontend]" = None
    _query_key: "Optional[bytes]" = None


class TenantManager:
    """Lazily opened, LRU-bounded collector services keyed by tenant.

    Parameters
    ----------
    backend:
        Where tenant/client state lives. A plain path is wrapped in
        :class:`~repro.service.net.storage.LocalFSBackend`.
    designs:
        ``{tenant name: design document path}`` — the tenants this
        server serves. Sessions naming any other tenant are refused
        with a typed error; there is no implicit tenant creation.
    """

    def __init__(
        self,
        backend,
        designs: "Dict[str, object]",
        *,
        checkpoint_every: "int | None" = None,
        segment_bytes: "int | None" = None,
        max_tenants: int = DEFAULT_MAX_TENANTS,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        metrics: "MetricsRegistry | None" = None,
    ):
        if max_tenants < 1:
            raise ServiceError(f"max_tenants must be >= 1, got {max_tenants}")
        if budget_bytes < 1:
            raise ServiceError(f"budget_bytes must be >= 1, got {budget_bytes}")
        self.backend: StorageBackend = (
            backend
            if isinstance(backend, StorageBackend)
            else LocalFSBackend(backend)
        )
        self._designs = dict(designs)
        self._checkpoint_every = checkpoint_every
        self._segment_bytes = segment_bytes
        self._max_tenants = int(max_tenants)
        self.budget_bytes = int(budget_bytes)
        self._metrics = MetricsRegistry() if metrics is None else metrics
        self._c_opens = self._metrics.counter("net.tenant.opens")
        self._c_evictions = self._metrics.counter("net.tenant.evictions")
        self._c_stalls = self._metrics.counter("net.backpressure.stalls")
        self._g_open = self._metrics.gauge("net.tenants.open")
        self._g_bytes = self._metrics.gauge("net.bytes_in_flight")
        self._open: Dict[str, _TenantState] = {}
        self._clock = 0  # logical LRU clock (no wall time on purpose)

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def tenants(self) -> List[str]:
        """Configured tenant names, sorted."""
        return sorted(self._designs)

    @property
    def open_tenants(self) -> List[str]:
        return sorted(self._open)

    @property
    def bytes_in_flight(self) -> int:
        return sum(state.bytes_in_flight for state in self._open.values())

    @property
    def backpressure_stalls(self) -> int:
        return sum(state.stalls for state in self._open.values())

    # ------------------------------------------------------------------
    # Open / verify / evict
    # ------------------------------------------------------------------
    def _touch(self, state: _TenantState) -> None:
        self._clock += 1
        state.last_used = self._clock

    def open_tenant(self, tenant: str) -> _TenantState:
        """The open state of ``tenant``, opening and pinning lazily."""
        state = self._open.get(tenant)
        if state is not None:
            self._touch(state)
            return state
        design_ref = self._designs.get(tenant)
        if design_ref is None:
            raise _refuse("unknown-tenant", f"unknown tenant {tenant!r}")
        if isinstance(design_ref, tuple):
            protocol, document = design_ref
        else:
            protocol, document = load_design(design_ref)
        payload = document.payload()
        schema_fp = int(payload["schema_fingerprint"])
        design_fp = str(payload["design_fingerprint"])
        tenant_dir = self.backend.tenant_dir(tenant)
        pinned = load_tenant_meta(tenant_dir)
        if pinned is None:
            save_tenant_meta(
                tenant_dir,
                tenant=tenant,
                protocol=payload["protocol"],
                schema_fp=schema_fp,
                design_fp=design_fp,
            )
        elif (
            pinned["schema_fingerprint"] != schema_fp
            or pinned["design_fingerprint"] != design_fp
        ):
            raise ServiceError(
                f"tenant {tenant!r}: state at {tenant_dir} is pinned to "
                f"design {pinned['design_fingerprint']} but the server "
                f"was configured with {design_fp}; refusing to mix "
                f"streams encoded under different designs"
            )
        state = _TenantState(
            name=tenant,
            protocol=protocol,
            schema_fp=schema_fp,
            design_fp=design_fp,
            metrics=self._metrics.child(),
        )
        self._open[tenant] = state
        self._c_opens.inc()
        self._g_open.set(len(self._open))
        self._touch(state)
        self._evict_idle()
        return state

    def _open_service(self, state: _TenantState, client: str):
        service = state.services.get(client)
        if service is not None:
            return service
        client_dir = self.backend.client_dir(state.name, client)
        kwargs = dict(
            checkpoint_every=self._checkpoint_every,
            metrics=state.metrics.child(),
        )
        if self._segment_bytes is not None:
            kwargs["segment_bytes"] = self._segment_bytes
        service = CollectorService.for_protocol(
            state.protocol, client_dir, **kwargs
        )
        state.services[client] = service
        return service

    def _evict_idle(self) -> None:
        """Checkpoint + close least-recently-used session-free tenants.

        Tenants with live sessions are never evicted — the bound can
        be exceeded transiently while more than ``max_tenants`` are
        simultaneously active; connection admission control is the
        ceiling on that.
        """
        while len(self._open) > self._max_tenants:
            idle = [s for s in self._open.values() if not s.sessions]
            if not idle:
                return
            victim = min(idle, key=lambda s: s.last_used)
            self._close_tenant(victim, checkpoint=True)
            self._c_evictions.inc()

    def _close_tenant(self, state: _TenantState, *, checkpoint: bool) -> None:
        for client in sorted(state.services):
            service = state.services[client]
            if checkpoint:
                try:
                    service.checkpoint()
                except ServiceError:
                    pass  # degraded service: close still releases the lock
            service.close()
        state.services.clear()
        state._query_frontend = None
        state._query_key = None
        del self._open[state.name]
        self._g_open.set(len(self._open))

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def open_session(
        self, tenant: str, client: str, *, schema_fp: int, design_fp: str
    ):
        """Admit one (tenant, client) session; returns ``(service, durable)``.

        Verifies the handshake fingerprints against the tenant's pinned
        design — a foreign fingerprint is a typed refusal, never a
        silent drop — and enforces the single-writer invariant: a
        second live session for the same stream is refused, because two
        writers would make the durable frame index ambiguous and break
        exact resend.
        """
        state = self.open_tenant(tenant)
        if state.schema_fp != int(schema_fp) or state.design_fp != str(design_fp):
            raise _refuse(
                "foreign-design",
                f"tenant {tenant!r} is pinned to design "
                f"{state.design_fp} (schema {state.schema_fp}); the "
                f"session presented {design_fp} (schema {schema_fp})",
            )
        if client in state.sessions:
            raise _refuse(
                "session-conflict",
                f"client stream {client!r} of tenant {tenant!r} already "
                f"has a live session; one writer per stream",
            )
        service = self._open_service(state, client)
        state.sessions.add(client)
        self._touch(state)
        return service, service.frames_applied

    def close_session(self, tenant: str, client: str) -> None:
        state = self._open.get(tenant)
        if state is not None:
            state.sessions.discard(client)
            self._touch(state)
            self._evict_idle()

    def service(self, tenant: str, client: str):
        """The open collector service of one (tenant, client) stream."""
        state = self._open[tenant]
        self._touch(state)
        return self._open_service(state, client)

    # ------------------------------------------------------------------
    # Byte budget (backpressure accounting)
    # ------------------------------------------------------------------
    def reserve(self, tenant: str, nbytes: int) -> bool:
        """Account ``nbytes`` as in flight; False if the budget is hit.

        The reservation always succeeds (the frame is already in
        memory); the return value is the *stop reading* signal for the
        server's reader loop.
        """
        state = self._open[tenant]
        state.bytes_in_flight += int(nbytes)
        self._g_bytes.set(self.bytes_in_flight)
        return state.bytes_in_flight <= self.budget_bytes

    def release(self, tenant: str, nbytes: int) -> None:
        state = self._open.get(tenant)
        if state is not None:
            state.bytes_in_flight = max(0, state.bytes_in_flight - int(nbytes))
            self._g_bytes.set(self.bytes_in_flight)

    def under_budget(self, tenant: str) -> bool:
        state = self._open[tenant]
        return state.bytes_in_flight < self.budget_bytes

    def note_stall(self, tenant: str) -> None:
        """One reader pause because the tenant's budget was exhausted."""
        state = self._open[tenant]
        state.stalls += 1
        self._c_stalls.inc()

    # ------------------------------------------------------------------
    # Queries (tenant-level, merged across client streams)
    # ------------------------------------------------------------------
    def queries(self, tenant: str) -> QueryFrontend:
        """A query front-end over the tenant's *merged* counts.

        Opens every client stream with on-disk state (queries must see
        frames ingested in earlier server lifetimes, not only the
        currently-connected clients) and merges the per-stream count
        vectors — rebuilt only when the merged counts change.
        """
        state = self.open_tenant(tenant)
        for client in self.backend.list_clients(tenant):
            self._open_service(state, client)
        totals = None
        for client in sorted(state.services):
            service = state.services[client]
            counts = service.collector.counts
            totals = counts if totals is None else totals + counts
        key = None if totals is None else totals.tobytes()
        if key != state._query_key or state._query_frontend is None:
            merged = StreamingCollector.for_protocol(state.protocol)
            if totals is not None:
                merged.add_counts(totals)
            state._query_frontend = QueryFrontend(
                merged,
                layout=state.protocol.collection,
                metrics=state.metrics.child()
                if state.metrics.enabled
                else None,
            )
            state._query_key = key
        return state._query_frontend

    # ------------------------------------------------------------------
    # Health / lifecycle
    # ------------------------------------------------------------------
    def tenant_health(self, tenant: str) -> dict:
        """One tenant's summary section for the server health document."""
        state = self._open[tenant]
        frames = sum(
            service.frames_applied for service in state.services.values()
        )
        return {
            "clients_open": len(state.services),
            "sessions": len(state.sessions),
            "frames_applied": int(frames),
            "bytes_in_flight": int(state.bytes_in_flight),
            "backpressure_stalls": int(state.stalls),
            "design_fingerprint": state.design_fp,
        }

    def health_sections(self) -> dict:
        """``{tenant: summary}`` for every open tenant."""
        return {name: self.tenant_health(name) for name in sorted(self._open)}

    def checkpoint_all(self) -> None:
        for state in self._open.values():
            for client in sorted(state.services):
                state.services[client].checkpoint()

    def close_all(self, *, checkpoint: bool = True) -> None:
        """Drain path: checkpoint and close every open tenant."""
        for name in sorted(self._open):
            self._close_tenant(self._open[name], checkpoint=checkpoint)
