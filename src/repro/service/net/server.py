"""Asyncio multi-tenant collector server over the wire codec.

`CollectorServer` binds one TCP listener and multiplexes every
connected client onto per-tenant collector services through a
:class:`~repro.service.net.tenants.TenantManager`. The protocol is the
sans-io envelope of :mod:`repro.service.net.protocol`; ingest payloads
are the repo's existing wire frames verbatim.

Concurrency model
-----------------
One event loop, no threads. Each connection runs a reader coroutine
that feeds the incremental decoder and dispatches messages; each live
(tenant, client) session owns a bounded frame queue drained by its own
coroutine, which group-commits the queued frames into the stream's
collector service (one journal fsync per batch — the group-commit
economics of PR 3) and then acks each frame with the updated durable
index. Journal fsyncs are blocking calls on the loop; that is the
deliberate durability cost, and the batch drain amortizes it exactly
as the offline pipeline does.

Backpressure is real, not a buffer: when a tenant's in-flight bytes
exceed its budget, reader coroutines for that tenant *stop reading
their sockets* until the drainers catch up — the kernel's TCP window
then pushes back on the clients. Every stall is counted and surfaced
in ``health()``.

Shutdown (``drain()``, wired to SIGTERM/SIGINT by ``serve_forever``)
stops accepting, unblocks every reader, drains every session queue,
checkpoints and closes every tenant, and only then returns — a kill
during heavy ingest loses nothing that was acked.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import struct
import threading
from typing import Dict, Optional, Set

from repro.exceptions import (
    CodecError,
    HandshakeError,
    ReproError,
    ServiceError,
    WireProtocolError,
)
from repro.obs.exposition import render_prometheus
from repro.obs.health import HEALTH_VERSION, validate_health
from repro.obs.registry import MetricsRegistry
from repro.service.net.protocol import (
    MSG_ACK,
    MSG_BYE,
    MSG_GOODBYE,
    MSG_HEALTH,
    MSG_HELLO,
    MSG_INGEST,
    MSG_METRICS,
    MSG_QUERY,
    MSG_RESULT,
    MSG_WELCOME,
    NET_VERSION,
    DEFAULT_MAX_PAYLOAD,
    MessageDecoder,
    encode_json,
    error_payload,
    parse_hello,
    parse_query,
)
from repro.service.net.tenants import (
    DEFAULT_BUDGET_BYTES,
    DEFAULT_MAX_TENANTS,
    TenantManager,
)

__all__ = [
    "CollectorServer",
    "ThreadedCollectorServer",
    "DEFAULT_MAX_CONNECTIONS",
]

#: Connection admission ceiling: the accept loop refuses (typed
#: ``busy`` error) rather than queueing unbounded sessions.
DEFAULT_MAX_CONNECTIONS = 128

#: Frames a session may queue ahead of its drainer. Small on purpose:
#: the tenant byte budget is the real bound; this just caps the
#: per-session burst between two drainer wakeups.
_QUEUE_FRAMES = 256

_READ_CHUNK = 64 * 1024

#: Offset of the u64 schema fingerprint inside a report wire frame
#: (magic + version + flags — see :mod:`repro.service.codec`).
_FRAME_FP = struct.Struct("<Q")
_FRAME_FP_OFFSET = 6


def _frame_schema_fp(frame: bytes) -> "int | None":
    """The schema fingerprint a wire frame claims, if it has a header."""
    if len(frame) < _FRAME_FP_OFFSET + _FRAME_FP.size:
        return None
    return _FRAME_FP.unpack_from(frame, _FRAME_FP_OFFSET)[0]


class _Session:
    """One live (tenant, client) stream bound to one connection."""

    __slots__ = (
        "tenant",
        "client",
        "service",
        "queue",
        "drainer",
        "writer",
        "failed",
    )

    def __init__(self, tenant: str, client: str, service, writer):
        self.tenant = tenant
        self.client = client
        self.service = service
        self.queue: "asyncio.Queue" = asyncio.Queue(maxsize=_QUEUE_FRAMES)
        self.drainer: "asyncio.Task | None" = None
        self.writer = writer
        self.failed = False


class CollectorServer:
    """The asyncio TCP front-end over a multi-tenant collector root."""

    def __init__(
        self,
        root,
        designs: Dict[str, object],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        max_tenants: int = DEFAULT_MAX_TENANTS,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        batch_size: "int | None" = None,
        checkpoint_every: "int | None" = None,
        segment_bytes: "int | None" = None,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        metrics: "MetricsRegistry | None" = None,
    ):
        if max_connections < 1:
            raise ServiceError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        self.host = host
        self.port = int(port)
        self.max_connections = int(max_connections)
        self._max_payload = int(max_payload)
        # The server defaults to a *real* registry (the ambient default
        # is Null): health() and the Prometheus endpoint are part of
        # the service surface, not an opt-in.
        self._metrics = MetricsRegistry() if metrics is None else metrics
        manager_kwargs = dict(
            checkpoint_every=checkpoint_every,
            segment_bytes=segment_bytes,
            max_tenants=max_tenants,
            budget_bytes=budget_bytes,
            metrics=self._metrics.child(),
        )
        if batch_size is not None:
            manager_kwargs["batch_size"] = batch_size
        self.manager = TenantManager(root, designs, **manager_kwargs)
        self._c_accepted = self._metrics.counter("net.connections.accepted")
        self._c_refused = self._metrics.counter("net.connections.refused")
        self._c_frames = self._metrics.counter("net.frames.received")
        self._c_acks = self._metrics.counter("net.acks.sent")
        self._c_errors = self._metrics.counter("net.errors.sent")
        self._c_queries = self._metrics.counter("net.queries.served")
        self._g_active = self._metrics.gauge("net.connections.active")
        self._server: "asyncio.base_events.Server | None" = None
        self._active = 0
        self._draining = False
        self._stopped: "asyncio.Event | None" = None
        self._handlers: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._budget_events: Dict[str, asyncio.Event] = {}
        self._live_streams: Set[tuple] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (resolving ``port=0``) and mark the root."""
        self.manager.backend.save_server_meta(
            {"tenants": self.manager.tenants}
        )
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self, *, install_signals: bool = True) -> None:
        """Serve until :meth:`drain` completes (SIGTERM/SIGINT wired)."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(
                        signum, lambda: asyncio.ensure_future(self.drain())
                    )
        await self._stopped.wait()

    async def drain(self) -> None:
        """Stop accepting, drain every session, checkpoint, close.

        Idempotent; safe to call from a signal handler task. Frames
        already read off a socket are journaled and acked (best
        effort) before the connection closes, so a drain never loses
        acknowledged work.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Unblock every reader: closing the transport makes the pending
        # read return EOF, which routes the handler into its normal
        # flush-queue-then-close path.
        for writer in list(self._writers):
            with contextlib.suppress(OSError):
                writer.close()
        if self._handlers:
            await asyncio.gather(*list(self._handlers), return_exceptions=True)
        self.manager.close_all(checkpoint=True)
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------
    # Health / metrics
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Server-level health document (validates against the schema)."""
        doc = {
            "version": HEALTH_VERSION,
            "state_dir": str(getattr(self.manager.backend, "root", "")),
            "server": {
                "version": 1,
                "connections": int(self._active),
                "tenants_open": len(self.manager.open_tenants),
                "bytes_in_flight": int(self.manager.bytes_in_flight),
                "backpressure_stalls": int(self.manager.backpressure_stalls),
                "max_connections": self.max_connections,
                "budget_bytes": int(self.manager.budget_bytes),
                "draining": bool(self._draining),
            },
            "tenants": self.manager.health_sections(),
            "metrics": self._metrics.snapshot(),
        }
        return validate_health(doc)

    def prometheus(self) -> str:
        """Prometheus text exposition of the server registry."""
        return render_prometheus(self._metrics)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _on_connection(self, reader, writer) -> None:
        task = asyncio.ensure_future(self._handle(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _send(self, writer, data: bytes) -> None:
        with contextlib.suppress(OSError, ConnectionError):
            writer.write(data)
            await writer.drain()

    async def _send_error(self, writer, code: str, message: str) -> None:
        self._c_errors.inc()
        await self._send(writer, error_payload(code, message))

    async def _handle(self, reader, writer) -> None:
        session: "Optional[_Session]" = None
        self._writers.add(writer)
        try:
            if self._draining:
                await self._send_error(
                    writer, "shutting-down", "server is draining"
                )
                return
            if self._active >= self.max_connections:
                self._c_refused.inc()
                await self._send_error(
                    writer,
                    "busy",
                    f"connection limit {self.max_connections} reached",
                )
                return
            self._active += 1
            self._g_active.set(self._active)
            self._c_accepted.inc()
            try:
                session = await self._serve_connection(reader, writer)
            finally:
                self._active -= 1
                self._g_active.set(self._active)
        finally:
            await self._teardown(session, writer)

    async def _serve_connection(self, reader, writer) -> "Optional[_Session]":
        decoder = MessageDecoder(max_payload=self._max_payload)
        session: "Optional[_Session]" = None
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    return session
                try:
                    messages = decoder.feed(data)
                except WireProtocolError as exc:
                    await self._send_error(writer, "protocol", str(exc))
                    return session
                for mtype, payload in messages:
                    if session is None:
                        session = await self._dispatch_hello(
                            mtype, payload, writer
                        )
                        if session is _CLOSE:
                            return None
                        continue
                    verdict = await self._dispatch(
                        session, mtype, payload, writer
                    )
                    if verdict is _CLOSE:
                        return session
                if decoder.pending_error is not None:
                    # Corruption behind a clean prefix: the prefix was
                    # dispatched (and will be acked), the session dies
                    # typed here rather than blocking on a read that
                    # may never come.
                    await self._send_error(
                        writer, "protocol", str(decoder.pending_error)
                    )
                    return session
                # Real backpressure: pause this reader while the tenant's
                # in-flight bytes exceed its budget. Not reading shrinks
                # the TCP window; the kernel stalls the client for us.
                if session is not None and not self.manager.under_budget(
                    session.tenant
                ):
                    self.manager.note_stall(session.tenant)
                    event = self._budget_events.setdefault(
                        session.tenant, asyncio.Event()
                    )
                    while not self.manager.under_budget(session.tenant):
                        event.clear()
                        await event.wait()
        except Exception as exc:  # noqa: BLE001 -- connection firewall
            # One connection's unexpected failure must never take the
            # server (or another tenant's session) down with it: reply
            # typed, close this connection, keep serving. Returning the
            # session (rather than re-raising) lets _teardown flush and
            # release the stream for a successor.
            self._metrics.counter("net.internal.errors").inc()
            await self._send_error(writer, "internal", str(exc))
            return session

    async def _dispatch_hello(self, mtype, payload, writer):
        """Hello-first: the only message a fresh connection may send."""
        if mtype != MSG_HELLO:
            await self._send_error(
                writer,
                "protocol",
                f"message {mtype:#04x} before handshake; HELLO first",
            )
            return _CLOSE
        try:
            hello = parse_hello(payload)
            if (hello["tenant"], hello["client"]) in self._live_streams:
                raise_conflict = HandshakeError(
                    f"client stream {hello['client']!r} of tenant "
                    f"{hello['tenant']!r} already has a live session"
                )
                raise_conflict.code = "session-conflict"
                raise raise_conflict
            service, durable = self.manager.open_session(
                hello["tenant"],
                hello["client"],
                schema_fp=hello["schema_fingerprint"],
                design_fp=hello["design_fingerprint"],
            )
        except HandshakeError as exc:
            await self._send_error(
                writer, getattr(exc, "code", "handshake"), str(exc)
            )
            return _CLOSE
        except WireProtocolError as exc:
            await self._send_error(writer, "protocol", str(exc))
            return _CLOSE
        except ServiceError as exc:
            await self._send_error(writer, "internal", str(exc))
            return _CLOSE
        session = _Session(hello["tenant"], hello["client"], service, writer)
        self._live_streams.add((session.tenant, session.client))
        session.drainer = asyncio.ensure_future(self._drain_channel(session))
        await self._send(
            writer,
            encode_json(
                MSG_WELCOME,
                {
                    "version": NET_VERSION,
                    "tenant": session.tenant,
                    "client": session.client,
                    "durable": int(durable),
                },
            ),
        )
        return session

    async def _dispatch(self, session, mtype, payload, writer):
        if mtype == MSG_INGEST:
            return await self._on_ingest(session, payload, writer)
        if mtype == MSG_QUERY:
            return await self._on_query(session, payload, writer)
        if mtype == MSG_HEALTH:
            await self._send(
                writer, encode_json(MSG_RESULT, self.health())
            )
            return None
        if mtype == MSG_METRICS:
            await self._send(
                writer,
                encode_json(MSG_RESULT, {"prometheus": self.prometheus()}),
            )
            return None
        if mtype == MSG_BYE:
            await self._flush_session(session)
            await self._send(writer, encode_json(MSG_GOODBYE, {}))
            return _CLOSE
        await self._send_error(
            writer, "protocol", f"unexpected message {mtype:#04x} in session"
        )
        return _CLOSE

    async def _on_ingest(self, session, frame, writer):
        if self._draining:
            await self._send_error(
                writer, "shutting-down", "server is draining"
            )
            return _CLOSE
        if session.failed:
            await self._send_error(
                writer, "degraded", "stream's collector refused a write"
            )
            return _CLOSE
        claimed = _frame_schema_fp(frame)
        if claimed is None:
            await self._send_error(
                writer, "codec", f"frame of {len(frame)} bytes has no header"
            )
            return _CLOSE
        state = self.manager.open_tenant(session.tenant)
        if claimed != state.schema_fp:
            await self._send_error(
                writer,
                "foreign-design",
                f"frame carries schema fingerprint {claimed}; tenant "
                f"{session.tenant!r} is pinned to {state.schema_fp}",
            )
            return _CLOSE
        self._c_frames.inc()
        self.manager.reserve(session.tenant, len(frame))
        await session.queue.put(frame)
        return None

    async def _on_query(self, session, payload, writer):
        try:
            request = parse_query(payload)
        except WireProtocolError as exc:
            await self._send_error(writer, "protocol", str(exc))
            return _CLOSE
        # Read-your-writes: everything this session already sent is
        # journaled and acked before the answer is computed.
        await self._flush_session(session)
        try:
            frontend = self.manager.queries(session.tenant)
            if request["kind"] == "marginal":
                result = {
                    "estimate": frontend.marginal(
                        request["name"], request["repair"]
                    ).tolist()
                }
            elif request["kind"] == "pair":
                result = {
                    "estimate": frontend.pair_table(
                        request["a"], request["b"], repair=request["repair"]
                    ).tolist()
                }
            else:
                result = {
                    "estimates": {
                        name: estimate.tolist()
                        for name, estimate in frontend.marginals(
                            request["repair"]
                        ).items()
                    }
                }
        except ReproError as exc:
            # A semantic query failure (unknown attribute, cross-cluster
            # pair, nothing observed yet) is the client's mistake, not a
            # protocol violation: reply typed, keep the session.
            await self._send_error(writer, "query", str(exc))
            return None
        self._c_queries.inc()
        await self._send(writer, encode_json(MSG_RESULT, result))
        return None

    # ------------------------------------------------------------------
    # Per-session frame drainer (group commit + acks)
    # ------------------------------------------------------------------
    async def _flush_session(self, session) -> None:
        await session.queue.join()

    def _wake_budget(self, tenant: str) -> None:
        event = self._budget_events.get(tenant)
        if event is not None and self.manager.under_budget(tenant):
            event.set()

    async def _drain_channel(self, session) -> None:
        queue = session.queue
        while True:
            frame = await queue.get()
            if frame is None:
                queue.task_done()
                return
            batch = [frame]
            while True:
                try:
                    nxt = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    queue.task_done()
                    await self._commit(session, batch)
                    return
                batch.append(nxt)
            await self._commit(session, batch)

    async def _commit(self, session, batch) -> None:
        """Group-commit one drained batch, ack each frame exactly."""
        base = session.service.frames_applied
        error = None
        try:
            session.service.ingest_many(batch)
        except ServiceError as exc:
            error = exc
        applied = session.service.frames_applied
        # Ack the durably applied prefix frame by frame: ack i promises
        # "frames 0..base+i of your stream survive any crash", which is
        # exactly what the client's resend window keys on.
        acks = bytearray()
        for index in range(applied - base):
            acks += encode_json(MSG_ACK, {"durable": base + index + 1})
            self._c_acks.inc()
        if acks:
            await self._send(session.writer, bytes(acks))
        if error is not None:
            session.failed = True
            code = "codec" if isinstance(error, CodecError) else "degraded"
            await self._send_error(session.writer, code, str(error))
            with contextlib.suppress(OSError):
                session.writer.close()
        self.manager.release(
            session.tenant, sum(len(frame) for frame in batch)
        )
        self._wake_budget(session.tenant)
        for _ in batch:
            session.queue.task_done()

    async def _teardown(self, session, writer) -> None:
        if session is not None:
            # Frames read off the socket before the disconnect still
            # get journaled: the sentinel flushes the queue, and the
            # acks simply fail to send (the client re-learns the
            # durable index from its reconnect WELCOME).
            await session.queue.put(None)
            if session.drainer is not None:
                with contextlib.suppress(asyncio.CancelledError):
                    await session.drainer
            self._live_streams.discard((session.tenant, session.client))
            self.manager.close_session(session.tenant, session.client)
            self._wake_budget(session.tenant)
        self._writers.discard(writer)
        with contextlib.suppress(OSError, ConnectionError):
            writer.close()
            await writer.wait_closed()


#: Sentinel verdict: close the connection after this message.
_CLOSE = object()


class ThreadedCollectorServer:
    """A `CollectorServer` on a background thread with its own loop.

    The blocking-world harness for tests, benchmarks, and the example:
    ``start()`` returns the bound ``(host, port)``; ``stop()`` runs the
    full drain-checkpoint-close sequence and joins the thread.
    """

    def __init__(self, *args, **kwargs):
        self._args = args
        self._kwargs = kwargs
        self.server: "CollectorServer | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._ready = threading.Event()
        self._startup_error: "BaseException | None" = None

    def start(self) -> "tuple[str, int]":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self.server.host, self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self.server = CollectorServer(*self._args, **self._kwargs)
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface bind/config errors to start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self) -> None:
        if self._loop is None or self.server is None:
            return
        if self._loop.is_closed():
            return  # already stopped; stop() is idempotent
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(), self._loop
        )
        future.result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def health(self) -> dict:
        future = asyncio.run_coroutine_threadsafe(
            _call_soon(self.server.health), self._loop
        )
        return future.result(timeout=60)

    def __enter__(self) -> "ThreadedCollectorServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


async def _call_soon(fn):
    return fn()
