"""Blocking collector client with retry-driven reconnect and resend.

`CollectorClient` is the library behind ``repro-anonymize ingest
--connect`` and the network test/bench harnesses: one TCP session per
(tenant, client) stream, windowed-pipelined ingest, and the resend
contract the server's durable acks make exact — on any connection
loss the client redials under its
:class:`~repro.service.journal.RetryPolicy`, re-handshakes, learns the
stream's durable frame index from the ``WELCOME``, and resends exactly
the frames the journal never made durable. Nothing is double-sent past
an ack; nothing acked is ever re-journaled (the server's per-stream
journal is single-writer, so index ``n`` means frames ``0..n-1``
survive any crash).

Ingest is pipelined: up to ``window`` frames ride unacknowledged
before the sender waits for acks, which is what makes loopback
throughput a property of the server's group commit instead of the
round-trip time (measured in ``benchmarks/bench_net.py``).

Fault injection composes here, not in the server: pass a
:class:`~repro.faults.net.SocketFaultPlan` and every dial is wrapped
in a :class:`~repro.faults.net.FaultySocket`, so scheduled
disconnects — including mid-frame, after a torn byte prefix — hit a
*real* kernel socket and the whole reconnect path above is exercised
for real.
"""

from __future__ import annotations

import socket
from typing import Iterable, List, Tuple

from repro.exceptions import (
    NetworkError,
    RemoteServiceError,
    WireProtocolError,
)
from repro.faults.net import FaultySocket, SocketFaultPlan
from repro.service.journal import RetryPolicy
from repro.service.net.protocol import (
    MSG_ACK,
    MSG_BYE,
    MSG_ERROR,
    MSG_GOODBYE,
    MSG_HEALTH,
    MSG_INGEST,
    MSG_METRICS,
    MSG_QUERY,
    MSG_RESULT,
    MSG_WELCOME,
    DEFAULT_MAX_PAYLOAD,
    MessageDecoder,
    decode_json,
    encode_json,
    encode_message,
    hello_message,
)

__all__ = ["CollectorClient", "DEFAULT_WINDOW"]

#: Unacked frames in flight before the sender blocks on acks.
DEFAULT_WINDOW = 64

_RECV_CHUNK = 64 * 1024


class CollectorClient:
    """One blocking session to a collector server.

    Parameters
    ----------
    address:
        ``(host, port)`` of the server.
    tenant, client:
        The stream identity. One live session per stream — the server
        refuses a second writer (``session-conflict``).
    design:
        The :class:`~repro.design.DesignDocument` the reports were
        encoded under; its fingerprints are pinned at handshake.
    retry:
        Reconnect schedule for connection loss mid-ingest. The default
        gives a handful of backoff dials; ``attempts=1`` disables
        reconnection (first loss raises).
    faults:
        Optional :class:`~repro.faults.net.SocketFaultPlan` wrapped
        around every dialed socket (tests/benchmarks only).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        tenant: str,
        client: str,
        design,
        retry: "RetryPolicy | None" = None,
        window: int = DEFAULT_WINDOW,
        timeout: float = 30.0,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        faults: "SocketFaultPlan | None" = None,
        socket_factory=None,
    ):
        if window < 1:
            raise NetworkError(f"window must be >= 1, got {window}")
        self.address = (str(address[0]), int(address[1]))
        self.tenant = str(tenant)
        self.client = str(client)
        payload = design.payload()
        self._schema_fp = int(payload["schema_fingerprint"])
        self._design_fp = str(payload["design_fingerprint"])
        self._retry = RetryPolicy(attempts=5) if retry is None else retry
        self._window = int(window)
        self._timeout = timeout
        self._max_payload = int(max_payload)
        self._faults = faults
        self._socket_factory = socket_factory or socket.create_connection
        self._sock = None
        self._decoder: "MessageDecoder | None" = None
        self._pending: List[Tuple[int, bytes]] = []
        self._durable = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def durable(self) -> int:
        """Durable frame index of this stream as of the last ack/hello."""
        return self._durable

    @property
    def connected(self) -> bool:
        return self._sock is not None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect(self) -> int:
        """Dial + handshake; returns the stream's durable frame index.

        The initial dial runs under the same retry policy as a
        reconnect: a server still binding its port (or one connect
        fault) costs a retry, not the whole ingest.
        """
        if self._sock is not None:
            return self._durable
        try:
            return self._connect_once()
        except (OSError, ConnectionError):
            return self._reconnect()

    def _connect_once(self) -> int:
        sock = self._socket_factory(self.address, timeout=self._timeout)
        if self._faults is not None:
            rule = self._faults.match("connect")
            if rule is not None and rule.kind == "disconnect":
                sock.close()
                raise ConnectionRefusedError(
                    "scheduled socket fault: connect refused"
                )
            sock = FaultySocket(sock, self._faults)
        self._sock = sock
        self._decoder = MessageDecoder(max_payload=self._max_payload)
        try:
            self._sock.sendall(
                hello_message(
                    tenant=self.tenant,
                    client=self.client,
                    schema_fp=self._schema_fp,
                    design_fp=self._design_fp,
                )
            )
            mtype, payload = self._read_message()
        except (OSError, ConnectionError):
            self._drop()
            raise
        if mtype == MSG_ERROR:
            self._drop()
            obj = decode_json(payload, context="ERROR")
            raise RemoteServiceError(
                str(obj.get("code", "internal")), str(obj.get("error", ""))
            )
        if mtype != MSG_WELCOME:
            self._drop()
            raise WireProtocolError(
                f"expected WELCOME, got message {mtype:#04x}"
            )
        welcome = decode_json(payload, context="WELCOME")
        durable = welcome.get("durable")
        if not isinstance(durable, int) or durable < 0:
            self._drop()
            raise WireProtocolError(
                f"WELCOME carries invalid durable index {durable!r}"
            )
        self._durable = durable
        return durable

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._decoder = None
        # Messages decoded off the dead connection are stale: any ack
        # they carried is superseded by the reconnect WELCOME.
        self._pending.clear()

    def _reconnect(self) -> int:
        """Redial under the retry policy; returns the durable index.

        Handshake *refusals* (typed errors) are terminal — the server
        is answering, just saying no — only transport-level loss is
        retried.
        """
        self._drop()
        last: "BaseException | None" = None
        for delay in self._retry.delays():
            self._retry.sleep(delay)
            try:
                return self._connect_once()
            except RemoteServiceError:
                raise
            except (OSError, ConnectionError, NetworkError) as exc:
                last = exc
                self._drop()
        raise NetworkError(
            f"reconnect to {self.address} failed after "
            f"{self._retry.attempts} attempts: {last}"
        ) from last

    # ------------------------------------------------------------------
    # Receive machinery
    # ------------------------------------------------------------------
    def _read_message(self) -> Tuple[int, bytes]:
        """Block until one complete message arrives (rest go pending)."""
        while True:
            if self._decoder is None or self._sock is None:
                raise ConnectionResetError("not connected")
            data = self._sock.recv(_RECV_CHUNK)
            if not data:
                raise ConnectionResetError("server closed the connection")
            messages = self._decoder.feed(data)
            if messages:
                self._pending.extend(messages[1:])
                return messages[0]

    def _next_message(self) -> Tuple[int, bytes]:
        if self._pending:
            return self._pending.pop(0)
        return self._read_message()

    @staticmethod
    def _raise_remote(payload: bytes) -> None:
        obj = decode_json(payload, context="ERROR")
        raise RemoteServiceError(
            str(obj.get("code", "internal")), str(obj.get("error", ""))
        )

    # ------------------------------------------------------------------
    # Ingest (windowed pipelining + exact resend)
    # ------------------------------------------------------------------
    def ingest(self, frames: Iterable[bytes]) -> int:
        """Send a frame stream with exact-resend recovery.

        Frame ``i`` of ``frames`` is frame ``durable_at_connect + i``
        of the stream: callers resuming an interrupted upload pass the
        *remaining* frames (``frames[client.durable - start:]`` — the
        CLI does this automatically). Returns the stream's durable
        index after everything sent is acked.
        """
        if self._closed:
            raise NetworkError("client is closed")
        self.connect()
        frames = list(frames)
        base = self._durable
        total = base + len(frames)
        cursor = self._durable  # next stream index to put on the wire
        while self._durable < total:
            try:
                while (
                    cursor < total
                    and cursor - self._durable < self._window
                ):
                    self._sock.sendall(
                        encode_message(
                            MSG_INGEST, frames[cursor - base]
                        )
                    )
                    cursor += 1
                self._wait_ack()
            except (OSError, ConnectionError):
                durable = self._reconnect()
                if durable < base or durable > total:
                    raise NetworkError(
                        f"server reports durable index {durable} outside "
                        f"this upload's window [{base}, {total}]"
                    ) from None
                # Resend exactly the unacked suffix: everything below
                # `durable` survived the crash, everything at or above
                # it goes again.
                cursor = durable
        return self._durable

    def _wait_ack(self) -> None:
        """Consume replies until at least one ack advances the window."""
        before = self._durable
        while self._durable == before:
            mtype, payload = self._next_message()
            if mtype == MSG_ACK:
                obj = decode_json(payload, context="ACK")
                durable = obj.get("durable")
                if not isinstance(durable, int):
                    raise WireProtocolError(
                        f"ACK carries invalid durable index {durable!r}"
                    )
                self._durable = max(self._durable, durable)
            elif mtype == MSG_ERROR:
                self._raise_remote(payload)
            else:
                raise WireProtocolError(
                    f"expected ACK, got message {mtype:#04x}"
                )

    # ------------------------------------------------------------------
    # Queries / health / metrics
    # ------------------------------------------------------------------
    def _request(self, message: bytes) -> dict:
        self.connect()
        try:
            self._sock.sendall(message)
            mtype, payload = self._next_message()
        except (OSError, ConnectionError):
            self._reconnect()
            self._sock.sendall(message)
            mtype, payload = self._next_message()
        if mtype == MSG_ERROR:
            self._raise_remote(payload)
        if mtype != MSG_RESULT:
            raise WireProtocolError(
                f"expected RESULT, got message {mtype:#04x}"
            )
        return decode_json(payload, context="RESULT")

    def query_marginal(self, name: str, *, repair: str = "clip") -> list:
        """Estimated marginal of one collection attribute."""
        result = self._request(
            encode_json(
                MSG_QUERY,
                {"kind": "marginal", "name": name, "repair": repair},
            )
        )
        return result["estimate"]

    def query_marginals(self, *, repair: str = "clip") -> dict:
        """All collection-attribute marginals."""
        result = self._request(
            encode_json(MSG_QUERY, {"kind": "marginals", "repair": repair})
        )
        return result["estimates"]

    def query_pair(self, a: str, b: str, *, repair: str = "clip") -> list:
        """Estimated joint table of two attributes (same cluster)."""
        result = self._request(
            encode_json(
                MSG_QUERY, {"kind": "pair", "a": a, "b": b, "repair": repair}
            )
        )
        return result["estimate"]

    def health(self) -> dict:
        """The server's live health document."""
        return self._request(encode_message(MSG_HEALTH))

    def metrics_text(self) -> str:
        """The server's Prometheus text exposition."""
        return self._request(encode_message(MSG_METRICS))["prometheus"]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Polite goodbye (best effort), then drop the socket."""
        if self._closed:
            return
        self._closed = True
        if self._sock is not None:
            try:
                self._sock.sendall(encode_json(MSG_BYE, {}))
                while True:
                    mtype, _payload = self._next_message()
                    if mtype in (MSG_GOODBYE, MSG_ERROR):
                        break
            except (OSError, ConnectionError, NetworkError):
                pass
        self._drop()

    def __enter__(self) -> "CollectorClient":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
