"""Sans-io session protocol of the network collector front-end.

The paper's deployment is a controller collecting randomized reports
from millions of untrusted subjects; this module defines what travels
on that wire, with **no sockets anywhere** — pure bytes-in/events-out
state machines the asyncio server and the blocking client both drive,
and unit tests exercise without a network.

Message envelope
----------------
Every message — both directions — is one envelope::

    offset  size  field
    0       4     magic  b"MRRN"
    4       1     message type (u8)
    5       4     payload length (little-endian u32)
    9       N     payload
    9+N     4     CRC-32 of everything before it (little-endian u32)

``INGEST`` payloads are the existing report wire frames of
:mod:`repro.service.codec` verbatim — already length-prefixed, CRC'd
and schema-fingerprinted, they *are* the network protocol for report
transport; the envelope adds session control around them. Control
payloads are UTF-8 JSON objects.

Session state machine
---------------------
A session starts with a handshake: the client's ``HELLO`` names the
tenant, a stable ``client`` stream id, and the schema + design
fingerprints of the design document it encoded against. The server
pins the tenant to one design; a foreign fingerprint is a typed
``ERROR`` reply (never a silent drop) and the session closes. The
``WELCOME`` reply carries ``durable`` — how many frames of this
(tenant, client) stream are already durably journaled — which is the
whole resend contract: each ``ACK`` carries the updated durable index,
and a client that reconnects after any failure resends exactly the
frames at indices ``>= durable``, nothing else. Because every (tenant,
client) stream has exactly one journal and one live session, the index
is unambiguous: one writer per journal is what makes the resend
accounting exact.

Any protocol violation — bad magic, corrupt envelope CRC, oversize
payload, malformed JSON, a message before the handshake — is answered
with a typed ``ERROR`` and the session closes; the server and its
other sessions keep serving.
"""

from __future__ import annotations

import json
import re
import struct
import zlib
from typing import Iterator, List, Tuple

from repro.exceptions import HandshakeError, WireProtocolError

__all__ = [
    "NET_VERSION",
    "MSG_HELLO",
    "MSG_WELCOME",
    "MSG_INGEST",
    "MSG_ACK",
    "MSG_QUERY",
    "MSG_RESULT",
    "MSG_HEALTH",
    "MSG_METRICS",
    "MSG_ERROR",
    "MSG_BYE",
    "MSG_GOODBYE",
    "DEFAULT_MAX_PAYLOAD",
    "encode_message",
    "encode_json",
    "decode_json",
    "MessageDecoder",
    "valid_name",
    "parse_hello",
    "parse_query",
    "error_payload",
]

NET_VERSION = 1

NET_MAGIC = b"MRRN"

_ENVELOPE = struct.Struct("<4sBI")  # magic, type, payload length
_CRC = struct.Struct("<I")

MSG_HELLO = 0x01
MSG_WELCOME = 0x02
MSG_INGEST = 0x03
MSG_ACK = 0x04
MSG_QUERY = 0x05
MSG_RESULT = 0x06
MSG_HEALTH = 0x07
MSG_METRICS = 0x08
MSG_ERROR = 0x0A
MSG_BYE = 0x0B
MSG_GOODBYE = 0x0C

_KNOWN_TYPES = frozenset(
    (
        MSG_HELLO,
        MSG_WELCOME,
        MSG_INGEST,
        MSG_ACK,
        MSG_QUERY,
        MSG_RESULT,
        MSG_HEALTH,
        MSG_METRICS,
        MSG_ERROR,
        MSG_BYE,
        MSG_GOODBYE,
    )
)

#: Envelope payload ceiling. Generous above the largest frame `encode`
#: emits by default (512 records of packed codes) while bounding what
#: one message can make a peer buffer; servers may configure tighter.
DEFAULT_MAX_PAYLOAD = 4 * 1024 * 1024

#: Tenant and client-stream names: path-safe, no traversal, bounded.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def valid_name(name) -> bool:
    """Whether ``name`` is a legal tenant / client-stream identifier.

    Names become state-directory components, so the grammar is exactly
    the set that cannot traverse, hide, or collide: one path-safe
    token, no leading dot, at most 64 chars, ``..`` excluded.
    """
    return (
        isinstance(name, str)
        and bool(_NAME_RE.match(name))
        and ".." not in name
    )


# ----------------------------------------------------------------------
# Envelope encode / decode
# ----------------------------------------------------------------------
def encode_message(mtype: int, payload: bytes = b"") -> bytes:
    """One wire envelope around ``payload``."""
    if mtype not in _KNOWN_TYPES:
        raise WireProtocolError(f"unknown message type {mtype:#04x}")
    body = _ENVELOPE.pack(NET_MAGIC, mtype, len(payload)) + payload
    return body + _CRC.pack(zlib.crc32(body))


def encode_json(mtype: int, obj) -> bytes:
    """A control message whose payload is canonical JSON."""
    return encode_message(
        mtype, json.dumps(obj, sort_keys=True).encode("utf-8")
    )


def decode_json(payload: bytes, *, context: str) -> dict:
    """Parse a control payload; violations are typed, never silent."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireProtocolError(f"{context}: malformed JSON payload ({exc})") from None
    if not isinstance(obj, dict):
        raise WireProtocolError(f"{context}: payload must be a JSON object")
    return obj


def error_payload(code: str, message: str) -> bytes:
    """The canonical ``ERROR`` message for a typed failure."""
    return encode_json(MSG_ERROR, {"code": code, "error": message})


class MessageDecoder:
    """Incremental envelope decoder over an arbitrary byte stream.

    Feed whatever chunks the transport delivers; complete messages come
    out as ``(type, payload)`` pairs. Violations raise
    :class:`~repro.exceptions.WireProtocolError` — a peer speaking
    garbage is detected at the first bad envelope, not buffered until a
    length field happens to line up. O(message) memory: ``max_payload``
    bounds what a peer can make us hold.

    When corruption follows complete messages *in the same chunk*, the
    clean prefix is returned and the error parks in
    :attr:`pending_error` (re-raised by the next :meth:`feed`): a
    transport must never lose decoded messages to a later byte's
    corruption, or an acked-but-dropped frame becomes a resend bug.
    """

    def __init__(self, *, max_payload: int = DEFAULT_MAX_PAYLOAD):
        if max_payload < 1:
            raise WireProtocolError(
                f"max_payload must be >= 1, got {max_payload}"
            )
        self._max_payload = max_payload
        self._buffer = bytearray()
        self.pending_error: "WireProtocolError | None" = None

    @property
    def buffered(self) -> int:
        """Bytes held waiting for a complete envelope."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        """Absorb ``data``; return every now-complete message."""
        if self.pending_error is not None:
            raise self.pending_error
        self._buffer.extend(data)
        messages: List[Tuple[int, bytes]] = []
        while True:
            try:
                message = self._next()
            except WireProtocolError as exc:
                if not messages:
                    self.pending_error = exc
                    raise
                # Surface the clean prefix now; the error re-raises on
                # the next feed (or via pending_error for callers that
                # must not block on another read first).
                self.pending_error = exc
                return messages
            if message is None:
                return messages
            messages.append(message)

    def _next(self) -> "Tuple[int, bytes] | None":
        buf = self._buffer
        if len(buf) < _ENVELOPE.size:
            if buf and not NET_MAGIC.startswith(bytes(buf[:4])):
                raise WireProtocolError(
                    "bad envelope magic: peer is not speaking the "
                    "collector protocol"
                )
            return None
        magic, mtype, length = _ENVELOPE.unpack_from(buf)
        if magic != NET_MAGIC:
            raise WireProtocolError(
                "bad envelope magic: peer is not speaking the collector "
                "protocol"
            )
        if mtype not in _KNOWN_TYPES:
            raise WireProtocolError(f"unknown message type {mtype:#04x}")
        if length > self._max_payload:
            raise WireProtocolError(
                f"oversize message: {length} payload bytes exceeds the "
                f"{self._max_payload}-byte limit"
            )
        total = _ENVELOPE.size + length + _CRC.size
        if len(buf) < total:
            return None
        (crc,) = _CRC.unpack_from(buf, total - _CRC.size)
        if crc != zlib.crc32(bytes(buf[: total - _CRC.size])):
            raise WireProtocolError(
                "envelope CRC mismatch: message corrupted in transit"
            )
        payload = bytes(buf[_ENVELOPE.size : total - _CRC.size])
        del buf[:total]
        return mtype, payload


# ----------------------------------------------------------------------
# Handshake and query payload validation (shared, sans-io)
# ----------------------------------------------------------------------
def parse_hello(payload: bytes) -> dict:
    """Validate a ``HELLO`` payload; returns the handshake fields.

    Raises :class:`~repro.exceptions.WireProtocolError` for shape
    violations and :class:`~repro.exceptions.HandshakeError` for
    well-formed but unacceptable identities, so servers can map the
    two onto distinct typed error codes.
    """
    obj = decode_json(payload, context="HELLO")
    if obj.get("version") != NET_VERSION:
        raise HandshakeError(
            f"unsupported protocol version {obj.get('version')!r} "
            f"(expected {NET_VERSION})"
        )
    tenant = obj.get("tenant")
    client = obj.get("client")
    if not valid_name(tenant):
        raise HandshakeError(f"invalid tenant name {tenant!r}")
    if not valid_name(client):
        raise HandshakeError(f"invalid client name {client!r}")
    schema_fp = obj.get("schema_fingerprint")
    design_fp = obj.get("design_fingerprint")
    if not isinstance(schema_fp, int) or isinstance(schema_fp, bool):
        raise WireProtocolError("HELLO: schema_fingerprint must be an integer")
    if not isinstance(design_fp, str) or not design_fp:
        raise WireProtocolError("HELLO: design_fingerprint must be a string")
    return {
        "tenant": tenant,
        "client": client,
        "schema_fingerprint": schema_fp,
        "design_fingerprint": design_fp,
    }


def hello_message(
    *, tenant: str, client: str, schema_fp: int, design_fp: str
) -> bytes:
    """The client's handshake message."""
    return encode_json(
        MSG_HELLO,
        {
            "version": NET_VERSION,
            "tenant": tenant,
            "client": client,
            "schema_fingerprint": int(schema_fp),
            "design_fingerprint": str(design_fp),
        },
    )


#: Query kinds the front-end serves remotely; each routes through the
#: tenant's merged cluster-aware query front-end.
QUERY_KINDS = ("marginal", "marginals", "pair")

_REPAIRS = ("clip", "none")


def parse_query(payload: bytes) -> dict:
    """Validate a ``QUERY`` payload into a normalized request."""
    obj = decode_json(payload, context="QUERY")
    kind = obj.get("kind")
    if kind not in QUERY_KINDS:
        raise WireProtocolError(
            f"QUERY: unknown kind {kind!r}; expected one of {QUERY_KINDS}"
        )
    repair = obj.get("repair", "clip")
    if repair not in _REPAIRS:
        raise WireProtocolError(
            f"QUERY: unknown repair {repair!r}; expected one of {_REPAIRS}"
        )
    request = {"kind": kind, "repair": repair}
    if kind == "marginal":
        name = obj.get("name")
        if not isinstance(name, str) or not name:
            raise WireProtocolError("QUERY: marginal needs a 'name' string")
        request["name"] = name
    elif kind == "pair":
        a, b = obj.get("a"), obj.get("b")
        if not (isinstance(a, str) and a and isinstance(b, str) and b):
            raise WireProtocolError("QUERY: pair needs 'a' and 'b' strings")
        request["a"], request["b"] = a, b
    return request


def iter_decoded(decoder: MessageDecoder, chunks) -> Iterator[Tuple[int, bytes]]:
    """Drive a decoder over an iterable of byte chunks (test helper)."""
    for chunk in chunks:
        yield from decoder.feed(chunk)
