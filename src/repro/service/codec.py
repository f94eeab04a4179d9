"""Report wire codec — randomized records as compact, versioned bytes.

A party that has randomized its record locally (§3.1 step 4) still has
to move the result to the collector. This module defines that wire
format: one *frame* carries a batch of ``k >= 1`` randomized records,
each attribute's category code bit-packed to ``ceil(log2 |A|)`` bits,
preceded by a fixed header and followed by a CRC-32 trailer::

    offset  size  field
    0       4     magic  b"MRR1"
    4       1     format version (currently 1)
    5       1     flags (reserved, must be 0)
    6       8     schema fingerprint (little-endian u64)
    14      4     record count k (little-endian u32)
    18      k*b   payload, b = ceil(sum_j bits_j / 8) bytes per record
    18+k*b  4     CRC-32 of everything before it (little-endian u32)

The schema fingerprint pins the frame to one attribute layout: a
collector built for a different schema rejects the frame instead of
mis-slicing the bit stream. Decoding round-trips byte-exactly
(``decode(encode(x)) == x`` and ``encode(decode(b)) == b``) and rejects
truncated buffers, flipped bits (CRC), and codes outside an attribute's
domain (reachable when ``|A|`` is not a power of two).

Payload packing is fully vectorized. Records whose packed width fits a
single machine word take the *uint64-lane* path: every record becomes
one shift-or accumulated word, serialized through a byteswapped view —
no per-bit work at all. Wider records fall back to a gather-based path
(one fancy-indexing expression builds the whole bit matrix, then
``np.packbits``/``np.unpackbits`` + ``np.add.reduceat``). Both produce
frames byte-identical to the original per-bit Python loops, which the
test suite keeps (``tests/codec_reference.py``) so property tests and
the hot-path benchmark can assert the equivalence forever.

The collector does not decode at all: :meth:`ReportCodec.count_many`
validates a window of frames exactly as :meth:`ReportCodec.decode_many`
does and counts it straight into a collection layout's flat count
vector. Each record is read once as one unsigned lane (32-bit for
records of up to 4 bytes, Adult's 23 bits included; 64-bit up to 64
bits), every release unit's mixed-radix code is summed from its
members' shifted, masked fields, and one ``bincount`` per unit counts
it. Only fields whose domain leaves codes unused are range-checked,
and a violation falls back to a full decode for the exact error.

The module also owns the canonical fingerprints (schema, matrix,
design) shared by the checkpoint sidecar, plus JSON schema
serialization for the CLI design files. A constant-diagonal matrix
is fingerprinted by its parameters ``(r, d, o)``, not its r² entries,
so an RR-Joint matrix over thousands of cells hashes a few bytes; a
dense matrix of that shape folds to the same digest, and any other
dense matrix is hashed by its rounded bytes.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import numpy as np

from repro.analysis.streaming import column_extrema
from repro.core.matrices import ConstantDiagonalMatrix, as_dense
from repro.data.schema import Attribute, Schema
from repro.exceptions import CodecError
from repro.obs.registry import get_registry
from repro.obs.tracing import trace

__all__ = [
    "WIRE_VERSION",
    "ReportCodec",
    "column_extrema",
    "schema_fingerprint",
    "matrix_fingerprint",
    "design_fingerprint",
    "schema_to_dict",
    "schema_from_dict",
]

MAGIC = b"MRR1"
WIRE_VERSION = 1

_HEADER = struct.Struct("<4sBBQI")  # magic, version, flags, fingerprint, k
_TRAILER = struct.Struct("<I")  # crc32

#: Int64 elements per gather-path intermediate (~16 MiB): the wide-
#: record (> 64-bit) pack/unpack paths process rows in slabs of
#: ``_GATHER_SLAB_ELEMENTS // record_bits`` so a large decode_many
#: window cannot balloon the k × record_bits temporaries.
_GATHER_SLAB_ELEMENTS = 1 << 21

#: Kind tag that opens a constant-diagonal matrix's fingerprint input.
_CONSTANT_DIAGONAL_TAG = b"constant-diagonal\x00"


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def schema_fingerprint(schema: Schema) -> int:
    """Stable 64-bit fingerprint of a schema's attribute layout.

    Covers names, ordered category labels and kinds — everything that
    decides how a record is bit-packed and what its codes mean. Labels
    hash through ``repr``, so any label with a stable repr (str, int,
    ...) fingerprints deterministically across processes.
    """
    digest = hashlib.sha256()
    for attr in schema:
        digest.update(
            repr((attr.name, attr.categories, attr.kind)).encode("utf-8")
        )
    return int.from_bytes(digest.digest()[:8], "little")


def matrix_fingerprint(matrix) -> str:
    """Representation-independent fingerprint of one RR matrix.

    A constant-diagonal channel ``P = (d - o) I + o J`` is identified
    by its parameters: the digest is SHA-256 over a kind tag, the size
    as a little-endian u64 and ``d``, ``o`` rounded to 12 decimals
    (``-0.0`` folded to ``0.0``) as float64 — a few bytes however
    large ``r`` is. A dense matrix is validated and rounded the same
    way; if it is constant-diagonal it folds to that same digest, so a
    :class:`~repro.core.matrices.ConstantDiagonalMatrix` and its dense
    form fingerprint identically (the channel equivalence
    :func:`~repro.core.matrices.matrices_equal` enforces at merge time,
    applied at checkpoint-validation time). Any other dense matrix is
    hashed as its row-major float64 bytes followed by the size in
    ASCII.
    """
    if isinstance(matrix, ConstantDiagonalMatrix):
        size, d, o = matrix.size, matrix.diagonal, matrix.off_diagonal
    else:
        dense = np.round(as_dense(matrix), 12) + 0.0  # +0.0 folds -0.0
        size, d, o = dense.shape[0], dense[0, 0], dense[0, 1]
        structured = np.full_like(dense, o)
        np.fill_diagonal(structured, d)
        if not np.array_equal(dense, structured):
            digest = hashlib.sha256(dense.tobytes())
            digest.update(str(size).encode("ascii"))
            return digest.hexdigest()[:16]
    scalars = np.round(np.array([d, o], dtype=np.float64), 12) + 0.0
    digest = hashlib.sha256(_CONSTANT_DIAGONAL_TAG)
    digest.update(struct.pack("<Q", size))
    digest.update(scalars.tobytes())
    return digest.hexdigest()[:16]


def design_fingerprint(schema: Schema, matrices, names=None) -> str:
    """Fingerprint of a whole collection design (schema + all matrices).

    ``names`` fixes the iteration order over ``matrices`` — the
    protocol's collection-attribute names (``"a+b"`` for fused
    clusters) — and defaults to the schema's own attribute order, the
    RR-Independent collection. The names are always folded into the
    digest: two clusterings of equal-size attributes produce identical
    matrix sequences, so without them a tampered ``clusters``
    assignment would pass fingerprint verification.
    """
    names = schema.names if names is None else tuple(names)
    digest = hashlib.sha256()
    digest.update(schema_fingerprint(schema).to_bytes(8, "little"))
    for name in names:
        digest.update(b"\x00")  # delimiter: ("a","bc") != ("ab","c")
        digest.update(str(name).encode("utf-8"))
    for name in names:
        digest.update(matrix_fingerprint(matrices[name]).encode("ascii"))
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Schema <-> JSON (CLI design files)
# ----------------------------------------------------------------------
def schema_to_dict(schema: Schema) -> list:
    """JSON-serializable attribute list (labels must be JSON values)."""
    return [
        {
            "name": attr.name,
            "categories": list(attr.categories),
            "kind": attr.kind,
        }
        for attr in schema
    ]


def schema_from_dict(payload) -> Schema:
    """Rebuild a schema from :func:`schema_to_dict` output.

    JSON round-trips turn label tuples into lists; this restores the
    tuples so the fingerprint matches the original schema.
    """
    try:
        return Schema(
            Attribute(
                entry["name"], tuple(entry["categories"]), entry["kind"]
            )
            for entry in payload
        )
    except (KeyError, TypeError) as exc:
        raise CodecError(f"malformed schema payload: {exc!r}") from None


# ----------------------------------------------------------------------
# The codec
# ----------------------------------------------------------------------
class ReportCodec:
    """Bit-packing encoder/decoder for one schema's randomized records."""

    def __init__(self, schema: Schema, *, metrics=None):
        self._schema = schema
        self._fingerprint = schema_fingerprint(schema)
        # Instrument handles are resolved once here: the encode/decode
        # hot paths must not pay a registry lookup per frame. With the
        # ambient registry disabled these are shared no-ops.
        self._metrics = get_registry() if metrics is None else metrics
        self._c_encode_frames = self._metrics.counter("codec.encode.frames")
        self._c_encode_records = self._metrics.counter("codec.encode.records")
        self._c_decode_frames = self._metrics.counter("codec.decode.frames")
        self._c_decode_records = self._metrics.counter("codec.decode.records")
        # Spans are reusable; resolving them once here keeps the
        # per-frame paths free of name formatting and registry lookups.
        self._sp_encode = trace("codec.encode", self._metrics)
        self._sp_decode = trace("codec.decode", self._metrics)
        self._sp_decode_many = trace("codec.decode_many", self._metrics)
        self._bits = tuple(
            max(1, (attr.size - 1).bit_length()) for attr in schema
        )
        self._record_bits = sum(self._bits)
        self._record_bytes = (self._record_bits + 7) // 8
        self._sizes = np.asarray(schema.sizes, dtype=np.int64)
        # Columns whose domain leaves codes unused: the only ones a
        # decoded code can fall outside of.
        self._checked = tuple(
            attr.size < 1 << bits for attr, bits in zip(schema, self._bits)
        )
        self._plan_layout = None
        self._plan = None
        # Bit layout tables for the vectorized payload paths. The frame
        # format is fixed: attribute fields concatenated MSB-first, the
        # record left-aligned in record_bytes (padding bits are the low
        # bits of the last byte, zero — exactly np.packbits' layout).
        offsets = np.concatenate(
            ([0], np.cumsum(self._bits))
        ).astype(np.int64)
        self._attr_starts = offsets[:-1]
        if self._record_bits <= 64:
            # uint64-lane path: the whole record is one word, each
            # attribute a contiguous bit field at a fixed shift from
            # the top of the record_bytes*8-bit window.
            field_ends = offsets[1:]
            self._word_shifts = (
                8 * self._record_bytes - field_ends
            ).astype(np.uint64)
            self._word_masks = np.asarray(
                [(1 << width) - 1 for width in self._bits], dtype=np.uint64
            )
        else:
            self._word_shifts = None
            self._word_masks = None
        # Gather tables for the general path: record bit b belongs to
        # attribute _bit_attr[b] and carries weight 2**_bit_shift[b].
        self._bit_attr = np.repeat(
            np.arange(len(self._bits), dtype=np.int64), self._bits
        )
        self._bit_shift = np.concatenate(
            [np.arange(width - 1, -1, -1, dtype=np.int64)
             for width in self._bits]
        )
        self._bit_weight = (
            np.int64(1) << self._bit_shift
        ).astype(np.int64)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def fingerprint(self) -> int:
        return self._fingerprint

    @property
    def bits_per_attribute(self) -> tuple:
        """Packed width ``ceil(log2 |A_j|)`` of each attribute."""
        return self._bits

    @property
    def record_bytes(self) -> int:
        """Packed payload bytes per record."""
        return self._record_bytes

    def frame_size(self, n_records: int) -> int:
        """Total frame length in bytes for a batch of ``n_records``."""
        return _HEADER.size + n_records * self._record_bytes + _TRAILER.size

    # ------------------------------------------------------------------
    # Payload packing (vectorized fast paths)
    # ------------------------------------------------------------------
    def _pack_payload(self, batch: np.ndarray) -> bytes:
        """Packed payload bytes of an in-range ``(k, m)`` int64 batch."""
        if self._word_shifts is not None:
            value = np.zeros(batch.shape[0], dtype=np.uint64)
            for j in range(batch.shape[1]):
                value |= (
                    batch[:, j].astype(np.uint64) << self._word_shifts[j]
                )
            # Little-endian lanes -> big-endian (MSB-first) payload:
            # record byte i is lane byte record_bytes-1-i.
            lanes = value.astype("<u8")[:, None].view(np.uint8)
            payload = np.ascontiguousarray(
                lanes[:, self._record_bytes - 1 :: -1]
            )
            return payload.tobytes()
        # Gather path, slab-wise: the (rows, record_bits) int64
        # intermediates stay bounded however large the batch is.
        slab = max(1, _GATHER_SLAB_ELEMENTS // self._record_bits)
        parts = []
        for start in range(0, batch.shape[0], slab):
            rows = batch[start : start + slab]
            bits = (
                (rows[:, self._bit_attr] >> self._bit_shift) & 1
            ).astype(np.uint8)
            parts.append(np.packbits(bits, axis=1).tobytes())
        return b"".join(parts)

    def _unpack_payload(self, payload: np.ndarray) -> np.ndarray:
        """``(k, m)`` int64 codes from ``(k, record_bytes)`` payload."""
        count = payload.shape[0]
        if self._word_shifts is not None:
            lanes = np.zeros((count, 8), dtype=np.uint8)
            lanes[:, : self._record_bytes] = payload[:, ::-1]
            value = lanes.view("<u8").reshape(count)
            # One broadcast shift for all attributes, mask in place,
            # reinterpret as int64 (values < 2**63, so the view is
            # exact) — two full passes over the output instead of four.
            fields = value[:, None] >> self._word_shifts[None, :]
            fields &= self._word_masks
            return fields.view(np.int64)
        # Gather path, slab-wise (see _pack_payload).
        out = np.empty((count, self._schema.width), dtype=np.int64)
        slab = max(1, _GATHER_SLAB_ELEMENTS // self._record_bits)
        for start in range(0, count, slab):
            rows = payload[start : start + slab]
            bits = np.unpackbits(rows, axis=1)[:, : self._record_bits]
            contrib = bits.astype(np.int64) * self._bit_weight
            out[start : start + slab] = np.add.reduceat(
                contrib, self._attr_starts, axis=1
            )
        return out

    # ------------------------------------------------------------------
    def encode(self, records) -> bytes:
        """One wire frame for a batch of randomized records.

        ``records`` is a single length-m code vector or a ``(k, m)``
        batch; codes must lie inside each attribute's domain.
        """
        with self._sp_encode:
            return self._encode(records)

    def _encode(self, records) -> bytes:
        raw = np.asarray(records)
        if not np.issubdtype(raw.dtype, np.integer):
            raise CodecError(
                f"records must be integer codes, got dtype {raw.dtype}"
            )
        batch = np.atleast_2d(raw.astype(np.int64))
        if batch.ndim != 2 or batch.shape[1] != self._schema.width:
            raise CodecError(
                f"records must have shape (k, {self._schema.width}), "
                f"got {np.asarray(records).shape}"
            )
        if batch.shape[0] == 0:
            raise CodecError("a frame must carry at least one record")
        bad_col = self._first_out_of_range_column(batch)
        if bad_col is not None:
            column = batch[:, bad_col]
            record = int(
                np.flatnonzero(
                    (column < 0) | (column >= self._sizes[bad_col])
                )[0]
            )
            raise CodecError(
                f"code out of range for attribute "
                f"{self._schema.names[bad_col]!r} at record {record}"
            )
        payload = self._pack_payload(batch)
        head = _HEADER.pack(
            MAGIC, WIRE_VERSION, 0, self._fingerprint, batch.shape[0]
        )
        body = head + payload
        frame = body + _TRAILER.pack(zlib.crc32(body))
        self._c_encode_frames.inc()
        self._c_encode_records.inc(batch.shape[0])
        return frame

    def _first_out_of_range_column(self, batch):
        """Index of the first attribute with a code outside its domain.

        Works from per-column extrema (:func:`column_extrema`) — no
        boolean (k, m) temporary; the detailed error is only assembled
        on failure.
        """
        low, high = column_extrema(batch)
        violated = np.flatnonzero((low < 0) | (high >= self._sizes))
        return int(violated[0]) if violated.size else None

    def _validated_payload(self, frame) -> np.ndarray:
        """Envelope-validate one frame; return its ``(k, b)`` payload.

        Runs every integrity check except the code-range scan: buffer
        length, magic, version, flags, schema fingerprint, record
        count, exact frame size, and CRC.
        """
        buf = bytes(frame)
        if len(buf) < _HEADER.size + _TRAILER.size:
            raise CodecError(
                f"frame truncated: {len(buf)} bytes is shorter than the "
                f"{_HEADER.size + _TRAILER.size}-byte envelope"
            )
        magic, version, flags, fingerprint, count = _HEADER.unpack_from(buf)
        if magic != MAGIC:
            raise CodecError(f"bad magic {magic!r}; not a report frame")
        if version != WIRE_VERSION:
            raise CodecError(
                f"unsupported wire version {version} (expected {WIRE_VERSION})"
            )
        if flags != 0:
            raise CodecError(f"unsupported flags {flags:#x}")
        if fingerprint != self._fingerprint:
            raise CodecError(
                "schema fingerprint mismatch: frame was encoded for a "
                "different attribute layout"
            )
        if count < 1:
            raise CodecError("frame claims zero records")
        expected = self.frame_size(count)
        if len(buf) != expected:
            raise CodecError(
                f"frame length {len(buf)} does not match header: "
                f"{count} records need {expected} bytes"
            )
        (crc,) = _TRAILER.unpack_from(buf, expected - _TRAILER.size)
        if crc != zlib.crc32(buf[: expected - _TRAILER.size]):
            raise CodecError("CRC mismatch: frame corrupted in transit")
        return np.frombuffer(
            buf, dtype=np.uint8, count=count * self._record_bytes,
            offset=_HEADER.size,
        ).reshape(count, self._record_bytes)

    def _check_decoded_range(self, out: np.ndarray) -> None:
        """Reject unpacked codes outside an attribute's domain.

        Codes are non-negative by construction, so only the upper bound
        can be violated (|A| not a power of two).
        """
        bad_col = self._first_out_of_range_column(out)
        if bad_col is not None:
            record = int(
                np.flatnonzero(out[:, bad_col] >= self._sizes[bad_col])[0]
            )
            raise CodecError(
                f"decoded code out of range for attribute "
                f"{self._schema.names[bad_col]!r} at record {record}; "
                "frame corrupted"
            )

    def peek_record_count(self, frame) -> int:
        """Record count claimed by a frame's header, without validation.

        A sizing hint for group-commit windowing only — a corrupt frame
        can claim anything here and is still rejected by
        :meth:`count_many` before it is logged. Returns
        0 for buffers too short to carry a header.
        """
        buf = bytes(frame)
        if len(buf) < _HEADER.size:
            return 0
        return _HEADER.unpack_from(buf)[4]

    def iter_frame_windows(self, frames, *, window_records: int):
        """Group a frame stream into bounded-record windows, lazily.

        The shared windowing step of group-commit ingestion and
        recovery replay: frames accumulate until their headers claim
        ``window_records`` records, then the window is yielded for one
        :meth:`count_many` pass. Headers are a sizing hint only
        (validation happens in ``count_many``), but every frame
        advances the window by at least one record, so a stream of
        forged zero-count headers still hits window boundaries instead
        of buffering unboundedly. O(window) memory.
        """
        if window_records < 1:
            raise CodecError(
                f"window_records must be >= 1, got {window_records}"
            )
        window: list = []
        records = 0
        for frame in frames:
            window.append(bytes(frame))
            records += max(1, self.peek_record_count(frame))
            if records >= window_records:
                yield window
                window = []
                records = 0
        if window:
            yield window

    def decode(self, frame: bytes) -> np.ndarray:
        """Recover the ``(k, m)`` code batch from one wire frame.

        Raises :class:`~repro.exceptions.CodecError` on any deviation:
        short or oversized buffers, wrong magic/version/fingerprint,
        CRC mismatch, or unpacked codes outside an attribute's domain.
        """
        with self._sp_decode:
            out = self._unpack_payload(self._validated_payload(frame))
            self._check_decoded_range(out)
        self._c_decode_frames.inc()
        self._c_decode_records.inc(out.shape[0])
        return out

    def decode_many(self, frames) -> np.ndarray:
        """Decode a batch of frames into one concatenated code matrix.

        The group-commit fast path: every frame's envelope (length,
        magic, version, fingerprint, CRC) is validated individually,
        then the payloads are unpacked and range-checked in a single
        vectorized pass — small frames no longer pay per-frame numpy
        overhead. Any invalid frame rejects the whole call before
        anything is returned. Record indices in range errors refer to
        the concatenated batch. Returns a ``(sum k_i, m)`` int64 array.
        """
        with self._sp_decode_many:
            payloads = [self._validated_payload(frame) for frame in frames]
            if not payloads:
                return np.zeros((0, self._schema.width), dtype=np.int64)
            stacked = (
                payloads[0]
                if len(payloads) == 1
                else np.concatenate(payloads, axis=0)
            )
            out = self._unpack_payload(stacked)
            self._check_decoded_range(out)
        self._c_decode_frames.inc(len(payloads))
        self._c_decode_records.inc(out.shape[0])
        return out

    def count_many(self, frames, layout) -> np.ndarray:
        """Validate a batch of frames and count them under ``layout``.

        The collector's ingest path. Runs exactly the checks of
        :meth:`decode_many` (every frame's envelope, then the code
        range, with the same errors) and returns the flat int64 count
        vector over ``layout.collection_schema()``, release unit k at
        the offset of the units before it. No ``(k, m)`` code matrix
        is built: each record is read once as one unsigned lane, each
        unit's mixed-radix code ``sum_j field_j * radix_j`` is summed
        from shifted, masked fields, and one ``bincount`` counts it.
        Records wider than 64 bits go through the gather path's
        columns. Equal to ``bincount`` of
        ``layout.encode_records(decode_many(frames))`` shifted into
        the units' bin ranges.
        """
        with self._sp_decode_many:
            lane, units, cells, uncovered = self._count_plan(layout)
            payloads = [self._validated_payload(frame) for frame in frames]
            if not payloads:
                return np.zeros(sum(cells), dtype=np.int64)
            field = self._field_reader(payloads, lane)
            for j in uncovered:
                field(j)  # range check only: no unit counts it
            parts = []
            for members, size in zip(units, cells):
                code = None
                for j, radix in members:
                    term = field(j)
                    if radix != 1:
                        term *= radix
                    if code is None:
                        code = term
                    else:
                        code += term
                if code.dtype == np.uint64:
                    code = code.view(np.int64)
                parts.append(np.bincount(code, minlength=size))
            counts = np.concatenate(parts)
        self._c_decode_frames.inc(len(payloads))
        self._c_decode_records.inc(sum(p.shape[0] for p in payloads))
        return counts

    def _count_plan(self, layout):
        """``(lane dtype, unit fields, unit cells, uncovered checks)``.

        Built once per layout. ``lane`` is ``uint32`` for records of up
        to 4 bytes, ``uint64`` up to 64 bits and ``None`` (gather-path
        columns) beyond; a unit's code is below ``prod 2**bits_j``, so
        it always fits the record's lane. Each unit lists its members
        as ``(wire column, Domain place value)``; ``uncovered`` holds
        the range-checked columns no unit counts.
        """
        if self._plan_layout is not layout:
            if layout.schema != self._schema:
                raise CodecError(
                    "layout's wire schema does not match the codec's schema"
                )
            cells = tuple(domain.size for domain in layout.domains)
            if self._record_bits > 64:
                lane = None
            elif self._record_bytes <= 4:
                lane = np.dtype(np.uint32)
            else:
                lane = np.dtype(np.uint64)
            units = tuple(
                tuple(zip(positions, domain.radix))
                for positions, domain in zip(layout.positions, layout.domains)
            )
            covered = {j for positions in layout.positions for j in positions}
            uncovered = tuple(
                j for j in range(self._schema.width)
                if self._checked[j] and j not in covered
            )
            self._plan = (lane, units, cells, uncovered)
            self._plan_layout = layout
        return self._plan

    def _field_reader(self, payloads, lane):
        """``j ->`` a fresh array of column j's codes, range-checked.

        Only columns whose domain leaves codes unused
        (``size_j < 2**bits_j``) are scanned; a violation takes the
        cold path, a full decode that raises :meth:`decode_many`'s
        error naming the attribute and the record.
        """
        if lane is None:
            columns = self._unpack_payload(np.concatenate(payloads, axis=0))
            self._check_decoded_range(columns)
            return lambda j: np.ascontiguousarray(columns[:, j])
        # Each record is read as the big-endian word starting at its
        # first byte, one strided pass; the word's low bytes past the
        # record belong to the next record (or the zero pad) and sit
        # below every field, so the shifts skip them.
        pad = lane.itemsize - self._record_bytes
        flat = np.concatenate(
            [p.ravel() for p in payloads] + [np.zeros(pad, np.uint8)]
        )
        count = sum(p.shape[0] for p in payloads)
        words = np.ndarray(
            (count,), dtype=lane.newbyteorder(">"), buffer=flat,
            strides=(self._record_bytes,),
        ).astype(lane)

        def field(j):
            out = words >> (int(self._word_shifts[j]) + 8 * pad)
            out &= int(self._word_masks[j])
            if self._checked[j] and out.max() >= self._sizes[j]:
                stacked = flat[: count * self._record_bytes]
                self._check_decoded_range(
                    self._unpack_payload(stacked.reshape(count, -1))
                )
            return out

        return field

    def __repr__(self) -> str:
        return (
            f"ReportCodec(m={self._schema.width}, "
            f"record_bytes={self._record_bytes}, "
            f"fingerprint={self._fingerprint:#018x})"
        )
