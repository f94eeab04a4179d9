"""Per-bit reference loops for the report codec's payload packing.

These are the original, obviously-correct packing loops that
:class:`repro.service.codec.ReportCodec` replaced with vectorized
paths. They live with the tests as the ground truth that
``tests/service/test_wire_codec.py`` and
``benchmarks/bench_hotpaths.py --check`` compare the fast paths
against, byte for byte.
"""

from __future__ import annotations

import numpy as np


def pack_payload_reference(codec, batch: np.ndarray) -> bytes:
    """Packed payload of an in-range ``(k, m)`` batch, one bit at a time."""
    widths = codec.bits_per_attribute
    bits = np.empty((batch.shape[0], sum(widths)), dtype=np.uint8)
    offset = 0
    for j, width in enumerate(widths):
        column = batch[:, j]
        for b in range(width):  # most-significant bit first
            bits[:, offset + b] = (column >> (width - 1 - b)) & 1
        offset += width
    return np.packbits(bits, axis=1).tobytes()


def unpack_payload_reference(codec, payload: np.ndarray) -> np.ndarray:
    """``(k, m)`` int64 codes from ``(k, record_bytes)`` payload, per attribute."""
    widths = codec.bits_per_attribute
    bits = np.unpackbits(payload, axis=1)[:, : sum(widths)]
    out = np.empty((payload.shape[0], len(widths)), dtype=np.int64)
    offset = 0
    for j, width in enumerate(widths):
        weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
        out[:, j] = bits[:, offset : offset + width] @ weights
        offset += width
    return out
