"""Tests for the report wire codec (round-trips + rejection paths)."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from codec_reference import pack_payload_reference, unpack_payload_reference

from repro.data.schema import Attribute, Schema
from repro.exceptions import CodecError
from repro.service.codec import (
    ReportCodec,
    design_fingerprint,
    matrix_fingerprint,
    schema_fingerprint,
    schema_from_dict,
    schema_to_dict,
)
from repro.core.matrices import (
    ConstantDiagonalMatrix,
    cluster_matrix,
    epsilon_optimal_matrix,
    frapp_matrix,
    keep_else_uniform_matrix,
    warner_matrix,
)

#: ``matrix_fingerprint`` hex pinned from the parametric format (kind
#: tag, size, rounded ``d`` and ``o``). Checkpoint sidecars, design
#: documents and tenant pins store these digests, so a change to any of
#: them is a format change: it must bump the ``service.json``,
#: ``tenant.json`` and design-document versions.
GOLDEN_MATRIX_FINGERPRINTS = [
    ("warner-0.7", lambda: warner_matrix(0.7), "5e065f1633e48fc0"),
    ("uniform-3", lambda: keep_else_uniform_matrix(3, 0.7), "cabcb985c9f6bdc4"),
    (
        "uniform-6720",
        lambda: keep_else_uniform_matrix(6720, 0.7),
        "9642764edb1a6d71",
    ),
    (
        "cluster-1680",
        lambda: cluster_matrix((16, 15, 7), (1.0, 0.5, 2.0)),
        "449b8a34a7c38887",
    ),
    ("frapp-100", lambda: frapp_matrix(100, 19.0), "7888266c0c4d955b"),
    ("eps-opt-37", lambda: epsilon_optimal_matrix(37, 1.3), "70a1bea7a06592fb"),
    (
        "uniform-1000",
        lambda: keep_else_uniform_matrix(1000, 0.3),
        "1e5ba19d06e4ae96",
    ),
    ("identity-5", lambda: keep_else_uniform_matrix(5, 1.0), "f6075738291c64cf"),
]


def random_schema(rng, width=None):
    """A random schema: 1-5 attributes with 2-19 categories each."""
    m = int(width if width is not None else rng.integers(1, 6))
    attrs = []
    for j in range(m):
        size = int(rng.integers(2, 20))
        kind = "ordinal" if rng.random() < 0.5 else "nominal"
        attrs.append(
            Attribute(f"a{j}", tuple(f"c{v}" for v in range(size)), kind)
        )
    return Schema(attrs)


def random_batch(rng, schema, k):
    return np.stack(
        [rng.integers(0, size, k) for size in schema.sizes], axis=1
    ).astype(np.int64)


class TestRoundTrip:
    def test_single_record(self, small_schema, rng):
        codec = ReportCodec(small_schema)
        record = np.array([1, 2, 3])
        out = codec.decode(codec.encode(record))
        assert out.shape == (1, 3)
        assert (out[0] == record).all()

    @pytest.mark.parametrize("trial", range(20))
    def test_random_schemas_and_batches(self, trial):
        """Property-style: encode→decode identity over random designs."""
        rng = np.random.default_rng(1000 + trial)
        schema = random_schema(rng)
        codec = ReportCodec(schema)
        k = int(rng.integers(1, 200))
        batch = random_batch(rng, schema, k)
        frame = codec.encode(batch)
        assert len(frame) == codec.frame_size(k)
        decoded = codec.decode(frame)
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, batch)
        # encode(decode(frame)) is byte-exact too
        assert codec.encode(decoded) == frame

    def test_extreme_codes_roundtrip(self):
        """Boundary codes (0 and |A|-1) survive the bit packing."""
        schema = Schema(
            [
                Attribute("binary", ("a", "b")),
                Attribute("wide", tuple(str(v) for v in range(17))),
            ]
        )
        codec = ReportCodec(schema)
        batch = np.array([[0, 0], [1, 16], [0, 16], [1, 0]])
        np.testing.assert_array_equal(
            codec.decode(codec.encode(batch)), batch
        )

    def test_packing_is_compact(self):
        # 1 bit + 2 bits + 2 bits = 5 bits -> one byte per record.
        schema = Schema(
            [
                Attribute("f", ("x", "y")),
                Attribute("l", ("a", "b", "c")),
                Attribute("c", ("p", "q", "r", "s")),
            ]
        )
        codec = ReportCodec(schema)
        assert codec.bits_per_attribute == (1, 2, 2)
        assert codec.record_bytes == 1
        frame = codec.encode(np.zeros((100, 3), dtype=np.int64))
        assert len(frame) == codec.frame_size(100) == 18 + 100 + 4

    def test_deterministic_encoding(self, small_schema, rng):
        codec = ReportCodec(small_schema)
        batch = random_batch(rng, small_schema, 64)
        assert codec.encode(batch) == codec.encode(batch)


class TestRejection:
    @pytest.fixture
    def codec(self, small_schema):
        return ReportCodec(small_schema)

    @pytest.fixture
    def frame(self, codec, small_schema, rng):
        return codec.encode(random_batch(rng, small_schema, 32))

    def test_truncated_buffers_rejected(self, codec, frame):
        """Property-style: every strict prefix of a frame is rejected."""
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                codec.decode(frame[:cut])

    def test_extended_buffer_rejected(self, codec, frame):
        with pytest.raises(CodecError, match="length"):
            codec.decode(frame + b"\x00")

    @pytest.mark.parametrize("trial", range(10))
    def test_corrupted_byte_rejected(self, codec, frame, trial):
        """Flipping any byte breaks the CRC (or an earlier check)."""
        rng = np.random.default_rng(trial)
        position = int(rng.integers(0, len(frame)))
        corrupted = bytearray(frame)
        corrupted[position] ^= 0xFF
        with pytest.raises(CodecError):
            codec.decode(bytes(corrupted))

    def test_bad_magic_rejected(self, codec, frame):
        with pytest.raises(CodecError, match="magic"):
            codec.decode(b"XXXX" + frame[4:])

    def test_wrong_version_rejected(self, codec, frame):
        bad = bytearray(frame)
        bad[4] = 99
        with pytest.raises(CodecError, match="version"):
            codec.decode(bytes(bad))

    def test_schema_mismatch_rejected(self, codec, rng):
        other = Schema(
            [
                Attribute("flag", ("no", "yes")),
                Attribute("level", ("low", "mid", "high")),
                # same sizes, different last attribute name
                Attribute("colour", ("red", "green", "blue", "gray")),
            ]
        )
        foreign = ReportCodec(other).encode(random_batch(rng, other, 4))
        with pytest.raises(CodecError, match="fingerprint"):
            codec.decode(foreign)

    def test_out_of_range_code_rejected_on_encode(self, codec):
        with pytest.raises(CodecError, match="out of range"):
            codec.encode(np.array([[0, 3, 0]]))  # "level" has 3 categories
        with pytest.raises(CodecError, match="out of range"):
            codec.encode(np.array([[-1, 0, 0]]))

    def test_non_integer_codes_rejected_on_encode(self, codec):
        with pytest.raises(CodecError, match="integer"):
            codec.encode(np.array([[0.9, 2.7, 1.0]]))  # no silent floor
        with pytest.raises(CodecError, match="integer"):
            codec.encode([[0.5, 1.5, 2.5]])

    def test_decoded_out_of_domain_bits_rejected(self):
        """Valid-CRC frame whose packed bits exceed a non-power-of-2
        domain is still rejected (defense against a buggy encoder)."""
        schema = Schema([Attribute("tri", ("a", "b", "c"))])  # 2 bits, max 2
        codec = ReportCodec(schema)
        frame = bytearray(codec.encode(np.array([[0]])))
        # Overwrite the payload byte with 0b11000000 (= code 3) and
        # re-seal the CRC so only the domain check can catch it.
        import struct
        import zlib

        frame[18] = 0b11000000
        frame[-4:] = struct.pack("<I", zlib.crc32(bytes(frame[:-4])))
        with pytest.raises(CodecError, match="corrupted"):
            codec.decode(bytes(frame))

    def test_empty_batch_rejected(self, codec, small_schema):
        with pytest.raises(CodecError, match="at least one"):
            codec.encode(np.empty((0, small_schema.width), dtype=np.int64))

    def test_wrong_width_rejected(self, codec):
        with pytest.raises(CodecError, match="shape"):
            codec.encode(np.zeros((4, 2), dtype=np.int64))


class TestFingerprints:
    def test_schema_fingerprint_stable_and_discriminating(self, small_schema):
        same = Schema(list(small_schema.attributes))
        assert schema_fingerprint(small_schema) == schema_fingerprint(same)
        renamed = Schema(
            [
                Attribute("flag2", ("no", "yes")),
                *small_schema.attributes[1:],
            ]
        )
        assert schema_fingerprint(small_schema) != schema_fingerprint(renamed)

    def test_kind_changes_fingerprint(self):
        nominal = Schema([Attribute("x", ("a", "b"), "nominal")])
        ordinal = Schema([Attribute("x", ("a", "b"), "ordinal")])
        assert schema_fingerprint(nominal) != schema_fingerprint(ordinal)

    def test_matrix_fingerprint_representation_independent(self):
        matrix = keep_else_uniform_matrix(4, 0.7)
        assert matrix_fingerprint(matrix) == matrix_fingerprint(matrix.dense())
        assert matrix_fingerprint(matrix) != matrix_fingerprint(
            keep_else_uniform_matrix(4, 0.6)
        )
        # A 2x2 Warner channel and any array-like dense form fold too.
        for channel in (warner_matrix(0.7), matrix):
            for dense in (channel.dense(), channel.dense().tolist()):
                assert matrix_fingerprint(dense) == matrix_fingerprint(channel)

    @pytest.mark.parametrize(
        "build, expected",
        [(build, hexdigest) for _, build, hexdigest in GOLDEN_MATRIX_FINGERPRINTS],
        ids=[name for name, _, _ in GOLDEN_MATRIX_FINGERPRINTS],
    )
    def test_matrix_fingerprint_golden_values(self, build, expected):
        matrix = build()
        assert matrix_fingerprint(matrix) == expected
        if matrix.size <= 1000:
            # The dense form folds to the parametric digest.
            assert matrix_fingerprint(matrix.dense()) == expected

    def test_constant_diagonal_digest_is_its_parameters(self):
        matrix = keep_else_uniform_matrix(4, 0.7)
        preimage = b"constant-diagonal\x00" + struct.pack(
            "<Qdd",
            4,
            round(matrix.diagonal, 12),
            round(matrix.off_diagonal, 12),
        )
        expected = hashlib.sha256(preimage).hexdigest()[:16]
        assert matrix_fingerprint(matrix) == expected

    def test_huge_matrix_fingerprint_in_constant_memory(self):
        matrix = keep_else_uniform_matrix(10**9, 0.7)
        tracemalloc.start()
        try:
            digest = matrix_fingerprint(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Its dense bytes would be 8 EB; the parameters are 24 bytes.
        assert peak < 64 * 2**10
        assert len(digest) == 16

    def test_twelfth_decimal_of_d_changes_the_digest(self):
        base = ConstantDiagonalMatrix(size=3, diagonal=0.5, off_diagonal=0.25)
        nudged = ConstantDiagonalMatrix(
            size=3, diagonal=0.5 + 2e-12, off_diagonal=0.25 - 1e-12
        )
        assert matrix_fingerprint(nudged) != matrix_fingerprint(base)
        assert matrix_fingerprint(nudged.dense()) == matrix_fingerprint(nudged)

    def test_non_constant_dense_matrix_keeps_its_byte_hash(self):
        dense = np.array(
            [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]]
        )
        digest = hashlib.sha256(dense.tobytes())
        digest.update(b"3")
        assert matrix_fingerprint(dense) == digest.hexdigest()[:16]
        # Constant diagonal, but not constant off-diagonal: still bytes.
        skewed = np.array([[0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6]])
        digest = hashlib.sha256(skewed.tobytes())
        digest.update(b"3")
        assert matrix_fingerprint(skewed) == digest.hexdigest()[:16]

    def test_design_fingerprint_covers_every_matrix(self, small_schema):
        base = {
            attr.name: keep_else_uniform_matrix(attr.size, 0.7)
            for attr in small_schema
        }
        tweaked = dict(base)
        tweaked["color"] = keep_else_uniform_matrix(4, 0.71)
        assert design_fingerprint(small_schema, base) != design_fingerprint(
            small_schema, tweaked
        )

    def test_schema_json_roundtrip_preserves_fingerprint(self, small_schema):
        import json

        payload = json.loads(json.dumps(schema_to_dict(small_schema)))
        rebuilt = schema_from_dict(payload)
        assert rebuilt == small_schema
        assert schema_fingerprint(rebuilt) == schema_fingerprint(small_schema)

    def test_malformed_schema_payload_rejected(self):
        with pytest.raises(CodecError, match="malformed"):
            schema_from_dict([{"name": "x"}])


def wide_schema(bits_per_attr, n_attrs):
    """A schema whose packed record width is bits_per_attr * n_attrs."""
    size = 1 << bits_per_attr
    return Schema(
        [
            Attribute(f"w{j}", tuple(range(size)))
            for j in range(n_attrs)
        ]
    )


class TestVectorizedMatchesReference:
    """Property: the vectorized payload paths are byte-for-byte the
    per-bit reference loops, over random designs and both word paths
    (uint64-lane for records <= 64 bits, gather/packbits above)."""

    @pytest.mark.parametrize("trial", range(25))
    def test_random_schemas(self, trial):
        rng = np.random.default_rng(4000 + trial)
        schema = random_schema(rng)
        codec = ReportCodec(schema)
        batch = random_batch(rng, schema, int(rng.integers(1, 300)))
        assert codec._pack_payload(batch) == pack_payload_reference(
            codec, batch
        )
        frame = codec.encode(batch)
        payload = np.frombuffer(
            frame, dtype=np.uint8,
            count=batch.shape[0] * codec.record_bytes, offset=18,
        ).reshape(batch.shape[0], codec.record_bytes)
        np.testing.assert_array_equal(
            codec._unpack_payload(payload),
            unpack_payload_reference(codec, payload),
        )
        np.testing.assert_array_equal(codec.decode(frame), batch)

    @pytest.mark.parametrize(
        "bits,attrs",
        [
            (1, 1),    # single 1-bit attribute (minimum record)
            (1, 8),    # exactly one packed byte of 1-bit fields
            (1, 64),   # exactly one uint64 lane of 1-bit fields
            (1, 65),   # one bit past the lane path
            (5, 7),    # >32-bit record, still on the lane path
            (7, 12),   # 84-bit record on the gather path
            (17, 5),   # wide categorical domains, gather path
        ],
    )
    def test_boundary_widths(self, bits, attrs):
        rng = np.random.default_rng(bits * 100 + attrs)
        schema = wide_schema(bits, attrs)
        codec = ReportCodec(schema)
        expected_path = "lane" if bits * attrs <= 64 else "gather"
        assert (codec._word_shifts is not None) == (expected_path == "lane")
        batch = random_batch(rng, schema, 97)
        # extremes in every attribute: all-zero and all-max records
        batch[0] = 0
        batch[1] = np.asarray(schema.sizes) - 1
        assert codec._pack_payload(batch) == pack_payload_reference(
            codec, batch
        )
        frame = codec.encode(batch)
        np.testing.assert_array_equal(codec.decode(frame), batch)
        assert codec.encode(codec.decode(frame)) == frame

    def test_range_error_still_names_attribute(self, small_schema):
        codec = ReportCodec(small_schema)
        bad = np.array([[0, 1, 2], [1, 3, 0]])  # level has only 3 codes
        with pytest.raises(CodecError, match=r"'level'.*record 1"):
            codec.encode(bad)


class TestDecodeMany:
    def test_matches_frame_by_frame(self, rng):
        schema = random_schema(rng, width=4)
        codec = ReportCodec(schema)
        batches = [
            random_batch(rng, schema, int(rng.integers(1, 50)))
            for _ in range(12)
        ]
        frames = [codec.encode(batch) for batch in batches]
        combined = codec.decode_many(frames)
        np.testing.assert_array_equal(
            combined, np.concatenate(batches, axis=0)
        )

    def test_empty_iterable(self, small_schema):
        codec = ReportCodec(small_schema)
        out = codec.decode_many([])
        assert out.shape == (0, small_schema.width)
        assert out.dtype == np.int64

    def test_any_bad_frame_rejects_the_call(self, small_schema, rng):
        codec = ReportCodec(small_schema)
        good = codec.encode(random_batch(rng, small_schema, 5))
        corrupt = bytearray(good)
        corrupt[-1] ^= 0xFF
        with pytest.raises(CodecError, match="CRC"):
            codec.decode_many([good, bytes(corrupt), good])

    def test_out_of_domain_bits_rejected(self):
        schema = Schema([Attribute("tri", ("a", "b", "c"))])  # 2 bits, 3 codes
        codec = ReportCodec(schema)
        frame = bytearray(codec.encode(np.array([[0], [1]])))
        # force the second record's field to the unreachable code 3
        frame[18 + 1] |= 0b1100_0000
        import zlib as _z
        frame[-4:] = _z.crc32(bytes(frame[:-4])).to_bytes(4, "little")
        with pytest.raises(CodecError, match=r"'tri'.*record 1"):
            codec.decode_many([bytes(frame)])

    def test_peek_record_count(self, small_schema, rng):
        codec = ReportCodec(small_schema)
        frame = codec.encode(random_batch(rng, small_schema, 37))
        assert codec.peek_record_count(frame) == 37
        assert codec.peek_record_count(b"short") == 0


class TestColumnExtrema:
    @pytest.mark.parametrize("k", [1, 2, 511, 512, 513, 1024, 5000])
    def test_matches_plain_reduction(self, k, rng):
        from repro.service.codec import column_extrema

        batch = rng.integers(-50, 50, (k, 5))
        low, high = column_extrema(batch)
        np.testing.assert_array_equal(low, batch.min(axis=0))
        np.testing.assert_array_equal(high, batch.max(axis=0))
