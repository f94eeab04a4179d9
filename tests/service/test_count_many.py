"""``ReportCodec.count_many``: frames counted straight into the
collection schema's count vector.

The oracle is the decoded-record path it replaces:
``bincount(layout.encode_records(decode_many(frames)) + offsets)``.
Schemas cover the three lane widths (records of <= 32, 33-64 and > 64
bits), layouts cover identity, fused and partial covers, and frames are
split into windows at random points.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.schema import Attribute, Schema
from repro.exceptions import CodecError
from repro.protocols.base import CollectionLayout
from repro.protocols.joint import RRJoint
from repro.service.codec import ReportCodec
from repro.service.pipeline import CollectorService

#: Cells allowed in one fused release unit (keeps the count vector small).
MAX_UNIT_CELLS = 1 << 14

#: ``(attribute count, size range)`` per record-width class: 2-6 bits
#: each, at most 30 bits; 6 bits each, 36-60 bits; 8 bits each, 80-112
#: bits. One extra attribute of 2 or 3 categories may join any class.
WIDTH_CLASSES = {
    "le32": (st.integers(1, 5), st.integers(2, 40)),
    "33to64": (st.integers(6, 10), st.integers(33, 64)),
    "gt64": (st.integers(10, 14), st.integers(129, 256)),
}


@st.composite
def schemas(draw, width_class):
    count, size = WIDTH_CLASSES[width_class]
    n = draw(count)
    sizes = draw(st.lists(size, min_size=n, max_size=n))
    extra = draw(st.sampled_from([None, 2, 3]))
    if extra is not None:
        sizes.insert(draw(st.integers(0, len(sizes))), extra)
    return Schema(
        Attribute(f"a{j}", tuple(range(s))) for j, s in enumerate(sizes)
    )


@st.composite
def layouts(draw, schema):
    """Identity, fused, or partial-cover layout over ``schema``."""
    kind = draw(st.sampled_from(["identity", "fused", "partial"]))
    if kind == "identity":
        return CollectionLayout.identity(schema)
    order = draw(st.permutations(range(schema.width)))
    groups, current, cells = [], [], 1
    for j in order:
        size = schema.sizes[j]
        if current and (
            cells * size > MAX_UNIT_CELLS or draw(st.booleans())
        ):
            groups.append(current)
            current, cells = [], 1
        current.append(schema.names[j])
        cells *= size
    groups.append(current)
    if kind == "partial":
        groups = groups[: draw(st.integers(1, len(groups)))]
        if len(groups) == 1 and len(groups[0]) == schema.width > 1:
            groups = [groups[0][:-1]]
    return CollectionLayout(schema, groups)


def reference_counts(codec, layout, frames):
    """The decoded-record path: decode, fuse, offset bincount."""
    cells = layout.collection_schema().sizes
    offsets = np.concatenate(([0], np.cumsum(cells[:-1]))).astype(np.int64)
    units = layout.encode_records(codec.decode_many(frames))
    return np.bincount((units + offsets).ravel(), minlength=sum(cells))


def random_records(rng, schema, n):
    return np.stack(
        [rng.integers(0, size, n) for size in schema.sizes], axis=1
    ).astype(np.int64)


def split(rng, items, parts):
    """``items`` cut at up to ``parts - 1`` random points (no empty piece)."""
    cuts = rng.integers(1, len(items), size=parts - 1) if len(items) > 1 else []
    bounds = [0, *sorted(set(map(int, cuts))), len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def forged_frame(codec, records) -> bytes:
    """A frame with a valid CRC around codes the encoder would refuse."""
    payload = codec._pack_payload(records)
    body = struct.pack(
        "<4sBBQI", b"MRR1", 1, 0, codec.fingerprint, records.shape[0]
    ) + payload
    return body + struct.pack("<I", zlib.crc32(body))


@st.composite
def scenarios(draw):
    schema = draw(schemas(draw(st.sampled_from(sorted(WIDTH_CLASSES)))))
    return (
        schema,
        draw(layouts(schema)),
        draw(st.integers(1, 300)),
        draw(st.integers(1, 12)),
        draw(st.integers(1, 5)),
        draw(st.integers(0, 2**32 - 1)),
    )


class TestCountManyMatchesDecodedPath:
    @settings(max_examples=120, deadline=None)
    @given(scenarios())
    def test_equal_byte_for_byte(self, scenario):
        schema, layout, n, n_frames, n_windows, seed = scenario
        rng = np.random.default_rng(seed)
        codec = ReportCodec(schema)
        records = random_records(rng, schema, n)
        # every attribute's extremes appear
        records[0] = 0
        records[-1] = np.asarray(schema.sizes) - 1
        frames = [codec.encode(part) for part in split(rng, records, n_frames)]
        total = np.zeros(sum(layout.collection_schema().sizes), np.int64)
        for window in split(rng, frames, n_windows):
            counts = codec.count_many(window, layout)
            expected = reference_counts(codec, layout, window)
            assert counts.dtype == np.int64
            assert counts.tobytes() == expected.tobytes()
            total += counts
        assert total.tobytes() == reference_counts(
            codec, layout, frames
        ).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_out_of_domain_code_gives_decode_many_error(self, scenario):
        schema, layout, n, n_frames, _windows, seed = scenario
        codec = ReportCodec(schema)
        checked = [
            j for j, (size, bits) in enumerate(
                zip(schema.sizes, codec.bits_per_attribute)
            )
            if size < 1 << bits
        ]
        if not checked:
            return  # every code of every field is in its domain
        rng = np.random.default_rng(seed)
        records = random_records(rng, schema, n)
        j = int(rng.choice(checked))
        row = int(rng.integers(0, n))
        records[row, j] = (1 << codec.bits_per_attribute[j]) - 1
        frames = [
            forged_frame(codec, part) for part in split(rng, records, n_frames)
        ]
        with pytest.raises(CodecError) as decoded:
            codec.decode_many(frames)
        with pytest.raises(CodecError) as counted:
            codec.count_many(frames, layout)
        assert str(counted.value) == str(decoded.value)
        assert f"'{schema.names[j]}'" in str(counted.value)

    def test_empty_window(self):
        schema = Schema([Attribute("a", (0, 1, 2)), Attribute("b", (0, 1))])
        codec = ReportCodec(schema)
        layout = CollectionLayout(schema, [("a", "b")])
        counts = codec.count_many([], layout)
        assert counts.dtype == np.int64
        assert counts.tolist() == [0] * 6

    def test_foreign_layout_refused(self):
        schema = Schema([Attribute("a", (0, 1, 2)), Attribute("b", (0, 1))])
        other = Schema([Attribute("a", (0, 1, 2)), Attribute("c", (0, 1))])
        codec = ReportCodec(schema)
        with pytest.raises(CodecError, match="layout"):
            codec.count_many([], CollectionLayout.identity(other))


class TestForgedFrameInFusedUnit:
    """A CRC-valid frame whose out-of-domain code sits inside a fused
    release unit: the counts would land in a real cell, so only the
    field range check catches it. ``level`` is left out of the unit."""

    @pytest.fixture
    def protocol(self):
        schema = Schema(
            [
                Attribute("tri", ("a", "b", "c")),
                Attribute("flag", ("no", "yes")),
                Attribute("five", tuple(range(5))),
                Attribute("level", ("low", "mid", "high")),
            ]
        )
        return RRJoint(schema, names=("tri", "five"), p=0.7)

    @pytest.fixture
    def forged(self, protocol):
        codec = ReportCodec(protocol.schema)
        records = np.array([[0, 1, 4, 0], [2, 0, 7, 1], [1, 1, 0, 2]])
        return forged_frame(codec, records)

    def test_count_many_names_the_attribute(self, protocol, forged):
        codec = ReportCodec(protocol.schema)
        with pytest.raises(CodecError, match=r"'five'.*record 1"):
            codec.count_many([forged], protocol.collection)

    def test_uncovered_attribute_is_still_checked(self, protocol):
        codec = ReportCodec(protocol.schema)
        forged = forged_frame(codec, np.array([[0, 1, 4, 0], [2, 0, 3, 3]]))
        with pytest.raises(CodecError, match=r"'level'.*record 1"):
            codec.count_many([forged], protocol.collection)

    def test_service_refuses_without_logging(
        self, protocol, forged, tmp_path
    ):
        with CollectorService.for_protocol(protocol, tmp_path / "s") as svc:
            good = svc.codec.encode(np.array([[0, 1, 4, 0], [2, 0, 3, 2]]))
            svc.ingest_frame(good)
            before = svc.collector.counts
            with pytest.raises(CodecError, match="'five'"):
                svc.ingest_frame(forged)
            with pytest.raises(CodecError, match="'five'"):
                svc.ingest_many([good, forged])
            assert svc.log.n_frames == 1
            assert svc.frames_applied == 1
            assert svc.collector.counts.tobytes() == before.tobytes()
