"""Tests for the streaming collector (one flat count vector)."""

import numpy as np
import pytest

from repro.analysis.streaming import StreamingCollector
from repro.core.matrices import as_dense, keep_else_uniform_matrix
from repro.data.schema import Attribute, Schema
from repro.exceptions import EstimationError, ProtocolError
from repro.protocols.independent import RRIndependent


def single(matrix):
    """A one-attribute collector: the per-attribute estimator case."""
    size = as_dense(matrix).shape[0]
    schema = Schema([Attribute("a", tuple(range(size)))])
    return StreamingCollector(schema, {"a": matrix})


class TestSingleAttribute:
    def test_matches_batch_estimation(self, rng):
        matrix = keep_else_uniform_matrix(4, 0.6)
        values = rng.integers(0, 4, 5000)
        streaming = single(matrix)
        for chunk in np.array_split(values, 13):
            streaming.receive_batch(chunk[:, None])
        from repro.core.estimation import estimate_from_responses
        from repro.core.projection import clip_and_rescale

        batch = clip_and_rescale(estimate_from_responses(values, matrix))
        np.testing.assert_allclose(
            streaming.estimate_marginal("a"), batch, atol=1e-12
        )

    def test_single_value_updates(self):
        collector = single(keep_else_uniform_matrix(3, 0.5))
        collector.receive([0])
        collector.receive([2])
        collector.receive([2])
        np.testing.assert_array_equal(collector.counts, [1, 0, 2])
        assert collector.n_observed == 3

    def test_empty_update_noop(self):
        collector = single(keep_else_uniform_matrix(3, 0.5))
        collector.receive_batch(np.empty((0, 1), dtype=np.int64))
        assert collector.n_observed == 0

    def test_estimate_before_data_rejected(self):
        collector = single(keep_else_uniform_matrix(3, 0.5))
        with pytest.raises(EstimationError, match="no responses"):
            collector.estimate_marginal("a")

    def test_out_of_range_rejected(self):
        collector = single(keep_else_uniform_matrix(3, 0.5))
        with pytest.raises(EstimationError, match="out of range"):
            collector.receive([3])
        with pytest.raises(EstimationError, match="out of range"):
            collector.receive([-1])
        assert collector.n_observed == 0

    def test_merge(self, rng):
        matrix = keep_else_uniform_matrix(4, 0.7)
        values = rng.integers(0, 4, 2000)[:, None]
        left = single(matrix)
        right = single(matrix)
        left.receive_batch(values[:1200])
        right.receive_batch(values[1200:])
        left.merge(right)
        combined = single(matrix)
        combined.receive_batch(values)
        np.testing.assert_array_equal(left.counts, combined.counts)

    def test_merge_size_mismatch_rejected(self):
        a = single(keep_else_uniform_matrix(3, 0.5))
        b = single(keep_else_uniform_matrix(4, 0.5))
        with pytest.raises(EstimationError, match="different schemas"):
            a.merge(b)

    def test_merge_matrix_mismatch_rejected(self):
        # Same size, different channel: pooling the counts would
        # silently corrupt the Eq. (2) inversion.
        a = single(keep_else_uniform_matrix(3, 0.5))
        b = single(keep_else_uniform_matrix(3, 0.8))
        b.receive_batch(np.array([[0], [1], [2]]))
        with pytest.raises(EstimationError, match="matrix mismatch"):
            a.merge(b)
        assert a.n_observed == 0

    def test_merge_dense_matrix_mismatch_rejected(self):
        a = single(keep_else_uniform_matrix(3, 0.5).dense())
        b = single(keep_else_uniform_matrix(3, 0.6).dense())
        with pytest.raises(EstimationError, match="matrix mismatch"):
            a.merge(b)

    def test_merge_mixed_representations_of_same_matrix(self, rng):
        # A constant-diagonal matrix and its densified form are the
        # same channel, so merging across representations is legal.
        matrix = keep_else_uniform_matrix(4, 0.7)
        compact = single(matrix)
        dense = single(matrix.dense())
        values = rng.integers(0, 4, 500)[:, None]
        compact.receive_batch(values[:250])
        dense.receive_batch(values[250:])
        compact.merge(dense)
        assert compact.n_observed == 500

    def test_add_counts(self, rng):
        matrix = keep_else_uniform_matrix(4, 0.7)
        values = rng.integers(0, 4, 1000)
        direct = single(matrix)
        direct.receive_batch(values[:, None])
        from_counts = single(matrix)
        from_counts.add_counts(np.bincount(values, minlength=4))
        np.testing.assert_array_equal(direct.counts, from_counts.counts)
        np.testing.assert_allclose(
            direct.estimate_marginal("a"),
            from_counts.estimate_marginal("a"),
            atol=1e-12,
        )

    @pytest.mark.parametrize(
        "vector, message",
        [
            (np.array([1, 2]), "shape"),
            (np.array([1, -2, 3]), "non-negative"),
            (np.array([1.0, 2.0, 3.0]), "integers"),
            # 2**64 - 1 wraps to -1 under a plain int64 cast.
            (np.array([2**64 - 1, 0, 0], dtype=np.uint64), "fit in int64"),
        ],
    )
    def test_add_counts_validation(self, vector, message):
        collector = single(keep_else_uniform_matrix(3, 0.5))
        collector.add_counts(np.array([5, 5, 5]))
        with pytest.raises(EstimationError, match=message):
            collector.add_counts(vector)
        np.testing.assert_array_equal(collector.counts, [5, 5, 5])
        assert collector.n_observed == 15


class TestStreamingCollector:
    @pytest.fixture
    def matrices(self, small_schema):
        return {
            attr.name: keep_else_uniform_matrix(attr.size, 0.7)
            for attr in small_schema
        }

    def test_matches_protocol_estimation(self, small_dataset, matrices):
        protocol = RRIndependent(small_dataset.schema, p=0.7)
        released = protocol.randomize(small_dataset, rng=3)
        collector = StreamingCollector(small_dataset.schema, matrices)
        for row in released.codes:
            collector.receive(row)
        for name in small_dataset.schema.names:
            np.testing.assert_allclose(
                collector.estimate_marginal(name),
                protocol.estimate_marginal(released, name),
                atol=1e-12,
            )

    def test_batch_equals_stream(self, small_dataset, matrices):
        protocol = RRIndependent(small_dataset.schema, p=0.7)
        released = protocol.randomize(small_dataset, rng=4)
        one_by_one = StreamingCollector(small_dataset.schema, matrices)
        for row in released.codes:
            one_by_one.receive(row)
        batched = StreamingCollector(small_dataset.schema, matrices)
        batched.receive_batch(released.codes)
        np.testing.assert_array_equal(one_by_one.counts, batched.counts)
        for name in small_dataset.schema.names:
            np.testing.assert_allclose(
                one_by_one.estimate_marginal(name),
                batched.estimate_marginal(name),
            )

    def test_merge_across_nodes(self, small_dataset, matrices):
        protocol = RRIndependent(small_dataset.schema, p=0.7)
        released = protocol.randomize(small_dataset, rng=5)
        node_a = StreamingCollector(small_dataset.schema, matrices)
        node_b = StreamingCollector(small_dataset.schema, matrices)
        node_a.receive_batch(released.codes[:120])
        node_b.receive_batch(released.codes[120:])
        node_a.merge(node_b)
        assert node_a.n_observed == small_dataset.n_records
        np.testing.assert_allclose(
            node_a.estimate_marginal("color"),
            protocol.estimate_marginal(released, "color"),
            atol=1e-12,
        )

    def test_missing_matrix_rejected(self, small_schema):
        with pytest.raises(EstimationError, match="missing"):
            StreamingCollector(small_schema, {})

    def test_wrong_matrix_size_rejected(self, small_schema):
        matrices = {
            "flag": keep_else_uniform_matrix(3, 0.5),  # flag has 2
            "level": keep_else_uniform_matrix(3, 0.5),
            "color": keep_else_uniform_matrix(4, 0.5),
        }
        with pytest.raises(EstimationError, match="size"):
            StreamingCollector(small_schema, matrices)

    def test_bad_record_shape_rejected(self, small_schema, matrices):
        collector = StreamingCollector(small_schema, matrices)
        with pytest.raises(EstimationError, match="shape"):
            collector.receive(np.array([0, 1]))
        with pytest.raises(EstimationError, match="shape"):
            collector.receive_batch(np.zeros((3, 2), dtype=np.int64))

    def test_n_observed_fresh_collector_is_zero(self, small_schema, matrices):
        collector = StreamingCollector(small_schema, matrices)
        assert collector.n_observed == 0
        assert collector.n_observed_by_attribute == {
            name: 0 for name in small_schema.names
        }

    def test_n_observed_uneven_reported_per_attribute(
        self, small_schema, matrices
    ):
        collector = StreamingCollector(small_schema, matrices)
        collector.receive(np.zeros(small_schema.width, dtype=np.int64))
        # A count vector touching one attribute only: no single record
        # count exists any more.
        flag_only = np.zeros(sum(small_schema.sizes), dtype=np.int64)
        flag_only[1] = 1
        collector.add_counts(flag_only)
        assert collector.n_observed_by_attribute["flag"] == 2
        with pytest.raises(EstimationError, match="unevenly"):
            collector.n_observed
        # repr must stay usable on the inconsistent state
        assert "uneven" in repr(collector)

    def test_failed_merge_leaves_master_untouched(
        self, small_schema, matrices, rng
    ):
        # A collector matching on the first attribute but mismatched on
        # a later one must be rejected atomically — no half-absorbed
        # counts left behind.
        master = StreamingCollector(small_schema, matrices)
        master.receive(np.zeros(small_schema.width, dtype=np.int64))
        rogue_matrices = dict(matrices)
        rogue_matrices["color"] = keep_else_uniform_matrix(4, 0.2)
        rogue = StreamingCollector(small_schema, rogue_matrices)
        rogue.receive(np.zeros(small_schema.width, dtype=np.int64))
        with pytest.raises(EstimationError, match="matrix mismatch"):
            master.merge(rogue)
        assert master.n_observed == 1  # not raised, not partially merged

    def test_unknown_attribute_rejected(self, small_schema, matrices):
        collector = StreamingCollector(small_schema, matrices)
        collector.receive(np.zeros(small_schema.width, dtype=np.int64))
        assert collector.estimate_marginal("flag").shape == (2,)
        with pytest.raises(EstimationError, match="unknown"):
            collector.estimate_marginal("nope")

    def test_counts_are_the_flat_snapshot(self, small_schema, matrices, rng):
        collector = StreamingCollector(small_schema, matrices)
        collector.receive_batch(
            np.stack(
                [rng.integers(0, s, 50) for s in small_schema.sizes], axis=1
            )
        )
        snapshot = collector.snapshot_counts()
        flat = collector.counts
        np.testing.assert_array_equal(
            flat, np.concatenate([snapshot[n] for n in small_schema.names])
        )
        flat[0] = 999  # a copy: mutating it must not hurt
        assert collector.counts[0] != 999


class TestProtocolCollector:
    """``StreamingCollector.for_protocol``: merge, add_counts, refusals."""

    @pytest.fixture
    def protocol(self, small_schema):
        return RRIndependent(small_schema, p=0.7)

    @pytest.fixture
    def released(self, protocol, small_dataset):
        return protocol.randomize(small_dataset, rng=21)

    def test_merge_matches_monolithic(self, protocol, released):
        collector = StreamingCollector.for_protocol(protocol)
        node_a = StreamingCollector.for_protocol(protocol)
        node_b = StreamingCollector.for_protocol(protocol)
        node_a.receive_batch(released.codes[:80])
        node_b.receive_batch(released.codes[80:])
        collector.merge(node_a)
        collector.merge(node_b)
        assert collector.n_observed == released.n_records
        for name in protocol.schema.names:
            np.testing.assert_allclose(
                collector.estimate_marginal(name),
                protocol.estimate_marginal(released, name),
                atol=1e-12,
            )

    def test_add_counts_matches_receive_batch(self, protocol, released):
        collector = StreamingCollector.for_protocol(protocol)
        collector.add_counts(
            np.concatenate(
                [
                    np.bincount(released.column(attr.name), minlength=attr.size)
                    for attr in protocol.schema
                ]
            )
        )
        direct = StreamingCollector.for_protocol(protocol)
        direct.receive_batch(released.codes)
        np.testing.assert_array_equal(collector.counts, direct.counts)
        assert collector.n_observed == released.n_records

    def test_mismatched_matrix_rejected(self, protocol, small_schema):
        collector = StreamingCollector.for_protocol(protocol)
        other_design = {
            attr.name: keep_else_uniform_matrix(attr.size, 0.4)
            for attr in small_schema
        }
        rogue = StreamingCollector(small_schema, other_design)
        rogue.receive(np.zeros(small_schema.width, dtype=np.int64))
        with pytest.raises(EstimationError, match="matrix mismatch"):
            collector.merge(rogue)
        assert collector.n_observed == 0

    def test_dense_equivalent_accepted(self, protocol, small_schema):
        """A dense copy of the same channel merges (representation-
        independent matrix comparison)."""
        collector = StreamingCollector.for_protocol(protocol)
        dense_twin = StreamingCollector(
            small_schema,
            {name: m.dense() for name, m in protocol.matrices.items()},
        )
        dense_twin.receive(np.zeros(small_schema.width, dtype=np.int64))
        collector.merge(dense_twin)
        assert collector.n_observed == 1

    def test_reordered_schema_rejected(self, protocol, small_schema):
        collector = StreamingCollector.for_protocol(protocol)
        reordered = Schema(list(reversed(small_schema.attributes)))
        other = StreamingCollector(
            reordered,
            {a.name: protocol.matrix_for(a.name) for a in reordered},
        )
        with pytest.raises(EstimationError, match="different schemas"):
            collector.merge(other)

    def test_bad_codes_shape_rejected(self, protocol):
        collector = StreamingCollector.for_protocol(protocol)
        with pytest.raises(EstimationError, match="shape"):
            collector.receive_batch(np.zeros((4, 9), dtype=np.int64))

    def test_out_of_range_codes_rejected(self, protocol, small_schema):
        collector = StreamingCollector.for_protocol(protocol)
        bad = np.zeros((2, small_schema.width), dtype=np.int64)
        bad[1, 0] = 5  # "flag" has 2 categories
        with pytest.raises(EstimationError, match="out of range.*'flag'"):
            collector.receive_batch(bad)
        bad[1, 0] = -1
        with pytest.raises(EstimationError, match="out of range"):
            collector.receive_batch(bad)
        assert collector.n_observed == 0

    def test_empty_batch_noop(self, protocol, small_schema):
        collector = StreamingCollector.for_protocol(protocol)
        collector.receive_batch(
            np.empty((0, small_schema.width), dtype=np.int64)
        )
        assert collector.n_observed == 0

    def test_matrices_property_is_a_copy(self, protocol):
        collector = StreamingCollector.for_protocol(protocol)
        exported = collector.matrices
        assert set(exported) == set(protocol.schema.names)
        exported["flag"] = None  # mutating the copy must not hurt
        assert collector.matrices["flag"] is not None

    def test_add_counts_wrong_size_leaves_collector_clean(self, protocol):
        collector = StreamingCollector.for_protocol(protocol)
        collector.add_counts(np.ones(9, dtype=np.int64))
        before = collector.counts
        with pytest.raises(EstimationError, match="shape"):
            collector.add_counts(np.zeros(5, dtype=np.int64))
        # Valid "flag" cells, then one bad cell further on: nothing of
        # the vector is applied.
        partly_bad = np.full(9, 3, dtype=np.int64)
        partly_bad[-1] = -1
        with pytest.raises(EstimationError, match="non-negative"):
            collector.add_counts(partly_bad)
        np.testing.assert_array_equal(collector.counts, before)

    def test_add_counts_wrong_domain_size(self, protocol):
        collector = StreamingCollector.for_protocol(protocol)
        # Sized for a "flag" of 5 cells instead of 2 (5 + 3 + 4).
        with pytest.raises(EstimationError, match="shape"):
            collector.add_counts(np.zeros(12, dtype=np.int64))
        assert collector.n_observed == 0

    def test_add_counts_negative_or_float_rejected(self, protocol):
        collector = StreamingCollector.for_protocol(protocol)
        with pytest.raises(EstimationError, match="non-negative"):
            collector.add_counts(-np.ones(9, dtype=np.int64))
        with pytest.raises(EstimationError, match="integer"):
            collector.add_counts(np.full(9, 0.5))
        assert not collector.counts.any()

    def test_merge_wrong_domain_size_rejected(self, protocol, small_schema):
        collector = StreamingCollector.for_protocol(protocol)
        wider = Schema(
            [Attribute("flag", tuple(range(6)))]
            + [attr for attr in small_schema if attr.name != "flag"]
        )
        other = StreamingCollector(
            wider,
            {
                attr.name: keep_else_uniform_matrix(attr.size, 0.7)
                for attr in wider
            },
        )
        with pytest.raises(EstimationError, match="different schemas"):
            collector.merge(other)

    def test_one_foreign_matrix_rejected(self, protocol, small_schema):
        collector = StreamingCollector.for_protocol(protocol)
        collector.receive(np.zeros(small_schema.width, dtype=np.int64))
        # Right sizes; only "flag" went through a different design.
        design = dict(protocol.matrices)
        design["flag"] = keep_else_uniform_matrix(2, 0.3)
        foreign = StreamingCollector(small_schema, design)
        foreign.receive_batch(np.zeros((3, small_schema.width), dtype=np.int64))
        with pytest.raises(EstimationError, match="matrix mismatch for 'flag'"):
            collector.merge(foreign)
        assert collector.n_observed == 1

    def test_unknown_attribute_rejected(self, protocol, small_schema):
        collector = StreamingCollector.for_protocol(protocol)
        collector.receive(np.zeros(small_schema.width, dtype=np.int64))
        with pytest.raises(EstimationError, match="unknown"):
            collector.estimate_marginal("nope")
        fresh = StreamingCollector.for_protocol(protocol)
        ghost = {"nope": np.array([1, 2], dtype=np.int64)}
        ghost.update(collector.snapshot_counts())
        with pytest.raises(EstimationError, match="unknown attributes"):
            fresh.restore_counts(ghost)
        assert fresh.n_observed == 0


#: Non-integer codes that an int64 cast would truncate into valid
#: categories of the small schema (flag: 2, level: 3, color: 4).
FLOAT_CODES = np.array([[0.9, 1.5, 2.2], [0.1, 2.7, 3.9]])


class TestNonIntegerCodesRefused:
    @pytest.mark.parametrize(
        "entry, error",
        [
            ("receive", EstimationError),
            ("receive_batch", EstimationError),
            ("absorb", ProtocolError),
        ],
    )
    def test_refused_with_typed_error(self, small_schema, entry, error):
        estimator = RRIndependent(small_schema, p=0.7).make_estimator()
        collector = estimator.collector
        calls = {
            "receive": lambda: collector.receive(FLOAT_CODES[0]),
            "receive_batch": lambda: collector.receive_batch(FLOAT_CODES),
            "absorb": lambda: estimator.absorb(FLOAT_CODES),
        }
        with pytest.raises(error, match="integer"):
            calls[entry]()
        assert collector.n_observed == 0


class TestSnapshotRestore:
    """Checkpoint hooks: snapshot_counts / restore_counts."""

    @pytest.fixture
    def matrices(self, small_schema):
        return {
            attr.name: keep_else_uniform_matrix(attr.size, 0.7)
            for attr in small_schema
        }

    def test_roundtrip_restores_identical_state(
        self, small_schema, matrices, rng
    ):
        source = StreamingCollector(small_schema, matrices)
        batch = np.stack(
            [rng.integers(0, s, 120) for s in small_schema.sizes], axis=1
        )
        source.receive_batch(batch)
        snapshot = source.snapshot_counts()

        restored = StreamingCollector(small_schema, matrices)
        restored.restore_counts(snapshot)
        assert restored.n_observed == source.n_observed
        for name in small_schema.names:
            assert (
                restored.estimate_marginal(name).tobytes()
                == source.estimate_marginal(name).tobytes()
            )

    def test_snapshot_is_a_copy(self, small_schema, matrices):
        collector = StreamingCollector(small_schema, matrices)
        collector.receive(np.zeros(small_schema.width, dtype=np.int64))
        snapshot = collector.snapshot_counts()
        snapshot["flag"][0] = 999
        assert collector.snapshot_counts()["flag"][0] == 1

    def test_restore_refused_on_observed_collector(
        self, small_schema, matrices
    ):
        collector = StreamingCollector(small_schema, matrices)
        collector.receive(np.zeros(small_schema.width, dtype=np.int64))
        with pytest.raises(EstimationError, match="already observed"):
            collector.restore_counts(collector.snapshot_counts())

    def test_restore_validates_before_applying(
        self, small_schema, matrices
    ):
        collector = StreamingCollector(small_schema, matrices)
        bad = {
            "flag": np.array([1, 2], dtype=np.int64),
            "level": np.array([1, 2, 3], dtype=np.int64),
            "color": np.array([1], dtype=np.int64),  # wrong size
        }
        with pytest.raises(EstimationError, match="shape"):
            collector.restore_counts(bad)
        assert collector.n_observed_by_attribute["flag"] == 0

    def test_restore_refuses_counts_past_int64(self, small_schema, matrices):
        collector = StreamingCollector(small_schema, matrices)
        counts = {
            attr.name: np.zeros(attr.size, dtype=np.uint64)
            for attr in small_schema
        }
        counts["color"][0] = 2**63  # wraps to -2**63 under an int64 cast
        with pytest.raises(EstimationError, match="fit in int64"):
            collector.restore_counts(counts)
        assert not collector.counts.any()

    def test_restore_missing_or_unknown_attributes(
        self, small_schema, matrices
    ):
        collector = StreamingCollector(small_schema, matrices)
        with pytest.raises(EstimationError, match="missing"):
            collector.restore_counts({"flag": np.array([0, 0])})
        full = {
            name: np.zeros(
                small_schema.attribute(name).size, dtype=np.int64
            )
            for name in small_schema.names
        }
        full["ghost"] = np.array([0, 0])
        with pytest.raises(EstimationError, match="unknown"):
            collector.restore_counts(full)
