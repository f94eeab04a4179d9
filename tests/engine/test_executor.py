"""Tests for the chunked/sharded executor."""

import numpy as np
import pytest

from repro.core.matrices import keep_else_uniform_matrix
from repro.data.domain import Domain
from repro.data.schema import Attribute, Schema
from repro.engine.executor import ColumnTask, run, seed_sequence_from
from repro.exceptions import ReproError


@pytest.fixture
def schema():
    return Schema(
        [
            Attribute("a", ("a0", "a1", "a2")),
            Attribute("b", ("b0", "b1")),
            Attribute("c", ("c0", "c1", "c2", "c3")),
        ]
    )


@pytest.fixture
def codes(rng):
    n = 3000
    return np.stack(
        [
            rng.integers(0, 3, n),
            rng.integers(0, 2, n),
            rng.integers(0, 4, n),
        ],
        axis=1,
    )


@pytest.fixture
def tasks(schema):
    return [
        ColumnTask((j,), keep_else_uniform_matrix(attr.size, 0.6))
        for j, attr in enumerate(schema)
    ]


class TestColumnTask:
    def test_single_column_roundtrip(self, codes, tasks):
        flat = tasks[2].encode(codes)
        np.testing.assert_array_equal(flat, codes[:, 2])
        np.testing.assert_array_equal(tasks[2].decode(flat)[:, 0], codes[:, 2])

    def test_fused_domain_roundtrip(self, schema, codes):
        domain = Domain.from_schema(schema, ["a", "c"])
        task = ColumnTask(
            (0, 2), keep_else_uniform_matrix(domain.size, 0.6), domain
        )
        flat = task.encode(codes)
        np.testing.assert_array_equal(task.decode(flat), codes[:, [0, 2]])

    def test_multi_column_needs_domain(self):
        with pytest.raises(ReproError, match="Domain"):
            ColumnTask((0, 1), keep_else_uniform_matrix(6, 0.5))

    def test_domain_size_must_match_matrix(self, schema):
        domain = Domain.from_schema(schema, ["a", "b"])  # 6 cells
        with pytest.raises(ReproError, match="does not match"):
            ColumnTask((0, 1), keep_else_uniform_matrix(5, 0.5), domain)

    def test_duplicate_positions_rejected(self, schema):
        domain = Domain.from_schema(schema, ["a", "a"])
        with pytest.raises(ReproError, match="duplicate"):
            ColumnTask((0, 0), keep_else_uniform_matrix(9, 0.5), domain)


class TestRunDeterminism:
    @pytest.mark.parametrize("chunk_size", [None, 1, 77, 512, 100_000])
    def test_byte_identical_across_chunk_sizes(self, codes, tasks, chunk_size):
        reference = run(codes, tasks, rng=5).codes
        result = run(codes, tasks, rng=5, chunk_size=chunk_size).codes
        np.testing.assert_array_equal(reference, result)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_byte_identical_across_worker_counts(self, codes, tasks, workers):
        reference = run(codes, tasks, rng=5, chunk_size=256).codes
        result = run(
            codes, tasks, rng=5, chunk_size=256, workers=workers
        ).codes
        np.testing.assert_array_equal(reference, result)

    def test_fused_task_byte_identical(self, schema, codes):
        domain = Domain.from_schema(schema, ["a", "c"])
        tasks = [
            ColumnTask(
                (0, 2), keep_else_uniform_matrix(domain.size, 0.7), domain
            ),
            ColumnTask((1,), keep_else_uniform_matrix(2, 0.7)),
        ]
        reference = run(codes, tasks, rng=9).codes
        chunked = run(codes, tasks, rng=9, chunk_size=101, workers=2).codes
        np.testing.assert_array_equal(reference, chunked)

    def test_different_seeds_differ(self, codes, tasks):
        a = run(codes, tasks, rng=1).codes
        b = run(codes, tasks, rng=2).codes
        assert not np.array_equal(a, b)

    def test_generator_rng_accepted_and_deterministic(self, codes, tasks):
        a = run(codes, tasks, rng=np.random.default_rng(3)).codes
        b = run(codes, tasks, rng=np.random.default_rng(3)).codes
        np.testing.assert_array_equal(a, b)


class TestRunModes:
    def test_uncovered_columns_pass_through(self, codes, tasks):
        result = run(codes, tasks[:1], rng=0, chunk_size=100)
        np.testing.assert_array_equal(result.codes[:, 1:], codes[:, 1:])

    def test_empty_dataset(self, tasks):
        empty = np.empty((0, 3), dtype=np.int64)
        result = run(empty, tasks, rng=0, chunk_size=10)
        assert result.codes.shape == (0, 3)

    def test_overlapping_randomize_tasks_rejected(self, codes, tasks):
        with pytest.raises(ReproError, match="disjoint"):
            run(codes, [tasks[0], tasks[0]], rng=0)

    def test_positions_out_of_range_rejected(self, codes):
        bad = ColumnTask((9,), keep_else_uniform_matrix(3, 0.5))
        with pytest.raises(ReproError, match="out of range"):
            run(codes, [bad], rng=0)

    def test_no_tasks_rejected(self, codes):
        with pytest.raises(ReproError, match="at least one task"):
            run(codes, [], rng=0)

    def test_bad_workers_rejected(self, codes, tasks):
        with pytest.raises(ReproError, match="workers"):
            run(codes, tasks, rng=0, workers=0)

    def test_zero_chunk_size_rejected(self, codes, tasks):
        with pytest.raises(ReproError, match="chunk_size"):
            run(codes, tasks, rng=0, chunk_size=0)

    def test_workers_without_chunk_size_still_chunks(self, codes, tasks):
        # workers>1 with no chunk_size must not degenerate into a
        # single serial chunk; the default block size kicks in, and by
        # the determinism contract the bytes still match.
        reference = run(codes, tasks, rng=5).codes
        sharded = run(codes, tasks, rng=5, workers=2).codes
        np.testing.assert_array_equal(reference, sharded)

    def test_dense_cumulative_cached_on_task(self):
        dense = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]])
        task = ColumnTask((0,), dense)
        np.testing.assert_allclose(task.cumulative, np.cumsum(dense, axis=1))
        cd_task = ColumnTask((0,), keep_else_uniform_matrix(3, 0.5))
        assert cd_task.cumulative is None


class TestSeedSequenceFrom:
    def test_int_deterministic(self):
        a = seed_sequence_from(17).generate_state(4)
        b = seed_sequence_from(17).generate_state(4)
        np.testing.assert_array_equal(a, b)

    def test_passthrough(self):
        seq = np.random.SeedSequence(3)
        assert seed_sequence_from(seq) is seq

    def test_generator_deterministic(self):
        a = seed_sequence_from(np.random.default_rng(5)).generate_state(4)
        b = seed_sequence_from(np.random.default_rng(5)).generate_state(4)
        np.testing.assert_array_equal(a, b)

    def test_none_is_fresh(self):
        a = seed_sequence_from(None).generate_state(4)
        b = seed_sequence_from(None).generate_state(4)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ReproError, match="non-negative"):
            seed_sequence_from(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(ReproError, match="rng must be"):
            seed_sequence_from("seed")
