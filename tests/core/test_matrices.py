"""Tests for repro.core.matrices."""

import math

import numpy as np
import pytest

from repro.core.matrices import (
    ConstantDiagonalMatrix,
    as_dense,
    cluster_matrix,
    epsilon_optimal_matrix,
    frapp_matrix,
    keep_else_uniform_matrix,
    validate_rr_matrix,
    warner_matrix,
)
from repro.core.privacy import epsilon_for_keep_probability
from repro.exceptions import MatrixError


class TestConstantDiagonalMatrix:
    def test_dense_shape_and_values(self):
        m = ConstantDiagonalMatrix(size=3, diagonal=0.8, off_diagonal=0.1)
        dense = m.dense()
        assert dense.shape == (3, 3)
        np.testing.assert_allclose(np.diag(dense), 0.8)
        assert dense[0, 1] == pytest.approx(0.1)

    def test_rows_sum_to_one(self):
        m = keep_else_uniform_matrix(7, 0.4)
        np.testing.assert_allclose(m.dense().sum(axis=1), 1.0)

    def test_keep_probability(self):
        m = ConstantDiagonalMatrix(size=3, diagonal=0.8, off_diagonal=0.1)
        assert m.keep_probability == pytest.approx(0.7)

    def test_epsilon(self):
        m = ConstantDiagonalMatrix(size=3, diagonal=0.8, off_diagonal=0.1)
        assert m.epsilon == pytest.approx(math.log(8.0))

    def test_identity_epsilon_infinite(self):
        m = ConstantDiagonalMatrix(size=4, diagonal=1.0, off_diagonal=0.0)
        assert m.is_identity
        assert math.isinf(m.epsilon)

    def test_invalid_row_sum_rejected(self):
        with pytest.raises(MatrixError, match="sum to 1"):
            ConstantDiagonalMatrix(size=3, diagonal=0.5, off_diagonal=0.5)

    def test_diagonal_below_off_rejected(self):
        with pytest.raises(MatrixError, match="p_u >= p_d"):
            ConstantDiagonalMatrix(size=3, diagonal=0.2, off_diagonal=0.4)

    def test_size_one_rejected(self):
        with pytest.raises(MatrixError, match=">= 2"):
            ConstantDiagonalMatrix(size=1, diagonal=1.0, off_diagonal=0.0)

    def test_invert_distribution_roundtrip(self, rng):
        m = keep_else_uniform_matrix(5, 0.6)
        pi = rng.random(5)
        pi /= pi.sum()
        lam = m.dense().T @ pi
        np.testing.assert_allclose(m.invert_distribution(lam), pi, atol=1e-12)

    def test_invert_matches_dense_solve(self, rng):
        m = keep_else_uniform_matrix(6, 0.35)
        lam = rng.random(6)
        lam /= lam.sum()
        fast = m.invert_distribution(lam)
        slow = np.linalg.solve(m.dense().T, lam)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_invert_singular_rejected(self):
        uniform = ConstantDiagonalMatrix(size=4, diagonal=0.25, off_diagonal=0.25)
        with pytest.raises(MatrixError, match="singular"):
            uniform.invert_distribution(np.full(4, 0.25))

    def test_transition_rows(self):
        m = keep_else_uniform_matrix(3, 0.5)
        rows = m.transition_rows(np.array([2, 0]))
        np.testing.assert_allclose(rows[0], m.dense()[2])
        np.testing.assert_allclose(rows[1], m.dense()[0])
        # Built row by row, never densified: identical to selecting rows
        # of dense() at a size where the r×r matrix would be wasteful.
        m = keep_else_uniform_matrix(600, 0.7)
        values = np.random.default_rng(0).integers(0, m.size, size=(4, 25))
        values[0, :3] = [0, m.size - 1, 0]  # first/last rows and a repeat
        rows = m.transition_rows(values)
        assert rows.shape == (4, 25, m.size)
        np.testing.assert_array_equal(rows, m.dense()[values])
        np.testing.assert_array_equal(m.transition_rows(7), m.dense()[7])


class TestValidation:
    def test_valid_matrix_passes(self):
        out = validate_rr_matrix([[0.9, 0.1], [0.2, 0.8]])
        assert out.dtype == np.float64

    def test_non_square_rejected(self):
        with pytest.raises(MatrixError, match="square"):
            validate_rr_matrix(np.ones((2, 3)) / 3)

    def test_bad_row_sum_rejected(self):
        with pytest.raises(MatrixError, match="sum to 1"):
            validate_rr_matrix([[0.9, 0.3], [0.2, 0.8]])

    def test_negative_entry_rejected(self):
        with pytest.raises(MatrixError, match="probabilities"):
            validate_rr_matrix([[1.1, -0.1], [0.2, 0.8]])

    def test_singular_rejected(self):
        with pytest.raises(MatrixError, match="singular"):
            validate_rr_matrix([[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("size, keep", [(1000, 0.3), (200, 0.01)])
    def test_well_conditioned_large_matrix_accepted(self, size, keep):
        # Refused as "singular" while nonsingularity was |det| >= 1e-300:
        # the determinant underflows (r = 1000, keep 0.3: log|det| is
        # -1202.8) although the 1-norm condition number is only 5.7.
        dense = keep_else_uniform_matrix(size, keep).dense()
        assert np.linalg.det(dense) == 0.0
        np.testing.assert_array_equal(validate_rr_matrix(dense), dense)

    @pytest.mark.parametrize("size", [2, 4, 1000])
    def test_exactly_singular_uniform_rejected(self, size):
        with pytest.raises(MatrixError, match="singular"):
            validate_rr_matrix(np.full((size, size), 1.0 / size))

    def test_numerically_singular_rejected(self):
        # Accepted while the check was on the determinant (|det| is
        # 1.1e-16): the rows differ by one ulp, so the condition number
        # (9.0e15) exceeds 1/eps and Eq. (2) would return noise.
        nudged = np.nextafter(0.5, 1.0)
        dense = np.array([[0.5, 0.5], [nudged, 1.0 - nudged]])
        with pytest.raises(MatrixError, match="singular"):
            validate_rr_matrix(dense)

    def test_as_dense_passthrough(self):
        m = keep_else_uniform_matrix(3, 0.5)
        np.testing.assert_allclose(as_dense(m), m.dense())


class TestWarner:
    def test_matrix_shape(self):
        m = warner_matrix(0.75)
        np.testing.assert_allclose(
            m.dense(), [[0.75, 0.25], [0.25, 0.75]]
        )

    def test_p_below_half_swapped(self):
        # swapping categories yields the equivalent d >= o mechanism
        assert warner_matrix(0.25).diagonal == pytest.approx(0.75)

    def test_half_rejected(self):
        with pytest.raises(MatrixError, match="singular"):
            warner_matrix(0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(MatrixError, match=r"\[0, 1\]"):
            warner_matrix(1.5)


class TestKeepElseUniform:
    def test_structure(self):
        m = keep_else_uniform_matrix(4, 0.6)
        assert m.off_diagonal == pytest.approx(0.1)
        assert m.diagonal == pytest.approx(0.7)

    def test_p_one_is_identity(self):
        assert keep_else_uniform_matrix(3, 1.0).is_identity

    def test_epsilon_closed_form(self):
        # eps = ln(1 + p r / (1 - p))
        m = keep_else_uniform_matrix(5, 0.7)
        assert m.epsilon == pytest.approx(math.log(1 + 0.7 * 5 / 0.3))

    def test_p_zero_rejected(self):
        with pytest.raises(MatrixError, match=r"\(0, 1\]"):
            keep_else_uniform_matrix(3, 0.0)


class TestEpsilonOptimal:
    def test_achieves_epsilon_exactly(self):
        m = epsilon_optimal_matrix(10, 2.0)
        assert m.epsilon == pytest.approx(2.0)

    def test_diagonal_formula(self):
        m = epsilon_optimal_matrix(4, 1.0)
        assert m.diagonal == pytest.approx(math.e / (math.e + 3))

    def test_bad_epsilon_rejected(self):
        with pytest.raises(MatrixError, match="positive"):
            epsilon_optimal_matrix(4, 0.0)
        with pytest.raises(MatrixError, match="finite"):
            epsilon_optimal_matrix(4, math.inf)


class TestClusterMatrix:
    def test_singleton_cluster_equals_keep_else_uniform(self):
        # The §6.3.2 consistency check from DESIGN.md: a singleton
        # cluster at eps_A reproduces the §6.3.1 matrix exactly.
        for size in (2, 5, 16):
            for p in (0.1, 0.5, 0.9):
                eps = epsilon_for_keep_probability(size, p)
                single = cluster_matrix([size], [eps])
                reference = keep_else_uniform_matrix(size, p)
                assert single.diagonal == pytest.approx(reference.diagonal)
                assert single.off_diagonal == pytest.approx(
                    reference.off_diagonal
                )

    def test_epsilon_is_sum(self):
        m = cluster_matrix([3, 4], [1.0, 1.5])
        assert m.size == 12
        assert m.epsilon == pytest.approx(2.5)

    def test_row_stochastic(self):
        # the paper's printed formula (1 - prod|A|) would give p_C < 0;
        # ours must produce proper rows.
        m = cluster_matrix([5, 7], [0.8, 0.9])
        np.testing.assert_allclose(m.dense().sum(axis=1), 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(MatrixError, match="sizes but"):
            cluster_matrix([3, 4], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(MatrixError, match="at least one"):
            cluster_matrix([], [])

    def test_bad_epsilon_rejected(self):
        with pytest.raises(MatrixError, match="positive"):
            cluster_matrix([3], [-1.0])


class TestFrapp:
    def test_gamma_ratio(self):
        m = frapp_matrix(6, 4.0)
        assert m.diagonal / m.off_diagonal == pytest.approx(4.0)

    def test_epsilon_is_log_gamma(self):
        assert frapp_matrix(6, 4.0).epsilon == pytest.approx(math.log(4.0))

    def test_gamma_one_is_uniform_rejected_for_estimation(self):
        m = frapp_matrix(3, 1.0)
        assert m.keep_probability == pytest.approx(0.0)

    def test_gamma_below_one_rejected(self):
        with pytest.raises(MatrixError, match=">= 1"):
            frapp_matrix(3, 0.5)


class TestMatricesEqual:
    def test_constant_diagonal_pairs(self):
        from repro.core.matrices import matrices_equal

        a = keep_else_uniform_matrix(4, 0.7)
        assert matrices_equal(a, keep_else_uniform_matrix(4, 0.7))
        assert not matrices_equal(a, keep_else_uniform_matrix(4, 0.6))
        assert not matrices_equal(a, keep_else_uniform_matrix(5, 0.7))

    def test_mixed_representations(self):
        from repro.core.matrices import matrices_equal

        a = keep_else_uniform_matrix(3, 0.5)
        assert matrices_equal(a, a.dense())
        assert matrices_equal(a.dense(), a)
        assert not matrices_equal(a, keep_else_uniform_matrix(3, 0.9).dense())

    def test_dense_pairs(self):
        from repro.core.matrices import matrices_equal

        a = keep_else_uniform_matrix(3, 0.5).dense()
        b = keep_else_uniform_matrix(3, 0.5).dense()
        assert matrices_equal(a, b)
        assert not matrices_equal(a, keep_else_uniform_matrix(4, 0.5).dense())

    def test_representation_independent_verdict(self):
        # The dense comparison must apply the same absolute tolerance
        # as the constant-diagonal fast path, not allclose's default
        # relative tolerance — otherwise the same pair of channels
        # compares unequal compactly but equal densified.
        from repro.core.matrices import matrices_equal

        a = keep_else_uniform_matrix(3, 0.7)
        b = keep_else_uniform_matrix(3, 0.700001)
        assert not matrices_equal(a, b)
        assert not matrices_equal(a.dense(), b.dense())
        assert not matrices_equal(a, b.dense())
