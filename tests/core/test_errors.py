"""Tests for repro.core.errors (§2.3/§3.3 theory)."""

import math

import numpy as np
import pytest

from repro.core.errors import (
    absolute_error_bound,
    chi_square_b,
    relative_error_bound,
    rr_independent_relative_error,
    rr_joint_relative_error,
    sqrt_b_factor,
)
from repro.exceptions import EstimationError


class TestChiSquareB:
    def test_monotone_in_r(self):
        values = [chi_square_b(r) for r in (2, 10, 100, 10_000)]
        assert values == sorted(values)

    def test_figure1_endpoints(self):
        # Figure 1: sqrt(B) ~ 2.24 at r=2 up to ~5 at r=100,000
        assert sqrt_b_factor(2, 0.05) == pytest.approx(2.24, abs=0.01)
        assert sqrt_b_factor(100_000, 0.05) == pytest.approx(5.03, abs=0.02)

    def test_section32_remark(self):
        # §3.2: at r ~= the Adult product size, sqrt(B) exceeds 2 (the
        # "above 200%" relative error remark).
        assert sqrt_b_factor(1_814_400, 0.05) > 2.0

    def test_finite_and_increasing_at_huge_r(self):
        # 1 - alpha/r rounds to 1.0 near r = 1e15; the upper tail must
        # still be resolved there (Figure 1 keeps growing).
        values = [chi_square_b(r) for r in (10**14, 10**15, 10**16)]
        assert all(math.isfinite(v) for v in values)
        assert values == sorted(values) and len(set(values)) == 3
        assert values[0] == pytest.approx(65.796, abs=1e-3)

    def test_alpha_effect(self):
        # smaller alpha -> wider interval -> larger B
        assert chi_square_b(10, 0.01) > chi_square_b(10, 0.10)

    def test_bad_alpha_rejected(self):
        with pytest.raises(EstimationError, match="alpha"):
            chi_square_b(10, 0.0)
        with pytest.raises(EstimationError, match="alpha"):
            chi_square_b(10, 1.0)

    def test_bad_r_rejected(self):
        with pytest.raises(EstimationError, match=">= 2"):
            chi_square_b(1)


class TestAbsoluteErrorBound:
    def test_worst_case_at_half(self):
        # lam(1-lam) maximal at 0.5
        lam = np.array([0.5, 0.3, 0.2])
        bound = absolute_error_bound(lam, 1000)
        b = chi_square_b(3)
        assert bound == pytest.approx(math.sqrt(b * 0.25 / 1000))

    def test_shrinks_with_n(self):
        lam = np.full(4, 0.25)
        assert absolute_error_bound(lam, 10_000) < absolute_error_bound(lam, 100)

    def test_scales_sqrt_n(self):
        lam = np.full(4, 0.25)
        a = absolute_error_bound(lam, 100)
        b = absolute_error_bound(lam, 10_000)
        assert a / b == pytest.approx(10.0)

    def test_coverage_statistical(self, rng):
        # the bound is a confidence bound: empirical violations of the
        # simultaneous interval should be rare (< alpha, with slack).
        lam = np.array([0.6, 0.3, 0.1])
        n = 2000
        bound = absolute_error_bound(lam, n, alpha=0.05)
        violations = 0
        trials = 400
        for _ in range(trials):
            sample = rng.multinomial(n, lam) / n
            if np.abs(sample - lam).max() > bound:
                violations += 1
        assert violations / trials < 0.05 + 0.03

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(EstimationError, match="probabilities"):
            absolute_error_bound(np.array([0.5, 1.2]), 100)
        with pytest.raises(EstimationError, match="probabilities"):
            absolute_error_bound(np.array([-0.1, 0.5]), 100)


class TestRelativeErrorBound:
    def test_rare_category_dominates(self):
        balanced = relative_error_bound(np.full(4, 0.25), 1000)
        skewed = relative_error_bound(np.array([0.97, 0.01, 0.01, 0.01]), 1000)
        assert skewed > balanced

    def test_zero_probability_infinite(self):
        assert math.isinf(
            relative_error_bound(np.array([1.0, 0.0]), 100)
        )

    def test_uniform_closed_form(self):
        # even frequencies 1/r: e_rel = sqrt(B (r-1) / n) (§3.3)
        r, n = 8, 5000
        lam = np.full(r, 1.0 / r)
        expected = math.sqrt(chi_square_b(r) * (r - 1) / n)
        assert relative_error_bound(lam, n) == pytest.approx(expected)


class TestSection33Analysis:
    def test_independent_uses_worst_attribute(self):
        # single attribute: same as uniform relative bound
        single = rr_independent_relative_error([16], 32561)
        lam = np.full(16, 1 / 16)
        assert single == pytest.approx(relative_error_bound(lam, 32561))

    def test_joint_exceeds_independent(self):
        sizes = (9, 16, 7)
        n = 32561
        assert rr_joint_relative_error(sizes, n) > rr_independent_relative_error(
            sizes, n
        )

    def test_joint_explodes_with_attributes(self):
        sizes = (9, 16, 7, 15, 6, 5, 2, 2)
        n = 32561
        series = [
            rr_joint_relative_error(sizes[:m], n) for m in range(1, 9)
        ]
        assert series == sorted(series)
        # with all 8 Adult attributes the bound is astronomically bad
        assert series[-1] > 10.0

    def test_independent_flat_with_attributes(self):
        sizes = (9, 16, 7, 15, 6, 5, 2, 2)
        n = 32561
        series = [
            rr_independent_relative_error(sizes[:m], n) for m in range(1, 9)
        ]
        # the bound only tracks the worst attribute, education (16 cats)
        assert max(series) == pytest.approx(series[1])
        assert max(series) < 0.2

    def test_bound7_rationale(self):
        # §3.2: at n == number of cells, the relative error is ~sqrt(B),
        # i.e. far above 1 (the "200%" remark).
        cells = 1000
        err = rr_joint_relative_error([10, 10, 10], cells)
        assert err > 2.0

    def test_empty_sizes_rejected(self):
        with pytest.raises(EstimationError, match="at least one"):
            rr_joint_relative_error([], 100)
