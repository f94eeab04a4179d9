"""Confidence intervals for RR frequency and count estimates.

§2.1 notes that Chaudhuri & Mukerjee provide an unbiased dispersion
estimator alongside Eq. (2); :func:`repro.core.estimation.estimation_covariance`
implements it, and this module turns it into the intervals an analyst
actually quotes:

* per-category normal-approximation intervals for a marginal estimate;
* an interval for a count query ``n * sum_{cells in S} pi_hat`` — the
  query is a linear functional of ``pi_hat``, so its variance is
  ``w^T Cov(pi_hat) w`` with ``w`` the 0/1 cell-selection vector.

Both are large-sample (CLT) intervals; the tests check empirical
coverage against the nominal level on simulated data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.estimation import estimation_covariance
from repro.core.matrices import ConstantDiagonalMatrix
from repro.exceptions import EstimationError

__all__ = [
    "ConfidenceInterval",
    "marginal_confidence_intervals",
    "count_confidence_interval",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval ``[lower, upper]`` at confidence ``level``."""

    estimate: float
    lower: float
    upper: float
    level: float

    def __post_init__(self) -> None:
        if not self.lower <= self.estimate <= self.upper:
            raise EstimationError(
                f"inconsistent interval: {self.lower} <= {self.estimate} "
                f"<= {self.upper} fails"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= float(value) <= self.upper

    def __repr__(self) -> str:
        return (
            f"ConfidenceInterval({self.estimate:.5g} in "
            f"[{self.lower:.5g}, {self.upper:.5g}] @ {self.level:.0%})"
        )


def _check_level(level: float) -> float:
    from scipy import stats

    if not 0.0 < level < 1.0:
        raise EstimationError(f"level must be in (0, 1), got {level}")
    return float(stats.norm.ppf(0.5 + level / 2.0))


def marginal_confidence_intervals(
    matrix,
    lambda_hat: np.ndarray,
    n: int,
    level: float = 0.95,
) -> list:
    """Per-category CIs for the Eq. (2) marginal estimate.

    Parameters
    ----------
    matrix:
        The randomization matrix used for the release.
    lambda_hat:
        Observed randomized distribution.
    n:
        Number of responses.
    level:
        Two-sided confidence level (per category, not simultaneous; use
        a Bonferroni-adjusted level for simultaneous coverage).
    """
    z = _check_level(level)
    lam = np.asarray(lambda_hat, dtype=np.float64)
    size = (
        matrix.size
        if isinstance(matrix, ConstantDiagonalMatrix)
        else np.asarray(matrix).shape[0]
    )
    if lam.shape != (size,):
        raise EstimationError(
            f"lambda_hat must have shape ({size},), got {lam.shape}"
        )
    from repro.core.estimation import estimate_distribution

    estimate = estimate_distribution(lam, matrix)
    covariance = estimation_covariance(matrix, lam, n)
    deviations = z * np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    return [
        ConfidenceInterval(
            estimate=float(estimate[u]),
            lower=float(estimate[u] - deviations[u]),
            upper=float(estimate[u] + deviations[u]),
            level=level,
        )
        for u in range(size)
    ]


def count_confidence_interval(
    matrix,
    lambda_hat: np.ndarray,
    n: int,
    cells: np.ndarray,
    level: float = 0.95,
) -> ConfidenceInterval:
    """CI for the count ``n * sum_{u in cells} pi_hat_u``.

    ``cells`` are flat category indices of the set ``S`` (for a pair or
    k-way query, encode the cells through the corresponding
    :class:`~repro.data.domain.Domain` first). The variance is the
    quadratic form of the selection vector with the dispersion matrix.
    """
    z = _check_level(level)
    if n <= 0:
        raise EstimationError(f"n must be positive, got {n}")
    lam = np.asarray(lambda_hat, dtype=np.float64)
    size = (
        matrix.size
        if isinstance(matrix, ConstantDiagonalMatrix)
        else np.asarray(matrix).shape[0]
    )
    idx = np.unique(np.asarray(cells, dtype=np.int64).reshape(-1))
    if idx.size == 0:
        raise EstimationError("cells must select at least one category")
    if idx.min() < 0 or idx.max() >= size:
        raise EstimationError(f"cells out of range [0, {size})")
    from repro.core.estimation import estimate_distribution

    estimate = estimate_distribution(lam, matrix)
    covariance = estimation_covariance(matrix, lam, n)
    selector = np.zeros(size)
    selector[idx] = 1.0
    point = float(n * selector @ estimate)
    variance = float(n * n * selector @ covariance @ selector)
    deviation = z * np.sqrt(max(variance, 0.0))
    return ConfidenceInterval(
        estimate=point,
        lower=point - deviation,
        upper=point + deviation,
        level=level,
    )
