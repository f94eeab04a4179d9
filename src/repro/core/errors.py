"""Estimation-error theory of §2.3 and §3.3.

The sample of randomized responses is a multinomial draw, so the error
of the observed distribution ``lambda_hat`` is controlled by
simultaneous confidence intervals (Thompson [27]): with confidence
``1 - alpha``,

    absolute error (Eq. 5):  e_abs = max_u sqrt(B * lam_u (1-lam_u) / n)
    relative error (Eq. 6):  e_rel = max_u sqrt(B * (1-lam_u)/lam_u / n)

where ``B`` is the upper ``alpha/r`` percentile of the chi-squared
distribution with one degree of freedom. ``sqrt(B)`` grows only
logarithmically with the number of categories ``r`` (Figure 1), but the
*relative* error blows up because each of the ``r`` cells receives
``~n/r`` observations — the quantitative form of the curse of
dimensionality that motivates the whole paper (§3.3).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import EstimationError

__all__ = [
    "chi_square_b",
    "sqrt_b_factor",
    "absolute_error_bound",
    "relative_error_bound",
    "rr_independent_relative_error",
    "rr_joint_relative_error",
]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise EstimationError(f"alpha must be in (0, 1), got {alpha}")


def _check_counts(r: int, n: int | None = None) -> None:
    if r < 2:
        raise EstimationError(f"number of categories must be >= 2, got {r}")
    if n is not None and n < 1:
        raise EstimationError(f"n must be >= 1, got {n}")


def chi_square_b(r: int, alpha: float = 0.05) -> float:
    """The factor ``B``: upper ``alpha/r`` percentile of chi2(df=1).

    Computed with the inverse survival function so that ``alpha / r``
    keeps its precision for very large ``r`` (``1 - alpha / r`` rounds
    to 1.0 from ``r`` around 1e15 and ``ppf`` would return ``inf``).
    """
    from scipy import stats

    _check_alpha(alpha)
    _check_counts(r)
    return float(stats.chi2.isf(alpha / r, df=1))


def sqrt_b_factor(r: int, alpha: float = 0.05) -> float:
    """``sqrt(B)`` — the curve plotted in Figure 1."""
    return float(np.sqrt(chi_square_b(r, alpha)))


def absolute_error_bound(
    lambdas: np.ndarray, n: int, alpha: float = 0.05
) -> float:
    """Simultaneous absolute-error bound on ``lambda_hat`` (Eq. 5)."""
    _check_alpha(alpha)
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.ndim != 1:
        raise EstimationError(f"lambdas must be 1-D, got shape {lam.shape}")
    _check_counts(lam.shape[0], n)
    if (lam < 0).any() or (lam > 1).any():
        raise EstimationError("lambdas must be probabilities in [0, 1]")
    b = chi_square_b(lam.shape[0], alpha)
    return float(np.sqrt(b * lam * (1.0 - lam) / n).max())


def relative_error_bound(
    lambdas: np.ndarray, n: int, alpha: float = 0.05
) -> float:
    """Simultaneous relative-error bound on ``lambda_hat`` (Eq. 6).

    Infinite if any category has zero probability (its relative error
    is unbounded), matching the paper's observation that rare cells
    dominate the relative error.
    """
    _check_alpha(alpha)
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.ndim != 1:
        raise EstimationError(f"lambdas must be 1-D, got shape {lam.shape}")
    _check_counts(lam.shape[0], n)
    if (lam < 0).any() or (lam > 1).any():
        raise EstimationError("lambdas must be probabilities in [0, 1]")
    if (lam == 0).any():
        return float("inf")
    b = chi_square_b(lam.shape[0], alpha)
    return float(np.sqrt(b * (1.0 - lam) / lam / n).max())


def rr_independent_relative_error(
    sizes, n: int, alpha: float = 0.05
) -> float:
    """Best-case relative error of RR-Independent (§3.3).

    Evenly distributed frequencies per attribute:
    ``max_j sqrt(B_j (|A_j| - 1) / n)`` with ``B_j`` at level
    ``alpha / |A_j|``.
    """
    size_list = [int(s) for s in sizes]
    if not size_list:
        raise EstimationError("need at least one attribute size")
    _check_counts(min(size_list), n)
    worst = 0.0
    for r in size_list:
        b = chi_square_b(r, alpha)
        worst = max(worst, float(np.sqrt(b * (r - 1) / n)))
    return worst


def rr_joint_relative_error(sizes, n: int, alpha: float = 0.05) -> float:
    """Best-case relative error of RR-Joint (§3.3).

    ``sqrt(B (prod |A_j| - 1) / n)`` with ``B`` at level
    ``alpha / prod |A_j|`` — exponential in the number of attributes,
    which is why the paper rules RR-Joint out beyond a few attributes
    (the necessity of Bound (7)).
    """
    size_list = [int(s) for s in sizes]
    if not size_list:
        raise EstimationError("need at least one attribute size")
    _check_counts(min(size_list), n)
    cells = 1
    for r in size_list:
        cells *= r
    b = chi_square_b(cells, alpha)
    return float(np.sqrt(b * (cells - 1) / n))
