"""Unbiased frequency estimation from randomized responses (Eq. (2)).

The collector observes the empirical distribution ``lambda_hat`` of the
randomized values; since ``lambda = P^T pi``, the unbiased estimator of
the true distribution is ``pi_hat = (P^T)^{-1} lambda_hat``
(Chaudhuri & Mukerjee, ch. 3.3). For the constant-diagonal family the
inverse collapses to the O(r) closed form
``pi_hat = (lambda_hat - o) / (d - o)``; for arbitrary matrices we
solve the linear system (never forming the inverse explicitly).

The estimate may fall outside the probability simplex when the observed
``lambda_hat`` is inconsistent with ``P`` — see
:mod:`repro.core.projection` for the §6.4 repair.
"""

from __future__ import annotations

import numpy as np

from repro.core.matrices import ConstantDiagonalMatrix, validate_rr_matrix
from repro.exceptions import EstimationError

__all__ = [
    "observed_distribution",
    "estimate_distribution",
    "estimate_from_responses",
    "estimation_covariance",
    "propagation_condition_number",
]


def observed_distribution(values: np.ndarray, size: int) -> np.ndarray:
    """Empirical distribution ``lambda_hat`` of a code column.

    Parameters
    ----------
    values:
        Codes in ``[0, size)``.
    size:
        Number of categories ``r``.
    """
    codes = np.asarray(values, dtype=np.int64)
    if codes.ndim != 1:
        raise EstimationError(f"values must be 1-D, got shape {codes.shape}")
    if codes.size == 0:
        raise EstimationError("cannot estimate a distribution from no responses")
    if codes.min() < 0 or codes.max() >= size:
        raise EstimationError(f"values out of range [0, {size})")
    return np.bincount(codes, minlength=size) / codes.size


def estimate_distribution(lambda_hat: np.ndarray, matrix) -> np.ndarray:
    """Unbiased estimate ``pi_hat = (P^T)^{-1} lambda_hat`` (Eq. (2)).

    The result sums to 1 but may contain negative entries; apply
    :func:`repro.core.projection.clip_and_rescale` (the paper's §6.4
    repair) when a proper distribution is required.
    """
    lam = np.asarray(lambda_hat, dtype=np.float64)
    if lam.ndim != 1:
        raise EstimationError(f"lambda_hat must be 1-D, got shape {lam.shape}")
    if not np.isclose(lam.sum(), 1.0, atol=1e-6):
        raise EstimationError(
            f"lambda_hat must sum to 1, got {lam.sum():.6f}"
        )
    if isinstance(matrix, ConstantDiagonalMatrix):
        return matrix.invert_distribution(lam)
    dense = validate_rr_matrix(matrix)
    if dense.shape[0] != lam.shape[0]:
        raise EstimationError(
            f"matrix size {dense.shape[0]} != distribution size {lam.shape[0]}"
        )
    try:
        return np.linalg.solve(dense.T, lam)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"randomization matrix is singular: {exc}") from exc


def estimate_from_responses(values: np.ndarray, matrix) -> np.ndarray:
    """Estimate the true distribution directly from randomized codes."""
    size = (
        matrix.size
        if isinstance(matrix, ConstantDiagonalMatrix)
        else np.asarray(matrix).shape[0]
    )
    return estimate_distribution(observed_distribution(values, size), matrix)


def estimation_covariance(
    matrix, lambda_hat: np.ndarray, n: int
) -> np.ndarray:
    """Dispersion matrix of ``pi_hat``.

    ``lambda_hat`` is a multinomial sample mean, so
    ``Cov(lambda_hat) = (diag(lambda) - lambda lambda^T) / n`` and the
    linear map of Eq. (2) propagates it:
    ``Cov(pi_hat) = (P^T)^{-1} Cov(lambda_hat) P^{-1}``. This is the
    dispersion estimator referenced in §2.1; its diagonal gives
    per-category variances for confidence intervals.
    """
    if n <= 0:
        raise EstimationError(f"n must be positive, got {n}")
    lam = np.asarray(lambda_hat, dtype=np.float64)
    cov_lambda = (np.diag(lam) - np.outer(lam, lam)) / n
    if isinstance(matrix, ConstantDiagonalMatrix):
        keep = matrix.keep_probability
        if keep <= 0:
            raise EstimationError("matrix is singular (d == o)")
        # (P^T)^{-1} C P^{-1} with P = keep*I + o*J: the J parts cancel on
        # covariance rows/columns that sum to zero, leaving C / keep^2.
        return cov_lambda / (keep * keep)
    dense = validate_rr_matrix(matrix)
    inv_t = np.linalg.solve(dense.T, np.eye(dense.shape[0]))
    return inv_t @ cov_lambda @ inv_t.T


def propagation_condition_number(matrix) -> float:
    """Error-propagation bound ``P_max / P_min`` of §2.3.

    Ratio of the extreme absolute eigenvalues of ``P^T``; FRAPP [1]
    shows it lower-bounds the propagation of the ``lambda_hat`` error
    into ``pi_hat``, and that the constant-diagonal family minimizes
    it at a fixed privacy level.
    """
    if isinstance(matrix, ConstantDiagonalMatrix):
        # Eigenvalues of (d-o) I + o J are {d + (r-1) o = 1, d - o}.
        keep = matrix.keep_probability
        if keep <= 0:
            return float("inf")
        return 1.0 / keep
    dense = validate_rr_matrix(matrix)
    eigenvalues = np.abs(np.linalg.eigvals(dense.T))
    smallest = eigenvalues.min()
    if smallest <= 0:
        return float("inf")
    return float(eigenvalues.max() / smallest)
