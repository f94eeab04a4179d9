"""Repairing improper estimated distributions.

Eq. (2) can return values below 0 (and above 1) whenever the observed
randomized distribution is inconsistent with the randomization matrix
(§2.1). Three repairs are provided:

* :func:`clip_and_rescale` — the paper's own §6.4 procedure: zero the
  negatives, rescale the rest to sum 1.
* :func:`project_to_simplex` — the exact Euclidean projection onto the
  probability simplex (what §6.4 *describes*: "the proper probability
  distribution closest according to the Euclidean distance"); included
  because clip-and-rescale is a cheap approximation of it, and the
  projection ablation (E9) compares the two.
* :func:`iterative_bayesian_update` — the EM-style update of Alvim et
  al. [2] / Agrawal–Aggarwal, which converges to a maximum-likelihood
  proper distribution without ever leaving the simplex.
"""

from __future__ import annotations

import numpy as np

from repro.core.matrices import as_dense
from repro.exceptions import EstimationError

__all__ = [
    "clip_and_rescale",
    "project_to_simplex",
    "iterative_bayesian_update",
]


def clip_and_rescale(pi_hat: np.ndarray) -> np.ndarray:
    """The paper's §6.4 repair: clip negatives to 0, rescale to sum 1.

    Idempotent on proper distributions. Falls back to uniform when the
    estimate has no positive mass at all (can only happen for
    degenerate inputs, but must not crash an experiment sweep).
    """
    vec = np.asarray(pi_hat, dtype=np.float64)
    if vec.ndim != 1:
        raise EstimationError(f"pi_hat must be 1-D, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        # NaN survives np.clip and the total <= 0 guard, so a non-finite
        # input would come back as a NaN "distribution"; fail loudly
        # instead of feeding garbage to an experiment sweep.
        raise EstimationError(
            "pi_hat contains non-finite values (NaN or inf); refusing to "
            "repair a corrupted estimate"
        )
    clipped = np.clip(vec, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        return np.full(vec.shape[0], 1.0 / vec.shape[0])
    return clipped / total


def project_to_simplex(pi_hat: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex.

    Standard sort-based algorithm (Held–Wolfe–Crowder): find the
    largest ``k`` such that the top-``k`` entries, shifted by a common
    constant to sum to 1, stay non-negative.
    """
    vec = np.asarray(pi_hat, dtype=np.float64)
    if vec.ndim != 1:
        raise EstimationError(f"pi_hat must be 1-D, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise EstimationError(
            "pi_hat contains non-finite values (NaN or inf); refusing to "
            "repair a corrupted estimate"
        )
    ordered = np.sort(vec)[::-1]
    cumulative = np.cumsum(ordered) - 1.0
    ranks = np.arange(1, vec.shape[0] + 1)
    mask = ordered - cumulative / ranks > 0
    if not mask.any():
        return np.full(vec.shape[0], 1.0 / vec.shape[0])
    k = int(np.nonzero(mask)[0][-1])
    threshold = cumulative[k] / (k + 1)
    return np.clip(vec - threshold, 0.0, None)


def iterative_bayesian_update(
    lambda_hat: np.ndarray,
    matrix,
    max_iterations: int = 1000,
    tolerance: float = 1e-10,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Iterative Bayesian update to a proper distribution estimate [2].

    EM iteration
    ``pi_{t+1}(u) = sum_v lambda_hat(v) * p_uv pi_t(u) / sum_w p_wv pi_t(w)``
    starting from the uniform distribution (or ``initial``). Every
    iterate is a proper distribution; the fixed point maximizes the
    multinomial likelihood of the observed randomized data.

    Returns the converged distribution; raises
    :class:`~repro.exceptions.EstimationError` if ``max_iterations`` is
    exhausted without the L1 change dropping below ``tolerance`` —
    convergence is guaranteed in theory, so hitting the cap indicates a
    bad matrix or tolerance, and silence would hide it.
    """
    lam = np.asarray(lambda_hat, dtype=np.float64)
    dense = as_dense(matrix)
    r = dense.shape[0]
    if lam.shape != (r,):
        raise EstimationError(
            f"lambda_hat must have shape ({r},), got {lam.shape}"
        )
    if not np.isclose(lam.sum(), 1.0, atol=1e-6):
        raise EstimationError(f"lambda_hat must sum to 1, got {lam.sum():.6f}")
    if max_iterations < 1:
        raise EstimationError(f"max_iterations must be >= 1, got {max_iterations}")
    if initial is None:
        pi = np.full(r, 1.0 / r)
    else:
        pi = np.asarray(initial, dtype=np.float64).copy()
        if pi.shape != (r,) or (pi < 0).any() or not np.isclose(pi.sum(), 1.0, atol=1e-6):
            raise EstimationError("initial must be a proper distribution of size r")
    for _ in range(max_iterations):
        mixture = dense.T @ pi  # predicted lambda under current pi
        # Cells with zero predicted mass contribute nothing (their
        # observed mass must be zero too for a consistent matrix).
        safe = np.where(mixture > 0, mixture, 1.0)
        updated = pi * (dense @ (lam / safe))
        updated = np.clip(updated, 0.0, None)
        total = updated.sum()
        if total <= 0:
            raise EstimationError("iterative Bayesian update lost all mass")
        updated /= total
        if np.abs(updated - pi).sum() < tolerance:
            return updated
        pi = updated
    raise EstimationError(
        f"iterative Bayesian update did not converge in {max_iterations} "
        "iterations"
    )
