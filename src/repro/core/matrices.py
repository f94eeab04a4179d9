"""Randomized-response matrix constructions.

An RR matrix ``P`` (Eq. (1) of the paper) is a row-stochastic ``r x r``
matrix with ``p_uv = Pr(Y = v | X = u)``. Every design the paper uses —
the error-propagation-optimal matrix of §2.3, the RR-Independent matrix
of §6.3.1, the cluster matrix of §6.3.2, Warner's original scheme and
FRAPP's gamma-diagonal — belongs to the *constant-diagonal* family

    P = (d - o) I + o J,      d + (r - 1) o = 1,   d >= o >= 0,

captured here by :class:`ConstantDiagonalMatrix`. The family is closed
under the operations the protocols need and admits O(r) sampling and
inversion, which is what makes RR-Joint on a cluster domain of tens of
thousands of cells practical.

Faithful-interpretation notes (also recorded in DESIGN.md):

* §6.3.1 prints "p on the diagonal, (1-p)/|A| off the diagonal", which
  is not row-stochastic. The mechanism Corollary 1 actually uses —
  keep the true value with probability ``p``, otherwise draw uniformly
  from the whole domain — gives ``d = p + (1-p)/r`` and
  ``o = (1-p)/r``; :func:`keep_else_uniform_matrix` implements that.
* §6.3.2 prints ``p_C = 1/(1 + (1 - prod|A|) exp(-eps))``; the
  row-stochastic constant is ``1/(1 + (prod|A| - 1) exp(-eps))``,
  implemented by :func:`cluster_matrix`. For a singleton cluster this
  reproduces :func:`keep_else_uniform_matrix` exactly (tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import MatrixError

__all__ = [
    "ConstantDiagonalMatrix",
    "validate_rr_matrix",
    "as_dense",
    "matrices_equal",
    "warner_matrix",
    "keep_else_uniform_matrix",
    "constant_diagonal_matrix",
    "epsilon_optimal_matrix",
    "cluster_matrix",
    "frapp_matrix",
]

_ATOL = 1e-9


@dataclass(frozen=True)
class ConstantDiagonalMatrix:
    """RR matrix with constant diagonal ``d`` and constant off-diagonal ``o``.

    This is the §2.3 family that minimizes error propagation for a
    given privacy level. The class stores only ``(size, d, o)``;
    :meth:`dense` materializes the full matrix when a caller needs the
    general path.
    """

    size: int
    diagonal: float
    off_diagonal: float

    def __post_init__(self) -> None:
        if self.size < 2:
            raise MatrixError(f"matrix size must be >= 2, got {self.size}")
        if not (self.off_diagonal >= -_ATOL):
            raise MatrixError(f"off-diagonal must be >= 0, got {self.off_diagonal}")
        if self.diagonal < self.off_diagonal - _ATOL:
            raise MatrixError(
                "diagonal must be >= off-diagonal "
                f"({self.diagonal} < {self.off_diagonal}); the paper requires "
                "p_u >= p_d for error propagation to be minimal"
            )
        row_sum = self.diagonal + (self.size - 1) * self.off_diagonal
        if not math.isclose(row_sum, 1.0, abs_tol=1e-7):
            raise MatrixError(
                f"rows must sum to 1: d + (r-1) o = {row_sum} for r={self.size}"
            )

    # -- algebra -------------------------------------------------------
    @property
    def keep_probability(self) -> float:
        """Probability mass of "keep the true value" in the sampling
        decomposition ``keep w.p. (d - o), else uniform over r cells``."""
        return self.diagonal - self.off_diagonal

    @property
    def epsilon(self) -> float:
        """Differential-privacy level per Eq. (4): ``ln(d / o)``."""
        if self.off_diagonal <= 0.0:
            return math.inf
        return math.log(self.diagonal / self.off_diagonal)

    @property
    def is_identity(self) -> bool:
        return math.isclose(self.diagonal, 1.0, abs_tol=_ATOL)

    def dense(self) -> np.ndarray:
        """Materialize the full ``(size, size)`` matrix."""
        out = np.full((self.size, self.size), self.off_diagonal, dtype=np.float64)
        np.fill_diagonal(out, self.diagonal)
        return out

    def invert_distribution(self, lam: np.ndarray) -> np.ndarray:
        """Closed-form ``(P^T)^{-1} lam`` (Sherman–Morrison).

        With ``P = (d - o) I + o J`` and ``sum(lam) == 1``,
        ``P^T pi = (d - o) pi + o`` so ``pi = (lam - o) / (d - o)``.
        """
        vec = np.asarray(lam, dtype=np.float64)
        if vec.shape != (self.size,):
            raise MatrixError(
                f"distribution must have shape ({self.size},), got {vec.shape}"
            )
        keep = self.keep_probability
        if keep <= 0.0:
            raise MatrixError(
                "matrix is singular (d == o): the uniform channel destroys "
                "all information and Eq. (2) cannot be applied"
            )
        return (vec - self.off_diagonal) / keep

    def transition_rows(self, values: np.ndarray) -> np.ndarray:
        """Rows of P selected by true values (general-path helper).

        Builds the ``k`` rows directly in O(k·r), never the r×r matrix.
        """
        values = np.asarray(values, dtype=np.int64)
        rows = np.full(
            (values.size, self.size), self.off_diagonal, dtype=np.float64
        )
        rows[np.arange(values.size), values.ravel()] = self.diagonal
        return rows.reshape(values.shape + (self.size,))

    def __repr__(self) -> str:
        return (
            f"ConstantDiagonalMatrix(r={self.size}, d={self.diagonal:.6g}, "
            f"o={self.off_diagonal:.6g})"
        )


def validate_rr_matrix(matrix: np.ndarray) -> np.ndarray:
    """Validate a dense RR matrix and return it as float64.

    Checks Eq. (1)'s requirements: square, entries in [0, 1], rows
    summing to 1 and nonsingularity (needed by Eq. (2)).
    """
    dense = np.asarray(matrix, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise MatrixError(f"RR matrix must be square, got shape {dense.shape}")
    if dense.shape[0] < 2:
        raise MatrixError("RR matrix must be at least 2x2")
    if (dense < -_ATOL).any() or (dense > 1 + _ATOL).any():
        raise MatrixError("RR matrix entries must be probabilities in [0, 1]")
    if not np.allclose(dense.sum(axis=1), 1.0, atol=1e-7):
        raise MatrixError("RR matrix rows must sum to 1")
    # A condition number, not a determinant: det(P) of a well-conditioned
    # matrix underflows at large r (keep-else-uniform, r = 1000, keep 0.3
    # has cond 5.7 and det ~ 1e-523). Beyond 1/eps the Eq. (2) solve
    # loses every significant digit; an exactly singular matrix has an
    # infinite condition number.
    if np.linalg.cond(dense, 1) > 1.0 / np.finfo(np.float64).eps:
        raise MatrixError("RR matrix is singular; Eq. (2) is not applicable")
    return dense


def as_dense(matrix) -> np.ndarray:
    """Dense float64 view of either matrix representation."""
    if isinstance(matrix, ConstantDiagonalMatrix):
        return matrix.dense()
    return validate_rr_matrix(matrix)


def matrices_equal(a, b, *, atol: float = 1e-9) -> bool:
    """Whether two RR matrices define the same channel.

    Constant-diagonal pairs compare in O(1) on their ``(size, d, o)``
    parameters; any other combination compares densified forms with
    ``numpy.allclose``. Used by the streaming layer to refuse merging
    counts collected under different randomization designs.
    """
    if isinstance(a, ConstantDiagonalMatrix) and isinstance(
        b, ConstantDiagonalMatrix
    ):
        return (
            a.size == b.size
            and math.isclose(a.diagonal, b.diagonal, abs_tol=atol)
            and math.isclose(a.off_diagonal, b.off_diagonal, abs_tol=atol)
        )
    dense_a = as_dense(a)
    dense_b = as_dense(b)
    if dense_a.shape != dense_b.shape:
        return False
    # rtol=0 so the dense comparison applies the same absolute
    # tolerance as the constant-diagonal fast path above.
    return bool(np.allclose(dense_a, dense_b, rtol=0.0, atol=atol))


def warner_matrix(p: float) -> ConstantDiagonalMatrix:
    """Warner's original binary randomized response [32].

    The respondent tells the truth with probability ``p`` and lies with
    probability ``1 - p``; requires ``p != 1/2`` for estimability.
    """
    if not 0.0 <= p <= 1.0:
        raise MatrixError(f"p must be in [0, 1], got {p}")
    if math.isclose(p, 0.5, abs_tol=1e-12):
        raise MatrixError("Warner matrix with p = 1/2 is singular")
    if p < 0.5:
        # Keep the diagonal the larger entry; swapping categories gives
        # an equivalent mechanism with d >= o as §2.3 requires.
        p = 1.0 - p
    return ConstantDiagonalMatrix(size=2, diagonal=p, off_diagonal=1.0 - p)


def keep_else_uniform_matrix(size: int, p: float) -> ConstantDiagonalMatrix:
    """The §6.3.1 / Corollary 1 mechanism.

    Keep the true value with probability ``p``; with probability
    ``1 - p`` report a uniform draw from the whole domain (own value
    included). Diagonal ``p + (1-p)/r``, off-diagonal ``(1-p)/r``.
    """
    if not 0.0 < p <= 1.0:
        raise MatrixError(f"p must be in (0, 1], got {p}")
    if size < 2:
        raise MatrixError(f"size must be >= 2, got {size}")
    off = (1.0 - p) / size
    return ConstantDiagonalMatrix(size=size, diagonal=p + off, off_diagonal=off)


def constant_diagonal_matrix(size: int, diagonal: float) -> ConstantDiagonalMatrix:
    """Constant-diagonal matrix from its diagonal value.

    Off-diagonal mass is spread evenly: ``o = (1 - d) / (r - 1)``.
    """
    if size < 2:
        raise MatrixError(f"size must be >= 2, got {size}")
    if not 0.0 < diagonal <= 1.0:
        raise MatrixError(f"diagonal must be in (0, 1], got {diagonal}")
    off = (1.0 - diagonal) / (size - 1)
    return ConstantDiagonalMatrix(size=size, diagonal=diagonal, off_diagonal=off)


def epsilon_optimal_matrix(size: int, epsilon: float) -> ConstantDiagonalMatrix:
    """The constant-diagonal matrix that is optimal for a given epsilon.

    Maximizes the diagonal (hence the information preserved) subject to
    Eq. (4)'s bound: ``d = e^eps / (e^eps + r - 1)``,
    ``o = 1 / (e^eps + r - 1)``. In the LDP literature this is the
    k-ary randomized response / direct encoding mechanism.
    """
    if size < 2:
        raise MatrixError(f"size must be >= 2, got {size}")
    if epsilon <= 0.0 or not math.isfinite(epsilon):
        raise MatrixError(f"epsilon must be positive and finite, got {epsilon}")
    denominator = math.exp(epsilon) + size - 1
    return ConstantDiagonalMatrix(
        size=size,
        diagonal=math.exp(epsilon) / denominator,
        off_diagonal=1.0 / denominator,
    )


def cluster_matrix(sizes, epsilons) -> ConstantDiagonalMatrix:
    """The §6.3.2 cluster matrix.

    For a cluster ``C`` of attributes with per-attribute levels
    ``eps_A``, the matrix over the product domain ``D = prod |A|`` has
    diagonal ``p_C`` and off-diagonal ``p_C exp(-sum eps_A)`` with

        p_C = 1 / (1 + (D - 1) exp(-sum eps_A))

    (the paper's ``(1 - D)`` is a sign typo; see module docstring). By
    sequential composition this yields ``sum eps_A``-DP on the cluster,
    the same budget RR-Independent would spend on its attributes.
    """
    size_list = [int(s) for s in sizes]
    eps_list = [float(e) for e in epsilons]
    if not size_list:
        raise MatrixError("cluster needs at least one attribute")
    if len(size_list) != len(eps_list):
        raise MatrixError(
            f"got {len(size_list)} sizes but {len(eps_list)} epsilons"
        )
    for s in size_list:
        if s < 2:
            raise MatrixError(f"attribute sizes must be >= 2, got {s}")
    for e in eps_list:
        if e <= 0.0 or not math.isfinite(e):
            raise MatrixError(f"epsilons must be positive and finite, got {e}")
    cells = 1
    for s in size_list:
        cells *= s
    return epsilon_optimal_matrix(cells, sum(eps_list))


def frapp_matrix(size: int, gamma: float) -> ConstantDiagonalMatrix:
    """FRAPP's gamma-diagonal matrix [1].

    Diagonal entries are ``gamma`` times the off-diagonal ones:
    ``d = gamma / (gamma + r - 1)``, ``o = 1 / (gamma + r - 1)``.
    Equivalent to :func:`epsilon_optimal_matrix` with
    ``epsilon = ln(gamma)``; FRAPP shows this shape minimizes the
    propagation error bound ``P_max / P_min`` of §2.3.
    """
    if size < 2:
        raise MatrixError(f"size must be >= 2, got {size}")
    if gamma < 1.0 or not math.isfinite(gamma):
        raise MatrixError(f"gamma must be >= 1 and finite, got {gamma}")
    denominator = gamma + size - 1
    return ConstantDiagonalMatrix(
        size=size,
        diagonal=gamma / denominator,
        off_diagonal=1.0 / denominator,
    )
