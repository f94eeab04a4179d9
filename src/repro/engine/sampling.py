"""Chunk-invariant randomized-response sampling.

The legacy sampler in :mod:`repro.core.mechanism` draws from a shared
sequential generator, so its output depends on how many records were
randomized before the current one *in that generator's stream* — chunk
the dataset differently and the bytes change. The engine instead gives
every record its own fixed slice of a counter-based stream:

* each column task owns one Philox stream (a child
  :class:`numpy.random.SeedSequence` spawned from the run seed);
* record ``i`` consumes exactly one Philox block — 4 64-bit words —
  at counter offset ``i``, so a chunk starting at record ``start``
  positions its generator with ``Philox.advance(start)``.

Randomization is then a pure function of (seed, task index, record
index): the output is byte-identical whatever the chunk size, which
makes the chunked-vs-monolithic tests exact instead of statistical.

Both matrix families are sampled from the same uniform words the block
provides: word 0 drives the keep/redraw (or inverse-CDF) decision and
word 1 the uniform redraw, mirroring the two code paths of
:func:`repro.core.mechanism.randomize_column`.
"""

from __future__ import annotations

import numpy as np

from repro.core.matrices import ConstantDiagonalMatrix, validate_rr_matrix
from repro.core.mechanism import inverse_cdf_codes
from repro.exceptions import MatrixError

__all__ = ["WORDS_PER_RECORD", "block_generator", "randomize_block"]

#: Random words consumed per record — one full Philox block, so chunk
#: boundaries always fall on counter-block boundaries and
#: ``Philox.advance(start)`` is exact.
WORDS_PER_RECORD = 4


def block_generator(
    seed_seq: np.random.SeedSequence, start: int
) -> np.random.Generator:
    """Generator positioned at record ``start`` of a task's stream."""
    if start < 0:
        raise MatrixError(f"start must be non-negative, got {start}")
    bits = np.random.Philox(seed_seq)
    if start:
        # One advance step skips one 4-word block == one record.
        bits.advance(start)
    return np.random.Generator(bits)


def _uniform_words(
    seed_seq: np.random.SeedSequence, start: int, count: int
) -> np.ndarray:
    """``(count, WORDS_PER_RECORD)`` uniforms in [0, 1), one row per record."""
    generator = block_generator(seed_seq, start)
    flat = generator.random(count * WORDS_PER_RECORD)
    return flat.reshape(count, WORDS_PER_RECORD)


def _uniform_codes(u: np.ndarray, size: int) -> np.ndarray:
    """Map uniforms in [0, 1) to codes in [0, size) (floor scaling)."""
    return np.minimum((u * size).astype(np.int64), size - 1)


def randomize_block(
    values: np.ndarray,
    matrix,
    seed_seq: np.random.SeedSequence,
    start: int,
    *,
    cumulative: np.ndarray | None = None,
) -> np.ndarray:
    """Randomize one block of codes at record offset ``start``.

    Parameters
    ----------
    values:
        True codes of records ``[start, start + len(values))``, 1-D.
    matrix:
        :class:`~repro.core.matrices.ConstantDiagonalMatrix` or dense
        row-stochastic array.
    seed_seq:
        The column task's seed sequence (one per task, spawned from the
        run seed).
    start:
        Absolute record offset of ``values[0]`` in the dataset; the
        randomness consumed depends only on this offset, never on the
        block length.
    cumulative:
        Optional precomputed ``np.cumsum(matrix, axis=1)`` for the
        dense path, so repeated per-chunk calls skip the O(r²) cumsum.
    """
    codes = np.asarray(values, dtype=np.int64)
    if codes.ndim != 1:
        raise MatrixError(f"values must be 1-D, got shape {codes.shape}")
    if isinstance(matrix, ConstantDiagonalMatrix):
        size = matrix.size
    elif cumulative is not None:
        # A caller-supplied cumsum implies the matrix was validated
        # once already (the executor does so per task); re-running the
        # O(r²) validation on every chunk would defeat the caching.
        cumulative = np.asarray(cumulative, dtype=np.float64)
        size = cumulative.shape[0]
    else:
        matrix = validate_rr_matrix(matrix)
        size = matrix.shape[0]
    if codes.size and (codes.min() < 0 or codes.max() >= size):
        raise MatrixError(f"values out of range [0, {size}) for this matrix")
    if codes.size == 0:
        return codes.copy()
    words = _uniform_words(seed_seq, start, codes.size)
    if isinstance(matrix, ConstantDiagonalMatrix):
        keep = words[:, 0] < matrix.keep_probability
        uniform = _uniform_codes(words[:, 1], size)
        return np.where(keep, codes, uniform).astype(np.int64)
    if cumulative is None:
        cumulative = np.cumsum(matrix, axis=1)
    # Grouped searchsorted, O(n·log r): provably code-identical to the
    # old (words >= rows).sum(axis=1) comparison-sum on the same Philox
    # words, so the chunk-invariance/byte-identity contract holds (see
    # inverse_cdf_codes; tests pin the equivalence).
    drawn = inverse_cdf_codes(cumulative, codes, words[:, 0])
    return np.minimum(drawn, size - 1).astype(np.int64)
