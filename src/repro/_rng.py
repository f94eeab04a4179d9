"""Random-generator normalization used across the whole library.

Every stochastic entry point in :mod:`repro` accepts an ``rng`` argument
that may be ``None`` (fresh OS-seeded generator), an ``int`` seed, or an
existing :class:`numpy.random.Generator`. :func:`ensure_rng` collapses
the three cases so call sites stay one line.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SeedError

__all__ = ["checked_seed", "ensure_rng", "spawn_rngs"]

RngLike = "None | int | np.random.Generator"


def checked_seed(seed) -> int:
    """An integer seed as a Python ``int``; :class:`SeedError` if negative.

    The one seed check: both randomize paths (:func:`ensure_rng` and
    the engine's ``seed_sequence_from``) go through it.
    """
    if seed < 0:
        raise SeedError("seed must be non-negative")
    return int(seed)


def ensure_rng(rng: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    Parameters
    ----------
    rng:
        ``None`` for a nondeterministic generator, an integer seed for a
        deterministic one, or an existing generator (returned as-is).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(checked_seed(rng))
    raise TypeError(
        f"rng must be None, an int seed or numpy.random.Generator, got {type(rng)!r}"
    )


def spawn_rngs(rng: "int | np.random.Generator | None", count: int) -> list:
    """Derive ``count`` statistically independent child generators.

    Used by the experiment driver to give every trial its own stream, so
    trials are reproducible independently of execution order.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = ensure_rng(rng)
    return [np.random.default_rng(seed) for seed in parent.spawn(count)] if hasattr(
        parent, "spawn"
    ) else [
        np.random.default_rng(parent.integers(0, 2**63 - 1)) for _ in range(count)
    ]
