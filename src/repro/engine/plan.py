"""Chunk planning for blockwise dataset execution.

The protocols' monolithic paths materialize every intermediate over the
whole dataset at once; for the dense sampling path that is O(n·r)
peak memory, which caps the dataset size a single collector node can
randomize. A :class:`ChunkPlan` cuts the record axis into fixed-size
half-open blocks ``[start, stop)`` so every downstream stage — the
sampler, the executor, the streaming counters — works in O(chunk·r)
memory regardless of n. Plans are pure data, and the engine's
counter-based sampling guarantees the result does not depend on the
block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.exceptions import ReproError

__all__ = ["ChunkPlan", "iter_chunks"]


def iter_chunks(n_records: int, chunk_size: int) -> Iterator[Tuple[int, int]]:
    """Yield half-open ``(start, stop)`` record ranges covering ``n_records``.

    The last chunk may be shorter. Yields nothing for an empty dataset.
    """
    if n_records < 0:
        raise ReproError(f"n_records must be non-negative, got {n_records}")
    if chunk_size < 1:
        raise ReproError(f"chunk_size must be >= 1, got {chunk_size}")
    for start in range(0, n_records, chunk_size):
        yield start, min(start + chunk_size, n_records)


@dataclass(frozen=True)
class ChunkPlan:
    """Partition of ``n_records`` into blocks of at most ``chunk_size``.

    Parameters
    ----------
    n_records:
        Number of records to cover.
    chunk_size:
        Maximum block length. ``ChunkPlan.single`` builds the
        degenerate one-block plan the monolithic path corresponds to.
    """

    n_records: int
    chunk_size: int

    def __post_init__(self) -> None:
        if self.n_records < 0:
            raise ReproError(
                f"n_records must be non-negative, got {self.n_records}"
            )
        if self.chunk_size < 1:
            raise ReproError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )

    @classmethod
    def single(cls, n_records: int) -> "ChunkPlan":
        """The one-chunk plan: blockwise execution of the whole dataset."""
        return cls(n_records=n_records, chunk_size=max(1, n_records))

    @property
    def n_chunks(self) -> int:
        if self.n_records == 0:
            return 0
        return -(-self.n_records // self.chunk_size)

    @property
    def bounds(self) -> tuple:
        """All ``(start, stop)`` ranges, in record order."""
        return tuple(iter_chunks(self.n_records, self.chunk_size))

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter_chunks(self.n_records, self.chunk_size)

    def __len__(self) -> int:
        return self.n_chunks

    def __repr__(self) -> str:
        return (
            f"ChunkPlan(n={self.n_records}, chunk_size={self.chunk_size}, "
            f"chunks={self.n_chunks})"
        )
