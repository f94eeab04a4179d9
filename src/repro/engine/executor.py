"""Chunked execution of the protocols' randomization.

The execution unit is a :class:`ColumnTask`: a set of dataset columns,
optionally fused through a mixed-radix :class:`~repro.data.domain.Domain`
into one flat code column, pushed through one RR matrix. RR-Independent
is a list of single-column tasks; RR-Joint is one task over its product
domain; RR-Clusters is one task per cluster. :func:`run` executes a
list of tasks over a :class:`~repro.engine.plan.ChunkPlan` in one
process and returns the randomized records. Counting and estimation
are not the engine's job: released records go to a
:class:`~repro.analysis.streaming.StreamingCollector`.

Determinism contract: every task owns a child
:class:`numpy.random.SeedSequence` (``SeedSequence.spawn`` from the run
seed) and every record a fixed counter offset in that task's Philox
stream (see :mod:`repro.engine.sampling`), so the output for a given
seed is byte-identical across chunk sizes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._rng import checked_seed
from repro.core.matrices import ConstantDiagonalMatrix, validate_rr_matrix
from repro.data.domain import Domain
from repro.engine.plan import ChunkPlan
from repro.engine.sampling import randomize_block
from repro.exceptions import ReproError
from repro.obs.registry import get_registry

__all__ = [
    "ColumnTask",
    "run",
    "seed_sequence_from",
]


def seed_sequence_from(rng=None) -> np.random.SeedSequence:
    """Normalize ``rng`` into a :class:`numpy.random.SeedSequence`.

    ``None`` gives a fresh OS-entropy sequence; an ``int`` seed is fully
    deterministic; an existing generator contributes one deterministic
    draw of entropy (so a caller holding a generator still gets
    reproducible engine output from it).
    """
    if rng is None:
        # rng=None is the caller explicitly requesting OS entropy, the
        # same escape hatch ensure_rng offers.
        return np.random.SeedSequence()  # repro-lint: ignore[RPL202]
    if isinstance(rng, np.random.SeedSequence):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.SeedSequence(checked_seed(rng))
    if isinstance(rng, np.random.Generator):
        return np.random.SeedSequence(int(rng.integers(0, 2**63 - 1)))
    raise ReproError(
        f"rng must be None, an int seed, a SeedSequence or a "
        f"numpy.random.Generator, got {type(rng)!r}"
    )


class ColumnTask:
    """One randomization unit of the engine.

    Parameters
    ----------
    positions:
        Dataset column indices this task covers, in encoding order.
    matrix:
        The RR matrix applied to the (flattened) column.
    domain:
        Mixed-radix domain fusing the columns; ``None`` for a plain
        single-column task.
    """

    __slots__ = ("positions", "matrix", "domain", "size", "cumulative")

    def __init__(self, positions: Sequence[int], matrix, domain: Domain | None = None):
        self.positions = tuple(int(p) for p in positions)
        if not self.positions:
            raise ReproError("task needs at least one column position")
        if any(p < 0 for p in self.positions):
            raise ReproError(f"column positions must be >= 0: {self.positions}")
        if len(set(self.positions)) != len(self.positions):
            raise ReproError(f"duplicate column positions: {self.positions}")
        if domain is None:
            if len(self.positions) != 1:
                raise ReproError(
                    "multi-column tasks need a Domain to fuse the columns"
                )
        elif domain.width != len(self.positions):
            raise ReproError(
                f"domain covers {domain.width} attributes but task has "
                f"{len(self.positions)} positions"
            )
        self.domain = domain
        if isinstance(matrix, ConstantDiagonalMatrix):
            self.matrix = matrix
            self.size = matrix.size
            self.cumulative = None
        else:
            self.matrix = validate_rr_matrix(matrix)
            self.size = self.matrix.shape[0]
            # Once per task, not once per chunk: the dense sampler's
            # searchsorted CDF rows come from this O(r²) cumsum; kept
            # C-contiguous so every per-chunk handoff binary-searches
            # contiguous rows.
            self.cumulative = np.ascontiguousarray(
                np.cumsum(self.matrix, axis=1)
            )
        if domain is not None and domain.size != self.size:
            raise ReproError(
                f"matrix size {self.size} does not match domain size "
                f"{domain.size}"
            )

    @property
    def width(self) -> int:
        return len(self.positions)

    def encode(self, block: np.ndarray) -> np.ndarray:
        """Flat code column of this task for one record block."""
        cols = block[:, list(self.positions)]
        if self.domain is None:
            return cols[:, 0]
        return self.domain.encode(cols)

    def decode(self, flat: np.ndarray) -> np.ndarray:
        """Per-column codes, shape ``(len(flat), width)``."""
        if self.domain is None:
            return np.asarray(flat, dtype=np.int64)[:, None]
        return self.domain.decode(flat)

    def __repr__(self) -> str:
        return (
            f"ColumnTask(positions={self.positions}, size={self.size})"
        )


def _process_block(block, tasks, seed_seqs, start):
    """Randomize one record block; pure function of its inputs."""
    cols = []
    for index, task in enumerate(tasks):
        flat = randomize_block(
            task.encode(block), task.matrix, seed_seqs[index], start,
            cumulative=task.cumulative,
        )
        cols.append(task.decode(flat))
    return cols


#: Chunk-size boundaries (records) for the ``engine.chunk_records``
#: histogram. Fixed so chunk metrics from any run merge
#: bucket-for-bucket with any other's.
ENGINE_CHUNK_BUCKETS = (
    1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0,
)


def _record_chunk_metrics(registry, n_records: int) -> None:
    """Per-chunk engine metrics.

    Deliberately no timing spans here: everything recorded is a pure
    function of the chunk plan, so the engine metrics for a given
    ``(n, chunk_size)`` are byte-identical from run to run.
    """
    registry.counter("engine.chunks").inc()
    registry.counter("engine.records").inc(n_records)
    registry.histogram(
        "engine.chunk_records", ENGINE_CHUNK_BUCKETS
    ).observe(n_records)


def run(
    codes: np.ndarray,
    tasks: Sequence[ColumnTask],
    *,
    rng=None,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Randomize column tasks over a dataset in chunks.

    Returns the randomized ``(n, m)`` int64 codes.

    Parameters
    ----------
    codes:
        ``(n, m)`` int64 matrix of true record codes. Columns no task
        covers pass through unchanged.
    tasks:
        Column tasks to execute; their positions must be disjoint.
    rng:
        Seed material for the run (see :func:`seed_sequence_from`).
    chunk_size:
        Block length; ``None`` executes the whole dataset as one block.
        For a fixed seed the output is byte-identical for every choice.
    """
    arr = np.asarray(codes, dtype=np.int64)
    if arr.ndim != 2:
        raise ReproError(f"codes must be 2-D, got shape {arr.shape}")
    if not tasks:
        raise ReproError("engine run needs at least one task")
    width = arr.shape[1]
    covered: set = set()
    for task in tasks:
        if max(task.positions) >= width:
            raise ReproError(
                f"task positions {task.positions} out of range for "
                f"{width} columns"
            )
        if covered.intersection(task.positions):
            raise ReproError(
                "randomizing tasks must cover disjoint columns; "
                f"{sorted(covered.intersection(task.positions))} repeated"
            )
        covered.update(task.positions)

    n = arr.shape[0]
    plan = (
        ChunkPlan(n, chunk_size) if chunk_size is not None
        else ChunkPlan.single(n)
    )
    seed_seqs = list(seed_sequence_from(rng).spawn(len(tasks)))
    out = np.array(arr, copy=True)

    def _fold(bounds, cols):
        start, stop = bounds
        for task, col in zip(tasks, cols):
            out[start:stop, list(task.positions)] = col

    jobs = plan.bounds
    registry = get_registry()
    for bounds in jobs:
        start, stop = bounds
        # Bound to a local on purpose: the last block stays alive
        # until run() returns, which keeps glibc's heap layout (and
        # the offline benchmark's collector peak RSS) as it was;
        # passing the call straight to _fold measured ~3 MB higher.
        cols = _process_block(arr[start:stop], tasks, seed_seqs, start)
        _fold(bounds, cols)
        if registry.enabled:
            _record_chunk_metrics(registry, stop - start)

    return out
