"""Chunked randomization engine.

The protocols' default ``randomize`` path draws every release unit from
one sequential generator over the whole dataset (and, on the dense
sampling path, O(n·r) intermediates). This package is the scale-out
layer behind ``randomize(..., chunk_size=...)``:

* :mod:`repro.engine.plan` — :class:`ChunkPlan` / :func:`iter_chunks`:
  fixed-size record blocks, O(chunk·r) peak memory.
* :mod:`repro.engine.sampling` — counter-based Philox sampling that
  makes randomization a pure function of (seed, task, record index),
  so output is byte-identical across chunk sizes.
* :mod:`repro.engine.executor` — :class:`ColumnTask` + :func:`run`:
  the in-process chunk loop, one ``SeedSequence.spawn`` child per task.
  :meth:`~repro.protocols.base.Protocol.engine_tasks` gives one task
  per release unit.

Estimation does not go through the engine: released records are
counted by a :class:`~repro.analysis.streaming.StreamingCollector`
(via :meth:`~repro.protocols.base.Protocol.make_estimator`).
"""

from repro.engine.plan import ChunkPlan, iter_chunks
from repro.engine.sampling import WORDS_PER_RECORD, block_generator, randomize_block
from repro.engine.executor import ColumnTask, run, seed_sequence_from

__all__ = [
    "ChunkPlan",
    "iter_chunks",
    "WORDS_PER_RECORD",
    "block_generator",
    "randomize_block",
    "ColumnTask",
    "run",
    "seed_sequence_from",
]
