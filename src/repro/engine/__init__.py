"""Chunked, sharded execution engine.

The protocols' original code paths materialize the whole dataset (and,
on the dense sampling path, O(n·r) intermediates) in one shot. This
package is the scale-out layer underneath them:

* :mod:`repro.engine.plan` — :class:`ChunkPlan` / :func:`iter_chunks`:
  fixed-size record blocks, O(chunk·r) peak memory.
* :mod:`repro.engine.sampling` — counter-based Philox sampling that
  makes randomization a pure function of (seed, task, record index),
  so output is byte-identical across chunk sizes and worker counts.
* :mod:`repro.engine.executor` — :class:`ColumnTask` + :func:`run`:
  serial or ``multiprocessing`` fan-out of randomize/count pipelines
  with spawn-safe ``SeedSequence.spawn`` seeding. Count mode returns
  one count vector per task; concatenated, they are the flat vector a
  :class:`~repro.analysis.streaming.StreamingCollector` folds in with
  ``add_counts``.

``RRIndependent``, ``RRJoint`` and ``RRClusters`` route their
``randomize``/``estimate`` paths through this engine whenever a
``chunk_size`` or ``workers`` argument is given; their default
single-shot paths are unchanged (and byte-identical to the pre-engine
behaviour for a fixed seed).
"""

from repro.engine.plan import ChunkPlan, DEFAULT_CHUNK_SIZE, iter_chunks
from repro.engine.sampling import WORDS_PER_RECORD, block_generator, randomize_block
from repro.engine.executor import ColumnTask, EngineResult, run, seed_sequence_from

__all__ = [
    "ChunkPlan",
    "DEFAULT_CHUNK_SIZE",
    "iter_chunks",
    "WORDS_PER_RECORD",
    "block_generator",
    "randomize_block",
    "ColumnTask",
    "EngineResult",
    "run",
    "seed_sequence_from",
]
