"""Streaming (incremental) frequency estimation.

The paper's collector pools all randomized responses and estimates
once; a production collector receives responses one at a time and wants
running estimates. Because Eq. (2) is linear in the observed counts,
estimation commutes with accumulation: keep per-category counts, apply
``(P^T)^{-1}`` whenever an estimate is requested. O(1) memory in n,
O(1) per response, and mergeable across collectors — the properties a
deployment (RAPPOR-style, §7) actually needs.

A collector's whole state is therefore one int64 count vector over the
schema's categories: attribute j owns the bins
``[offset_j, offset_j + size_j)``. Absorbing a batch is one offset
``bincount`` and ``+=``; merging two collectors is ``+``.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimation import estimate_distribution
from repro.core.matrices import (
    ConstantDiagonalMatrix,
    matrices_equal,
    validate_rr_matrix,
)
from repro.core.projection import clip_and_rescale
from repro.data.schema import Schema
from repro.exceptions import EstimationError

__all__ = ["StreamingCollector", "column_extrema"]

#: Rows per slab in the two-stage column-extrema reduction (validation).
_EXTREMA_SLAB = 512


def column_extrema(batch: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Per-column ``(min, max)`` of a non-empty ``(k, m)`` array, fast.

    numpy's plain ``min(axis=0)`` on a C-contiguous ``(k, m)`` array
    with small ``m`` degenerates into k tiny SIMD steps; reducing
    ``(k//512, 512, m)`` slabs first keeps the inner loop 512·m wide
    (~6x faster at m = 8). Shared by the codec's range validation and
    the collector's counting pass.
    """
    k, m = batch.shape
    head = (k // _EXTREMA_SLAB) * _EXTREMA_SLAB
    if head:
        slab = batch[:head].reshape(-1, _EXTREMA_SLAB, m)
        low = slab.min(axis=0).min(axis=0)
        high = slab.max(axis=0).max(axis=0)
    else:
        low = high = batch[0]
    if head < k:
        tail = batch[head:]
        low = np.minimum(low, tail.min(axis=0))
        high = np.maximum(high, tail.max(axis=0))
    return low, high


def _validated_counts(counts, size: int) -> np.ndarray:
    """Check a count vector's shape/dtype/sign/range; return it as int64."""
    vector = np.asarray(counts)
    if vector.shape != (size,):
        raise EstimationError(
            f"counts must have shape ({size},), got {vector.shape}"
        )
    if not np.issubdtype(vector.dtype, np.integer):
        raise EstimationError(
            f"counts must be integers, got dtype {vector.dtype}"
        )
    if (vector < 0).any():
        raise EstimationError("counts must be non-negative")
    cast = vector.astype(np.int64)
    if (cast < 0).any():  # unsigned values past 2**63 - 1 wrap negative
        raise EstimationError("counts must fit in int64")
    return cast


class StreamingCollector:
    """Running Eq. (2) estimates for a whole schema over one count vector.

    The streaming counterpart of a protocol's batch estimation: records
    arrive (already randomized) one at a time or in batches, and every
    attribute's estimate inverts its own matrix against its slice of
    the count vector. For a protocol, :meth:`for_protocol` counts over
    the *collection schema* — one (possibly fused) attribute per
    release unit.
    """

    def __init__(self, schema: Schema, matrices) -> None:
        self._schema = schema
        missing = set(schema.names) - set(matrices)
        if missing:
            raise EstimationError(f"matrices missing for {sorted(missing)}")
        self._matrices = {}
        for attr in schema:
            matrix = matrices[attr.name]
            if isinstance(matrix, ConstantDiagonalMatrix):
                size = matrix.size
            else:
                matrix = validate_rr_matrix(matrix)
                size = matrix.shape[0]
            if size != attr.size:
                raise EstimationError(
                    f"matrix for {attr.name!r} has size {size}, "
                    f"expected {attr.size}"
                )
            self._matrices[attr.name] = matrix
        self._sizes = np.asarray(schema.sizes, dtype=np.int64)
        self._offsets = np.concatenate(
            ([0], np.cumsum(self._sizes[:-1]))
        ).astype(np.int64)
        self._slices = {
            name: slice(int(start), int(start + size))
            for name, start, size in zip(
                schema.names, self._offsets, self._sizes
            )
        }
        self._counts = np.zeros(int(self._sizes.sum()), dtype=np.int64)

    @classmethod
    def for_protocol(cls, protocol) -> "StreamingCollector":
        """Collector matching any :class:`~repro.protocols.base.Protocol`.

        Counts over the protocol's *collection schema* and inverts with
        its cluster-aware ``matrices``: for RR-Independent that is the
        wire schema with one matrix per attribute; for RR-Joint and
        RR-Clusters each cluster is one fused attribute over its
        product domain.
        """
        return cls(protocol.collection.collection_schema(), protocol.matrices)

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def matrices(self) -> dict:
        """Copy of the ``{attribute name: matrix}`` design inverted here.

        The service layer fingerprints these to refuse restoring counts
        collected under a different design.
        """
        return dict(self._matrices)

    @property
    def counts(self) -> np.ndarray:
        """Copy of the flat count vector (attribute j at its offset)."""
        return self._counts.copy()

    @property
    def merged(self) -> "StreamingCollector":
        # The collector itself. Kept because the lifecycle benchmark
        # (perfbench/offline.py) reads
        # ``service.collector.merged.snapshot_counts()``; library code
        # does not use it.
        return self

    @property
    def n_observed_by_attribute(self) -> dict:
        """Responses folded in so far, per attribute."""
        totals = np.add.reduceat(self._counts, self._offsets).tolist()
        return dict(zip(self._schema.names, totals))

    @property
    def n_observed(self) -> int:
        """Number of complete records observed.

        When attributes have been fed unevenly (count vectors with
        different per-attribute totals) there is no single record
        count, so the disagreement is reported per attribute instead
        of silently picking one.
        """
        per_attribute = self.n_observed_by_attribute
        distinct = set(per_attribute.values())
        if len(distinct) > 1:
            raise EstimationError(
                f"attributes observed unevenly: {per_attribute}; "
                "no single record count exists"
            )
        return distinct.pop()

    # ------------------------------------------------------------------
    def receive(self, record) -> None:
        """Fold in one randomized record (length-m codes)."""
        codes = np.asarray(record)
        if codes.shape != (self._schema.width,):
            raise EstimationError(
                f"record must have shape ({self._schema.width},), "
                f"got {codes.shape}"
            )
        self.receive_batch(codes[None, :])

    def receive_batch(self, records, *, validated: bool = False) -> None:
        """Fold in a batch of randomized records, shape ``(k, m)``.

        All attributes are counted with a *single* ``bincount`` over the
        block shifted into their disjoint bin ranges. ``validated=True``
        certifies every code is already inside its attribute's domain
        (true straight out of the wire codec), skipping the per-column
        range scan.
        """
        batch = np.asarray(records)
        if not np.issubdtype(batch.dtype, np.integer):
            raise EstimationError(
                f"codes must be integers, got dtype {batch.dtype}"
            )
        batch = batch.astype(np.int64, copy=False)
        if batch.ndim != 2 or batch.shape[1] != self._schema.width:
            raise EstimationError(
                f"batch must have shape (k, {self._schema.width}), "
                f"got {batch.shape}"
            )
        if not batch.shape[0]:
            return
        if not validated:
            low, high = column_extrema(batch)
            violated = np.flatnonzero((low < 0) | (high >= self._sizes))
            if violated.size:
                j = int(violated[0])
                raise EstimationError(
                    f"codes out of range [0, {self._sizes[j]}) for "
                    f"attribute {self._schema.names[j]!r}"
                )
        counts = np.bincount(
            (batch + self._offsets).ravel(), minlength=self._counts.size
        )
        if counts.size > self._counts.size:
            # Only reachable if a validated=True certification was a
            # lie; interior mis-binning is covered by the scan above.
            raise EstimationError(
                "codes beyond the last attribute's domain in a batch "
                "submitted as pre-validated"
            )
        self._counts += counts

    def add_counts(self, counts) -> None:
        """Fold in a pre-aggregated flat count vector (same layout)."""
        self._counts += _validated_counts(counts, self._counts.size)

    def merge(self, other: "StreamingCollector") -> None:
        """Absorb another collector (e.g. a second ingestion node).

        Counts collected under different randomization matrices are not
        poolable: Eq. (2) inverts one specific channel, and a merged
        count vector silently mixes two, so the matrices themselves are
        compared — not just their sizes. Everything is checked before
        any count moves.
        """
        if not isinstance(other, StreamingCollector):
            raise EstimationError("can only merge a StreamingCollector")
        if other._schema != self._schema:
            raise EstimationError("cannot merge collectors with different schemas")
        for name, matrix in self._matrices.items():
            if not matrices_equal(matrix, other._matrices[name]):
                raise EstimationError(
                    f"matrix mismatch for {name!r}: cannot merge counts "
                    "collected under different randomization matrices — "
                    "the pooled Eq. (2) estimate would be wrong"
                )
        self._counts += other._counts

    # ------------------------------------------------------------------
    def snapshot_counts(self) -> dict:
        """Copy of every attribute's count vector (checkpoint hook).

        The full streaming state is ``(schema, matrices, counts)``; the
        first two are the collector's static design, so a checkpoint
        only has to persist the counts returned here.
        """
        return {
            name: self._counts[span].copy()
            for name, span in self._slices.items()
        }

    def restore_counts(self, counts) -> None:
        """Replace state with checkpointed count vectors (recovery hook).

        Only a *fresh* collector may be restored: restoring over
        observed state would silently double-count, so that is refused.
        Every vector is validated before any is applied.
        """
        if self._counts.any():
            raise EstimationError(
                "cannot restore counts into a collector that has already "
                "observed responses"
            )
        missing = set(self._slices) - set(counts)
        if missing:
            raise EstimationError(
                f"restore counts missing for {sorted(missing)}"
            )
        unknown = set(counts) - set(self._slices)
        if unknown:
            raise EstimationError(
                f"restore counts for unknown attributes {sorted(unknown)}"
            )
        validated = {
            name: _validated_counts(counts[name], span.stop - span.start)
            for name, span in self._slices.items()
        }
        for name, vector in validated.items():
            self._counts[self._slices[name]] = vector

    # ------------------------------------------------------------------
    def estimate_marginal(self, name: str, repair: str = "clip") -> np.ndarray:
        """Current Eq. (2) estimate of one attribute's distribution."""
        if name not in self._slices:
            raise EstimationError(f"unknown attribute {name!r}")
        counts = self._counts[self._slices[name]]
        n = int(counts.sum())
        if n == 0:
            raise EstimationError("no responses observed yet")
        raw = estimate_distribution(counts / n, self._matrices[name])
        if repair == "clip":
            return clip_and_rescale(raw)
        if repair == "none":
            return raw
        raise EstimationError(f"repair must be 'clip' or 'none', got {repair!r}")

    def estimate_marginals(self, repair: str = "clip") -> dict:
        return {
            name: self.estimate_marginal(name, repair)
            for name in self._schema.names
        }

    def __repr__(self) -> str:
        per_attribute = self.n_observed_by_attribute
        counts = set(per_attribute.values())
        if len(counts) == 1:
            n_text = str(counts.pop())
        else:
            n_text = f"uneven {per_attribute}"
        return f"StreamingCollector(m={self._schema.width}, n={n_text})"
