"""Batched ingestion pipeline and the checkpointed collector service.

Two layers:

* :class:`IngestionPipeline` — a thin batching buffer between decoded
  report batches and the
  :class:`~repro.analysis.streaming.StreamingCollector`. Reports
  accumulate until ``batch_size`` records are pending, then the
  collector counts them in one vectorized pass (``receive_batch``).
  ``submit`` returns the number of records still buffered, so a caller
  driving a network loop can apply backpressure instead of queueing
  unboundedly.

* :class:`CollectorService` — the durable collector process state:
  wire codec + write-ahead ingestion log + periodic checkpoints +
  pipeline + cached query front-end, rooted in one state directory.
  ``CollectorService.open`` both creates fresh state and recovers after
  a crash (checkpoint counts + replay of the log tail); because every
  frame is durably logged before it is absorbed, the recovered counts —
  and therefore every Eq. (2) estimate — are byte-identical to an
  uninterrupted run over the same frames.

Every write goes through one group commit: ``ingest_many`` logs each
:data:`DEFAULT_COMMIT_RECORDS`-record window under one buffered write +
one fsync + one absorption pass (the durability window for
high-throughput CSV/report-file ingestion; ``commit_records=1`` gives
one fsync per frame), and ``ingest_frame`` is the same commit over a
one-frame window.
"""

from __future__ import annotations

import warnings
from itertools import islice
from pathlib import Path
from typing import Iterable, List, Mapping

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

import numpy as np

from repro.analysis.streaming import StreamingCollector
from repro.data.schema import Schema
from repro.exceptions import (
    EstimationError,
    ServiceError,
    StorageFullError,
    TransientIOError,
)
from repro.obs import clock
from repro.obs.health import HEALTH_VERSION
from repro.obs.registry import get_registry
from repro.obs.tracing import trace
from repro.protocols.base import CollectionLayout
from repro.service.codec import (
    ReportCodec,
    matrix_fingerprint,
    schema_fingerprint,
)
from repro.service.journal import (
    DEFAULT_SEGMENT_BYTES,
    IngestionLog,
    LOG_NAME,
    RetryPolicy,
    load_checkpoint,
    load_service_meta,
    resolve_state_root,
    save_checkpoint,
    save_service_meta,
)
from repro.service.query import QueryFrontend

__all__ = [
    "IngestionPipeline",
    "CollectorService",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_COMMIT_RECORDS",
]

#: Records buffered before the pipeline absorbs them in one pass:
#: large enough to amortize the per-pass numpy overhead, small enough
#: that a crash replays at most a short log tail.
DEFAULT_BATCH_SIZE = 1024

#: Records per group commit on the bulk-ingest path: one buffered log
#: write + one fsync + one absorption pass per this many records. The
#: durability window — a crash loses at most this many *unacknowledged*
#: records, never an acknowledged one. Sized for bulk report-file
#: ingestion — the decoded window buffers records as int64 codes
#: (131072 records × 8 attributes × 8 B = 8 MiB; the wire frames
#: themselves are far smaller); latency-sensitive callers pass
#: something smaller.
DEFAULT_COMMIT_RECORDS = 131_072

class IngestionPipeline:
    """Buffer decoded report batches into batched absorption passes."""

    def __init__(
        self,
        collector: StreamingCollector,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        metrics=None,
    ):
        if batch_size < 1:
            raise ServiceError(f"batch_size must be >= 1, got {batch_size}")
        self._collector = collector
        self._batch_size = batch_size
        self._metrics = get_registry() if metrics is None else metrics
        self._c_submit_records = self._metrics.counter(
            "pipeline.submit.records"
        )
        self._c_flush_records = self._metrics.counter("pipeline.flush.records")
        self._c_flush_batches = self._metrics.counter("pipeline.flush.batches")
        self._sp_flush = trace("pipeline.flush", self._metrics)
        self._buffer: List[np.ndarray] = []
        self._pending = 0
        self._buffer_validated = True

    @property
    def collector(self) -> StreamingCollector:
        return self._collector

    @property
    def pending(self) -> int:
        """Records buffered but not yet absorbed into the collector."""
        return self._pending

    def submit(self, codes: np.ndarray, *, validated: bool = False) -> int:
        """Queue one decoded ``(k, m)`` batch; absorb when full.

        Returns the number of records still pending after the call —
        0 means the batch (and everything before it) has been absorbed,
        anything else is the caller's backpressure signal.

        ``validated=True`` certifies every code is already inside its
        attribute's domain (true straight out of
        :meth:`~repro.service.codec.ReportCodec.decode`), letting
        :meth:`flush` skip its range rescan for the batch. The flag is
        sticky per flush: one unvalidated batch re-arms the scan for
        the whole buffered block.
        """
        batch = np.atleast_2d(np.asarray(codes))
        if not np.issubdtype(batch.dtype, np.integer):
            raise ServiceError(
                f"codes must be integers, got dtype {batch.dtype}"
            )
        batch = batch.astype(np.int64, copy=False)
        width = self._collector.schema.width
        if batch.ndim != 2 or batch.shape[1] != width:
            raise ServiceError(
                f"batch must have shape (k, {width}), got {batch.shape}"
            )
        if batch.shape[0]:
            self._buffer.append(batch)
            self._pending += batch.shape[0]
            self._buffer_validated = self._buffer_validated and validated
            self._c_submit_records.inc(batch.shape[0])
        if self._pending >= self._batch_size:
            self.flush()
        return self._pending

    def flush(self) -> None:
        """Absorb everything pending in one vectorized counting pass.

        The buffered batches are concatenated and handed to the
        collector's ``receive_batch`` — one offset ``bincount`` and one
        ``+=``, with the range scan skipped when every batch was
        submitted pre-validated. On failure the buffer is kept.
        """
        if not self._pending:
            return
        with self._sp_flush:
            block = (
                self._buffer[0]
                if len(self._buffer) == 1
                else np.concatenate(self._buffer, axis=0)
            )
            try:
                self._collector.receive_batch(
                    block, validated=self._buffer_validated
                )
            except EstimationError as exc:
                raise ServiceError(str(exc)) from None
            self._c_flush_records.inc(self._pending)
            self._c_flush_batches.inc()
            self._buffer = []
            self._pending = 0
            self._buffer_validated = True


class CollectorService:
    """Durable, queryable collector rooted in a state directory.

    Construct with :meth:`for_protocol` (any
    :class:`~repro.protocols.base.Protocol` — RR-Independent, RR-Joint
    or RR-Clusters) or :meth:`open` (raw schema + matrices, the
    all-singleton case). The write path is strictly write-ahead::

        frame -> decode (validate) -> log.append (fsync) -> pipeline

    so after any crash, ``checkpoint + log tail`` reconstructs exactly
    the acknowledged frames.

    Wire frames always carry the *wire schema* — per-attribute codes,
    whatever the protocol — while counting and estimation run over the
    protocol's *collection schema* (one possibly-fused attribute per
    release unit). The :class:`~repro.protocols.base.CollectionLayout`
    bridges the two on ingestion; for RR-Independent they coincide and
    the translation is a no-op, so pre-unification state directories
    open byte-identically.
    """

    def __init__(
        self,
        schema: Schema,
        matrices: Mapping,
        state_dir,
        *,
        layout: "CollectionLayout | None" = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        checkpoint_every: "int | None" = None,
        segment_bytes: "int | None" = DEFAULT_SEGMENT_BYTES,
        auto_compact: bool = False,
        metrics=None,
        retry: "RetryPolicy | None" = None,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ServiceError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if layout is None:
            layout = CollectionLayout.identity(schema)
        elif layout.schema != schema:
            raise ServiceError(
                "layout's wire schema does not match the service schema"
            )
        self._state_dir = Path(state_dir)
        # Resolved (for its refusal of removed layouts) before anything
        # is created or locked: a refused root is left as it was found.
        resolve_state_root(self._state_dir)
        self._state_dir.mkdir(parents=True, exist_ok=True)
        self._lock_handle = None
        self._acquire_lock()
        self._wire_schema = schema
        self._layout = layout
        # One registry threads through every component the service owns
        # (codec, pipeline, journal, query front-end), so health() and
        # the Prometheus writer see the whole stack in one snapshot.
        self._metrics = get_registry() if metrics is None else metrics
        self._c_ingest_frames = self._metrics.counter("service.ingest.frames")
        self._c_ingest_records = self._metrics.counter(
            "service.ingest.records"
        )
        self._c_checkpoints = self._metrics.counter("service.checkpoints")
        self._c_recoveries = self._metrics.counter("service.recoveries")
        self._sp_commit_window = trace("service.commit_window", self._metrics)
        self._collector = StreamingCollector(
            layout.collection_schema(), matrices
        )
        self._codec = ReportCodec(schema, metrics=self._metrics)
        self._schema_fp = schema_fingerprint(schema)
        self._matrix_fps = {
            name: matrix_fingerprint(matrix)
            for name, matrix in self._collector.matrices.items()
        }
        self._pipeline = IngestionPipeline(
            self._collector, batch_size=batch_size, metrics=self._metrics
        )
        self._checkpoint_every = checkpoint_every
        self._auto_compact = bool(auto_compact)
        # The front-end keeps its own always-real registry when the
        # service's is disabled (stats/__repr__ must keep working);
        # when enabled it folds into the service snapshot as a child.
        self._queries = QueryFrontend(
            self._collector,
            layout=layout,
            metrics=self._metrics.child() if self._metrics.enabled else None,
        )
        self._degraded = False
        self._degraded_reason: "str | None" = None
        self._g_degraded = self._metrics.gauge("service.degraded")
        self._g_degraded.set(0)
        self._check_or_pin_design()
        # The checkpoint loads (and its fingerprints are validated)
        # BEFORE the journal opens: its frame coverage is what licenses
        # quarantining a corrupt sealed segment — frames a durable
        # checkpoint covers survive in its counts, so the damaged file
        # can be set aside; anything else must refuse. A foreign or
        # unusable checkpoint therefore licenses nothing.
        checkpoint = self._load_checkpoint_lenient()
        self._log = IngestionLog(
            self._state_dir / LOG_NAME,
            segment_bytes=segment_bytes,
            metrics=self._metrics,
            covered_frames=(
                checkpoint.frames_applied if checkpoint is not None else 0
            ),
            retry=retry,
        )
        self._frames_applied = 0
        self._frames_at_checkpoint = 0
        self._checkpoint_present = False
        self._checkpoint_at: "float | None" = None
        self._opened_at = clock.monotonic()
        with trace("service.recover", self._metrics):
            self._recover(checkpoint)
        self._c_recoveries.inc()

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        schema: Schema,
        matrices: Mapping,
        state_dir,
        *,
        layout: "CollectionLayout | None" = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        checkpoint_every: "int | None" = None,
        segment_bytes: "int | None" = DEFAULT_SEGMENT_BYTES,
        auto_compact: bool = False,
        metrics=None,
        retry: "RetryPolicy | None" = None,
    ) -> "CollectorService":
        """Create fresh state or recover whatever ``state_dir`` holds."""
        return cls(
            schema,
            matrices,
            state_dir,
            layout=layout,
            batch_size=batch_size,
            checkpoint_every=checkpoint_every,
            segment_bytes=segment_bytes,
            auto_compact=auto_compact,
            metrics=metrics,
            retry=retry,
        )

    @classmethod
    def for_protocol(
        cls,
        protocol,
        state_dir,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        checkpoint_every: "int | None" = None,
        segment_bytes: "int | None" = DEFAULT_SEGMENT_BYTES,
        auto_compact: bool = False,
        metrics=None,
        retry: "RetryPolicy | None" = None,
    ) -> "CollectorService":
        """Service matching any :class:`~repro.protocols.base.Protocol`.

        The protocol's :attr:`~repro.protocols.base.Protocol.collection`
        layout keys the whole stack: wire frames are decoded against
        the protocol's schema, fused into release-unit codes, counted
        under the collection schema, and queries route through the
        cluster-aware front-end.
        """
        return cls(
            protocol.schema,
            protocol.matrices,
            state_dir,
            layout=getattr(protocol, "collection", None),
            batch_size=batch_size,
            checkpoint_every=checkpoint_every,
            segment_bytes=segment_bytes,
            auto_compact=auto_compact,
            metrics=metrics,
            retry=retry,
        )

    def _acquire_lock(self) -> None:
        """Take an exclusive advisory lock on the state directory.

        Two live services over one directory would interleave appends
        into the same write-ahead log and silently double-count on the
        next recovery — turned into a clean refusal here. Held for the
        service's lifetime; released by :meth:`close` (or the OS when
        a crashed process dies).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return
        # An flock target, not frame data: nothing is ever written to
        # it, so FrameWriter's prefix/CRC discipline does not apply.
        handle = open(self._state_dir / "state.lock", "wb")  # repro-lint: ignore[RPL302]
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise ServiceError(
                f"{self._state_dir} is locked by another collector "
                "process; a second writer would corrupt the ingestion log"
            ) from None
        self._lock_handle = handle

    def _release_lock(self) -> None:
        if self._lock_handle is not None:
            self._lock_handle.close()  # closing the fd drops the flock
            self._lock_handle = None

    def _check_or_pin_design(self) -> None:
        """Pin this state directory to one design, or refuse a foreign one.

        Runs before any log replay, so even a log-only directory (crash
        before the first checkpoint) cannot be resumed under different
        matrix fingerprints — the wire frames pin only the schema, and
        counts inverted against the wrong channel would be silently
        wrong.
        """
        meta = load_service_meta(self._state_dir)
        if meta is None:
            save_service_meta(
                self._state_dir,
                schema_fp=self._schema_fp,
                matrix_fps=self._matrix_fps,
            )
            return
        if (
            meta["schema_fingerprint"] != self._schema_fp
            or meta["matrix_fingerprints"] != self._matrix_fps
        ):
            raise ServiceError(
                "state directory is pinned to different schema/matrix "
                "fingerprints than this service's design; refusing to "
                "mix counts across randomization channels"
            )

    def _load_checkpoint_lenient(self) -> "object | None":
        """The durable checkpoint, or ``None`` if absent or unusable.

        Runs before the journal opens. A torn or corrupted checkpoint
        pair is detected, not trusted — before any compaction the
        write-ahead log is a superset of any checkpoint, so full
        replay reconstructs identical state (whether that replay is
        *possible* is checked in :meth:`_recover`, once the log knows
        its first retained frame). Foreign fingerprints refuse here:
        a checkpoint from another design must neither restore counts
        nor license segment quarantine.
        """
        try:
            checkpoint = load_checkpoint(self._state_dir)
        except (StorageFullError, TransientIOError):
            raise  # I/O failure, not corruption: nothing to fall back on
        except ServiceError as exc:
            warnings.warn(
                f"discarding unusable checkpoint ({exc}); recovering by "
                "full log replay",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        if checkpoint is not None:
            if checkpoint.schema_fingerprint != self._schema_fp:
                raise ServiceError(
                    "checkpoint schema fingerprint does not match this "
                    "service's schema; refusing to restore foreign counts"
                )
            if checkpoint.matrix_fingerprints != self._matrix_fps:
                raise ServiceError(
                    "checkpoint matrix fingerprints do not match this "
                    "service's design; counts collected under a different "
                    "randomization matrix are not restorable"
                )
        return checkpoint

    def _recover(self, checkpoint) -> None:
        if checkpoint is None and self._log.first_retained_frame > 0:
            # Compaction traded the log head for the checkpoint that
            # covered it; without a usable checkpoint those frames are
            # unreconstructable and partial counts would be silently
            # wrong.
            raise ServiceError(
                f"log frames before {self._log.first_retained_frame} were "
                "compacted away under a checkpoint that is now missing or "
                "unusable; state directory is unrecoverable"
            )
        start = 0
        if checkpoint is not None:
            if checkpoint.frames_applied > self._log.n_frames:
                raise ServiceError(
                    f"checkpoint covers {checkpoint.frames_applied} frames "
                    f"but the log only holds {self._log.n_frames}; state "
                    "directory is inconsistent"
                )
            self._collector.restore_counts(checkpoint.counts)
            start = checkpoint.frames_applied
        self._checkpoint_present = checkpoint is not None
        # Replay the tail at decoded-ingest speed: frames stream out of
        # the log in bounded windows and each window goes through one
        # vectorized decode_many + absorption pass, instead of paying
        # per-frame Python and numpy overhead. Same frames, same
        # submit(validated=True) transitions — byte-identical counts.
        for window in self._codec.iter_frame_windows(
            self._log.replay(start), window_records=DEFAULT_COMMIT_RECORDS
        ):
            self._pipeline.submit(
                self._layout.encode_records(self._codec.decode_many(window)),
                validated=True,
            )
        self._pipeline.flush()
        self._frames_applied = self._log.n_frames
        self._frames_at_checkpoint = start

    # ------------------------------------------------------------------
    @property
    def state_dir(self) -> Path:
        return self._state_dir

    @property
    def schema(self) -> Schema:
        """The wire schema parties encode reports against."""
        return self._wire_schema

    @property
    def collection_schema(self) -> Schema:
        """The schema the collector counts under (fused release units)."""
        return self._collector.schema

    @property
    def layout(self) -> CollectionLayout:
        """The protocol's collection layout bridging the two schemas."""
        return self._layout

    @property
    def codec(self) -> ReportCodec:
        return self._codec

    @property
    def collector(self) -> StreamingCollector:
        return self._collector

    @property
    def queries(self) -> QueryFrontend:
        """Cached query front-end over the live collector.

        Flushes the pipeline first, so an answer always reflects every
        acknowledged frame (the cache keys on observed counts, so a
        flush can never serve a stale entry — it only advances the key).
        """
        self._pipeline.flush()
        return self._queries

    @property
    def log(self) -> IngestionLog:
        """The write-ahead log (read access for resume verification)."""
        return self._log

    @property
    def frames_applied(self) -> int:
        """Durably logged frames (== frames reflected after recovery)."""
        return self._frames_applied

    @property
    def n_observed(self) -> int:
        self._pipeline.flush()
        return self._collector.n_observed

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether the service is read-only after a storage failure."""
        return self._degraded

    def _degrade(self, exc: ServiceError) -> None:
        """Enter read-only degraded mode (sticky for this process).

        A storage failure that survived rollback and retries means the
        device, not the request, is the problem. Instead of crashing —
        losing the recovered in-memory counts that queries can still
        serve — the service refuses further writes and surfaces the
        state in :meth:`health` and the ``service.degraded`` gauge.
        Durability is not weakened: the failed append rolled back, so
        the log still holds exactly the acknowledged frames, and a
        reopen after the operator intervenes recovers byte-identically.
        """
        self._degraded = True
        self._degraded_reason = str(exc)
        self._g_degraded.set(1)

    def _ensure_writable(self) -> None:
        if self._degraded:
            raise ServiceError(
                "service is degraded (read-only) after a storage "
                f"failure: {self._degraded_reason}; queries remain "
                "available — fix the device and reopen to resume writes"
            )

    def ingest_frame(self, frame: bytes) -> int:
        """Validate, durably log, and queue one wire frame.

        A one-frame :meth:`ingest_many` commit (one ``fsync``); returns
        the pipeline's pending-record count (backpressure signal).
        """
        self._commit_window([frame])
        return self._pipeline.pending

    def _maybe_checkpoint(self) -> None:
        """Checkpoint when ``checkpoint_every`` frames have accumulated
        since the last snapshot (shared by both ingest paths)."""
        if (
            self._checkpoint_every is not None
            and self._frames_applied - self._frames_at_checkpoint
            >= self._checkpoint_every
        ):
            self.checkpoint()

    def ingest_many(
        self,
        frames: Iterable[bytes],
        *,
        commit_records: "int | None" = None,
        limit: "int | None" = None,
    ) -> int:
        """Group-commit ingestion of a frame stream.

        Frames are decoded (validated) one by one, buffered until the
        decoded window reaches ``commit_records`` records, then
        committed: every buffered frame goes into the write-ahead log
        under a *single* buffered write + ``fsync``, and the decoded
        records are absorbed in one batched pass. The WAL-first
        contract is untouched — a window is logged durably before any
        of it is absorbed, so ``checkpoint + log tail`` still replays
        to byte-identical estimates after any crash.

        A corrupt or foreign frame raises before its window is
        committed: previously committed windows stay durable, the
        offending window is discarded (none of it was acknowledged).

        ``limit`` stops after that many frames (the CLI's
        ``--stop-after`` crash simulation); the final partial window is
        committed before returning. Returns the number of frames
        ingested.
        """
        if commit_records is None:
            commit_records = DEFAULT_COMMIT_RECORDS
        if commit_records < 1:
            raise ServiceError(
                f"commit_records must be >= 1, got {commit_records}"
            )
        if limit is not None and limit < 0:
            raise ServiceError(f"limit must be >= 0, got {limit}")
        iterator = iter(frames)
        if limit is not None:
            # islice pulls exactly `limit` frames and leaves the
            # caller's iterator undisturbed past that point.
            iterator = islice(iterator, limit)
        count = 0
        for window in self._codec.iter_frame_windows(
            iterator, window_records=commit_records
        ):
            self._commit_window(window)
            count += len(window)
        return count

    #: Alias of :meth:`ingest_many`, the name existing callers use.
    ingest = ingest_many

    def _commit_window(self, frames: List[bytes]) -> None:
        """Validate, durably log, then absorb one window (WAL-first).

        The frames are decoded *before* they are logged: a corrupt or
        foreign frame is rejected without poisoning the log. A storage
        failure (device full, I/O errors beyond retry) rolls the log
        back to the acknowledged prefix, flips the service read-only
        (:attr:`degraded`), and re-raises typed.
        """
        with self._sp_commit_window:
            self._ensure_writable()
            block = self._layout.encode_records(
                self._codec.decode_many(frames)
            )
            try:
                self._log.append_many(frames)
            except (StorageFullError, TransientIOError) as exc:
                self._degrade(exc)
                raise
            self._frames_applied += len(frames)
            self._c_ingest_frames.inc(len(frames))
            self._c_ingest_records.inc(block.shape[0])
            self._pipeline.submit(block, validated=True)
            self._maybe_checkpoint()

    def flush(self) -> None:
        """Absorb every buffered report into the collector."""
        self._pipeline.flush()

    def checkpoint(self) -> None:
        """Flush, then atomically snapshot counts + log position.

        With ``auto_compact=True`` every checkpoint also retires the
        log segments it covers, bounding disk without a separate
        maintenance step.
        """
        self._write_checkpoint()
        if self._auto_compact:
            try:
                self._log.retire(self._frames_at_checkpoint)
            except (StorageFullError, TransientIOError) as exc:
                self._degrade(exc)
                raise

    def _write_checkpoint(self) -> None:
        """Snapshot counts + log position (no compaction side effects).

        A storage failure leaves the previous checkpoint pair intact
        (the writes are tmp + atomic replace) but degrades the service:
        checkpoints exist to bound replay and license compaction, and a
        device that cannot take one cannot take appends for long either.
        """
        self._ensure_writable()
        with trace("service.checkpoint", self._metrics):
            self._pipeline.flush()
            try:
                save_checkpoint(
                    self._state_dir,
                    counts=self._collector.snapshot_counts(),
                    order=self._collector.schema.names,
                    frames_applied=self._frames_applied,
                    schema_fp=self._schema_fp,
                    matrix_fps=self._matrix_fps,
                )
            except (StorageFullError, TransientIOError) as exc:
                self._degrade(exc)
                raise
            self._frames_at_checkpoint = self._frames_applied
        self._checkpoint_present = True
        self._checkpoint_at = clock.monotonic()
        self._c_checkpoints.inc()

    def compact(self, *, checkpoint: bool = True) -> dict:
        """Retire log segments covered by a durable checkpoint.

        By default takes a fresh checkpoint first, so everything but
        the active tail segment becomes retirable; with
        ``checkpoint=False`` only segments already covered by the last
        durable checkpoint are dropped. Either way the recovery
        contract is intact — retired frames live on in the checkpoint
        counts, and replay resumes after them. Returns
        ``{"segments_retired", "bytes_freed", "covered_frames"}``.
        """
        if checkpoint:
            # The bare snapshot, not checkpoint(): under auto_compact
            # that would retire the segments itself and leave this
            # call's stats reporting 0 for files it just deleted.
            self._write_checkpoint()
        else:
            self._ensure_writable()
        try:
            retired, freed = self._log.retire(self._frames_at_checkpoint)
        except (StorageFullError, TransientIOError) as exc:
            self._degrade(exc)
            raise
        return {
            "segments_retired": retired,
            "bytes_freed": freed,
            "covered_frames": self._frames_at_checkpoint,
        }

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """One JSON-ready snapshot of the whole service's state.

        Flushes the pipeline first, so every section reflects every
        acknowledged frame. The document validates against the
        checked-in schema (:data:`repro.obs.health.HEALTH_SCHEMA_PATH`)
        and splits into two halves: the sections named by
        :data:`repro.obs.health.DETERMINISTIC_SECTIONS` (``journal``,
        ``checkpoint``, ``design``, ``counts``) are pure functions of
        the ingested frame sequence — byte-identical before a crash and
        after recovery — while ``cache``/``runtime``/``metrics`` are
        live-process telemetry (clocks, hit rates, span histograms).
        """
        self._pipeline.flush()
        segments = self._log.segments
        now = clock.monotonic()
        return {
            "version": HEALTH_VERSION,
            "state_dir": str(self._state_dir),
            "journal": {
                "n_frames": int(self._log.n_frames),
                "first_retained_frame": int(self._log.first_retained_frame),
                "n_segments": int(self._log.n_segments),
                "total_bytes": int(sum(s.n_bytes for s in segments)),
                "torn_tail_bytes": int(self._log.torn_tail_bytes),
                "quarantined": [
                    {
                        "seq": int(q["seq"]),
                        "base_frame": int(q["base_frame"]),
                        "frames": int(q["frames"]),
                        "bytes": int(q["bytes"]),
                        "reason": str(q["reason"]),
                    }
                    for q in self._log.quarantined
                ],
                "segments": [
                    {
                        "seq": int(s.seq),
                        "base_frame": int(s.base_frame),
                        "frames": int(s.n_frames),
                        "bytes": int(s.n_bytes),
                    }
                    for s in segments
                ],
            },
            "checkpoint": {
                "present": self._checkpoint_present,
                "frames_applied": (
                    int(self._frames_at_checkpoint)
                    if self._checkpoint_present
                    else None
                ),
            },
            "design": {
                "schema_fingerprint": int(self._schema_fp),
                "matrix_fingerprints": {
                    name: self._matrix_fps[name]
                    for name in sorted(self._matrix_fps)
                },
            },
            "counts": {
                "n_observed": int(self._collector.n_observed),
                "frames_applied": int(self._frames_applied),
                "frames_at_checkpoint": int(self._frames_at_checkpoint),
            },
            "cache": dict(self._queries.stats),
            "runtime": {
                "metrics_enabled": bool(self._metrics.enabled),
                "degraded": bool(self._degraded),
                "degraded_reason": self._degraded_reason,
                "pending_records": int(self._pipeline.pending),
                "uptime_seconds": now - self._opened_at,
                "checkpoint_age_seconds": (
                    None
                    if self._checkpoint_at is None
                    else now - self._checkpoint_at
                ),
            },
            "metrics": self._metrics.snapshot(),
        }

    def estimate_marginal(self, name: str, repair: str = "clip") -> np.ndarray:
        self._pipeline.flush()
        return self._queries.marginal(name, repair)

    def estimate_marginals(self, repair: str = "clip") -> dict:
        self._pipeline.flush()
        return self._queries.marginals(repair)

    def close(self) -> None:
        """Flush buffered reports and release the log handle.

        Deliberately does *not* checkpoint: callers decide whether the
        shutdown is clean (call :meth:`checkpoint` first) or simulated
        crash (don't).
        """
        self._pipeline.flush()
        self._log.close()
        self._release_lock()

    def __enter__(self) -> "CollectorService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"CollectorService(state_dir={str(self._state_dir)!r}, "
            f"frames={self._frames_applied})"
        )
