"""Collector service layer: wire codec, durable ingestion, cached queries.

The paper's collector is a batch abstraction — pool everything, invert
once. This package is the deployment-shaped counterpart (the RAPPOR-
style loop of §7): parties ship randomized records as compact bytes,
the collector survives crashes via a write-ahead log + checkpoints, and
downstream consumers query estimates through an invalidation-aware
cache.

* :mod:`repro.service.codec` — versioned, bit-packed wire frames with a
  schema fingerprint header and CRC trailer.
* :mod:`repro.service.journal` — segmented, append-only ingestion log
  (manifest + bounded segments, O(tail) restart, checkpoint-covered
  compaction) and atomic checkpoint pairs (npz counts + JSON sidecar).
* :mod:`repro.service.pipeline` — :class:`CollectorService` counts
  each commit window straight into one
  :class:`~repro.analysis.streaming.StreamingCollector` count vector
  and ties codec, log, checkpoints and queries into one durable
  process state. It is the only ingest path: a
  collector is one in-process service per stream, and the server gets
  its parallelism from independent per-stream journals.
* :mod:`repro.service.query` — LRU cache over marginal / pair-table /
  set-frequency estimates, keyed on (query, observed counts).
* :mod:`repro.service.net` — the network front-end:
  :class:`CollectorServer` (asyncio, multi-tenant, admission control +
  real backpressure, durable acks) and :class:`CollectorClient`
  (blocking, pipelined, reconnect with exact resend) over the wire
  frames as protocol, with a :class:`StorageBackend` connector seam
  for tenant state.
* :mod:`repro.service.scrub` — offline deep verification of a state
  directory: every retained frame's CRC and fingerprint, manifest
  accounting, and the checkpoint pair, all read-only.
* :mod:`repro.service.cli` — ``encode`` / ``ingest`` / ``query`` /
  ``compact`` / ``stats`` / ``scrub`` subcommands of
  ``repro-anonymize``.

The whole stack is keyed on the unified
:class:`~repro.protocols.base.Protocol` interface: any protocol —
RR-Independent, RR-Joint or RR-Clusters — serves end to end from a
single versioned design document (:mod:`repro.design`), with queries
routed through its cluster layout.
"""

from repro.service.codec import (
    ReportCodec,
    design_fingerprint,
    matrix_fingerprint,
    schema_fingerprint,
)
from repro.service.journal import FrameWriter, IngestionLog, read_frames
from repro.service.net import (
    CollectorClient,
    CollectorServer,
    LocalFSBackend,
    StorageBackend,
    TenantManager,
    ThreadedCollectorServer,
)
from repro.service.pipeline import CollectorService
from repro.service.query import QueryFrontend
from repro.service.scrub import scrub_state_dir

__all__ = [
    "ReportCodec",
    "schema_fingerprint",
    "matrix_fingerprint",
    "design_fingerprint",
    "FrameWriter",
    "IngestionLog",
    "read_frames",
    "CollectorService",
    "QueryFrontend",
    "scrub_state_dir",
    "CollectorServer",
    "ThreadedCollectorServer",
    "CollectorClient",
    "TenantManager",
    "StorageBackend",
    "LocalFSBackend",
]
