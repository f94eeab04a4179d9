"""Exception hierarchy for :mod:`repro`.

All library errors derive from :class:`ReproError` so callers can catch
everything raised by the package with a single ``except`` clause while
still being able to discriminate finer-grained failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "DomainError",
    "DatasetError",
    "MatrixError",
    "EstimationError",
    "PrivacyError",
    "ClusteringError",
    "ProtocolError",
    "QueryError",
    "SecureSumError",
    "SeedError",
    "ServiceError",
    "CodecError",
    "StorageFullError",
    "TransientIOError",
    "SegmentQuarantinedError",
    "NetworkError",
    "WireProtocolError",
    "HandshakeError",
    "RemoteServiceError",
    "ObservabilityError",
]


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class SchemaError(ReproError):
    """Invalid attribute or schema definition (duplicate names, empty
    category lists, unknown attribute lookups, ...)."""


class DomainError(ReproError):
    """Invalid Cartesian-product domain operation (out-of-range codes,
    mismatched column counts, empty attribute sets, ...)."""


class DatasetError(ReproError):
    """Invalid dataset construction or access (codes outside the
    attribute domain, ragged records, schema mismatches, ...)."""


class MatrixError(ReproError):
    """Invalid randomized-response matrix (not square, not
    row-stochastic, negative entries, singular, ...)."""


class EstimationError(ReproError):
    """Frequency-estimation failure (singular design, invalid observed
    distribution, non-convergent iterative update, ...)."""


class PrivacyError(ReproError):
    """Invalid privacy parameter (non-positive epsilon, probability
    outside (0, 1], unachievable budget split, ...)."""


class ClusteringError(ReproError):
    """Invalid clustering input (thresholds out of range, dependence
    matrix of wrong shape, non-partition cluster sets, ...)."""


class ProtocolError(ReproError):
    """Protocol misuse (estimating before randomizing, schema mismatch
    between design and dataset, unsupported query, ...)."""


class QueryError(ReproError):
    """Invalid count-query specification (unknown attributes, empty or
    out-of-range cell sets, coverage outside (0, 1], ...)."""


class SecureSumError(ReproError):
    """Secure-sum protocol failure (share/modulus mismatch, wrong
    number of broadcasts, overflow of the additive group, ...)."""


class SeedError(ReproError, ValueError):
    """Invalid randomization seed (negative integer). Also a
    :class:`ValueError`, so callers catching that keep working."""


class ServiceError(ReproError):
    """Collector-service failure (ingestion-log corruption, checkpoint
    mismatch, state-directory misuse, ...)."""


class CodecError(ServiceError):
    """Invalid report wire frame (bad magic/version, schema fingerprint
    mismatch, truncated or corrupted buffer, out-of-range codes, ...)."""


class StorageFullError(ServiceError):
    """The state directory's device is out of space (ENOSPC/EDQUOT).

    Raised after the journal has rolled the partial tail back, so the
    on-disk log still ends at the last acknowledged frame. Not
    retryable from inside the service — the collector degrades to
    read-only until an operator frees space and reopens it."""


class TransientIOError(ServiceError):
    """An I/O operation failed in a possibly-recoverable way (EIO,
    EAGAIN, failed fsync, ...) and bounded retries did not clear it.

    Like :class:`StorageFullError` the partial tail has been rolled
    back before this is raised; the frames the caller was appending
    were never acknowledged."""


class SegmentQuarantinedError(ServiceError):
    """A sealed journal segment is corrupt (bit rot, truncation,
    outside modification) and its frames are not covered by a durable
    checkpoint, so recovery cannot proceed without silently dropping
    counts. Segments that *are* covered are quarantined — renamed
    aside and recorded in the manifest — instead of raising this."""


class NetworkError(ServiceError):
    """Network-collector failure: the transport layer (socket) died, a
    peer vanished mid-message, or a reply never arrived. Base class of
    every error the :mod:`repro.service.net` front-end raises."""


class WireProtocolError(NetworkError):
    """A peer violated the network message protocol: bad envelope
    magic, a corrupt message CRC, an oversize payload, a message that
    is not valid for the session's state (e.g. anything before the
    handshake), or malformed message JSON. A server replies with a
    typed error and closes the session; a client raises this."""


class HandshakeError(NetworkError):
    """The session handshake was rejected: unknown tenant, schema or
    design fingerprint differing from the tenant's pinned design, an
    invalid tenant/client name, or a second live session for the same
    (tenant, client) stream."""


class RemoteServiceError(NetworkError):
    """The server replied with a typed error after the handshake.

    ``code`` carries the server's machine-readable error class (e.g.
    ``"codec"``, ``"busy"``, ``"degraded"``, ``"query"``) so clients
    can discriminate without parsing prose."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


class ObservabilityError(ReproError):
    """Instrumentation misuse (metric name registered as two kinds,
    histogram merge across different bucket boundaries, malformed
    health/telemetry documents, ...)."""
