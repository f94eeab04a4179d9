"""The unified protocol interface.

The paper presents RR-Independent, RR-Joint and RR-Clusters as points
on one spectrum: every protocol partitions the attributes into
*release units* (here: clusters), randomizes each unit with one RR
matrix, and estimates by inverting each unit's channel (Eq. (2)). This
module implements that spectrum once:

* :class:`CollectionLayout` — the cluster structure of a design: which
  schema attributes each release unit covers, the mixed-radix
  :class:`~repro.data.domain.Domain` fusing each multi-attribute unit,
  and the *collection schema* whose attributes are the (fused) units.
  RR-Independent is the all-singleton layout, RR-Joint the one-cluster
  layout, RR-Clusters the general case.
* :class:`Protocol` — the abstract base class. A subclass supplies
  ``collection`` and ``matrices`` (plus its design-document hooks);
  everything else is derived from those two: ``schema``, ``epsilon``,
  ``accountant()``, ``engine_tasks()``, ``randomize(...)``,
  ``make_estimator()``, the ``estimate_marginal`` /
  ``estimate_pair_table`` / ``estimate_set_frequency`` query trio and
  the versioned design-document round trip ``to_design()`` /
  ``Protocol.from_design()``.
* :class:`ProtocolEstimator` — the incremental estimator
  ``make_estimator()`` returns: absorb randomized records (datasets or
  raw code batches) into one count vector, answer the query trio with
  the protocol's own composition rules (within a cluster: marginalize
  the joint estimate; across clusters: independence, §4).

Anything accepting "a protocol" — the
:class:`~repro.analysis.streaming.StreamingCollector`, the service layer's
:class:`~repro.service.pipeline.CollectorService`, the CLI — keys on
this interface only, so all three protocols flow through the same
codec → WAL → pipeline → query-cache deployment path.
"""

from __future__ import annotations

import abc
import itertools
from typing import Mapping, Sequence

import numpy as np

from repro._rng import ensure_rng
from repro.core.mechanism import randomize_column
from repro.core.privacy import PrivacyAccountant, epsilon_of_matrix
from repro.data.dataset import Dataset
from repro.data.domain import Domain
from repro.data.schema import NOMINAL, Attribute, Schema
from repro.exceptions import ProtocolError, ServiceError

__all__ = [
    "CollectionLayout",
    "Protocol",
    "ProtocolEstimator",
    "protocol_for_tag",
    "protocol_tags",
]

#: ``design_tag`` → protocol class; populated by ``__init_subclass__``.
_DESIGN_REGISTRY: dict = {}

_REPAIRS = ("clip", "none")


def protocol_for_tag(tag: str):
    """The protocol class registered under a design-document tag."""
    try:
        return _DESIGN_REGISTRY[tag]
    except KeyError:
        raise ServiceError(
            f"unsupported protocol {tag!r}; known protocols: "
            f"{sorted(_DESIGN_REGISTRY)}"
        ) from None


def protocol_tags() -> tuple:
    """All registered design-document protocol tags, sorted."""
    return tuple(sorted(_DESIGN_REGISTRY))


def _validate_design_p(payload: Mapping, source: str) -> float:
    """The keep probability of a design payload, validated (shared by
    every p-parameterized protocol's ``_params_from_payload``)."""
    p = payload.get("p")
    if not isinstance(p, (int, float)) or not 0.0 < p < 1.0:
        raise ServiceError(f"{source}: p must be in (0, 1), got {p!r}")
    return float(p)


def _fused_attribute(domain: Domain) -> Attribute:
    """One collection-schema attribute for a (possibly fused) domain.

    Single-attribute domains keep their original attribute so the
    all-singleton layout's collection schema is *the* schema —
    fingerprints and checkpoints of pre-existing RR-Independent state
    directories match bit for bit. Fused attributes take the
    ``"+"``-joined name and the row-major Cartesian product of their
    members' category labels (the same cell order as
    :meth:`~repro.data.domain.Domain.encode`).
    """
    if domain.width == 1:
        return domain.attributes[0]
    return Attribute(
        "+".join(domain.names),
        tuple(itertools.product(*(a.categories for a in domain.attributes))),
        NOMINAL,
    )


class CollectionLayout:
    """How a protocol's randomized records are collected and inverted.

    Parameters
    ----------
    schema:
        The *wire* schema — what parties' records (and wire frames)
        look like.
    clusters:
        Tuple of release units; each unit is a tuple of attribute
        names randomized jointly under one matrix. Units must be
        disjoint but need not cover the schema (an :class:`RRJoint`
        over a sub-domain leaves the rest uncovered — and unqueryable).
    """

    def __init__(self, schema: Schema, clusters: Sequence):
        units = tuple(tuple(str(n) for n in unit) for unit in clusters)
        if not units:
            raise ProtocolError("collection layout needs at least one cluster")
        seen: set = set()
        for unit in units:
            if not unit:
                raise ProtocolError("empty cluster in collection layout")
            for name in unit:
                if name in seen:
                    raise ProtocolError(
                        f"attribute {name!r} appears in two clusters"
                    )
                seen.add(name)
        self._schema = schema
        self._clusters = units
        self._domains = tuple(
            Domain.from_schema(schema, unit) for unit in units
        )
        self._positions = tuple(
            tuple(schema.position(n) for n in unit) for unit in units
        )
        self._cluster_names = tuple("+".join(unit) for unit in units)
        if len(set(self._cluster_names)) != len(self._cluster_names):
            raise ProtocolError("duplicate cluster names in collection layout")
        self._cluster_index = {
            name: k for k, unit in enumerate(units) for name in unit
        }
        self._collection_schema: "Schema | None" = None

    @classmethod
    def identity(cls, schema: Schema) -> "CollectionLayout":
        """The all-singleton layout: one release unit per attribute."""
        return cls(schema, tuple((name,) for name in schema.names))

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The wire schema the layout partitions."""
        return self._schema

    @property
    def clusters(self) -> tuple:
        return self._clusters

    @property
    def domains(self) -> tuple:
        """Per-cluster mixed-radix domains (width 1 for singletons)."""
        return self._domains

    @property
    def positions(self) -> tuple:
        """Per-cluster wire-schema column indices."""
        return self._positions

    @property
    def cluster_names(self) -> tuple:
        """Collection-schema attribute names (``"+"``-joined members)."""
        return self._cluster_names

    @property
    def width(self) -> int:
        """Number of release units."""
        return len(self._clusters)

    @property
    def member_names(self) -> tuple:
        """Every covered wire-schema attribute, in cluster order."""
        return tuple(
            name for unit in self._clusters for name in unit
        )

    @property
    def is_identity(self) -> bool:
        """True for the all-singleton, schema-ordered, full cover."""
        return self._cluster_names == self._schema.names

    def is_singleton(self, k: int) -> bool:
        return len(self._clusters[k]) == 1

    def cluster_of(self, name: str) -> int:
        """Index of the release unit covering attribute ``name``."""
        try:
            return self._cluster_index[name]
        except KeyError:
            raise ProtocolError(
                f"unknown attribute {name!r}; this layout covers "
                f"{self.member_names}"
            ) from None

    def collection_schema(self) -> Schema:
        """The schema the *collector* counts under: one (possibly
        fused) attribute per release unit. Identical to the wire schema
        for the identity layout."""
        if self._collection_schema is None:
            if self.is_identity:
                self._collection_schema = self._schema
            else:
                self._collection_schema = Schema(
                    _fused_attribute(domain) for domain in self._domains
                )
        return self._collection_schema

    def encode_records(self, codes: np.ndarray) -> np.ndarray:
        """Map wire-schema code rows to collection-schema code rows.

        ``(k, m)`` per-attribute codes become ``(k, width)`` per-unit
        codes (mixed-radix flattened for fused units). The identity
        layout returns the input array untouched — the hot ingestion
        path pays nothing for the generality.
        """
        batch = np.asarray(codes, dtype=np.int64)
        if batch.ndim != 2 or batch.shape[1] != self._schema.width:
            raise ProtocolError(
                f"records must have shape (k, {self._schema.width}), "
                f"got {batch.shape}"
            )
        if self.is_identity:
            return batch
        out = np.empty((batch.shape[0], self.width), dtype=np.int64)
        for k, (positions, domain) in enumerate(
            zip(self._positions, self._domains)
        ):
            if len(positions) == 1:
                out[:, k] = batch[:, positions[0]]
            else:
                out[:, k] = domain.encode(batch[:, positions])
        return out

    # ------------------------------------------------------------------
    # Query composition over per-cluster joint estimates (§4 rules:
    # marginalize within a cluster, independence across clusters).
    # ------------------------------------------------------------------
    def marginal_from_joints(self, joint_of, name: str) -> np.ndarray:
        """One attribute's marginal, given ``joint_of(k) -> joint``."""
        k = self.cluster_of(name)
        if self.is_singleton(k):
            return np.asarray(joint_of(k), dtype=np.float64)
        return self._domains[k].marginal_distribution(joint_of(k), [name])

    def pair_table_from_joints(
        self, joint_of, name_a: str, name_b: str
    ) -> np.ndarray:
        """Bivariate table: same cluster → marginalized joint; different
        clusters → independence (outer product), as §4 composes."""
        if name_a == name_b:
            raise ProtocolError("pair table needs two distinct attributes")
        k_a = self.cluster_of(name_a)
        k_b = self.cluster_of(name_b)
        if k_a == k_b:
            flat = self._domains[k_a].marginal_distribution(
                joint_of(k_a), [name_a, name_b]
            )
            return flat.reshape(
                self._schema.attribute(name_a).size,
                self._schema.attribute(name_b).size,
            )
        return np.outer(
            self.marginal_from_joints(joint_of, name_a),
            self.marginal_from_joints(joint_of, name_b),
        )

    def set_frequency_from_joints(
        self, joint_of, names: Sequence, cells: np.ndarray
    ) -> float:
        """Frequency of a cell set over arbitrary attributes: product
        of per-cluster restricted marginals, summed over cells."""
        name_list = [str(n) for n in names]
        if not name_list:
            raise ProtocolError("set frequency needs at least one attribute")
        if len(set(name_list)) != len(name_list):
            raise ProtocolError(f"duplicate attributes in {tuple(name_list)}")
        grid = np.asarray(cells, dtype=np.int64)
        if grid.ndim != 2 or grid.shape[1] != len(name_list):
            raise ProtocolError(
                f"cells must have shape (k, {len(name_list)}), got {grid.shape}"
            )
        if grid.shape[0] == 0:
            return 0.0
        by_cluster: dict = {}
        for position, name in enumerate(name_list):
            by_cluster.setdefault(self.cluster_of(name), []).append(
                (position, name)
            )
        total = np.ones(grid.shape[0], dtype=np.float64)
        for k, members in by_cluster.items():
            member_names = [name for _, name in members]
            positions = [pos for pos, _ in members]
            if self.is_singleton(k):
                restricted = np.asarray(joint_of(k), dtype=np.float64)
            else:
                restricted = self._domains[k].marginal_distribution(
                    joint_of(k), member_names
                )
            sub = Domain(
                [self._schema.attribute(n) for n in member_names]
            )
            total *= restricted[sub.encode(grid[:, positions])]
        return float(total.sum())

    def __repr__(self) -> str:
        inner = ", ".join(
            "{" + ",".join(unit) + "}" for unit in self._clusters
        )
        return f"CollectionLayout([{inner}])"


class Protocol(abc.ABC):
    """Abstract base class of every randomization protocol.

    Subclasses provide the design itself — :attr:`collection` and
    :attr:`matrices` — and set :attr:`design_tag` to register for
    design-document round trips. Everything else (randomization,
    privacy accounting, engine tasks, estimation, serialization) is
    derived here once, uniformly.
    """

    #: Design-document protocol tag (``None`` for abstract bases).
    design_tag: "str | None" = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Only a class that *declares* its own tag registers — a
        # subclass merely inheriting one (e.g. a test double extending
        # RRJoint) must not hijack the parent's design-document
        # deserialization process-wide.
        tag = cls.__dict__.get("design_tag")
        if tag is not None:
            registered = _DESIGN_REGISTRY.get(tag)
            if registered is not None and registered.__qualname__ != cls.__qualname__:
                raise ProtocolError(
                    f"design tag {tag!r} is already registered to "
                    f"{registered.__qualname__}"
                )
            _DESIGN_REGISTRY[tag] = cls

    # ------------------------------------------------------------------
    # The design (subclass responsibility)
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def collection(self) -> CollectionLayout:
        """The cluster structure randomized records are collected under."""

    @property
    @abc.abstractmethod
    def matrices(self) -> dict:
        """Cluster-aware ``{collection attribute name: matrix}`` design."""

    # ------------------------------------------------------------------
    # Derived, uniform surface
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self.collection.schema

    @property
    def epsilon(self) -> float:
        """Total budget: sequential composition over release units."""
        return self.accountant().total_epsilon

    def accountant(self) -> PrivacyAccountant:
        """Per-release privacy ledger (one entry per cluster)."""
        ledger = PrivacyAccountant()
        matrices = self.matrices  # property: one dict build, not per unit
        for name in self.collection.cluster_names:
            ledger.record(name, epsilon_of_matrix(matrices[name]))
        return ledger

    def engine_tasks(self) -> list:
        """One engine :class:`~repro.engine.executor.ColumnTask` per
        release unit (fused through the cluster domain when needed)."""
        from repro.engine.executor import ColumnTask

        layout = self.collection
        matrices = self.matrices
        tasks = []
        for positions, domain, name in zip(
            layout.positions, layout.domains, layout.cluster_names
        ):
            if len(positions) == 1:
                tasks.append(ColumnTask(positions, matrices[name]))
            else:
                tasks.append(ColumnTask(positions, matrices[name], domain))
        return tasks

    def randomize(
        self,
        dataset: Dataset,
        rng: "int | np.random.Generator | None" = None,
        *,
        chunk_size: "int | None" = None,
    ) -> Dataset:
        """Randomize every release unit; uncovered columns pass through.

        The default path (no ``chunk_size``) randomizes the units in
        layout order from one sequential generator and is byte-stable
        across library versions for a fixed seed. Giving ``chunk_size``
        routes through the chunked engine (O(chunk·r) memory), whose
        output is byte-identical for a fixed seed across every chunk
        size but lies in a different random stream than the default
        path.
        """
        if dataset.schema != self.schema:
            raise ProtocolError("dataset schema does not match protocol schema")
        if chunk_size is not None:
            from repro.engine.executor import run as engine_run

            codes = engine_run(
                dataset.codes,
                self.engine_tasks(),
                rng=rng,
                chunk_size=chunk_size,
            )
            return Dataset(self.schema, codes, copy=False)
        generator = ensure_rng(rng)
        layout = self.collection
        matrices = self.matrices
        codes = np.array(dataset.codes, copy=True)
        for positions, domain, name in zip(
            layout.positions, layout.domains, layout.cluster_names
        ):
            if len(positions) == 1:
                j = positions[0]
                codes[:, j] = randomize_column(
                    codes[:, j], matrices[name], generator
                )
            else:
                columns = list(positions)
                flat = domain.encode(codes[:, columns])
                released = randomize_column(flat, matrices[name], generator)
                codes[:, columns] = domain.decode(released)
        return Dataset(self.schema, codes, copy=False)

    def make_estimator(self) -> "ProtocolEstimator":
        """A fresh incremental estimator with the uniform query trio."""
        return ProtocolEstimator(self)

    def _absorbed(self, randomized: Dataset, repair: str) -> "ProtocolEstimator":
        """One estimator holding every released record of a dataset
        (``absorb`` refuses a foreign schema)."""
        if repair not in _REPAIRS:
            raise ProtocolError(
                f"repair must be one of {_REPAIRS}, got {repair!r}"
            )
        estimator = self.make_estimator()
        estimator.absorb(randomized)
        return estimator

    def estimate_marginal(
        self, randomized: Dataset, name: str, repair: str = "clip"
    ) -> np.ndarray:
        """Estimated marginal of one attribute from released data."""
        return self._absorbed(randomized, repair).marginal(name, repair)

    def estimate_pair_table(
        self,
        randomized: Dataset,
        name_a: str,
        name_b: str,
        repair: str = "clip",
    ) -> np.ndarray:
        """Estimated bivariate table of two attributes: the marginalized
        joint within a unit, the outer product across units (§4)."""
        return self._absorbed(randomized, repair).pair_table(
            name_a, name_b, repair
        )

    def estimate_set_frequency(
        self,
        randomized: Dataset,
        names: Sequence,
        cells: np.ndarray,
        repair: str = "clip",
    ) -> float:
        """Estimated relative frequency of a set of cells.

        ``cells`` is a ``(k, len(names))`` array of code combinations
        over ``names``; the estimate sums, over cells, the product of
        per-unit restricted marginals.
        """
        return self._absorbed(randomized, repair).set_frequency(
            names, cells, repair
        )

    def design_fingerprint(self) -> str:
        """Fingerprint of the full design (schema + every matrix)."""
        from repro.service.codec import design_fingerprint

        return design_fingerprint(
            self.schema, self.matrices, names=self.collection.cluster_names
        )

    # ------------------------------------------------------------------
    # Design documents
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _design_params(self) -> dict:
        """JSON-safe mechanism parameters reconstructing this design."""

    @classmethod
    @abc.abstractmethod
    def _from_design_params(cls, schema: Schema, params: Mapping) -> "Protocol":
        """Rebuild the protocol from validated design parameters."""

    @classmethod
    @abc.abstractmethod
    def _params_from_payload(cls, payload: Mapping, source: str) -> dict:
        """Extract and validate this protocol's parameters from a raw
        design-file payload (shared by v1 and v2 documents)."""

    def to_design(self, extra: "Mapping | None" = None):
        """This design as a versioned :class:`~repro.design.DesignDocument`.

        ``extra`` carries non-fingerprinted annotations (e.g. the
        record count a CLI run encoded). The document never contains a
        randomization seed: the party-side draws are data-independent,
        so a seed in collector hands would reveal which records were
        kept and void the RR guarantee.
        """
        from repro.design import DesignDocument

        if self.design_tag is None:  # pragma: no cover - abstract misuse
            raise ProtocolError(f"{type(self).__name__} has no design tag")
        document = DesignDocument(
            protocol=self.design_tag,
            schema=self.schema,
            params=self._design_params(),
            extra=dict(extra or {}),
        )
        # Seed the document's fingerprint from this live design, so
        # serializing it does not rebuild the protocol from scratch.
        object.__setattr__(
            document, "_fingerprint", self.design_fingerprint()
        )
        return document

    @classmethod
    def from_design(cls, source) -> "Protocol":
        """Rebuild a protocol from a design document.

        ``source`` is a :class:`~repro.design.DesignDocument`, a path
        to a design JSON file, or an already-parsed payload mapping.
        File and mapping sources are verified end to end (schema *and*
        design fingerprints) before anything is built; a
        ``DesignDocument`` instance is an in-process object and is
        trusted as-is. Called on a subclass, the document must describe
        that protocol.
        """
        from repro.design import DesignDocument, load_design, parse_design

        if isinstance(source, DesignDocument):
            protocol = source.build()
        elif isinstance(source, Mapping):
            protocol, _ = parse_design(source)
        else:
            protocol, _ = load_design(source)
        if cls is not Protocol and not isinstance(protocol, cls):
            raise ServiceError(
                f"design describes {type(protocol).__name__}, "
                f"not {cls.__name__}"
            )
        return protocol


class ProtocolEstimator:
    """Incremental estimator over a protocol's release units.

    The collector-shaped face of the query trio: absorb randomized
    records (whole datasets or raw ``(k, m)`` code batches) as they
    arrive, then answer ``marginal`` / ``pair_table`` /
    ``set_frequency`` at any point, in O(counts) memory. The batch
    ``estimate_*`` methods of :class:`Protocol` are this estimator
    after absorbing one dataset.
    """

    def __init__(self, protocol: Protocol):
        from repro.analysis.streaming import StreamingCollector

        self._layout = protocol.collection
        self._collector = StreamingCollector.for_protocol(protocol)

    @property
    def layout(self) -> CollectionLayout:
        return self._layout

    @property
    def collector(self):
        """The underlying :class:`~repro.analysis.streaming.StreamingCollector`."""
        return self._collector

    @property
    def n_observed(self) -> int:
        return self._collector.n_observed

    def absorb(self, randomized) -> None:
        """Fold in released records (a dataset or ``(k, m)`` codes)."""
        if isinstance(randomized, Dataset):
            if randomized.schema != self._layout.schema:
                raise ProtocolError(
                    "dataset schema does not match protocol schema"
                )
            codes = randomized.codes
        else:
            codes = np.asarray(randomized)
            if not np.issubdtype(codes.dtype, np.integer):
                raise ProtocolError(
                    f"codes must be integers, got dtype {codes.dtype}"
                )
            if codes.ndim != 2 or codes.shape[1] != self._layout.schema.width:
                raise ProtocolError(
                    f"codes must have shape (k, {self._layout.schema.width}),"
                    f" got {codes.shape}"
                )
            sizes = np.asarray(self._layout.schema.sizes, dtype=np.int64)
            if codes.size and (
                codes.min() < 0 or (codes >= sizes[None, :]).any()
            ):
                raise ProtocolError(
                    "codes out of range for the protocol schema"
                )
        # In range on the wire schema, so the fused codes are in range
        # on the collection schema.
        self._collector.receive_batch(
            self._layout.encode_records(codes), validated=True
        )

    # ------------------------------------------------------------------
    def joint(self, cluster, repair: str = "clip") -> np.ndarray:
        """Estimated joint distribution of one release unit.

        ``cluster`` is a layout index or a collection attribute name
        (``"a+b"``). For singleton units this is simply the marginal.
        """
        if isinstance(cluster, str):
            name = cluster
        else:
            names = self._layout.cluster_names
            if not 0 <= int(cluster) < len(names):
                raise ProtocolError(
                    f"cluster index {cluster} out of range for "
                    f"{len(names)} clusters"
                )
            name = names[int(cluster)]
        return self._collector.estimate_marginal(name, repair)

    def _joint_of(self, repair: str):
        return lambda k: self.joint(k, repair)

    def marginal(self, name: str, repair: str = "clip") -> np.ndarray:
        return self._layout.marginal_from_joints(self._joint_of(repair), name)

    def pair_table(
        self, name_a: str, name_b: str, repair: str = "clip"
    ) -> np.ndarray:
        return self._layout.pair_table_from_joints(
            self._joint_of(repair), name_a, name_b
        )

    def set_frequency(
        self, names: Sequence, cells: np.ndarray, repair: str = "clip"
    ) -> float:
        return self._layout.set_frequency_from_joints(
            self._joint_of(repair), names, cells
        )

    def __repr__(self) -> str:
        return (
            f"ProtocolEstimator(clusters={self._layout.width}, "
            f"n={self._collector.n_observed})"
        )
