"""RR-Clusters (paper §4).

Attributes are partitioned into clusters of mutually dependent
attributes (Algorithm 1); RR-Joint runs *inside* each cluster with the
§6.3.2 matrix calibrated so the whole design spends exactly the budget
RR-Independent would spend at the same keep probability ``p``; across
clusters, independence is assumed. RR-Independent is the special case
of all-singleton clusters (and the implementation collapses to it
exactly — tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.clustering.algorithm import Clustering, cluster_attributes
from repro.clustering.estimators import DependenceEstimate, exact_dependences
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.exceptions import ProtocolError, ServiceError
from repro.protocols.base import (
    CollectionLayout,
    Protocol,
    _validate_design_p,
)
from repro.protocols.joint import RRJoint

__all__ = ["RRClusters", "ClusterEstimates"]


@dataclass(frozen=True)
class ClusterEstimates:
    """Per-cluster joint estimates for one randomized dataset.

    Computing the Eq. (2) inversion once per cluster and reusing it for
    every downstream query is what keeps the evaluation loops cheap;
    this object is that cache, plus the §4 composition rules for
    queries that span clusters.
    """

    clustering: Clustering
    domains: tuple
    joints: tuple

    @cached_property
    def _layout(self) -> CollectionLayout:
        return CollectionLayout(self.clustering.schema, self.clustering.clusters)

    def marginal(self, name: str) -> np.ndarray:
        """Estimated marginal of one attribute."""
        return self._layout.marginal_from_joints(self.joints.__getitem__, name)

    def pair_table(self, name_a: str, name_b: str) -> np.ndarray:
        """Estimated bivariate distribution of two attributes.

        Same cluster: marginalize that cluster's joint. Different
        clusters: independence across clusters (§4), outer product.
        """
        return self._layout.pair_table_from_joints(
            self.joints.__getitem__, name_a, name_b
        )

    def set_frequency(self, names: Sequence, cells: np.ndarray) -> float:
        """Estimated relative frequency of a set over arbitrary attributes.

        Cells are grouped by cluster; the estimate is the sum over
        cells of the product of per-cluster restricted marginals
        (cost O(l) per cell, §4's estimation step).
        """
        return self._layout.set_frequency_from_joints(
            self.joints.__getitem__, names, cells
        )


class RRClusters(Protocol):
    """Cluster-wise joint randomized response.

    Parameters
    ----------
    clustering:
        Partition from Algorithm 1 (or hand-built).
    p:
        Keep probability of the RR-Independent design this protocol is
        risk-calibrated against (§6.3.2): each cluster gets the optimal
        constant-diagonal matrix achieving the *sum* of its attributes'
        RR-Independent epsilons.
    """

    design_tag = "RR-Clusters"

    def __init__(self, clustering: Clustering, p: float):
        if not 0.0 < p < 1.0:
            raise ProtocolError(f"p must be in (0, 1), got {p}")
        self._clustering = clustering
        self._p = float(p)
        self._layout: "CollectionLayout | None" = None
        self._joints = tuple(
            RRJoint.calibrated_to_independent(
                clustering.schema, cluster, p
            )
            for cluster in clustering.clusters
        )

    @classmethod
    def design(
        cls,
        dataset: Dataset,
        p: float,
        max_cells: int,
        min_dependence: float,
        dependences: DependenceEstimate | None = None,
    ) -> "RRClusters":
        """Design the protocol for a dataset: estimate dependences (the
        §4.2 exact estimate by default), run Algorithm 1, calibrate.

        Pass an explicit :class:`DependenceEstimate` (e.g. from
        :func:`repro.clustering.estimators.randomized_dependences`) to
        use one of the privacy-preserving estimators instead.
        """
        estimate = dependences if dependences is not None else exact_dependences(dataset)
        clustering = cluster_attributes(
            dataset.schema, estimate.matrix, max_cells, min_dependence
        )
        return cls(clustering, p)

    # ------------------------------------------------------------------
    @property
    def clustering(self) -> Clustering:
        return self._clustering

    @property
    def p(self) -> float:
        return self._p

    @property
    def collection(self) -> CollectionLayout:
        """One release unit per cluster of the partition."""
        if self._layout is None:
            self._layout = CollectionLayout(
                self._clustering.schema, self._clustering.clusters
            )
        return self._layout

    @property
    def matrices(self) -> dict:
        """Cluster-aware design: one fused matrix per cluster, keyed by
        the ``"+"``-joined member names."""
        return {
            "+".join(cluster): joint._matrix
            for cluster, joint in zip(self._clustering.clusters, self._joints)
        }

    # epsilon / accountant / randomize / the estimate trio: inherited
    # from Protocol — one joint release per cluster, sequentially
    # composed.

    def cluster_mechanisms(self) -> tuple:
        """The per-cluster :class:`~repro.protocols.joint.RRJoint` designs."""
        return self._joints

    # ------------------------------------------------------------------
    def estimate(
        self, randomized: Dataset, repair: str = "clip"
    ) -> ClusterEstimates:
        """Eq. (2) estimates of every cluster's joint distribution."""
        estimator = self._absorbed(randomized, repair)
        layout = self.collection
        return ClusterEstimates(
            clustering=self._clustering,
            domains=layout.domains,
            joints=tuple(
                estimator.joint(k, repair) for k in range(layout.width)
            ),
        )

    # ------------------------------------------------------------------
    def _design_params(self) -> dict:
        return {
            "p": self._p,
            "clusters": [list(cluster) for cluster in self._clustering.clusters],
        }

    @classmethod
    def _from_design_params(cls, schema: Schema, params: Mapping) -> "RRClusters":
        clustering = Clustering(
            schema=schema,
            clusters=tuple(tuple(c) for c in params["clusters"]),
        )
        return cls(clustering, p=params["p"])

    @classmethod
    def _params_from_payload(cls, payload: Mapping, source: str) -> dict:
        p = _validate_design_p(payload, source)
        clusters = payload.get("clusters")
        if not (
            isinstance(clusters, list)
            and clusters
            and all(
                isinstance(c, list)
                and c
                and all(isinstance(n, str) for n in c)
                for c in clusters
            )
        ):
            raise ServiceError(
                f"{source}: clusters must be a non-empty list of non-empty "
                f"attribute-name lists, got {clusters!r}"
            )
        return {
            "p": p,
            "clusters": [list(c) for c in clusters],
        }

    def __repr__(self) -> str:
        inner = ", ".join(
            "{" + ",".join(cluster) + "}" for cluster in self._clustering.clusters
        )
        return f"RRClusters(p={self._p}, clusters=[{inner}])"
