"""Protocol 2 — RR-Joint (paper §3.2).

Each party randomizes the *tuple* of all her attribute values with one
matrix over the Cartesian-product domain and publishes the result. The
joint distribution is estimable without any independence assumption,
but the domain — and with it the estimation error (§3.3) — grows
exponentially with the number of attributes, so the protocol is only
usable on small attribute sets. RR-Clusters runs exactly this protocol
inside each cluster: its per-cluster designs are :class:`RRJoint`
instances over sub-schemas.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.matrices import cluster_matrix, keep_else_uniform_matrix
from repro.core.privacy import epsilon_for_keep_probability
from repro.data.dataset import Dataset
from repro.data.domain import Domain
from repro.data.schema import Schema
from repro.exceptions import ProtocolError, ServiceError
from repro.protocols.base import (
    CollectionLayout,
    Protocol,
    _validate_design_p,
)

__all__ = ["RRJoint"]

#: Joint domains beyond this size are refused: §3.3 shows the estimate
#: would be useless at any realistic n, and §6.2 rules the approach out
#: for exactly this reason (the Adult product has 1,814,400 cells,
#: deliberately above this limit).
MAX_JOINT_CELLS = 1_000_000


class RRJoint(Protocol):
    """Joint randomized response over a product domain.

    Parameters
    ----------
    schema:
        Full schema of the datasets that will be randomized.
    names:
        Attributes covered by this joint mechanism (``None`` = all).
        Protocol 2 uses all; RR-Clusters instantiates one ``RRJoint``
        per cluster with that cluster's names.
    p:
        Keep probability: the matrix is keep-else-uniform over the
        product domain. Mutually exclusive with ``attribute_epsilons``.
    attribute_epsilons:
        Per-attribute budgets ``eps_A``; the matrix is the §6.3.2
        cluster matrix achieving ``sum(eps_A)``-DP on the domain. This
        is the calibration that makes RR-Clusters risk-equivalent to
        RR-Independent with a given ``p``.
    """

    design_tag = "RR-Joint"

    def __init__(
        self,
        schema: Schema,
        names: Sequence | None = None,
        p: float | None = None,
        attribute_epsilons: Sequence | None = None,
    ):
        if (p is None) == (attribute_epsilons is None):
            raise ProtocolError(
                "provide exactly one of p or attribute_epsilons"
            )
        self._schema = schema
        self._domain = Domain.from_schema(schema, names)
        self._p = None if p is None else float(p)
        self._attribute_epsilons = (
            None
            if attribute_epsilons is None
            else tuple(float(e) for e in attribute_epsilons)
        )
        self._layout: "CollectionLayout | None" = None
        if self._domain.size > MAX_JOINT_CELLS:
            raise ProtocolError(
                f"joint domain has {self._domain.size} cells, beyond the "
                f"practical limit {MAX_JOINT_CELLS}; use RR-Clusters (§4) "
                "instead — this is precisely the curse of dimensionality "
                "the paper addresses"
            )
        if p is not None:
            self._matrix = keep_else_uniform_matrix(self._domain.size, p)
        else:
            eps = [float(e) for e in attribute_epsilons]
            if len(eps) != self._domain.width:
                raise ProtocolError(
                    f"got {len(eps)} epsilons for {self._domain.width} attributes"
                )
            self._matrix = cluster_matrix(self._domain.sizes, eps)

    @classmethod
    def calibrated_to_independent(
        cls, schema: Schema, names: Sequence | None, p: float
    ) -> "RRJoint":
        """The §6.3.2 design: same total budget as RR-Independent at ``p``.

        Builds the joint matrix from the per-attribute epsilons that
        keep-else-uniform RR with keep probability ``p`` would spend.
        """
        domain = Domain.from_schema(schema, names)
        eps = [
            epsilon_for_keep_probability(attr.size, p)
            for attr in domain.attributes
        ]
        return cls(schema, names=domain.names, attribute_epsilons=eps)

    # ------------------------------------------------------------------
    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def collection(self) -> CollectionLayout:
        """One release unit: the whole covered product domain."""
        if self._layout is None:
            self._layout = CollectionLayout(
                self._schema, (self._domain.names,)
            )
        return self._layout

    @property
    def cluster_name(self) -> str:
        """Collection-schema name of the single release unit."""
        return "+".join(self._domain.names)

    @property
    def matrices(self) -> dict:
        """The cluster-aware design: one fused entry for the domain."""
        return {self.cluster_name: self._matrix}

    # epsilon / accountant / randomize / the estimate trio: inherited
    # from Protocol over the single release unit.

    def estimate_joint(
        self, randomized: Dataset, repair: str = "clip"
    ) -> np.ndarray:
        """Eq. (2) estimate of the joint distribution over the domain.

        Returns a flat vector over the product domain; use
        :meth:`Domain.decode`/:meth:`Domain.marginal_distribution` to
        reshape or marginalize.
        """
        return self._absorbed(randomized, repair).joint(0, repair)

    # ------------------------------------------------------------------
    def _design_params(self) -> dict:
        params: dict = {"names": list(self._domain.names)}
        if self._p is not None:
            params["p"] = self._p
        else:
            params["attribute_epsilons"] = list(self._attribute_epsilons)
        return params

    @classmethod
    def _from_design_params(cls, schema: Schema, params: Mapping) -> "RRJoint":
        names = params.get("names")
        if "p" in params:
            return cls(schema, names=names, p=params["p"])
        return cls(
            schema,
            names=names,
            attribute_epsilons=params["attribute_epsilons"],
        )

    @classmethod
    def _params_from_payload(cls, payload: Mapping, source: str) -> dict:
        names = payload.get("names")
        if names is not None and not (
            isinstance(names, list) and all(isinstance(n, str) for n in names)
        ):
            raise ServiceError(
                f"{source}: names must be a list of attribute names, "
                f"got {names!r}"
            )
        has_p = "p" in payload
        has_eps = "attribute_epsilons" in payload
        if has_p == has_eps:
            raise ServiceError(
                f"{source}: an RR-Joint design carries exactly one of "
                "p or attribute_epsilons"
            )
        params: dict = {} if names is None else {"names": list(names)}
        if has_p:
            params["p"] = _validate_design_p(payload, source)
        else:
            eps = payload["attribute_epsilons"]
            if not isinstance(eps, list) or not all(
                isinstance(e, (int, float)) and e > 0 for e in eps
            ):
                raise ServiceError(
                    f"{source}: attribute_epsilons must be a list of "
                    f"positive numbers, got {eps!r}"
                )
            params["attribute_epsilons"] = [float(e) for e in eps]
        return params

    def __repr__(self) -> str:
        return f"RRJoint(domain={self._domain!r})"
