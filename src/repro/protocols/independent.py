"""Protocol 1 — RR-Independent (paper §3.1).

Each party randomizes every attribute separately with its own matrix
``P_j`` and publishes the result. The collector estimates each marginal
with Eq. (2); the joint frequency of a set ``S`` is then estimated
*under the independence assumption* as the sum over cells of the
product of marginals — the source of the accuracy loss RR-Clusters and
RR-Adjustment later repair.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.matrices import ConstantDiagonalMatrix, keep_else_uniform_matrix
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.exceptions import ProtocolError, ServiceError
from repro.protocols.base import (
    CollectionLayout,
    Protocol,
    _validate_design_p,
)

__all__ = ["RRIndependent"]


class RRIndependent(Protocol):
    """Separate randomized response per attribute.

    Parameters
    ----------
    schema:
        Attributes of the data to protect.
    p:
        Keep probability of the §6.3.1 keep-else-uniform matrix used
        for every attribute. Mutually exclusive with ``matrices``.
    matrices:
        Optional explicit ``{attribute name: matrix}`` mapping (any mix
        of :class:`~repro.core.matrices.ConstantDiagonalMatrix` and
        dense arrays) for callers that need non-uniform designs.
    """

    design_tag = "RR-Independent"

    def __init__(
        self,
        schema: Schema,
        p: float | None = None,
        matrices: Mapping | None = None,
    ):
        if (p is None) == (matrices is None):
            raise ProtocolError("provide exactly one of p or matrices")
        self._schema = schema
        self._p = None if p is None else float(p)
        self._layout: "CollectionLayout | None" = None
        if p is not None:
            self._matrices = {
                attr.name: keep_else_uniform_matrix(attr.size, p)
                for attr in schema
            }
        else:
            unknown = set(matrices) - set(schema.names)
            if unknown:
                raise ProtocolError(f"matrices for unknown attributes: {unknown}")
            missing = set(schema.names) - set(matrices)
            if missing:
                raise ProtocolError(f"matrices missing for attributes: {missing}")
            self._matrices = {}
            for attr in schema:
                matrix = matrices[attr.name]
                size = (
                    matrix.size
                    if isinstance(matrix, ConstantDiagonalMatrix)
                    else np.asarray(matrix).shape[0]
                )
                if size != attr.size:
                    raise ProtocolError(
                        f"matrix for {attr.name!r} has size {size}, expected "
                        f"{attr.size}"
                    )
                self._matrices[attr.name] = matrix

    # ------------------------------------------------------------------
    @property
    def collection(self) -> CollectionLayout:
        """All-singleton layout: every attribute is its own release unit."""
        if self._layout is None:
            self._layout = CollectionLayout.identity(self._schema)
        return self._layout

    @property
    def p(self) -> "float | None":
        """Keep probability of the uniform design (``None`` when built
        from explicit matrices)."""
        return self._p

    def matrix_for(self, name: str):
        """The randomization matrix of one attribute."""
        if name not in self._matrices:
            raise ProtocolError(f"unknown attribute {name!r}")
        return self._matrices[name]

    @property
    def matrices(self) -> dict:
        """The full ``{attribute name: matrix}`` design (copy).

        The export hook for ``for_protocol``-style constructions: a
        collector, service, or checkpoint validator needs the whole
        design at once, not one ``matrix_for`` lookup per attribute.
        """
        return dict(self._matrices)

    # epsilon / accountant / randomize / the estimate trio: inherited
    # from Protocol over the (here: singleton) release units.

    def estimate_marginals(
        self, randomized: Dataset, repair: str = "clip"
    ) -> dict:
        """All marginal estimates, keyed by attribute name."""
        estimator = self._absorbed(randomized, repair)
        return {
            name: estimator.marginal(name, repair)
            for name in self._schema.names
        }

    # ------------------------------------------------------------------
    def _design_params(self) -> dict:
        if self._p is None:
            raise ServiceError(
                "an RRIndependent design built from explicit matrices has "
                "no serializable parameters; construct with p=... to write "
                "a design document"
            )
        return {"p": self._p}

    @classmethod
    def _from_design_params(cls, schema: Schema, params: Mapping) -> "RRIndependent":
        return cls(schema, p=params["p"])

    @classmethod
    def _params_from_payload(cls, payload: Mapping, source: str) -> dict:
        return {"p": _validate_design_p(payload, source)}

    def __repr__(self) -> str:
        return f"RRIndependent(m={self._schema.width})"
