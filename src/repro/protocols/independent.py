"""Protocol 1 — RR-Independent (paper §3.1).

Each party randomizes every attribute separately with its own matrix
``P_j`` and publishes the result. The collector estimates each marginal
with Eq. (2); the joint frequency of a set ``S`` is then estimated
*under the independence assumption* as the sum over cells of the
product of marginals — the source of the accuracy loss RR-Clusters and
RR-Adjustment later repair.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro._rng import ensure_rng
from repro.core.estimation import estimate_from_responses
from repro.core.matrices import ConstantDiagonalMatrix, keep_else_uniform_matrix
from repro.core.mechanism import randomize_column
from repro.core.projection import clip_and_rescale
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.exceptions import ProtocolError, ServiceError
from repro.protocols.base import (
    CollectionLayout,
    Protocol,
    _validate_design_p,
)

__all__ = ["RRIndependent"]

_REPAIRS = ("clip", "none")


def _repair(estimate: np.ndarray, repair: str) -> np.ndarray:
    if repair == "clip":
        return clip_and_rescale(estimate)
    if repair == "none":
        return estimate
    raise ProtocolError(f"repair must be one of {_REPAIRS}, got {repair!r}")


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
    def schema(self) -> Schema:
        return self._schema

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

    # epsilon / accountant: inherited from Protocol — sequential
    # composition over the (here: singleton) release units (§4).

    # ------------------------------------------------------------------
    def engine_tasks(self) -> list:
        """One single-column engine task per attribute."""
        from repro.engine.executor import single_column_tasks

        return single_column_tasks(self._schema, self._matrices)

    def randomize(
        self,
        dataset: Dataset,
        rng: "int | np.random.Generator | None" = None,
        *,
        chunk_size: int | None = None,
        workers: int = 1,
    ) -> Dataset:
        """Run the randomization step of Protocol 1 on a dataset.

        The default path (no ``chunk_size``, one worker) randomizes
        each column in one shot from a shared sequential generator and
        is byte-stable across library versions for a fixed seed. Giving
        ``chunk_size`` and/or ``workers`` routes through the chunked
        engine (O(chunk·r) memory, optional process fan-out) whose
        output is byte-identical for a fixed seed across every
        chunk-size/worker combination — but lies in a different random
        stream than the default path.
        """
        if dataset.schema != self._schema:
            raise ProtocolError("dataset schema does not match protocol schema")
        if chunk_size is None and workers == 1:
            generator = ensure_rng(rng)
            columns = [
                randomize_column(
                    dataset.column(attr.name), self._matrices[attr.name], generator
                )
                for attr in self._schema
            ]
            return Dataset(self._schema, np.stack(columns, axis=1), copy=False)
        from repro.engine.executor import run as engine_run

        result = engine_run(
            dataset.codes,
            self.engine_tasks(),
            rng=rng,
            chunk_size=chunk_size,
            workers=workers,
        )
        return Dataset(self._schema, result.codes, copy=False)

    # ------------------------------------------------------------------
    def estimate_marginal(
        self,
        randomized: Dataset,
        name: str,
        repair: str = "clip",
        *,
        chunk_size: int | None = None,
        workers: int = 1,
    ) -> np.ndarray:
        """Eq. (2) estimate of one attribute's true marginal."""
        if randomized.schema != self._schema:
            raise ProtocolError("dataset schema does not match protocol schema")
        if chunk_size is None and workers == 1:
            estimate = estimate_from_responses(
                randomized.column(name), self.matrix_for(name)
            )
            return _repair(estimate, repair)
        from repro.engine.executor import ColumnTask, count_and_estimate

        task = ColumnTask((self._schema.position(name),), self.matrix_for(name))
        estimate = count_and_estimate(
            randomized.codes, [task], chunk_size=chunk_size, workers=workers
        )[0]
        return _repair(estimate, repair)

    def estimate_marginals(
        self,
        randomized: Dataset,
        repair: str = "clip",
        *,
        chunk_size: int | None = None,
        workers: int = 1,
    ) -> dict:
        """All marginal estimates, keyed by attribute name."""
        if chunk_size is None and workers == 1:
            return {
                attr.name: self.estimate_marginal(randomized, attr.name, repair)
                for attr in self._schema
            }
        if randomized.schema != self._schema:
            raise ProtocolError("dataset schema does not match protocol schema")
        from repro.engine.executor import count_and_estimate

        estimates = count_and_estimate(
            randomized.codes,
            self.engine_tasks(),
            chunk_size=chunk_size,
            workers=workers,
        )
        return {
            attr.name: _repair(estimate, repair)
            for attr, estimate in zip(self._schema, estimates)
        }

    def estimate_pair_table(
        self,
        randomized: Dataset,
        name_a: str,
        name_b: str,
        repair: str = "clip",
        *,
        chunk_size: int | None = None,
        workers: int = 1,
    ) -> np.ndarray:
        """Estimated bivariate distribution of two attributes.

        Under Protocol 1's independence assumption this is the outer
        product of the marginal estimates (§3.1, step 10).
        """
        if name_a == name_b:
            raise ProtocolError("pair table needs two distinct attributes")
        pi_a = self.estimate_marginal(
            randomized, name_a, repair, chunk_size=chunk_size, workers=workers
        )
        pi_b = self.estimate_marginal(
            randomized, name_b, repair, chunk_size=chunk_size, workers=workers
        )
        return np.outer(pi_a, pi_b)

    def estimate_set_frequency(
        self,
        randomized: Dataset,
        names: Sequence,
        cells: np.ndarray,
        repair: str = "clip",
        *,
        chunk_size: int | None = None,
        workers: int = 1,
    ) -> float:
        """Estimated relative frequency of ``S`` (§3.1, step 10).

        Parameters
        ----------
        names:
            Attributes defining the set.
        cells:
            ``(k, len(names))`` array of code combinations in ``S``.
        """
        marginals = [
            self.estimate_marginal(
                randomized, n, repair, chunk_size=chunk_size, workers=workers
            )
            for n in names
        ]
        grid = np.asarray(cells, dtype=np.int64)
        if grid.ndim != 2 or grid.shape[1] != len(marginals):
            raise ProtocolError(
                f"cells must have shape (k, {len(marginals)}), got {grid.shape}"
            )
        total = 0.0
        for row in grid:
            product = 1.0
            for value, marginal in zip(row, marginals):
                product *= marginal[value]
            total += product
        return float(total)

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
