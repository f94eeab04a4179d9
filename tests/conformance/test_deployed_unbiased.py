"""Statistical conformance of estimates served through the deployed path.

Each replication runs the whole deployment for one protocol: the
parties randomize a fixed true dataset, encode the released records as
wire frames, a fresh :class:`CollectorService` (built from the parsed
design document, as the CLI builds it) journals and counts them, and
its :class:`QueryFrontend` answers every covered marginal with
``repair="none"`` — the raw Eq. (2) estimate, which is unbiased.

**Unbiasedness bound.** Given the true records, the released codes of a
unit are independent across records, so ``E[lambda_hat] = P^T pi`` with
``pi`` the unit's true empirical distribution, and Eq. (2) is linear:
``E[pi_hat] = pi`` exactly. Record ``i`` contributes a categorical draw
from row ``P[x_i]``, so ``n Cov(lambda_hat) = diag(lambda) - P^T
diag(pi) P`` exactly, and ``Cov(pi_hat) = (P^T)^-1 Cov(lambda_hat)
P^-1``. A marginal cell of a fused unit sums the joint cells it covers,
so its variance is the sum of that covariance block. The mean of ``R``
independent replications has standard error ``sqrt(Var / R)`` and, by
the CLT, ``z = (mean - truth) / se`` is close to standard normal.
Testing ``K = 45`` cells (15 per protocol) with a family-wise
false-failure rate ``alpha = 1e-3``, Bonferroni gives the two-sided
bound ``|z| <= Phi^-1(1 - alpha / (2K)) = 4.24``.

**Budget.** The ε the design document states must be the ε the service
applies: ``DesignDocument.build().epsilon`` equals the sum of
:func:`epsilon_of_matrix` over the matrices the service's collector
actually inverts.
"""

from __future__ import annotations

import json
from statistics import NormalDist

import numpy as np
import pytest

from repro.clustering.algorithm import Clustering
from repro.core.matrices import ConstantDiagonalMatrix
from repro.core.privacy import epsilon_of_matrix
from repro.data.adult import synthesize_adult
from repro.design import DesignDocument
from repro.protocols import RRClusters, RRIndependent, RRJoint
from repro.service.codec import ReportCodec
from repro.service.pipeline import CollectorService

NAMES = ("relationship", "race", "sex", "income")
N_RECORDS = 1_500
REPLICATIONS = 100
FRAME_RECORDS = 500
ALPHA = 1e-3
#: Marginal cells tested over all three protocols (6 + 5 + 2 + 2 each),
#: fixed so the bound does not depend on which cases a run selects.
N_CELLS = 3 * 15


def _z_bound(n_cells: int) -> float:
    return NormalDist().inv_cdf(1.0 - ALPHA / (2.0 * n_cells))


@pytest.fixture(scope="module")
def truth():
    return synthesize_adult(n=N_RECORDS, rng=4242).select(list(NAMES))


def _protocol(kind: str, schema):
    if kind == "independent":
        return RRIndependent(schema, p=0.6)
    if kind == "joint":
        return RRJoint.calibrated_to_independent(schema, None, p=0.8)
    clustering = Clustering(
        schema=schema,
        clusters=(("relationship", "sex"), ("race",), ("income",)),
    )
    return RRClusters(clustering, p=0.6)


def _deployed_design(protocol) -> DesignDocument:
    """The design as the collector side reads it: JSON text, parsed."""
    payload = json.loads(protocol.to_design().to_json())
    return DesignDocument.from_payload(payload)


def _dense(matrix) -> np.ndarray:
    if isinstance(matrix, ConstantDiagonalMatrix):
        return matrix.dense()
    return np.asarray(matrix, dtype=np.float64)


def _marginal_variances(protocol, truth, name: str) -> np.ndarray:
    """Exact per-cell ``Var(pi_hat)`` of one attribute's marginal."""
    layout = protocol.collection
    k = layout.cluster_of(name)
    domain = layout.domains[k]
    matrix = _dense(protocol.matrices[layout.cluster_names[k]])
    pi = np.bincount(
        domain.encode(truth.columns(domain.names)), minlength=domain.size
    ) / truth.n_records
    lam = matrix.T @ pi
    cov_lambda = (np.diag(lam) - matrix.T @ np.diag(pi) @ matrix) / (
        truth.n_records
    )
    inv_t = np.linalg.inv(matrix.T)
    cov = inv_t @ cov_lambda @ inv_t.T
    cell_of = domain.decode(np.arange(domain.size))[
        :, domain.names.index(name)
    ]
    return np.array(
        [
            cov[np.ix_(cell_of == c, cell_of == c)].sum()
            for c in range(truth.schema.attribute(name).size)
        ]
    )


@pytest.mark.parametrize("kind", ["independent", "joint", "clusters"])
def test_deployed_marginals_are_unbiased(kind, truth, tmp_path):
    protocol = _protocol(kind, truth.schema)
    collector_protocol = _deployed_design(protocol).build()
    codec = ReportCodec(truth.schema)
    names = protocol.collection.member_names
    sums = {name: 0.0 for name in names}
    for replication in range(REPLICATIONS):
        released = protocol.randomize(truth, rng=1000 + replication)
        frames = [
            codec.encode(released.codes[start : start + FRAME_RECORDS])
            for start in range(0, released.n_records, FRAME_RECORDS)
        ]
        service = CollectorService.for_protocol(
            collector_protocol, tmp_path / f"state-{replication}"
        )
        try:
            service.ingest(frames)
            for name in names:
                sums[name] = sums[name] + service.queries.marginal(
                    name, repair="none"
                )
        finally:
            service.close()

    bound = _z_bound(N_CELLS)
    for name in names:
        mean = sums[name] / REPLICATIONS
        expected = truth.marginal_distribution(name)
        se = np.sqrt(
            _marginal_variances(protocol, truth, name) / REPLICATIONS
        )
        z = (mean - expected) / se
        assert np.abs(z).max() <= bound, (name, z, bound)


@pytest.mark.parametrize("kind", ["independent", "joint", "clusters"])
def test_design_epsilon_is_applied_epsilon(kind, truth, tmp_path):
    protocol = _protocol(kind, truth.schema)
    document = _deployed_design(protocol)
    service = CollectorService.for_protocol(document.build(), tmp_path / "s")
    try:
        applied = sum(
            epsilon_of_matrix(matrix)
            for matrix in service.collector.matrices.values()
        )
    finally:
        service.close()
    assert document.build().epsilon == pytest.approx(applied, rel=1e-12)
    assert protocol.epsilon == pytest.approx(applied, rel=1e-12)
