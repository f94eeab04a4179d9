"""Hypothesis property tests for the extension modules (risk, streaming,
k-way marginals)."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.marginals import kway_marginal_from_clusters
from repro.analysis.streaming import StreamingCollector
from repro.clustering.algorithm import Clustering
from repro.core.matrices import keep_else_uniform_matrix
from repro.core.privacy import epsilon_of_matrix
from repro.core.risk import (
    bayes_vulnerability,
    expected_posterior_entropy,
    posterior_matrix,
    posterior_to_prior_odds_bound,
)
from repro.data.dataset import Dataset
from repro.data.schema import Attribute, Schema
from repro.protocols.clusters import RRClusters

sizes = st.integers(min_value=2, max_value=10)
keeps = st.floats(min_value=0.05, max_value=1.0)
seeds = st.integers(0, 2**31 - 1)


def _prior(r, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(r))


class TestRiskProperties:
    @given(r=sizes, p=keeps, seed=seeds)
    def test_posterior_columns_proper(self, r, p, seed):
        matrix = keep_else_uniform_matrix(r, p)
        prior = _prior(r, seed)
        post = posterior_matrix(matrix, prior)
        assert (post >= -1e-12).all()
        np.testing.assert_allclose(post.sum(axis=0), 1.0, atol=1e-9)

    @given(r=sizes, p=keeps, seed=seeds)
    def test_vulnerability_bounds(self, r, p, seed):
        matrix = keep_else_uniform_matrix(r, p)
        prior = _prior(r, seed)
        vulnerability = bayes_vulnerability(matrix, prior)
        # between guessing from the prior and full disclosure
        assert prior.max() - 1e-9 <= vulnerability <= 1.0 + 1e-9

    @given(r=sizes, p=st.floats(min_value=0.05, max_value=0.99), seed=seeds)
    def test_entropy_bounds(self, r, p, seed):
        matrix = keep_else_uniform_matrix(r, p)
        prior = _prior(r, seed)
        entropy = expected_posterior_entropy(matrix, prior)
        prior_entropy = float(
            -(prior[prior > 0] * np.log2(prior[prior > 0])).sum()
        )
        assert -1e-9 <= entropy <= prior_entropy + 1e-9

    @given(r=sizes, p=st.floats(min_value=0.05, max_value=0.99))
    def test_odds_bound_is_exp_epsilon(self, r, p):
        matrix = keep_else_uniform_matrix(r, p)
        assert math.isclose(
            posterior_to_prior_odds_bound(matrix),
            math.exp(epsilon_of_matrix(matrix)),
            rel_tol=1e-9,
        )


class TestStreamingProperties:
    @given(
        r=sizes,
        p=st.floats(min_value=0.1, max_value=0.99),
        seed=seeds,
        splits=st.integers(1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_invariance(self, r, p, seed, splits):
        # estimation is invariant to how the stream is chunked
        schema = Schema([Attribute("a", tuple(range(r)))])
        matrices = {"a": keep_else_uniform_matrix(r, p)}
        values = np.random.default_rng(seed).integers(0, r, (200, 1))
        whole = StreamingCollector(schema, matrices)
        whole.receive_batch(values)
        chunked = StreamingCollector(schema, matrices)
        for chunk in np.array_split(values, splits):
            chunked.receive_batch(chunk)
        np.testing.assert_array_equal(whole.counts, chunked.counts)
        np.testing.assert_allclose(
            whole.estimate_marginal("a"), chunked.estimate_marginal("a")
        )


class TestMarginalProperties:
    @given(seed=seeds, p=st.floats(min_value=0.3, max_value=0.95))
    @settings(max_examples=25, deadline=None)
    def test_kway_marginal_proper_and_consistent(self, seed, p):
        rng = np.random.default_rng(seed)
        schema = Schema(
            [
                Attribute("x", tuple(range(2))),
                Attribute("y", tuple(range(3))),
                Attribute("z", tuple(range(2))),
            ]
        )
        codes = np.stack(
            [
                rng.integers(0, 2, 150),
                rng.integers(0, 3, 150),
                rng.integers(0, 2, 150),
            ],
            axis=1,
        )
        ds = Dataset(schema, codes)
        clustering = Clustering(schema=schema, clusters=(("x", "y"), ("z",)))
        protocol = RRClusters(clustering, p=p)
        estimates = protocol.estimate(protocol.randomize(ds, rng))
        marginal = kway_marginal_from_clusters(estimates, ["x", "y", "z"])
        assert (marginal >= -1e-12).all()
        assert math.isclose(marginal.sum(), 1.0, rel_tol=1e-9)
        # marginalizing the k-way result back to one attribute matches
        # the direct marginal estimate
        grid = marginal.reshape(2, 3, 2)
        np.testing.assert_allclose(
            grid.sum(axis=(1, 2)), estimates.marginal("x"), atol=1e-9
        )
