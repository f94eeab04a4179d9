"""Tests for RR-Clusters (§4)."""

import numpy as np
import pytest

from repro.clustering.algorithm import Clustering
from repro.clustering.estimators import randomized_dependences
from repro.exceptions import ProtocolError
from repro.protocols.clusters import RRClusters
from repro.protocols.independent import RRIndependent


@pytest.fixture
def paired_clustering(small_schema):
    return Clustering(
        schema=small_schema, clusters=(("flag",), ("level", "color"))
    )


class TestConstruction:
    def test_design_from_dataset(self, adult_small):
        protocol = RRClusters.design(
            adult_small, p=0.7, max_cells=50, min_dependence=0.1
        )
        assert protocol.clustering.max_cluster_cells() <= 50
        # Adult has strong ties; something must have merged
        assert not protocol.clustering.is_singleton()

    def test_design_with_private_dependences(self, adult_tiny):
        deps = randomized_dependences(adult_tiny, p=0.8, rng=3)
        protocol = RRClusters.design(
            adult_tiny, p=0.7, max_cells=50, min_dependence=0.1,
            dependences=deps,
        )
        assert protocol.clustering.max_cluster_cells() <= 50

    def test_bad_p_rejected(self, paired_clustering):
        with pytest.raises(ProtocolError, match="p must be"):
            RRClusters(paired_clustering, p=1.0)


class TestPrivacyCalibration:
    def test_epsilon_equals_rr_independent(self, paired_clustering):
        # §6.3.2's purpose: same total budget as RR-Independent at p.
        for p in (0.1, 0.5, 0.7):
            clustered = RRClusters(paired_clustering, p=p)
            independent = RRIndependent(paired_clustering.schema, p=p)
            assert clustered.epsilon == pytest.approx(independent.epsilon)

    def test_adult_calibration(self, adult_small):
        protocol = RRClusters.design(
            adult_small, p=0.5, max_cells=100, min_dependence=0.1
        )
        independent = RRIndependent(adult_small.schema, p=0.5)
        assert protocol.epsilon == pytest.approx(independent.epsilon)

    def test_accountant_one_release_per_cluster(self, paired_clustering):
        ledger = RRClusters(paired_clustering, p=0.5).accountant()
        assert len(ledger) == 2
        assert "level+color" in ledger.by_label()


class TestSingletonEquivalence:
    def test_singleton_matrices_match_independent(self, small_schema):
        singleton = Clustering(
            schema=small_schema,
            clusters=(("flag",), ("level",), ("color",)),
        )
        clustered = RRClusters(singleton, p=0.6)
        independent = RRIndependent(small_schema, p=0.6)
        for cluster, joint in zip(
            singleton.clusters, clustered.cluster_mechanisms()
        ):
            reference = independent.matrix_for(cluster[0])
            matrix = joint.matrices[joint.cluster_name]
            assert matrix.diagonal == pytest.approx(reference.diagonal)
            assert matrix.off_diagonal == pytest.approx(
                reference.off_diagonal
            )

    def test_singleton_estimates_match_independent(self, small_dataset):
        singleton = Clustering(
            schema=small_dataset.schema,
            clusters=(("flag",), ("level",), ("color",)),
        )
        clustered = RRClusters(singleton, p=0.7)
        released = clustered.randomize(small_dataset, rng=5)
        independent = RRIndependent(small_dataset.schema, p=0.7)
        # same released data interpreted by both protocols: the
        # estimates must agree exactly (identical matrices)
        for name in small_dataset.schema.names:
            np.testing.assert_allclose(
                clustered.estimate_marginal(released, name),
                independent.estimate_marginal(released, name),
                atol=1e-12,
            )


class TestRandomizationAndEstimation:
    def test_randomize_covers_all_attributes(self, small_dataset, paired_clustering):
        protocol = RRClusters(paired_clustering, p=0.3)
        released = protocol.randomize(small_dataset, rng=1)
        assert released.schema == small_dataset.schema
        assert released != small_dataset

    def test_same_cluster_pair_table_keeps_dependence(self, adult_small):
        protocol = RRClusters.design(
            adult_small, p=0.8, max_cells=50, min_dependence=0.1
        )
        # find two attributes that ended up in one cluster
        cluster = next(
            c for c in protocol.clustering.clusters if len(c) >= 2
        )
        name_a, name_b = cluster[0], cluster[1]
        released = protocol.randomize(adult_small, rng=2)
        estimates = protocol.estimate(released)
        table = estimates.pair_table(name_a, name_b)
        truth = adult_small.contingency_table(name_a, name_b) / len(adult_small)
        # joint estimation within a cluster: close to the true joint
        assert np.abs(table - truth).sum() < 0.25

    def test_cross_cluster_pair_is_product(self, small_dataset, paired_clustering):
        protocol = RRClusters(paired_clustering, p=0.7)
        released = protocol.randomize(small_dataset, rng=3)
        estimates = protocol.estimate(released)
        table = estimates.pair_table("flag", "color")
        product = np.outer(
            estimates.marginal("flag"), estimates.marginal("color")
        )
        np.testing.assert_allclose(table, product, atol=1e-12)

    def test_pair_table_shapes_and_mass(self, small_dataset, paired_clustering):
        protocol = RRClusters(paired_clustering, p=0.7)
        estimates = protocol.estimate(protocol.randomize(small_dataset, rng=4))
        for a, b, shape in [
            ("level", "color", (3, 4)),
            ("color", "level", (4, 3)),
            ("flag", "level", (2, 3)),
        ]:
            table = estimates.pair_table(a, b)
            assert table.shape == shape
            assert np.isclose(table.sum(), 1.0, atol=1e-9)

    def test_pair_table_transpose_consistency(self, small_dataset, paired_clustering):
        protocol = RRClusters(paired_clustering, p=0.7)
        estimates = protocol.estimate(protocol.randomize(small_dataset, rng=5))
        ab = estimates.pair_table("level", "color")
        ba = estimates.pair_table("color", "level")
        np.testing.assert_allclose(ab, ba.T, atol=1e-12)

    def test_set_frequency_mixed_clusters(self, small_dataset, paired_clustering):
        protocol = RRClusters(paired_clustering, p=0.7)
        estimates = protocol.estimate(protocol.randomize(small_dataset, rng=6))
        cells = np.array([[0, 1, 2], [1, 2, 0]])  # (flag, level, color)
        value = estimates.set_frequency(["flag", "level", "color"], cells)
        expected = 0.0
        flag = estimates.marginal("flag")
        pair = estimates.pair_table("level", "color")
        for f, l, c in cells:
            expected += flag[f] * pair[l, c]
        assert value == pytest.approx(expected)

    def test_set_frequency_bad_shape_rejected(self, small_dataset, paired_clustering):
        protocol = RRClusters(paired_clustering, p=0.7)
        estimates = protocol.estimate(protocol.randomize(small_dataset, rng=7))
        with pytest.raises(ProtocolError, match="shape"):
            estimates.set_frequency(["flag"], np.array([[0, 1]]))

    def test_set_frequency_refuses_empty_attribute_list(
        self, small_dataset, paired_clustering
    ):
        # Used to return 3.0 for three empty cells.
        protocol = RRClusters(paired_clustering, p=0.7)
        estimates = protocol.estimate(protocol.randomize(small_dataset, rng=7))
        with pytest.raises(ProtocolError, match="at least one attribute"):
            estimates.set_frequency([], np.zeros((3, 0), dtype=np.int64))

    def test_set_frequency_refuses_duplicate_attributes(
        self, small_dataset, paired_clustering
    ):
        protocol = RRClusters(paired_clustering, p=0.7)
        estimates = protocol.estimate(protocol.randomize(small_dataset, rng=7))
        with pytest.raises(ProtocolError, match="duplicate"):
            estimates.set_frequency(["flag", "flag"], np.array([[0, 1]]))

    def test_same_attribute_pair_rejected(self, small_dataset, paired_clustering):
        protocol = RRClusters(paired_clustering, p=0.7)
        estimates = protocol.estimate(protocol.randomize(small_dataset, rng=8))
        with pytest.raises(ProtocolError, match="distinct"):
            estimates.pair_table("flag", "flag")

    def test_schema_mismatch_rejected(self, small_dataset, adult_tiny, paired_clustering):
        protocol = RRClusters(paired_clustering, p=0.5)
        with pytest.raises(ProtocolError, match="schema"):
            protocol.randomize(adult_tiny)
