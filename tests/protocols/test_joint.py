"""Tests for Protocol 2 (RR-Joint)."""

import numpy as np
import pytest

from repro.core.privacy import epsilon_for_keep_probability
from repro.exceptions import ProtocolError
from repro.protocols.joint import MAX_JOINT_CELLS, RRJoint


class TestConstruction:
    def test_full_schema_domain(self, small_schema):
        protocol = RRJoint(small_schema, p=0.7)
        assert protocol.domain.size == 24

    def test_subset_domain(self, small_schema):
        protocol = RRJoint(small_schema, names=["level", "color"], p=0.7)
        assert protocol.domain.size == 12
        assert protocol.domain.names == ("level", "color")

    def test_epsilon_calibration(self, small_schema):
        # calibrated_to_independent must spend exactly the summed
        # RR-Independent budget (§6.3.2)
        protocol = RRJoint.calibrated_to_independent(small_schema, None, 0.7)
        expected = sum(
            epsilon_for_keep_probability(a.size, 0.7) for a in small_schema
        )
        assert protocol.epsilon == pytest.approx(expected)

    def test_explicit_epsilons(self, small_schema):
        protocol = RRJoint(
            small_schema,
            names=["flag", "level"],
            attribute_epsilons=[1.0, 2.0],
        )
        assert protocol.epsilon == pytest.approx(3.0)

    def test_both_args_rejected(self, small_schema):
        with pytest.raises(ProtocolError, match="exactly one"):
            RRJoint(small_schema, p=0.5, attribute_epsilons=[1.0])

    def test_epsilon_count_mismatch_rejected(self, small_schema):
        with pytest.raises(ProtocolError, match="epsilons"):
            RRJoint(small_schema, attribute_epsilons=[1.0])

    def test_oversized_domain_rejected(self):
        from repro.data.schema import Attribute, Schema

        big = Schema(
            [Attribute(f"a{i}", tuple(range(40))) for i in range(5)]
        )
        assert 40**5 > MAX_JOINT_CELLS
        with pytest.raises(ProtocolError, match="curse of dimensionality"):
            RRJoint(big, p=0.5)

    def test_adult_full_product_rejected(self, adult_tiny):
        # §6.2: RR-Joint on all Adult attributes is computationally and
        # statistically unusable; the library refuses it outright.
        with pytest.raises(ProtocolError, match="RR-Clusters"):
            RRJoint(adult_tiny.schema, p=0.5)


class TestRandomization:
    def test_identity_at_p_one(self, small_dataset):
        protocol = RRJoint(small_dataset.schema, p=1.0)
        assert protocol.randomize(small_dataset, rng=0) == small_dataset

    def test_uncovered_attributes_untouched(self, small_dataset):
        protocol = RRJoint(small_dataset.schema, names=["level", "color"], p=0.3)
        released = protocol.randomize(small_dataset, rng=1)
        np.testing.assert_array_equal(
            released.column("flag"), small_dataset.column("flag")
        )

    def test_joint_cells_randomized_together(self, small_dataset):
        # At p<1 the pair (level, color) changes as a unit: frequency of
        # "kept exactly" should be ~ d - o + joint-hit mass, but more
        # simply: the randomized flat codes differ from originals in
        # ~ (1 - keep) fraction minus uniform self-hits.
        protocol = RRJoint(small_dataset.schema, names=["level", "color"], p=0.5)
        released = protocol.randomize(small_dataset, rng=2)
        domain = protocol.domain
        original = domain.encode(small_dataset.columns(["level", "color"]))
        randomized = domain.encode(released.columns(["level", "color"]))
        kept = (original == randomized).mean()
        expected = 0.5 + 0.5 / domain.size  # keep + uniform self-draw
        assert abs(kept - expected) < 0.12


class TestEstimation:
    def test_joint_estimate_close_to_truth(self, small_dataset):
        protocol = RRJoint(small_dataset.schema, p=0.8)
        released = protocol.randomize(small_dataset, rng=3)
        estimate = protocol.estimate_joint(released)
        truth = small_dataset.joint_distribution()
        assert estimate.shape == (24,)
        assert np.abs(estimate - truth).sum() < 0.5  # n=200, loose

    def test_joint_estimate_proper(self, small_dataset):
        protocol = RRJoint(small_dataset.schema, p=0.4)
        released = protocol.randomize(small_dataset, rng=4)
        estimate = protocol.estimate_joint(released)
        assert (estimate >= 0).all()
        assert np.isclose(estimate.sum(), 1.0)

    def test_preserves_dependence_unlike_independent(self, adult_small):
        # the whole point of Protocol 2: joints without independence
        sub = adult_small.select(["relationship", "sex"])
        protocol = RRJoint(sub.schema, p=0.9)
        released = protocol.randomize(sub, rng=5)
        table = protocol.estimate_pair_table(released, "relationship", "sex")
        truth = sub.contingency_table("relationship", "sex") / len(sub)
        assert np.abs(table - truth).sum() < 0.08

    def test_marginal_consistent_with_joint(self, small_dataset):
        protocol = RRJoint(small_dataset.schema, p=0.7)
        released = protocol.randomize(small_dataset, rng=6)
        joint = protocol.estimate_joint(released)
        marginal = protocol.estimate_marginal(released, "level")
        np.testing.assert_allclose(
            marginal,
            protocol.domain.marginal_distribution(joint, ["level"]),
        )

    def test_set_frequency_flat_and_cells_agree(self, small_dataset):
        # Summing the joint estimate at the cells' flat mixed-radix
        # codes answers the same set query as the per-attribute form.
        protocol = RRJoint(small_dataset.schema, p=0.7)
        released = protocol.randomize(small_dataset, rng=7)
        cells = np.array([[0, 0, 0], [1, 2, 3]])
        flat = protocol.domain.encode(cells)
        by_cells = protocol.estimate_set_frequency(
            released, protocol.domain.names, cells
        )
        by_flat = protocol.estimate_joint(released)[flat].sum()
        assert by_cells == pytest.approx(by_flat)

    def test_schema_mismatch_rejected(self, small_dataset, adult_tiny):
        protocol = RRJoint(small_dataset.schema, p=0.5)
        with pytest.raises(ProtocolError, match="schema"):
            protocol.estimate_joint(adult_tiny)

    def test_bad_repair_rejected(self, small_dataset):
        protocol = RRJoint(small_dataset.schema, p=0.5)
        released = protocol.randomize(small_dataset, rng=8)
        with pytest.raises(ProtocolError, match="repair"):
            protocol.estimate_joint(released, repair="median")
