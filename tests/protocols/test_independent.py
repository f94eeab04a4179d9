"""Tests for Protocol 1 (RR-Independent)."""

import numpy as np
import pytest

from repro.core.matrices import keep_else_uniform_matrix
from repro.core.privacy import epsilon_for_keep_probability
from repro.exceptions import ProtocolError
from repro.protocols.independent import RRIndependent


class TestConstruction:
    def test_p_builds_keep_else_uniform(self, small_schema):
        protocol = RRIndependent(small_schema, p=0.6)
        matrix = protocol.matrix_for("color")
        reference = keep_else_uniform_matrix(4, 0.6)
        assert matrix.diagonal == pytest.approx(reference.diagonal)

    def test_explicit_matrices(self, small_schema):
        matrices = {
            "flag": keep_else_uniform_matrix(2, 0.9),
            "level": keep_else_uniform_matrix(3, 0.5),
            "color": keep_else_uniform_matrix(4, 0.7),
        }
        protocol = RRIndependent(small_schema, matrices=matrices)
        assert protocol.matrix_for("level").keep_probability == pytest.approx(0.5)

    def test_both_args_rejected(self, small_schema):
        with pytest.raises(ProtocolError, match="exactly one"):
            RRIndependent(small_schema, p=0.5, matrices={})

    def test_neither_arg_rejected(self, small_schema):
        with pytest.raises(ProtocolError, match="exactly one"):
            RRIndependent(small_schema)

    def test_missing_matrix_rejected(self, small_schema):
        with pytest.raises(ProtocolError, match="missing"):
            RRIndependent(
                small_schema, matrices={"flag": keep_else_uniform_matrix(2, 0.9)}
            )

    def test_unknown_matrix_rejected(self, small_schema):
        matrices = {
            "flag": keep_else_uniform_matrix(2, 0.9),
            "level": keep_else_uniform_matrix(3, 0.5),
            "color": keep_else_uniform_matrix(4, 0.7),
            "ghost": keep_else_uniform_matrix(2, 0.5),
        }
        with pytest.raises(ProtocolError, match="unknown"):
            RRIndependent(small_schema, matrices=matrices)

    def test_wrong_size_matrix_rejected(self, small_schema):
        matrices = {
            "flag": keep_else_uniform_matrix(3, 0.9),  # flag has 2 cats
            "level": keep_else_uniform_matrix(3, 0.5),
            "color": keep_else_uniform_matrix(4, 0.7),
        }
        with pytest.raises(ProtocolError, match="size"):
            RRIndependent(small_schema, matrices=matrices)


class TestPrivacy:
    def test_epsilon_is_sequential_sum(self, small_schema):
        protocol = RRIndependent(small_schema, p=0.5)
        expected = sum(
            epsilon_for_keep_probability(a.size, 0.5) for a in small_schema
        )
        assert protocol.epsilon == pytest.approx(expected)

    def test_accountant_entries_per_attribute(self, small_schema):
        ledger = RRIndependent(small_schema, p=0.5).accountant()
        assert len(ledger) == 3
        assert set(ledger.by_label()) == {"flag", "level", "color"}


class TestRandomization:
    def test_schema_checked(self, small_dataset, adult_tiny):
        protocol = RRIndependent(small_dataset.schema, p=0.5)
        with pytest.raises(ProtocolError, match="schema"):
            protocol.randomize(adult_tiny)

    def test_p_one_identity(self, small_dataset):
        protocol = RRIndependent(small_dataset.schema, p=1.0)
        assert protocol.randomize(small_dataset, rng=0) == small_dataset

    def test_randomization_changes_data(self, small_dataset):
        protocol = RRIndependent(small_dataset.schema, p=0.2)
        released = protocol.randomize(small_dataset, rng=0)
        assert released != small_dataset
        assert released.schema == small_dataset.schema

    def test_deterministic_given_seed(self, small_dataset):
        protocol = RRIndependent(small_dataset.schema, p=0.5)
        assert protocol.randomize(small_dataset, rng=9) == protocol.randomize(
            small_dataset, rng=9
        )


class TestEstimation:
    def test_marginal_accuracy(self, adult_small):
        protocol = RRIndependent(adult_small.schema, p=0.7)
        released = protocol.randomize(adult_small, rng=1)
        for name in ("sex", "income", "race"):
            estimate = protocol.estimate_marginal(released, name)
            truth = adult_small.marginal_distribution(name)
            assert np.abs(estimate - truth).max() < 0.05

    def test_estimates_are_proper_with_clip(self, small_dataset):
        protocol = RRIndependent(small_dataset.schema, p=0.3)
        released = protocol.randomize(small_dataset, rng=2)
        for name in small_dataset.schema.names:
            estimate = protocol.estimate_marginal(released, name)
            assert (estimate >= 0).all()
            assert np.isclose(estimate.sum(), 1.0)

    def test_repair_none_returns_raw(self, small_dataset):
        protocol = RRIndependent(small_dataset.schema, p=0.3)
        released = protocol.randomize(small_dataset, rng=3)
        raw = protocol.estimate_marginal(released, "color", repair="none")
        assert np.isclose(raw.sum(), 1.0)  # sums to 1 even if negative

    def test_bad_repair_rejected(self, small_dataset):
        protocol = RRIndependent(small_dataset.schema, p=0.5)
        released = protocol.randomize(small_dataset, rng=4)
        with pytest.raises(ProtocolError, match="repair"):
            protocol.estimate_marginal(released, "color", repair="magic")

    def test_estimate_marginals_keys(self, small_dataset):
        protocol = RRIndependent(small_dataset.schema, p=0.5)
        released = protocol.randomize(small_dataset, rng=5)
        marginals = protocol.estimate_marginals(released)
        assert set(marginals) == set(small_dataset.schema.names)

    def test_pair_table_is_outer_product(self, small_dataset):
        protocol = RRIndependent(small_dataset.schema, p=0.7)
        released = protocol.randomize(small_dataset, rng=6)
        table = protocol.estimate_pair_table(released, "level", "color")
        pi_l = protocol.estimate_marginal(released, "level")
        pi_c = protocol.estimate_marginal(released, "color")
        np.testing.assert_allclose(table, np.outer(pi_l, pi_c))
        assert table.shape == (3, 4)

    def test_pair_table_same_attribute_rejected(self, small_dataset):
        protocol = RRIndependent(small_dataset.schema, p=0.7)
        released = protocol.randomize(small_dataset, rng=7)
        with pytest.raises(ProtocolError, match="distinct"):
            protocol.estimate_pair_table(released, "color", "color")

    def test_set_frequency_matches_pair_table(self, small_dataset):
        protocol = RRIndependent(small_dataset.schema, p=0.7)
        released = protocol.randomize(small_dataset, rng=8)
        cells = np.array([[0, 0], [1, 2], [2, 3]])
        total = protocol.estimate_set_frequency(
            released, ["level", "color"], cells
        )
        table = protocol.estimate_pair_table(released, "level", "color")
        assert total == pytest.approx(
            table[cells[:, 0], cells[:, 1]].sum()
        )

    def test_set_frequency_three_attributes(self, small_dataset):
        protocol = RRIndependent(small_dataset.schema, p=0.8)
        released = protocol.randomize(small_dataset, rng=9)
        cells = np.array([[0, 1, 2]])
        value = protocol.estimate_set_frequency(
            released, ["flag", "level", "color"], cells
        )
        expected = (
            protocol.estimate_marginal(released, "flag")[0]
            * protocol.estimate_marginal(released, "level")[1]
            * protocol.estimate_marginal(released, "color")[2]
        )
        assert value == pytest.approx(expected)

    def test_set_frequency_bad_cells_shape(self, small_dataset):
        protocol = RRIndependent(small_dataset.schema, p=0.8)
        released = protocol.randomize(small_dataset, rng=10)
        with pytest.raises(ProtocolError, match="shape"):
            protocol.estimate_set_frequency(
                released, ["flag"], np.array([[0, 1]])
            )

    def test_set_frequency_refuses_empty_attribute_list(self, small_dataset):
        # Used to return 3.0 (an empty product per cell, summed over
        # three cells): a "relative frequency" above 1.
        protocol = RRIndependent(small_dataset.schema, p=0.8)
        released = protocol.randomize(small_dataset, rng=10)
        with pytest.raises(ProtocolError, match="at least one attribute"):
            protocol.estimate_set_frequency(
                released, [], np.zeros((3, 0), dtype=np.int64)
            )

    def test_set_frequency_refuses_duplicate_attributes(self, small_dataset):
        # Used to return a positive frequency for the impossible cell
        # (flag=0, flag=1).
        protocol = RRIndependent(small_dataset.schema, p=0.8)
        released = protocol.randomize(small_dataset, rng=10)
        with pytest.raises(ProtocolError, match="duplicate"):
            protocol.estimate_set_frequency(
                released, ["flag", "flag"], np.array([[0, 1]])
            )

    def test_independence_assumption_error_on_dependent_data(self, adult_small):
        # §3.1's caveat quantified: the product estimate on a strongly
        # dependent pair (relationship x sex) is far from the joint,
        # much further than on a near-independent pair (race x income).
        protocol = RRIndependent(adult_small.schema, p=0.9)
        released = protocol.randomize(adult_small, rng=11)
        dependent_err = np.abs(
            protocol.estimate_pair_table(released, "relationship", "sex")
            - adult_small.contingency_table("relationship", "sex")
            / len(adult_small)
        ).sum()
        independent_err = np.abs(
            protocol.estimate_pair_table(released, "race", "income")
            - adult_small.contingency_table("race", "income")
            / len(adult_small)
        ).sum()
        assert dependent_err > 3 * independent_err
