"""The unified Protocol interface: uniform surface, layouts, shims.

Every protocol class implements :class:`repro.protocols.base.Protocol`
with one canonical surface; the pre-unification names survive as thin
deprecation shims. These tests pin both halves: the new surface is
uniform and consistent across all three protocols, and every
deprecated alias still answers (with a ``DeprecationWarning``).
"""

import numpy as np
import pytest

from repro.analysis.streaming import StreamingCollector
from repro.clustering.algorithm import Clustering
from repro.data.domain import Domain
from repro.exceptions import ProtocolError
from repro.protocols import (
    CollectionLayout,
    Protocol,
    ProtocolEstimator,
    RRClusters,
    RRIndependent,
    RRJoint,
    protocol_for_tag,
    protocol_tags,
)


@pytest.fixture
def clustering(small_schema):
    return Clustering(
        schema=small_schema, clusters=(("flag", "level"), ("color",))
    )


@pytest.fixture(params=["independent", "joint", "clusters"])
def protocol(request, small_schema, clustering):
    if request.param == "independent":
        return RRIndependent(small_schema, p=0.7)
    if request.param == "joint":
        return RRJoint(small_schema, p=0.7)
    return RRClusters(clustering, p=0.7)


class TestUniformSurface:
    def test_all_protocols_are_protocols(self, protocol):
        assert isinstance(protocol, Protocol)

    def test_registry_covers_all_three(self):
        assert protocol_tags() == (
            "RR-Clusters", "RR-Independent", "RR-Joint",
        )
        for tag in protocol_tags():
            assert issubclass(protocol_for_tag(tag), Protocol)
            assert protocol_for_tag(tag).design_tag == tag

    def test_plain_subclass_does_not_hijack_the_registry(self, small_schema):
        """A subclass that merely *inherits* a design tag (a test
        double, a user extension) must not rebind the parent's
        design-document deserialization."""

        class Extended(RRJoint):
            pass

        assert protocol_for_tag("RR-Joint") is RRJoint
        rebuilt = Protocol.from_design(
            RRJoint(small_schema, p=0.7).to_design().payload()
        )
        assert type(rebuilt) is RRJoint

    def test_duplicate_design_tag_rejected(self):
        with pytest.raises(ProtocolError, match="already registered"):

            class Impostor(Protocol):
                design_tag = "RR-Joint"

    def test_matrices_keyed_by_cluster_names(self, protocol):
        layout = protocol.collection
        matrices = protocol.matrices
        assert tuple(matrices) == layout.cluster_names
        for name, attr in zip(
            layout.cluster_names, layout.collection_schema()
        ):
            size = getattr(
                matrices[name], "size", None
            ) or np.asarray(matrices[name]).shape[0]
            assert size == attr.size

    def test_accountant_labels_match_layout(self, protocol):
        ledger = protocol.accountant()
        assert tuple(ledger.by_label()) == protocol.collection.cluster_names
        assert protocol.epsilon == pytest.approx(
            sum(ledger.by_label().values())
        )

    def test_engine_tasks_one_per_cluster(self, protocol):
        tasks = protocol.engine_tasks()
        layout = protocol.collection
        assert len(tasks) == layout.width
        for task, positions in zip(tasks, layout.positions):
            assert task.positions == positions

    def test_query_trio_signatures_agree(self, protocol, small_dataset):
        released = protocol.randomize(small_dataset, rng=3)
        marginal = protocol.estimate_marginal(released, "flag")
        assert marginal.shape == (2,)
        table = protocol.estimate_pair_table(released, "flag", "color")
        assert table.shape == (2, 4)
        cells = np.array([[0, 0], [1, 2]])
        value = protocol.estimate_set_frequency(
            released, ("flag", "color"), cells
        )
        assert 0.0 <= value <= 1.0 + 1e-9

    def test_query_trio_rejects_engine_kwargs(self, protocol, small_dataset):
        """Estimation has one path: chunk_size belongs to randomize
        only, and the trio takes no engine keyword."""
        released = protocol.randomize(small_dataset, rng=3, chunk_size=64)
        cells = np.array([[0, 0], [1, 2]])
        with pytest.raises(TypeError, match="chunk_size"):
            protocol.estimate_marginal(released, "flag", chunk_size=64)
        with pytest.raises(TypeError, match="workers"):
            protocol.estimate_pair_table(released, "flag", "color", workers=2)
        with pytest.raises(TypeError, match="chunk_size"):
            protocol.estimate_set_frequency(
                released, ("flag", "color"), cells, chunk_size=64
            )

    def test_joint_set_frequency_rejects_duplicate_names(
        self, small_dataset
    ):
        """The layout-helper path fails duplicates cleanly instead of
        dying inside a numpy transpose."""
        joint = RRJoint(small_dataset.schema, p=0.7)
        released = joint.randomize(small_dataset, rng=3)
        with pytest.raises(ProtocolError, match="duplicate"):
            joint.estimate_set_frequency(
                released, ("flag", "flag"), np.array([[0, 0]])
            )

    def test_set_frequency_accepts_ndarray_of_names(
        self, protocol, small_dataset
    ):
        """Any iterable of strings is the uniform form — including a
        numpy array of names (which is not a typing.Sequence)."""
        released = protocol.randomize(small_dataset, rng=3)
        cells = np.array([[0, 0], [1, 2]])
        assert protocol.estimate_set_frequency(
            released, np.array(["flag", "color"]), cells
        ) == pytest.approx(
            protocol.estimate_set_frequency(released, ("flag", "color"), cells)
        )

    def test_collector_counts_collection_schema(self, protocol):
        collector = StreamingCollector.for_protocol(protocol)
        assert (
            collector.schema.names == protocol.collection.cluster_names
        )


class TestMakeEstimator:
    def test_estimator_matches_batch_estimates(self, protocol, small_dataset):
        released = protocol.randomize(small_dataset, rng=4)
        estimator = protocol.make_estimator()
        assert isinstance(estimator, ProtocolEstimator)
        estimator.absorb(released)
        assert estimator.n_observed == released.n_records
        for name in ("flag", "level", "color"):
            np.testing.assert_array_equal(
                estimator.marginal(name),
                protocol.estimate_marginal(released, name),
            )
        np.testing.assert_array_equal(
            estimator.pair_table("flag", "level"),
            protocol.estimate_pair_table(released, "flag", "level"),
        )
        cells = np.array([[0, 1, 2], [1, 0, 0]])
        assert estimator.set_frequency(
            ("flag", "level", "color"), cells
        ) == pytest.approx(
            protocol.estimate_set_frequency(
                released, ("flag", "level", "color"), cells
            )
        )

    def test_estimator_absorbs_incrementally(self, protocol, small_dataset):
        released = protocol.randomize(small_dataset, rng=5)
        whole = protocol.make_estimator()
        whole.absorb(released)
        parts = protocol.make_estimator()
        parts.absorb(released.codes[:77])
        parts.absorb(released.codes[77:])
        np.testing.assert_array_equal(
            whole.marginal("color"), parts.marginal("color")
        )

    def test_estimator_rejects_foreign_schema(self, protocol, adult_tiny):
        estimator = protocol.make_estimator()
        with pytest.raises(ProtocolError, match="schema"):
            estimator.absorb(adult_tiny)

    def test_joint_by_name_and_index_agree(self, small_schema, clustering):
        protocol = RRClusters(clustering, p=0.6)
        estimator = protocol.make_estimator()
        estimator.absorb(protocol.randomize(_dataset_for(small_schema), rng=6))
        np.testing.assert_array_equal(
            estimator.joint(0), estimator.joint("flag+level")
        )
        with pytest.raises(ProtocolError, match="out of range"):
            estimator.joint(5)


def _dataset_for(schema):
    from repro.data.dataset import Dataset

    rng = np.random.default_rng(9)
    codes = np.stack(
        [rng.integers(0, attr.size, 150) for attr in schema], axis=1
    )
    return Dataset(schema, codes)


class TestCollectionLayout:
    def test_identity_layout(self, small_schema):
        layout = CollectionLayout.identity(small_schema)
        assert layout.is_identity
        assert layout.cluster_names == small_schema.names
        assert layout.collection_schema() is small_schema
        codes = np.array([[0, 1, 2], [1, 2, 3]])
        assert layout.encode_records(codes) is not None
        np.testing.assert_array_equal(layout.encode_records(codes), codes)

    def test_fused_layout_encodes_mixed_radix(self, small_schema):
        layout = CollectionLayout(small_schema, (("flag", "level"), ("color",)))
        assert not layout.is_identity
        assert layout.cluster_names == ("flag+level", "color")
        fused_schema = layout.collection_schema()
        assert fused_schema.sizes == (6, 4)
        codes = np.array([[1, 2, 3], [0, 0, 0]])
        fused = layout.encode_records(codes)
        domain = Domain.from_schema(small_schema, ("flag", "level"))
        np.testing.assert_array_equal(fused[:, 0], domain.encode(codes[:, :2]))
        np.testing.assert_array_equal(fused[:, 1], codes[:, 2])

    def test_fused_categories_are_label_tuples(self, small_schema):
        layout = CollectionLayout(small_schema, (("flag", "level"),))
        attr = layout.collection_schema().attribute("flag+level")
        assert attr.categories[0] == ("no", "low")
        assert attr.categories[-1] == ("yes", "high")

    def test_overlapping_clusters_rejected(self, small_schema):
        with pytest.raises(ProtocolError, match="two clusters"):
            CollectionLayout(small_schema, (("flag", "level"), ("flag",)))

    def test_empty_cluster_rejected(self, small_schema):
        with pytest.raises(ProtocolError, match="empty cluster"):
            CollectionLayout(small_schema, (("flag",), ()))

    def test_unknown_attribute_queries_fail(self, small_schema):
        layout = CollectionLayout(small_schema, (("flag", "level"),))
        with pytest.raises(ProtocolError, match="unknown attribute"):
            layout.cluster_of("color")

    def test_partial_cover_is_allowed(self, small_schema):
        layout = CollectionLayout(small_schema, (("level", "color"),))
        assert layout.member_names == ("level", "color")
        assert not layout.is_identity


class TestDeprecatedAliases:
    def test_new_surface_does_not_warn(self, small_schema, recwarn):
        import warnings

        protocol = RRJoint(small_schema, p=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _ = protocol.matrices
            _ = protocol.engine_tasks()

    def test_rrclusters_collector(self, clustering):
        protocol = RRClusters(clustering, p=0.7)
        collector = StreamingCollector.for_protocol(protocol)
        assert collector.schema.names == ("flag+level", "color")
        assert collector.schema.sizes == (6, 4)


class TestUniformAgreement:
    def test_singleton_clusters_collapse_to_independent(self, small_schema):
        """The unified estimator agrees across protocol classes when the
        designs coincide (all-singleton RR-Clusters == RR-Independent)."""
        singleton = Clustering(
            schema=small_schema, clusters=(("flag",), ("level",), ("color",))
        )
        clusters = RRClusters(singleton, p=0.7)
        independent = RRIndependent(small_schema, p=0.7)
        data = _dataset_for(small_schema)
        released = independent.randomize(data, rng=11)
        a = independent.make_estimator()
        b = clusters.make_estimator()
        a.absorb(released)
        b.absorb(released)
        for name in small_schema.names:
            np.testing.assert_allclose(
                a.marginal(name), b.marginal(name), atol=1e-12
            )
        np.testing.assert_allclose(
            a.pair_table("flag", "color"),
            b.pair_table("flag", "color"),
            atol=1e-12,
        )
