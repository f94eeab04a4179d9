"""Pinned public-API snapshot of the unified protocol surface.

The unified :class:`~repro.protocols.base.Protocol` interface and the
design-document API are the contract every downstream layer (engine,
service, CLI, external users) keys on. This test pins the exported
names and the ``Protocol`` method set verbatim: renaming, removing, or
accidentally leaking a symbol fails tier-1 instead of silently
shipping a breaking change. Extending the surface is a deliberate act
— update the snapshot in the same commit as the new API.
"""

import repro
import repro.design
import repro.protocols
import repro.service
from repro.protocols import Protocol, RRClusters, RRIndependent, RRJoint

REPRO_ALL = [
    # errors
    "ReproError", "SchemaError", "DomainError", "DatasetError",
    "MatrixError", "EstimationError", "PrivacyError", "ClusteringError",
    "ProtocolError", "QueryError", "SecureSumError",
    "ServiceError", "CodecError",
    "StorageFullError", "TransientIOError", "SegmentQuarantinedError",
    "NetworkError", "WireProtocolError", "HandshakeError",
    "RemoteServiceError",
    # data
    "Attribute", "Schema", "Dataset", "Domain",
    "adult_schema", "load_adult", "synthesize_adult", "replicate",
    # core
    "ConstantDiagonalMatrix", "warner_matrix", "keep_else_uniform_matrix",
    "constant_diagonal_matrix", "epsilon_optimal_matrix", "cluster_matrix",
    "frapp_matrix", "RandomizedResponseMechanism", "randomize_column",
    "observed_distribution", "estimate_distribution",
    "estimate_from_responses", "clip_and_rescale", "project_to_simplex",
    "iterative_bayesian_update", "epsilon_of_matrix", "compose_epsilons",
    "keep_probability_for_epsilon", "epsilon_for_keep_probability",
    "PrivacyAccountant", "chi_square_b", "sqrt_b_factor",
    "absolute_error_bound", "relative_error_bound",
    # protocols
    "Protocol", "CollectionLayout", "ProtocolEstimator",
    "RRIndependent", "RRJoint", "RRClusters",
    "AdjustmentResult", "adjust_weights", "weighted_pair_table",
    # clustering
    "Clustering", "cluster_attributes", "dependence_matrix",
    "pair_dependence", "exact_dependences", "randomized_dependences",
    "secure_sum_dependences", "rr_pairs_dependences",
    # mpc
    "secure_sum", "secure_contingency_table",
    # analysis
    "PairQuery", "random_pair_query", "count_from_table",
    "run_pair_query_trials", "synthesize_from_joint",
    "synthesize_from_cluster_estimates",
    "MarginalQuery", "random_marginal_query",
    "kway_marginal_from_clusters", "kway_marginal_true",
    "StreamingCollector",
    "ConfidenceInterval", "marginal_confidence_intervals",
    "count_confidence_interval",
    # risk
    "posterior_matrix", "maximum_posterior", "bayes_vulnerability",
    "bayes_risk", "deniability_set_sizes", "expected_posterior_entropy",
    "posterior_to_prior_odds_bound",
    # clustering extras
    "hierarchical_cluster_attributes",
    # engine
    "ChunkPlan", "ColumnTask",
    # service
    "ReportCodec", "CollectorService", "IngestionPipeline", "QueryFrontend",
    # design documents
    "DesignDocument", "load_design", "write_design",
]

SERVICE_ALL = [
    "ReportCodec",
    "schema_fingerprint",
    "matrix_fingerprint",
    "design_fingerprint",
    "FrameWriter",
    "IngestionLog",
    "read_frames",
    "IngestionPipeline",
    "CollectorService",
    "QueryFrontend",
    "scrub_state_dir",
    "CollectorServer",
    "ThreadedCollectorServer",
    "CollectorClient",
    "TenantManager",
    "StorageBackend",
    "LocalFSBackend",
]

PROTOCOLS_ALL = [
    "Protocol",
    "CollectionLayout",
    "ProtocolEstimator",
    "protocol_for_tag",
    "protocol_tags",
    "RRIndependent",
    "RRJoint",
    "RRClusters",
    "AdjustmentResult",
    "adjust_weights",
    "weighted_pair_table",
]

DESIGN_ALL = [
    "DESIGN_VERSION",
    "SUPPORTED_DESIGN_VERSIONS",
    "DesignDocument",
    "parse_design",
    "load_design",
    "write_design",
]

#: The unified Protocol surface every protocol class serves.
PROTOCOL_METHODS = [
    "accountant",
    "collection",
    "design_fingerprint",
    "design_tag",
    "engine_tasks",
    "epsilon",
    "estimate_marginal",
    "estimate_pair_table",
    "estimate_set_frequency",
    "from_design",
    "make_estimator",
    "matrices",
    "randomize",
    "schema",
    "to_design",
]


class TestExportSnapshots:
    def test_repro_all_is_pinned(self):
        assert repro.__all__ == REPRO_ALL

    def test_service_all_is_pinned(self):
        assert repro.service.__all__ == SERVICE_ALL

    def test_protocols_all_is_pinned(self):
        assert repro.protocols.__all__ == PROTOCOLS_ALL

    def test_design_all_is_pinned(self):
        assert repro.design.__all__ == DESIGN_ALL

    def test_every_export_resolves(self):
        for module in (repro, repro.service, repro.protocols, repro.design):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestProtocolMethodSet:
    def test_protocol_surface_is_pinned(self):
        public = sorted(
            name for name in dir(Protocol) if not name.startswith("_")
        )
        assert public == PROTOCOL_METHODS

    def test_every_protocol_serves_the_full_surface(self):
        for cls in (RRIndependent, RRJoint, RRClusters):
            for name in PROTOCOL_METHODS:
                assert hasattr(cls, name), f"{cls.__name__}.{name}"
            assert issubclass(cls, Protocol)
            assert isinstance(cls.design_tag, str)

    def test_abstract_hooks_are_required(self):
        # The ABC machinery must actually guard the surface: a protocol
        # is its layout plus its matrices (and its design-document
        # hooks); everything else is derived from them in the base.
        assert Protocol.__abstractmethods__ == {
            "collection",
            "matrices",
            "_design_params",
            "_from_design_params",
            "_params_from_payload",
        }
