"""repro — multi-dimensional randomized response.

A complete implementation of "Multi-Dimensional Randomized Response"
(Domingo-Ferrer & Soria-Comas): local anonymization of multivariate
categorical microdata with randomized response, mitigating the curse of
dimensionality through attribute clustering (RR-Clusters) and
post-hoc reweighting (RR-Adjustment).

Quickstart::

    import repro

    data = repro.load_adult()                       # n=32561, m=8
    protocol = repro.RRIndependent(data.schema, p=0.7)
    released = protocol.randomize(data, rng=0)      # what leaves the parties
    marginals = protocol.estimate_marginals(released)

    # Cluster-wise joint RR at the same privacy budget:
    clustered = repro.RRClusters.design(
        data, p=0.7, max_cells=50, min_dependence=0.1)
    estimates = clustered.estimate(clustered.randomize(data, rng=0))
    table = estimates.pair_table("education", "income")

    # Every protocol implements the same `Protocol` interface and
    # round-trips through a versioned design document:
    clustered.to_design().write("design.json")
    protocol, document = repro.load_design("design.json")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.exceptions import (
    ReproError,
    SchemaError,
    DomainError,
    DatasetError,
    MatrixError,
    EstimationError,
    PrivacyError,
    ClusteringError,
    ProtocolError,
    QueryError,
    SecureSumError,
    ServiceError,
    CodecError,
    StorageFullError,
    TransientIOError,
    SegmentQuarantinedError,
    NetworkError,
    WireProtocolError,
    HandshakeError,
    RemoteServiceError,
)
from repro.data import (
    Attribute,
    Schema,
    Dataset,
    Domain,
    adult_schema,
    load_adult,
    synthesize_adult,
    replicate,
)
from repro.core import (
    ConstantDiagonalMatrix,
    warner_matrix,
    keep_else_uniform_matrix,
    constant_diagonal_matrix,
    epsilon_optimal_matrix,
    cluster_matrix,
    frapp_matrix,
    RandomizedResponseMechanism,
    randomize_column,
    observed_distribution,
    estimate_distribution,
    estimate_from_responses,
    clip_and_rescale,
    project_to_simplex,
    iterative_bayesian_update,
    epsilon_of_matrix,
    compose_epsilons,
    keep_probability_for_epsilon,
    epsilon_for_keep_probability,
    PrivacyAccountant,
    chi_square_b,
    sqrt_b_factor,
    absolute_error_bound,
    relative_error_bound,
)
from repro.protocols import (
    Protocol,
    CollectionLayout,
    ProtocolEstimator,
    RRIndependent,
    RRJoint,
    RRClusters,
    AdjustmentResult,
    adjust_weights,
    weighted_pair_table,
)
from repro.clustering import (
    Clustering,
    cluster_attributes,
    hierarchical_cluster_attributes,
    dependence_matrix,
    pair_dependence,
    exact_dependences,
    randomized_dependences,
    secure_sum_dependences,
    rr_pairs_dependences,
)
from repro.mpc import secure_sum, secure_contingency_table
from repro.analysis import (
    PairQuery,
    random_pair_query,
    count_from_table,
    run_pair_query_trials,
    synthesize_from_joint,
    synthesize_from_cluster_estimates,
    MarginalQuery,
    random_marginal_query,
    kway_marginal_from_clusters,
    kway_marginal_true,
    StreamingCollector,
    ConfidenceInterval,
    marginal_confidence_intervals,
    count_confidence_interval,
)
from repro.core import (
    posterior_matrix,
    maximum_posterior,
    bayes_vulnerability,
    bayes_risk,
    deniability_set_sizes,
    expected_posterior_entropy,
    posterior_to_prior_odds_bound,
)
# Engine last: it layers on protocols + analysis, both imported above.
from repro.engine import ChunkPlan, ColumnTask
# Service layers on the engine.
from repro.service import (
    ReportCodec,
    CollectorService,
    IngestionPipeline,
    QueryFrontend,
)
# Design documents layer on protocols + the service codec.
from repro.design import DesignDocument, load_design, write_design

__version__ = "1.0.0"

__all__ = [
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
