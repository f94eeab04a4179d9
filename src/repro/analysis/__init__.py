"""Evaluation substrate: count-query workloads, error metrics, the
median-over-runs experiment driver (§6.5) and synthetic-data
re-creation from estimated distributions (§1/§3.2)."""

from repro.analysis.queries import (
    PairQuery,
    random_pair_query,
    count_from_table,
)
from repro.analysis.metrics import (
    absolute_count_error,
    relative_count_error,
    total_variation,
    l1_distance,
    l2_distance,
    max_abs_error,
    kl_divergence,
)
from repro.analysis.evaluation import (
    PairTableMethod,
    RandomizedBaselineMethod,
    IndependentMethod,
    AdjustedIndependentMethod,
    ClustersMethod,
    AdjustedClustersMethod,
    TrialReport,
    run_pair_query_trials,
)
from repro.analysis.synthetic import (
    deterministic_counts,
    synthesize_from_joint,
    synthesize_from_cluster_estimates,
)
from repro.analysis.marginals import (
    MarginalQuery,
    random_marginal_query,
    kway_marginal_from_clusters,
    kway_marginal_true,
)
from repro.analysis.streaming import StreamingCollector
from repro.analysis.intervals import (
    ConfidenceInterval,
    marginal_confidence_intervals,
    count_confidence_interval,
)

__all__ = [
    "PairQuery",
    "random_pair_query",
    "count_from_table",
    "absolute_count_error",
    "relative_count_error",
    "total_variation",
    "l1_distance",
    "l2_distance",
    "max_abs_error",
    "kl_divergence",
    "PairTableMethod",
    "RandomizedBaselineMethod",
    "IndependentMethod",
    "AdjustedIndependentMethod",
    "ClustersMethod",
    "AdjustedClustersMethod",
    "TrialReport",
    "run_pair_query_trials",
    "deterministic_counts",
    "synthesize_from_joint",
    "synthesize_from_cluster_estimates",
    "MarginalQuery",
    "random_marginal_query",
    "kway_marginal_from_clusters",
    "kway_marginal_true",
    "StreamingCollector",
    "ConfidenceInterval",
    "marginal_confidence_intervals",
    "count_confidence_interval",
]
