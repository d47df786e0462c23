"""Sublinear triangle-count estimation over a metered graph query oracle.

The package splits into storage (graph_store), the metered access model
(query_oracle), exact ground truth (exact), the sampled heavy-vertex
classifier (heavy), the estimator itself (estimator), hard-instance
generators (lb_gen), and a CLI (cli).
"""

from .estimator import (
    MAX_RUN_SAMPLES,
    DegreeWeightedSampler,
    EstimateReport,
    EstimatorParams,
    RunSizeExceeded,
    estimate,
    estimate_with_advice,
    feige_avg_degree,
)
from .exact import TriangleStats, count_brute, count_ordered, label_ground_truth
from .graph_store import Graph, GraphFormatError, load_edge_list, write_edge_list
from .heavy import (
    BORDERLINE,
    HEAVY,
    LIGHT,
    HeavyParams,
    HeavyVerdict,
    classify_heavy,
    decision_threshold,
    degree_cutoff,
    heavy_tv_cutoff,
    light_tv_cutoff,
)
from .lb_gen import (
    GenResult,
    gen_clique_family,
    gen_g1_bipartite,
    gen_g2_matching,
    gen_g2_multi_matching,
    gen_g2_partial_matching,
    gen_special_four,
)
from .query_oracle import ABSENT, BudgetExhausted, QueryOracle, QueryStats

__version__ = "0.1.0"

__all__ = [
    "ABSENT",
    "BORDERLINE",
    "BudgetExhausted",
    "DegreeWeightedSampler",
    "EstimateReport",
    "EstimatorParams",
    "GenResult",
    "Graph",
    "GraphFormatError",
    "HEAVY",
    "HeavyParams",
    "HeavyVerdict",
    "LIGHT",
    "MAX_RUN_SAMPLES",
    "QueryOracle",
    "QueryStats",
    "RunSizeExceeded",
    "TriangleStats",
    "classify_heavy",
    "count_brute",
    "count_ordered",
    "decision_threshold",
    "degree_cutoff",
    "estimate",
    "estimate_with_advice",
    "feige_avg_degree",
    "gen_clique_family",
    "gen_g1_bipartite",
    "gen_g2_matching",
    "gen_g2_multi_matching",
    "gen_g2_partial_matching",
    "gen_special_four",
    "heavy_tv_cutoff",
    "label_ground_truth",
    "light_tv_cutoff",
    "load_edge_list",
    "write_edge_list",
    "__version__",
]
