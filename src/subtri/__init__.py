"""Sublinear triangle-count estimation over a metered graph query oracle.

The package splits into storage (graph_store), the metered access model
(query_oracle), exact ground truth (exact), the sampled heavy-vertex
classifier (heavy), the estimator itself (estimator), hard-instance
generators (lb_gen), and a CLI (cli). The package root re-exports the
README quickstart's names; everything else is imported from its module.
"""

from .estimator import estimate
from .exact import count_ordered
from .graph_store import Graph
from .query_oracle import QueryOracle

__version__ = "0.1.0"

__all__ = ["Graph", "QueryOracle", "count_ordered", "estimate", "__version__"]
