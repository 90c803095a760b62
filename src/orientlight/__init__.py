"""Exact minimization of vertices with out-degree at most 1.

Given an undirected graph, orient every edge so that the number of
vertices with out-degree 0 or 1 is minimum; with per-vertex costs,
minimize their total cost instead.  The solver reduces the problem to a
single maximum matching in a gadget graph and returns the orientation
together with a certificate of optimality.
"""

from .generate import SplitMix64, random_graph, random_orientation, random_weights
from .graph import (
    Graph,
    Orientation,
    VertexWeights,
    check_orientation,
    light_cost,
    light_vertices,
    out_degree,
    parse_graph,
    parse_weights,
    render_graph,
)
from .matching import (
    Matching,
    extend_to_maximal,
    is_valid_matching,
    max_cardinality_matching,
    max_weight_matching,
)
from .oracle import (
    BudgetExceededError,
    OracleBudget,
    brute_force_max_matching,
    brute_force_min_light,
)
from .reduction import ReducedGraph, build_gprime
from .solver import (
    Certificate,
    Solution,
    SolveStats,
    matching_from_orientation,
    normalize_gadget_matching,
    recover_orientation,
    solve_min_light,
    solve_with_stats,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Certificate",
    "Graph",
    "Matching",
    "OracleBudget",
    "Orientation",
    "ReducedGraph",
    "Solution",
    "SolveStats",
    "SplitMix64",
    "VertexWeights",
    "brute_force_max_matching",
    "brute_force_min_light",
    "build_gprime",
    "check_orientation",
    "extend_to_maximal",
    "is_valid_matching",
    "light_cost",
    "light_vertices",
    "matching_from_orientation",
    "max_cardinality_matching",
    "max_weight_matching",
    "normalize_gadget_matching",
    "out_degree",
    "parse_graph",
    "parse_weights",
    "random_graph",
    "random_orientation",
    "random_weights",
    "recover_orientation",
    "render_graph",
    "solve_min_light",
    "solve_with_stats",
]
