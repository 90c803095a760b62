"""Exact minimization of vertices with out-degree at most 1.

Given an undirected graph, orient every edge so that the number of
vertices with out-degree 0 or 1 is minimum; with per-vertex costs,
minimize their total cost instead.  The solver reduces the problem to a
single maximum matching in a gadget graph and returns the orientation
together with a certificate of optimality.

The package root holds the solve API only.  The lower-level pieces are
imported from their own modules: the gadget from orientlight.reduction,
the matching engines from orientlight.matching, the exhaustive oracles
from orientlight.oracle and the random instances from
orientlight.generate.
"""

from .graph import Graph, Orientation, VertexWeights, parse_graph, parse_weights
from .solver import Certificate, Solution, SolveStats, solve_min_light, solve_with_stats

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "Graph",
    "Orientation",
    "Solution",
    "SolveStats",
    "VertexWeights",
    "parse_graph",
    "parse_weights",
    "solve_min_light",
    "solve_with_stats",
]
