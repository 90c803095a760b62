"""Exhaustive baselines, used as ground truth in tests.

Both oracles enumerate the full search space outright (every orientation
or every independent edge subset); there is no pruning, which is the
point: their correctness is plain to see.  Budgets cap the instance
size and overshooting one is an explicit error, never a silent skip.

The orientation oracle holds all 2^m orientations as the integers
0..2^m-1, one bit per edge, and counts each vertex's out-degree under
all of them with one popcount over two bit masks (numpy 2.0's
bitwise_count).  Vertices of degree at most 1, light in every
orientation, and vertices of cost 0 add a constant and are not swept.
"""

from __future__ import annotations

import os
from fractions import Fraction

from ._record import record
from .graph import Graph, Orientation, VertexWeights
from .matching import Matching

__all__ = [
    "BudgetExceededError",
    "OracleBudget",
    "brute_force_max_matching",
    "brute_force_min_light",
]

_ENV_VAR = "ORIENT_LIGHT_ORACLE_BUDGET"

_INT64_MAX = 2**63 - 1


class BudgetExceededError(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


@record
class OracleBudget:
    """Caps for the two enumerations.

    max_edges bounds the 2^m orientation sweep, max_matching_edges the
    edge-subset sweep.  The ORIENT_LIGHT_ORACLE_BUDGET environment
    variable overrides the defaults: either one integer for both caps,
    or "a,b" for (max_edges, max_matching_edges).
    """

    max_edges: int = 20
    max_matching_edges: int = 18

    def __post_init__(self) -> None:
        if self.max_edges < 1 or self.max_matching_edges < 1:
            raise ValueError("budget caps must be positive")

    @classmethod
    def from_env(cls) -> "OracleBudget":
        raw = os.environ.get(_ENV_VAR, "").strip()
        if not raw:
            return cls()
        parts = raw.split(",")
        try:
            if len(parts) == 1:
                cap = int(parts[0])
                return cls(cap, cap)
            if len(parts) == 2:
                return cls(int(parts[0]), int(parts[1]))
        except ValueError:
            pass
        raise ValueError(f"{_ENV_VAR} must be 'cap' or 'max_edges,max_matching_edges', got {raw!r}")


def brute_force_min_light(
    g: Graph,
    weights: VertexWeights | None = None,
    budget: OracleBudget | None = None,
) -> tuple[int | Fraction, Orientation]:
    """Exact minimum light count (or cost) over all 2^m orientations, with a witness.

    Ties go to the first minimum in lexicographic direction order, where
    edge 0 is the most significant position and lower-to-higher precedes
    higher-to-lower.
    """
    budget = budget if budget is not None else OracleBudget.from_env()
    m = g.m
    if m > budget.max_edges:
        raise BudgetExceededError(f"{m} edges exceeds the oracle cap of {budget.max_edges}")
    if weights is not None and len(weights) != g.n:
        raise ValueError(f"weights cover {len(weights)} vertices, graph has {g.n}")
    units = weights.units if weights is not None else (1,) * g.n
    # each vertex's edges as bit masks: edge e is bit m-1-e of an
    # orientation mask, and a 0 there orients it from its lower endpoint
    # to its higher one, so e leaves v exactly where the mask's bit
    # differs from e's bit in lower[v]
    lower: dict[int, int] = {}
    span: dict[int, int] = {}
    for e, (u, w) in enumerate(g.edges):
        bit = 1 << (m - 1 - e)
        lower[u] = lower.get(u, 0) | bit
        span[u] = span.get(u, 0) | bit
        span[w] = span.get(w, 0) | bit
    # a vertex of degree at most 1 is light in every orientation, and
    # one of cost 0 never counts: neither needs a sweep
    swept = [v for v, s in span.items() if s.bit_count() > 1 and units[v]]
    swept_units = sum(units[v] for v in swept)
    constant = sum(units) - swept_units
    # imported here, past the budget checks, so that solving (which never
    # calls the oracle) and over-budget calls do not load numpy
    import numpy as np

    # int64 while every sum fits in it, exact Python ints otherwise
    total = np.zeros(1 << m, dtype=object if swept_units > _INT64_MAX else np.int64)
    masks = np.arange(1 << m, dtype=np.uint64)
    for v in swept:
        od = np.bitwise_count((masks ^ lower.get(v, 0)) & span[v])
        np.add(total, units[v], out=total, where=od <= 1)
    best = int(total.argmin())
    tails = []
    for e, (u, w) in enumerate(g.edges):
        bit = (best >> (m - 1 - e)) & 1
        tails.append(u if bit == 0 else w)
    value = constant + int(total[best])
    objective = weights.as_value(value) if weights is not None else value
    return objective, Orientation(tuple(tails))


def brute_force_max_matching(
    g: Graph,
    edge_weights=None,
    budget: OracleBudget | None = None,
) -> Matching:
    """Exact optimum matching by enumerating independent edge subsets.

    Maximizes total weight when edge_weights is given, cardinality
    otherwise.  Shares no algorithmic code with the matching module.
    """
    budget = budget if budget is not None else OracleBudget.from_env()
    if g.m > budget.max_matching_edges:
        raise BudgetExceededError(
            f"{g.m} edges exceeds the matching oracle cap of {budget.max_matching_edges}"
        )
    if edge_weights is not None:
        if len(edge_weights) != g.m:
            raise ValueError(f"{len(edge_weights)} weights for {g.m} edges")
        if any(w < 0 for w in edge_weights):
            raise ValueError("negative edge weight")
    best_value = -1
    best_ids: tuple[int, ...] = ()
    used = bytearray(g.n)
    chosen: list[int] = []

    def explore(e: int, value: int) -> None:
        nonlocal best_value, best_ids
        if e == g.m:
            if value > best_value:
                best_value = value
                best_ids = tuple(chosen)
            return
        explore(e + 1, value)
        u, v = g.edges[e]
        if not used[u] and not used[v]:
            used[u] = used[v] = 1
            chosen.append(e)
            explore(e + 1, value + (edge_weights[e] if edge_weights is not None else 1))
            chosen.pop()
            used[u] = used[v] = 0

    explore(0, 0)
    return Matching.from_edge_ids(g, best_ids)
