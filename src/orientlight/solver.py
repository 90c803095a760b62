"""End-to-end pipeline from input graph to certified optimal orientation.

The pipeline: shrink the input to a core and build the core's gadget
graph (build_gprime: one flow that settles every vertex with no
directed path to a vertex left short of its target and keeps the
others as the core), compute one maximum matching, read the core
orientation back off the matching, and map it onto the input edges
next to the tails the kernel fixed.  An empty core has no gadget to
match, and the kernel's tails are the orientation.  Without costs
every vertex costs 1.  On the core the optimal light cost is Q - w(M)
(2m - |M| at unit costs), and the vertices of degree below 2
contribute the offset.  The kernel is sound because some optimal
orientation agrees with every tail it fixes (see ReducedGraph).  Both
identities are recounted on the final orientation; a mismatch, such
as a costly vertex the kernel settled light, raises an internal error.
"""

from __future__ import annotations

from time import perf_counter

from . import matching as engines
from ._record import field, record
from .graph import Graph, Orientation, VertexWeights, light_vertices
from .matching import Matching
from .reduction import ReducedGraph, build_gprime

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: fractions loads when a total is not whole
    from fractions import Fraction

__all__ = [
    "Certificate",
    "Solution",
    "SolveStats",
    "matching_from_orientation",
    "normalize_gadget_matching",
    "recover_orientation",
    "solve_min_light",
    "solve_with_stats",
]


@record
class Certificate:
    """Optimality certificate: objective = constant - matching_value + offset.

    constant is always Q = sum(d(v) c_v) over the core build_gprime
    leaves, the weight of the gadget's connecting edges, which is 2m at
    unit costs; constant - matching_value is the core's optimal light
    total.  offset is the cost of the input vertices of degree below 2,
    light in every orientation; every other vertex outside the core gets
    out-degree 2 from the kernel or costs nothing.  It is never negative.
    The sum is the optimum of the input because the kernel is sound:
    some optimal orientation agrees with every tail it fixes
    (ReducedGraph gives the argument).
    """

    matching_value: int | Fraction
    constant: int | Fraction
    offset: int | Fraction


@record
class Solution:
    orientation: Orientation
    light_set: frozenset[int]
    objective: int | Fraction
    certificate: Certificate


@record
class SolveStats:
    """Instance and phase statistics for one solve.

    core_* is the core the flow kernel leaves for the gadget, and
    reduced_* the gadget graph, which reduction holds.  An empty core
    runs no engine, so its match_seconds are about 0.  The first
    mixed-cost solve in a process also loads the weighted engine, and
    its match_seconds include that import.
    """

    n: int
    m: int
    core_vertices: int
    core_edges: int
    reduced_vertices: int
    reduced_edges: int
    reduce_seconds: float
    match_seconds: float
    recover_seconds: float
    reduction: ReducedGraph = field()


def matching_from_orientation(r: ReducedGraph, o: Orientation) -> Matching:
    """The normalized matching of the gadget graph that mirrors an orientation.

    Chooses the tail-side connecting edge of every core edge and fills
    every gadget from the ports of its in-edges (_gadget_fill).  The
    result is maximal, matches exactly out_degree(v) of v's side edges,
    and its size is 2m minus the number of core vertices whose
    out-degree is below their demand.
    """
    core = r.core
    light_vertices(core, o)  # raises unless o orients every core edge
    ids = []
    free: list[list[int]] = [[] for _ in range(core.n)]
    seen = [0] * core.n  # v's ports so far: edges arrive in adjacency order
    for e, (u, w) in enumerate(core.edges):
        tail = o.tails[e]
        ids.append(r.side_edge(tail, e))
        head = u + w - tail
        free[head].append(seen[head])
        seen[u] += 1
        seen[w] += 1
    for v in range(core.n):
        ids += _gadget_fill(r, v, free[v])
    return Matching.from_edge_ids(r.gprime, ids)


def _gadget_fill(r: ReducedGraph, v: int, free: list[int]) -> list[int]:
    """The gadget and parity edges of v's normalized internal matching.

    free lists, ascending, the positions of v's ports whose side edge is
    unmatched; k = d - len(free) side edges are matched.  With k = 0 at
    demand 2 the parity edge covers ports 0 and 1.  Every other free
    port j in turn takes the lowest unused inner vertex i >= j - b, which
    the band joins to j, until the d - b inner vertices run out.  With
    k >= b every free port is covered, and otherwise every inner vertex
    is, so the gadget holds d - 1 + [k >= b] matched edges with its side
    edges.
    """
    d, b = r.core.degree(v), r.demand[v]
    fill = []
    if b == 2 and len(free) == d:
        fill.append(r.parity_edge(v))
        free = free[2:]
    i = 0
    for j in free:
        i = max(i, j - b)
        if i == d - b:
            break
        fill.append(r.band_edge(v, i, j))
        i += 1
    return fill


def normalize_gadget_matching(r: ReducedGraph, m: Matching, v: int) -> Matching:
    """Rebalances the matching inside one gadget, leaving the rest alone.

    With k matched side edges at core vertex v of degree d and demand b,
    the result holds exactly d - 1 + [k >= b] matched edges among v's
    gadget and side edges: v meets its demand in the core orientation
    read off the matching exactly when its gadget holds d edges.  A
    gadget that already holds that many is returned unchanged, as a
    maximum matching's always is; otherwise v's gadget and parity edges
    are swapped for _gadget_fill's, which keeps every side edge.
    Requires a maximal matching.  With every gadget normalized, the
    matching's weight is Q (2m at unit costs) minus the core's light
    total; the vertices the kernel removed are already settled, since
    the tails it fixed never hurt a core vertex and their own status was
    fixed when removed.
    """
    core = r.core
    if not 0 <= v < core.n:
        raise ValueError(f"vertex {v} out of range 0..{core.n - 1}")
    if len(m.mate) != r.gprime.n:
        raise ValueError("matching does not belong to the gadget graph")
    mate = m.mate
    bucket = r.gadget_bucket(v)
    for eid in bucket:
        a, b = r.gprime.edges[eid]
        if mate[a] == -1 and mate[b] == -1:
            raise ValueError(
                f"matching is not maximal: edge {eid} near vertex {v} could be added"
            )
    matched = m.matched_edge_ids
    sides = r.side_edges(v)
    free = [j for j, eid in enumerate(sides) if eid not in matched]
    expected = core.degree(v) - 1 + (core.degree(v) - len(free) >= r.demand[v])
    out = m
    if sum(1 for eid in bucket if eid in matched) != expected:
        internal = set(bucket).difference(sides)
        out = Matching.from_edge_ids(
            r.gprime, (matched - internal).union(_gadget_fill(r, v, free))
        )
    got = sum(1 for eid in bucket if eid in out.matched_edge_ids)
    if got != expected:
        raise RuntimeError(
            f"internal error: gadget of vertex {v} holds {got} matched edges, "
            f"expected {expected} (n={core.n}, m={core.m})"
        )
    return out


def recover_orientation(r: ReducedGraph, m: Matching) -> Orientation:
    """Reads a core orientation off a matching of the gadget graph.

    A matched lower-side connecting edge orients the core edge away from
    its lower endpoint, a matched higher-side edge away from the higher
    one, and an exposed connector orients lower to higher.
    """
    matched = m.matched_edge_ids
    tails = []
    for e, (u, v) in enumerate(r.core.edges):
        in_lo = r.side_edge(u, e) in matched
        in_hi = r.side_edge(v, e) in matched
        if in_lo and in_hi:
            raise ValueError(f"both connecting edges of core edge {e} are matched")
        if in_hi:
            tails.append(v)
        else:
            tails.append(u)
    return Orientation(tuple(tails))


def solve_min_light(g: Graph, weights: VertexWeights | None = None) -> Solution:
    """Minimum number (or cost) of vertices with out-degree at most 1.

    Without weights every vertex costs 1.  Negative costs are rejected:
    that variant is NP-hard and out of scope.
    """
    return solve_with_stats(g, weights)[0]


def solve_with_stats(
    g: Graph, weights: VertexWeights | None = None
) -> tuple[Solution, SolveStats]:
    """solve_min_light plus instance sizes and per-phase timings.

    When the kernel leaves an empty core, no engine runs and no core
    orientation is recovered: the flow's tails are the orientation, and
    the recount checks that its objective is the certificate's
    0 - 0 + offset.
    """
    if weights is None:
        weights = VertexWeights.ones(g.n)
    units, as_value = weights.units, weights.as_value

    t0 = perf_counter()
    r = build_gprime(g, weights)
    t1 = perf_counter()

    core_to_input = r.core_to_input
    if r.core.m:
        # with every gadget edge of one weight a maximum matching has maximum weight
        if len(set(r.edge_weights)) < 2:
            matching = engines.max_cardinality_matching(r.gprime)
        else:
            matching = engines.max_weight_matching(r.gprime, r.edge_weights)
        matching_units = matching.weight_units(r.edge_weights)
        t2 = perf_counter()

        # map the core orientation onto the input edges in place of the flow's
        o_core = recover_orientation(r, matching)
        tails = list(r.flow_tails)
        for e, t in zip(r.core_edge_to_input, o_core.tails):
            tails[e] = core_to_input[t]
        orientation = Orientation(tuple(tails))
    else:
        # the kernel settled every vertex: the empty gadget's matching is empty
        matching_units = 0
        t2 = perf_counter()
        orientation = Orientation(r.flow_tails)
    light = light_vertices(g, orientation)

    # Q is the connecting edges' weight; Certificate gives the offset rule
    constant_units = r.connecting_weight()
    offset_units = sum([c for a, c in zip(g.adjacency, units) if len(a) < 2])
    predicted_core = constant_units - matching_units
    core_count = sum([units[v] for v in core_to_input if v in light])
    if core_count != predicted_core:
        raise RuntimeError(
            f"internal error: core recount {core_count} disagrees with "
            f"certificate value {predicted_core} (n={g.n}, m={g.m})"
        )
    objective_units = sum([units[v] for v in light])
    if objective_units != predicted_core + offset_units:
        raise RuntimeError(
            f"internal error: objective recount {objective_units} disagrees with "
            f"certificate {predicted_core} plus offset {offset_units} (n={g.n}, m={g.m})"
        )
    cert = Certificate(as_value(matching_units), as_value(constant_units), as_value(offset_units))
    t3 = perf_counter()

    stats = SolveStats(
        n=g.n,
        m=g.m,
        core_vertices=r.core.n,
        core_edges=r.core.m,
        reduced_vertices=r.gprime.n,
        reduced_edges=r.gprime.m,
        reduce_seconds=t1 - t0,
        match_seconds=t2 - t1,
        recover_seconds=t3 - t2,
        reduction=r,
    )
    solution = Solution(orientation, light, as_value(objective_units), cert)
    return solution, stats
