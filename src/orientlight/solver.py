"""End-to-end pipeline from input graph to certified optimal orientation.

The pipeline: shrink the input to a core and build the core's gadget
graph (build_gprime: one flow that settles every vertex with no
directed path to a vertex left short of its target and keeps the
others as the core), compute one maximum matching, read the core
orientation back off the matching, and map it onto the input edges
next to the tails the kernel fixed.  The matching value yields a
certificate: on the core the optimal light count is 2m - |M|
(unweighted) or Q - w(M) (weighted), and the vertices of degree below
2 contribute the offset.  The kernel is sound because some optimal
orientation agrees with every tail it fixes (see ReducedGraph).  Both
identities are recounted on the final orientation; a mismatch, such as
a costly vertex the kernel settled light, raises an internal error.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

from ._record import field, record
from .graph import (
    Graph,
    Orientation,
    VertexWeights,
    check_orientation,
    light_vertices,
)
from .matching import (
    Matching,
    extend_to_maximal,
    max_cardinality_matching,
    max_weight_matching,
)
from .reduction import ReducedGraph, build_gprime

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

    constant is 2m (unweighted) or Q = sum(d(v) c_v) (weighted) over the
    core build_gprime leaves, the weight of the gadget's connecting
    edges, and constant - matching_value is the core's optimal light
    total.  offset is the count (or cost) of the input vertices of
    degree below 2, light in every orientation; every other vertex
    outside the core gets out-degree 2 from the kernel or costs nothing.
    It is never negative.  The sum is the optimum of the input because
    the kernel is sound: some optimal orientation agrees with every tail
    it fixes (ReducedGraph gives the argument).
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
    reduced_* the gadget graph, which reduction holds.
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
    """The maximal matching of the gadget graph that mirrors an orientation.

    Chooses the tail-side connecting edge of every core edge, extends
    greedily to a maximal matching (every connector is already covered,
    so only gadget edges can still fit), then normalizes every gadget.
    The result matches exactly out_degree(v) of v's side edges, and its
    size is 2m minus the number of core vertices whose out-degree is
    below their demand.
    """
    core = r.core
    check_orientation(core, o)
    ids = []
    for e, (u, _) in enumerate(core.edges):
        lo, hi = r.connecting_edges[e]
        ids.append(lo if o.tails[e] == u else hi)
    m = extend_to_maximal(r.gprime, Matching.from_edge_ids(r.gprime, ids))
    for v in range(core.n):
        m = normalize_gadget_matching(r, m, v)
    return m


def normalize_gadget_matching(r: ReducedGraph, m: Matching, v: int) -> Matching:
    """Rebalances the matching inside one gadget, leaving the rest alone.

    With k matched side edges at core vertex v of degree d and demand b,
    the result holds exactly d - 1 + [k >= b] matched edges among v's
    gadget and side edges: v meets its demand in the core orientation
    read off the matching exactly when its gadget holds d edges.  A
    demand-1 gadget needs no work, since a maximal matching already
    covers all its d - 1 inner vertices and, when k >= 1, all its
    remaining ports.  A demand-2 gadget needs work in two situations: no
    side edge and no parity edge matched (the gadget is repacked into a
    perfect matching of its vertices, one edge larger than before), and
    two or more side edges with the parity edge matched (the parity edge
    is swapped for two inner-to-port edges, again one edge larger).
    Requires a maximal matching, as the counts above do not hold
    otherwise.  With every gadget normalized, the matching's size (or
    weight) is 2m (or Q) minus the core's light total; the vertices the
    kernel removed are already settled, since the tails it fixed never
    hurt a core vertex and their own status was fixed when removed.
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
    d = core.degree(v)
    k = sum(1 for eid in r.side_edges[v] if eid in matched)
    parity_in = r.parity_edge[v] in matched

    if r.demand[v] == 1:
        out = m
    elif k == 0 and not parity_in:
        # repack: parity edge covers the two designated ports, and each
        # inner vertex pairs with one of the remaining ports in order
        keep = set(matched)
        keep.difference_update(r.gadget_edge_ids[v])
        keep.add(r.parity_edge[v])
        for i in range(d - 2):
            keep.add(r.gadget_edge_ids[v][i * d + (2 + i)])
        out = Matching.from_edge_ids(r.gprime, keep)
    elif k >= 2 and parity_in:
        exposed_inner = [i for i in r.inner[v] if mate[i] == -1]
        if len(exposed_inner) < 2:
            raise ValueError(
                f"matching is not maximal around vertex {v}: expected at least two "
                "exposed inner vertices"
            )
        pa, pb = r.gprime.edges[r.parity_edge[v]]
        i0, i1 = exposed_inner[0], exposed_inner[1]
        e0 = r.gprime.edge_ids[(min(i0, pa), max(i0, pa))]
        e1 = r.gprime.edge_ids[(min(i1, pb), max(i1, pb))]
        keep = set(matched)
        keep.remove(r.parity_edge[v])
        keep.add(e0)
        keep.add(e1)
        out = Matching.from_edge_ids(r.gprime, keep)
    else:
        out = m

    expected = d - 1 + (k >= r.demand[v])
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
        lo, hi = r.connecting_edges[e]
        in_lo = lo in matched
        in_hi = hi in matched
        if in_lo and in_hi:
            raise ValueError(f"both connecting edges of core edge {e} are matched")
        if in_hi:
            tails.append(v)
        else:
            tails.append(u)
    return Orientation(tuple(tails))


def solve_min_light(g: Graph, weights: VertexWeights | None = None) -> Solution:
    """Minimum number (or cost) of vertices with out-degree at most 1.

    Unweighted when weights is None; otherwise minimizes the total cost
    of the light vertices.  Negative costs are rejected: that variant is
    NP-hard and out of scope.
    """
    return solve_with_stats(g, weights)[0]


def solve_with_stats(
    g: Graph, weights: VertexWeights | None = None
) -> tuple[Solution, SolveStats]:
    """solve_min_light plus instance sizes and per-phase timings."""
    weighted = weights is not None
    if weighted and any(u < 0 for u in weights.units):
        raise ValueError("negative vertex costs are not supported: that variant is NP-hard")
    # without weights every vertex costs one unit and a unit total is its value
    units, as_value = (weights.units, weights.as_value) if weighted else ((1,) * g.n, int)

    t0 = perf_counter()
    r = build_gprime(g, weights)
    t1 = perf_counter()

    if weighted:
        matching = max_weight_matching(r.gprime, r.edge_weights)
        matching_units = matching.weight_units(r.edge_weights)
    else:
        matching = max_cardinality_matching(r.gprime)
        matching_units = matching.size
    t2 = perf_counter()

    # map the core orientation onto the input edges next to the kernel's tails
    o_core = recover_orientation(r, matching)
    core_to_input = r.core_to_input
    tails = list(r.peeled_tails)
    for e, t in zip(r.core_edge_to_input, o_core.tails):
        tails[e] = core_to_input[t]
    orientation = Orientation(tuple(tails))
    light = light_vertices(g, orientation, 1)

    # Q is the connecting edges' weight; Certificate gives the offset rule
    constant_units = sum(r.edge_weights[: 2 * r.core.m])
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
