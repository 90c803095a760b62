"""The gadget construction that turns the orientation problem into matching.

build_gprime first shrinks the input graph to a core with one flow:
every vertex gets a target out-degree, 2, or 0 when its status is fixed
or free whatever happens, and a Hakimi orientation settles every vertex
that can meet its target without the deficient region that cannot.
That region is the core.  build_gprime then expands it into the gadget
graph: every core edge becomes a two-edge path through a fresh
connector vertex, and every core vertex becomes a gadget of port and
inner vertices whose matchings encode whether the vertex meets its
demand.
"""

from __future__ import annotations

from itertools import compress

from ._record import record
from .graph import Graph, VertexWeights, _valid_graph

__all__ = ["ReducedGraph", "build_gprime"]


@record
class ReducedGraph:
    """The kernel's core, its gadget graph, and the maps back to the input.

    Kernel.  core_to_input[c] is the input vertex of core vertex c and
    core_edge_to_input[f] the input edge of core edge f, both ascending,
    so core edges keep their input order.  demand[c] is 1 or 2: the
    out-degree core vertex c needs inside the core to have out-degree at
    least 2 in the input.  flow_tails[e] is the flow's tail of input
    edge e, a core edge included; the solver replaces the core edges'
    tails with the matching's.  Outside the core the tails of the other
    edges alone fix every vertex's status: a vertex of degree below 2
    is light, a zero-cost vertex may be light at no cost, and every
    other vertex has out-degree at least 2.

    The kernel is one flow.  Give every input vertex a target: 2, or 0
    when its degree is below 2 (it is light whatever happens) or its
    cost is 0 (its status costs nothing either way).
    For any orientation let R be the vertices with a directed path to a
    vertex below its target.  No edge enters R, since its tail would
    have such a path too, so every vertex outside R meets its target
    with edges outside R.  Any orientation can be changed to orient the
    edges between R and the rest out of R, and the rest as the flow
    does, without making any vertex worse: R's vertices only gain
    out-edges, and every vertex outside R ends at its target.  So some
    optimal orientation agrees with the flow outside R, and the optimum
    is the count (or cost) of the vertices outside R that stay light
    plus the optimum on R, each R vertex's demand lowered by its
    out-edges leaving R.

    The flow fills as much of the targets as any orientation can
    (Hakimi's out-degree lower bounds), and R is the same for every such
    orientation.  There every R vertex has out-degree at most its
    target, or the path from it to a short vertex could be reversed, and
    unless it is short itself at least one out-edge inside R.  So every
    R vertex has target 2, fewer than 2 of its out-edges leave R, its
    demand is 1 or 2, and its degree in the core, its degree less the
    edges leaving R, is at least its demand.  On sparse random graphs
    with m ~ 3n almost every vertex can meet its target, so R, and with
    it the gadget, is small or empty.

    Altogether some optimal orientation of the input agrees with every
    flow tail off the core edges, and its light total is the count (or
    cost) of the vertices of degree below 2 plus an optimum of the core.

    Gadget.  Every core edge becomes a path from a port through a
    connector to a port, and core vertex v of degree d and demand b gets
    the d ports of its incident edges, in adjacency order (ascending
    core edge id), and d - b inner vertices.  Inner i is joined to ports
    i..i+b only, the band; a demand-2 vertex also has a parity edge
    joining ports 0 and 1.  Every gprime edge is owned by one core
    vertex, its gadget_bucket, and edge_weights gives it that vertex's
    cost in integer units, or 1 without weights.  The methods below
    compute every gadget vertex and edge id from the core, the demands
    and two offsets per core vertex, each with one closing entry:
    inner_start[v] is v's first inner vertex and band_start[v] its first
    band edge, and v's own run ends where v + 1's begins.

    The band keeps the paper's maximum matchings.  The paper joins every
    inner vertex to every port (Tutte's f-factor gadget), d(d - b)
    edges, and the band is a subgraph of that.  Sort any d - b of v's
    ports as s_0 < s_1 < ...: then i <= s_i <= i + b, so s_i can take
    inner i, and every smaller set of ports lies inside such a set.  So
    the normalized matching of every orientation lies inside the band,
    and the two graphs have the same maximum (weight) matching value.
    """

    core: Graph
    core_to_input: tuple[int, ...]
    core_edge_to_input: tuple[int, ...]
    demand: tuple[int, ...]
    flow_tails: tuple[int, ...]
    gprime: Graph
    edge_weights: tuple[int, ...]
    inner_start: tuple[int, ...]
    band_start: tuple[int, ...]

    def connector(self, e: int) -> int:
        """The connector of core edge e, between its two ports: 3e + 1."""
        return 3 * e + 1

    def port_at(self, v: int, e: int) -> int:
        """Core edge e's port on v's side: 3e at its lower end, 3e + 2 at its higher."""
        return 3 * e + 2 * self._side(v, e)

    def side_edge(self, v: int, e: int) -> int:
        """Core edge e's connecting edge on v's side: 2e at its lower end, 2e + 1 at its higher."""
        return 2 * e + self._side(v, e)

    def side_edges(self, v: int) -> tuple[int, ...]:
        """v's side connecting edges, in adjacency order (ascending core edge id)."""
        return tuple(self.side_edge(v, e) for e in self.core.adjacency[v])

    def connecting_weight(self) -> int:
        """Total weight of the connecting edges, gprime edges 0..2m - 1: sum of d(v) * cost(v)."""
        return sum(self.edge_weights[: 2 * self.core.m])

    def inner(self, v: int) -> range:
        """v's d - b inner vertices, numbered on from 3m in vertex order."""
        return range(self.inner_start[v], self.inner_start[v + 1])

    def band_edge(self, v: int, i: int, j: int) -> int:
        """The edge (port j, inner i) of v's band, for i <= j <= i + b."""
        return self.band_start[v] + i * (self.demand[v] + 1) + j - i

    def gadget_edge_ids(self, v: int) -> range:
        """v's (b + 1)(d - b) band edges, inner-major, each stored as (port, inner)."""
        return range(self.band_start[v], self.band_start[v + 1] - (self.demand[v] == 2))

    def parity_edge(self, v: int) -> int:
        """The edge after v's band joining ports 0 and 1 at demand 2; -1 at demand 1."""
        return self.band_start[v + 1] - 1 if self.demand[v] == 2 else -1

    def gadget_bucket(self, v: int) -> tuple[int, ...]:
        """All gprime edge ids owned by v: band, parity and side edges."""
        return (*range(self.band_start[v], self.band_start[v + 1]), *self.side_edges(v))

    def _side(self, v: int, e: int) -> bool:
        """False when v is core edge e's lower endpoint, True when its higher."""
        if v not in self.core.edges[e]:
            raise ValueError(f"vertex {v} is not an endpoint of core edge {e}")
        return self.core.edges[e][1] == v


def build_gprime(g: Graph, weights: VertexWeights | None = None) -> ReducedGraph:
    """Shrinks the input graph to a core and builds the core's gadget graph.

    The kernel is one flow.  Every vertex gets a target, 0 when its
    degree is below 2 or its cost is 0 and 2 otherwise.  The flow starts
    from each vertex's excess, its out-degree minus its target, which is
    0 or -2 before any edge is oriented, and _deficient_region orients
    every edge so that only a predecessor-closed region R can fall short
    of its target.  R is the core.  Every vertex outside R meets its
    target with edges outside R and every edge between R and the rest
    leaves R, so those edges keep the flow's direction (ReducedGraph
    gives the lemma) and each R vertex's demand is 2 minus its out-edges
    leaving R.  A flow edge entering R or an R vertex with 2 out-edges
    leaving R is an internal error.

    The kernel makes one pass over the edges, the flow's greedy start,
    and counts no out-degrees; everything else touches only the edges of
    the flow's searches and of R.  The solver's recount of the final
    orientation checks that the flow met every target outside R.

    With m core edges the gadget graph has 5m - sum(demand) vertices and
    2m + sum((b + 1)(d - b) + [b = 2]) edges over core vertices of
    degree d and demand b, the paper's count wherever d <= b + 1.  Every
    gadget holds d - 1 + [heavy] matched edges of a normalized matching,
    heavy meaning core out-degree at least the demand, so the core's
    light cost is Q - w(M) with Q = sum(d(v) c_v), which is 2m - |M| at
    unit costs.  Every edge owned by core vertex v (its gadget edges and
    its side connecting edges) carries v's cost in integer units, and
    without weights every vertex costs 1.
    """
    n = g.n
    if weights is not None and len(weights) != n:
        raise ValueError(f"weights cover {len(weights)} vertices, graph has {n}")
    units = (1,) * n if weights is None else weights.units
    edges = g.edges
    adj = g.adjacency

    excess = [-2 if len(a) > 1 and c else 0 for a, c in zip(adj, units)]
    tails, in_region = _deficient_region(g, excess)
    core_to_input = tuple(compress(range(n), in_region))  # R is the core
    out = [0] * n  # out-edges leaving R, per vertex of R
    core_edges = []
    for x in core_to_input:
        for e in adj[x]:
            a, b = edges[e]
            if in_region[a + b - x]:
                if a == x:  # inside R: a core edge, listed from its lower end
                    core_edges.append(e)
            elif tails[e] != x:
                raise RuntimeError(
                    f"internal error: flow edge {e} ({a}, {b}) enters the deficient "
                    f"region (n={n}, m={g.m})"
                )
            else:
                out[x] += 1
        if out[x] >= 2:
            raise RuntimeError(
                f"internal error: region vertex {x} has {out[x]} out-edges leaving "
                f"the deficient region (n={n}, m={g.m})"
            )

    core_edge_to_input = tuple(sorted(core_edges))
    new_id = {v: c for c, v in enumerate(core_to_input)}
    # new_id keeps the input order, so every core edge stays (low, high)
    core = _valid_graph(
        len(core_to_input),
        tuple((new_id[edges[e][0]], new_id[edges[e][1]]) for e in core_edge_to_input),
    )
    demand = tuple(2 - out[v] for v in core_to_input)
    unit = [units[v] for v in core_to_input]
    m = core.m
    cedges = core.edges

    # core edge e: port 3e, connector 3e + 1, port 3e + 2 (ReducedGraph.port_at)
    gp_edges = [(x, x + 1) for e in range(m) for x in (3 * e, 3 * e + 1)]
    wts = [unit[v] for edge in cedges for v in edge]
    inner_start, band_start = [3 * m], [2 * m]
    nxt = 3 * m
    for v, vedges in enumerate(core.adjacency):
        vports = [3 * e if cedges[e][0] == v else 3 * e + 2 for e in vedges]
        b = demand[v]
        for i in range(len(vports) - b):
            # the band: inner i takes ports i..i+b, each below every inner
            gp_edges += [(p, nxt) for p in vports[i : i + b + 1]]
            nxt += 1
        if b == 2:
            # parity edge between the ports of the two smallest incident edge ids
            gp_edges.append((vports[0], vports[1]))
        wts += [unit[v]] * (len(gp_edges) - band_start[-1])
        inner_start.append(nxt)
        band_start.append(len(gp_edges))
    return ReducedGraph(
        core=core,
        core_to_input=core_to_input,
        core_edge_to_input=core_edge_to_input,
        demand=demand,
        flow_tails=tuple(tails),
        gprime=_valid_graph(nxt, tuple(gp_edges)),
        edge_weights=tuple(wts),
        inner_start=tuple(inner_start),
        band_start=tuple(band_start),
    )


def _deficient_region(g: Graph, excess: list[int]) -> tuple[list[int], list[bool]]:
    """Orients every edge so that few vertices miss their targets.

    excess holds each vertex's start excess, its target negated since no
    edge is oriented yet, and is kept in place as out-degree minus
    target.  Starting from a greedy orientation that gives each edge to
    the endpoint further below its target, every vertex v below its
    target searches backwards over its in-edges for a vertex above its
    target and reverses that path, which raises v's out-degree by one
    and changes no inner vertex's (Hakimi's out-degree lower bound
    orientation).  A search that fails reaches a set closed under
    predecessors with no vertex above its target; no later reversal
    touches an edge of that set or an edge leaving it, so the whole set
    retires and later searches skip it, as the Hungarian trees of
    max_cardinality_matching do.  Total work is one search per unit of
    deficit filled plus O(m) for the failed ones.

    Returns the flow's tail of every edge and the retired vertices:
    exactly those with a directed path to a vertex still below its
    target.
    """
    edges = g.edges
    adj = g.adjacency
    tails = []
    for u, w in edges:
        t = u if excess[u] <= excess[w] else w
        tails.append(t)
        excess[t] += 1
    n = g.n
    retired = [False] * n
    seen = [-1] * n
    via = [-1] * n
    search = 0
    # a vertex at or above its target after the greedy start never drops below it
    for v in [v for v in range(n) if excess[v] < 0]:
        while excess[v] < 0 and not retired[v]:
            search += 1
            seen[v] = search
            reached = [v]
            found = -1
            i = 0
            while found == -1 and i < len(reached):
                x = reached[i]
                i += 1
                for e in adj[x]:
                    u = tails[e]
                    if u == x or seen[u] == search or retired[u]:
                        continue
                    seen[u] = search
                    via[u] = e
                    reached.append(u)
                    if excess[u] > 0:
                        found = u
                        break
            if found == -1:
                for x in reached:
                    retired[x] = True
                break
            excess[found] -= 1
            excess[v] += 1
            x = found
            while x != v:
                e = via[x]
                a, b = edges[e]
                x = a + b - x
                tails[e] = x
    return tails, retired
