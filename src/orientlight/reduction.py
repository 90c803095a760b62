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
    least 2 in the input.  peeled_tails[e] is the tail the kernel fixed
    for input edge e, or -1 when e is a core edge.  Outside the core
    peeled_tails alone fixes every vertex's status: a vertex of degree
    below 2 is light, a zero-cost vertex may be light at no cost, and
    every other vertex has out-degree at least 2.

    The kernel is one flow.  Give every input vertex a target: 2, or 0
    when its degree is below 2 (it is light whatever happens) or its
    cost is 0 in weighted mode (its status costs nothing either way).
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
    tail in peeled_tails, and its light total is the count (or cost) of
    the vertices of degree below 2 plus an optimum of the core.

    Vertex layout of gprime: for core edge e the port at the lower
    endpoint is 3e, the connector is 3e+1, and the port at the higher
    endpoint is 3e+2; the inner vertices of each core vertex follow from
    3m onward, in vertex order.  Edge layout: the two connecting edges
    of core edge e are 2e (lower side) and 2e+1 (higher side); then per
    core vertex its inner-to-port edges, inner-major and each stored as
    (port, inner), then its parity edge if it has one.

    For core vertex v of degree d the gadget consists of the d ports of
    its incident edges and d - demand[v] inner vertices joined to every
    port.  A demand-2 vertex (the paper's gadget) also has one parity
    edge joining the ports of its two smallest incident edge ids; a
    demand-1 vertex has none and its parity_edge entry is -1.
    side_edges[v] lists the v-side connecting edges, one per incident
    core edge, in adjacency order.
    """

    core: Graph
    core_to_input: tuple[int, ...]
    core_edge_to_input: tuple[int, ...]
    demand: tuple[int, ...]
    peeled_tails: tuple[int, ...]
    gprime: Graph
    connector: tuple[int, ...]
    ports: tuple[tuple[int, int], ...]
    connecting_edges: tuple[tuple[int, int], ...]
    inner: tuple[tuple[int, ...], ...]
    gadget_edge_ids: tuple[tuple[int, ...], ...]
    parity_edge: tuple[int, ...]
    side_edges: tuple[tuple[int, ...], ...]
    edge_weights: tuple[int, ...]
    edge_owner: tuple[int, ...]

    def port_at(self, v: int, e: int) -> int:
        """The port of core edge e on core vertex v's side."""
        u, w = self.core.edges[e]
        if v == u:
            return self.ports[e][0]
        if v == w:
            return self.ports[e][1]
        raise ValueError(f"vertex {v} is not an endpoint of core edge {e}")

    def gadget_bucket(self, v: int) -> tuple[int, ...]:
        """All gprime edge ids owned by v: gadget edges plus side edges."""
        parity = () if self.parity_edge[v] == -1 else (self.parity_edge[v],)
        return self.gadget_edge_ids[v] + parity + self.side_edges[v]


def build_gprime(g: Graph, weights: VertexWeights | None = None) -> ReducedGraph:
    """Shrinks the input graph to a core and builds the core's gadget graph.

    The kernel is one flow.  Every vertex gets a target, 0 when its
    degree is below 2 or its cost is 0 and 2 otherwise, and
    _deficient_region orients every edge so that only a
    predecessor-closed region R can fall short of its target.  R is the
    core.  Every vertex outside R meets its target with edges outside R
    and every edge between R and the rest leaves R, so those edges keep
    the flow's direction (ReducedGraph gives the lemma) and each R
    vertex's demand is 2 minus its out-edges leaving R.  A flow edge
    entering R or an R vertex with 2 out-edges leaving R is an internal
    error.

    The kernel makes one pass over the edges, the flow's greedy start,
    and counts no out-degrees; everything else touches only the edges of
    the flow's searches and of R.  The solver's recount of the final
    orientation checks that the flow met every target outside R.

    With m core edges the gadget graph has 5m - sum(demand) vertices and
    sum(d^2 - (b - 1) d + [b = 2]) edges over core vertices of degree d
    and demand b; with every demand 2 these are the paper's 5m - 2n and
    sum(d^2 - d + 1).  Either gadget holds d - 1 + [heavy] matched edges of
    a normalized maximal matching, heavy meaning core out-degree at
    least the demand, so the core's light count is 2m - |M| and its
    light cost Q - w(M) with Q = sum(d(v) c_v).  With weights given,
    every edge owned by core vertex v (its gadget edges and its side
    connecting edges) carries v's cost in integer units; without weights
    every edge weighs 1.
    """
    n = g.n
    if weights is not None and len(weights) != n:
        raise ValueError(f"weights cover {len(weights)} vertices, graph has {n}")
    units = (1,) * n if weights is None else weights.units
    edges = g.edges
    adj = g.adjacency

    target = [0 if len(a) < 2 or c == 0 else 2 for a, c in zip(adj, units)]
    tails, in_region = _deficient_region(g, target)
    core_to_input = tuple(compress(range(n), in_region))  # R is the core
    out = [0] * n  # out-edges leaving R, per vertex of R
    core_edges = []
    for x in core_to_input:
        for e in adj[x]:
            a, b = edges[e]
            if in_region[a + b - x]:
                tails[e] = -1  # inside R: a core edge, listed from its lower end
                if a == x:
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
    n, m = core.n, core.m
    cadj = core.adjacency

    connector = tuple(3 * e + 1 for e in range(m))
    ports = tuple((3 * e, 3 * e + 2) for e in range(m))
    inner: list[tuple[int, ...]] = []
    nxt = 3 * m
    for v in range(n):
        k = len(cadj[v]) - demand[v]
        inner.append(tuple(range(nxt, nxt + k)))
        nxt += k

    gp_edges: list[tuple[int, int]] = []
    wts: list[int] = []
    owner: list[int] = []
    side: list[list[int]] = [[] for _ in range(n)]
    for e, (u, w) in enumerate(core.edges):
        gp_edges += [(3 * e, 3 * e + 1), (3 * e + 1, 3 * e + 2)]
        wts += [unit[u], unit[w]]
        owner += [u, w]
        side[u].append(2 * e)
        side[w].append(2 * e + 1)
    connecting_edges = tuple((2 * e, 2 * e + 1) for e in range(m))
    gadget_edge_ids: list[tuple[int, ...]] = []
    parity: list[int] = []
    for v in range(n):
        vports = [3 * e if core.edges[e][0] == v else 3 * e + 2 for e in cadj[v]]
        first = len(gp_edges)
        for i in inner[v]:
            gp_edges += [(p, i) for p in vports]  # every port lies below every inner
        gadget_edge_ids.append(tuple(range(first, len(gp_edges))))
        if demand[v] == 2:
            # parity edge between the ports of the two smallest incident edge ids
            parity.append(len(gp_edges))
            gp_edges.append((vports[0], vports[1]))
        else:
            parity.append(-1)
        wts += [unit[v]] * (len(gp_edges) - first)
        owner += [v] * (len(gp_edges) - first)
    return ReducedGraph(
        core=core,
        core_to_input=core_to_input,
        core_edge_to_input=core_edge_to_input,
        demand=demand,
        peeled_tails=tuple(tails),
        gprime=_valid_graph(nxt, tuple(gp_edges)),
        connector=connector,
        ports=ports,
        connecting_edges=connecting_edges,
        inner=tuple(inner),
        gadget_edge_ids=tuple(gadget_edge_ids),
        parity_edge=tuple(parity),
        side_edges=tuple(tuple(s) for s in side),
        edge_weights=tuple(wts),
        edge_owner=tuple(owner),
    )


def _deficient_region(g: Graph, target: list[int]) -> tuple[list[int], list[bool]]:
    """Orients every edge so that few vertices miss their targets.

    Starting from a greedy orientation that gives each edge to the
    endpoint further below its target, every vertex v below its target
    searches backwards over its in-edges for a vertex above its target
    and reverses that path, which raises v's out-degree by one and
    changes no inner vertex's (Hakimi's out-degree lower bound
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
    excess = [-t for t in target]  # out-degree minus target
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
