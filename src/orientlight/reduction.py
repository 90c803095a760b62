"""The gadget construction that turns the orientation problem into matching.

build_gprime first peels the input graph down to a core: every vertex
starts with demand 2, the out-degree it still needs to be heavy, and a
vertex whose status no longer depends on the rest of the graph is
removed with all its remaining edges oriented into it.  It then expands
the core into the gadget graph: every core edge becomes a two-edge path
through a fresh connector vertex, and every core vertex becomes a gadget
of port and inner vertices whose matchings encode whether the vertex
meets its demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, VertexWeights

__all__ = ["ReducedGraph", "build_gprime"]


@dataclass(frozen=True)
class ReducedGraph:
    """The peeled core, its gadget graph, and the maps back to the input.

    Peeling.  core_to_input[c] is the input vertex of core vertex c and
    core_edge_to_input[f] the input edge of core edge f, both ascending,
    so core edges keep their input order.  demand[c] is 1 or 2: the
    out-degree core vertex c needs inside the core to have out-degree at
    least 2 in the input.  peeled_tails[e] is the tail peeling fixed for
    input edge e, or -1 when e is a core edge.  peeled_light lists the
    peeled input vertices that are light whatever the core does.

    Every core vertex has degree at least its demand; isolated vertices
    and whole forests peel away.  The peel is sound: orienting a peeled
    vertex's remaining edges into it only adds out-edges at its
    neighbours, which never makes a neighbour worse, and the peeled
    vertex's own status is already fixed (it is heavy or cannot become
    heavy).  So an optimal orientation of the input extends the peel,
    and its light total is the peeled light total plus an optimum of the
    core.  Zero-cost vertices stay in the core, where their gadget edges
    weigh 0.  Peeling them as well would be sound, but each popped
    vertex can fill a neighbour's demand, so on sparse random graphs a
    few zero costs either empty the core or leave nearly all of it, and
    the solve time of similar inputs would differ a thousandfold.

    Vertex layout of gprime: for core edge e the port at the lower
    endpoint is 3e, the connector is 3e+1, and the port at the higher
    endpoint is 3e+2; the inner vertices of each core vertex follow from
    3m onward, in vertex order.  Edge layout: the two connecting edges
    of core edge e are 2e (lower side) and 2e+1 (higher side); then per
    core vertex its inner-to-port edges, inner-major, then its parity
    edge if it has one.

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
    peeled_light: tuple[int, ...]
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
    """Peels the input graph to a core and builds the core's gadget graph.

    A vertex is spent when its demand is 0 or its remaining degree is
    below its demand.  Spent vertices are popped from a stack seeded in
    vertex order; a popped vertex has its remaining edges oriented into
    it, and each neighbour loses one remaining degree and one demand
    (never below 0).  A popped vertex whose demand is still positive
    stays light.  This is sound: the extra out-edges never hurt a
    neighbour, and a spent vertex's status is already fixed (see
    ReducedGraph).

    With m core edges the gadget graph has 5m - sum(demand) vertices and
    sum(d^2 - (b - 1) d + [b = 2]) edges over core vertices of degree d
    and demand b; on a graph of minimum degree 2 nothing peels, and
    these are the paper's 5m - 2n and sum(d^2 - d + 1).  Either gadget
    holds d - 1 + [heavy] matched edges of a normalized maximal matching,
    heavy meaning core out-degree at least the demand, so the core's
    light count is 2m - |M| and its light cost Q - w(M) with
    Q = sum(d(v) c_v).  With weights given, every edge owned by core
    vertex v (its gadget edges and its side connecting edges) carries
    v's cost in integer units; without weights every edge weighs 1.
    """
    if weights is not None and len(weights) != g.n:
        raise ValueError(f"weights cover {len(weights)} vertices, graph has {g.n}")
    left = [g.degree(v) for v in range(g.n)]
    need = [2] * g.n
    tails = [-1] * g.m
    spent = [left[v] < 2 for v in range(g.n)]
    stack = [v for v in range(g.n) if spent[v]]
    light = []
    while stack:
        v = stack.pop()
        if need[v]:
            light.append(v)
        for e in g.adjacency[v]:
            if tails[e] != -1:
                continue
            w = g.other_end(e, v)
            tails[e] = w
            left[w] -= 1
            if need[w]:
                need[w] -= 1
            if not spent[w] and (need[w] == 0 or left[w] < need[w]):
                spent[w] = True
                stack.append(w)

    core_to_input = tuple(v for v in range(g.n) if not spent[v])
    core_edge_to_input = tuple(e for e in range(g.m) if tails[e] == -1)
    new_id = {v: c for c, v in enumerate(core_to_input)}
    core = Graph(
        len(core_to_input),
        tuple((new_id[g.edges[e][0]], new_id[g.edges[e][1]]) for e in core_edge_to_input),
    )
    demand = tuple(need[v] for v in core_to_input)
    n, m = core.n, core.m
    unit = [weights.unit(v) if weights is not None else 1 for v in core_to_input]

    connector = tuple(3 * e + 1 for e in range(m))
    ports = tuple((3 * e, 3 * e + 2) for e in range(m))
    inner: list[tuple[int, ...]] = []
    nxt = 3 * m
    for v in range(n):
        d = core.degree(v)
        inner.append(tuple(range(nxt, nxt + d - demand[v])))
        nxt += d - demand[v]

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
        vports = [3 * e if core.edges[e][0] == v else 3 * e + 2 for e in core.adjacency[v]]
        first = len(gp_edges)
        for i in inner[v]:
            gp_edges += [(i, p) for p in vports]
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
        peeled_light=tuple(sorted(light)),
        gprime=Graph(nxt, tuple(gp_edges)),
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
