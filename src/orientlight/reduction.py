"""The gadget construction that turns the orientation problem into matching.

build_gprime first shrinks the input graph to a core: every vertex
starts with demand 2, the out-degree it still needs to be heavy; a peel
removes vertices whose status no longer depends on the rest of the
graph, a flow settles every vertex that can meet its demand without the
region that cannot, and a second peel runs on what is left.  It then
expands the core into the gadget graph: every core edge becomes a
two-edge path through a fresh connector vertex, and every core vertex
becomes a gadget of port and inner vertices whose matchings encode
whether the vertex meets its demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, VertexWeights

__all__ = ["ReducedGraph", "build_gprime"]


@dataclass(frozen=True)
class ReducedGraph:
    """The kernel's core, its gadget graph, and the maps back to the input.

    Kernel.  core_to_input[c] is the input vertex of core vertex c and
    core_edge_to_input[f] the input edge of core edge f, both ascending,
    so core edges keep their input order.  demand[c] is 1 or 2: the
    out-degree core vertex c needs inside the core to have out-degree at
    least 2 in the input.  peeled_tails[e] is the tail the kernel fixed
    for input edge e, or -1 when e is a core edge.  peeled_light lists
    the input vertices outside the core that are light whatever the core
    does: every other vertex outside the core has out-degree at least 2
    from peeled_tails alone.  peel_core_vertices and peel_core_edges
    give the size of the core after the first peel, before the flow.

    Every core vertex has degree at least its demand; isolated vertices
    and whole forests peel away.  The peel is sound: orienting a peeled
    vertex's remaining edges into it only adds out-edges at its
    neighbours, which never makes a neighbour worse, and the peeled
    vertex's own status is already fixed (it is heavy or cannot become
    heavy).

    The flow is sound by the same argument.  Give every vertex of the
    peeled core a target: its demand, or 0 for a zero-cost vertex in
    weighted mode, whose status costs nothing either way.  For any
    orientation of the core let R be the vertices with a directed path
    to a vertex below its target.  No edge enters R, since its tail
    would have such a path too, so every vertex outside R meets its
    target with edges outside R.  Any orientation can be changed to
    orient the edges between R and the rest out of R, and the rest as
    the flow does, without making any vertex worse: R's vertices only
    gain out-edges, and every vertex outside R ends at its target.  So
    some optimal orientation agrees with the flow outside R, and the
    optimum is the count (or cost) of the vertices outside R that stay
    light plus the optimum on R, each R vertex's demand lowered by its
    out-edges leaving R.  The second peel then runs on R under those
    demands.  The flow picks an orientation with a small R: one that
    fills as much of the targets as any orientation can (Hakimi's
    out-degree lower bounds).  On sparse random graphs with m ~ 3n
    almost every vertex can meet its target, so R, and with it the
    gadget, is small or empty.

    Altogether some optimal orientation of the input agrees with every
    tail in peeled_tails, and its light total is the total of
    peeled_light plus an optimum of the core.

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
    peel_core_vertices: int
    peel_core_edges: int
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

    The kernel has three steps.  Peel: a vertex is spent when its demand
    is 0 or its remaining degree is below its demand.  Spent vertices are
    popped from a stack seeded in vertex order; a popped vertex has its
    remaining edges oriented into it, and each neighbour loses one
    remaining degree and one demand (never below 0).  A popped vertex
    whose demand is still positive stays light.  This is sound: the
    extra out-edges never hurt a neighbour, and a spent vertex's status
    is already fixed (see ReducedGraph).

    Flow: every core vertex gets a target, its demand, or 0 for a
    zero-cost vertex in weighted mode, and _deficient_region orients the
    core so that only a predecessor-closed region R can fall short of
    its target.  Every vertex outside R meets its target with edges
    outside R and every edge between R and the rest leaves R, so those
    edges keep the flow's direction (ReducedGraph gives the lemma) and
    each R vertex's demand drops by its crossing out-edges.  Peel again:
    the same peel runs on R under the lowered demands.

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
    if weights is not None and len(weights) != g.n:
        raise ValueError(f"weights cover {len(weights)} vertices, graph has {g.n}")
    left = [g.degree(v) for v in range(g.n)]
    need = [2] * g.n
    tails = [-1] * g.m
    spent = [False] * g.n

    def peel(candidates) -> None:
        stack = []
        for v in candidates:
            if not spent[v] and (need[v] == 0 or left[v] < need[v]):
                spent[v] = True
                stack.append(v)
        while stack:
            v = stack.pop()
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

    peel(range(g.n))
    peel_core_vertices, peel_core_edges = spent.count(False), tails.count(-1)

    target = [
        0 if spent[v] or (weights is not None and weights.unit(v) == 0) else need[v]
        for v in range(g.n)
    ]
    flow_tails, in_region = _deficient_region(g, tails, target)
    got = [0] * g.n
    for e, (u, w) in enumerate(g.edges):
        if tails[e] != -1 or (in_region[u] and in_region[w]):
            continue
        t = flow_tails[e]
        if in_region[u] != in_region[w] and not in_region[t]:
            raise RuntimeError(
                f"internal error: flow edge {e} ({u}, {w}) enters the deficient "
                f"region (n={g.n}, m={g.m})"
            )
        tails[e] = t
        got[t] += 1
        if in_region[t]:
            left[t] -= 1
            if need[t]:
                need[t] -= 1
    for v in range(g.n):
        if not spent[v] and not in_region[v]:
            if got[v] < target[v]:
                raise RuntimeError(
                    f"internal error: vertex {v} outside the deficient region has "
                    f"out-degree {got[v]} below its target {target[v]} (n={g.n}, m={g.m})"
                )
            spent[v] = True
    peel(v for v in range(g.n) if in_region[v])

    out = [0] * g.n
    for t in tails:
        if t != -1:
            out[t] += 1
    light = tuple(v for v in range(g.n) if spent[v] and out[v] < 2)

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
        peeled_light=light,
        peel_core_vertices=peel_core_vertices,
        peel_core_edges=peel_core_edges,
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


def _deficient_region(
    g: Graph, tails: list[int], target: list[int]
) -> tuple[list[int], list[bool]]:
    """Orients the unsettled edges so that few vertices miss their targets.

    The edges e with tails[e] == -1 form the core.  Starting from a
    greedy orientation that gives each edge to the endpoint further
    below its target, every vertex v below its target searches backwards
    over its in-edges for a vertex above its target and reverses that
    path, which raises v's out-degree by one and changes no inner
    vertex's (Hakimi's out-degree lower bound orientation).  A search
    that fails reaches a set closed under predecessors with no vertex
    above its target; no later reversal touches an edge of that set or
    an edge leaving it, so the whole set retires and later searches skip
    it, as the Hungarian trees of max_cardinality_matching do.  Total
    work is one search per unit of deficit filled plus O(m) for the
    failed ones.

    Returns the flow's tail per core edge (other entries copy tails) and
    the retired vertices: exactly those with a directed path to a vertex
    still below its target.
    """
    flow = list(tails)
    out = [0] * g.n
    for e, (u, w) in enumerate(g.edges):
        if tails[e] == -1:
            t = u if out[u] - target[u] <= out[w] - target[w] else w
            flow[e] = t
            out[t] += 1
    retired = [False] * g.n
    seen = [-1] * g.n
    via = [-1] * g.n
    search = 0
    for v in range(g.n):
        while out[v] < target[v] and not retired[v]:
            search += 1
            seen[v] = search
            reached = [v]
            found = -1
            i = 0
            while found == -1 and i < len(reached):
                x = reached[i]
                i += 1
                for e in g.adjacency[x]:
                    u = flow[e]
                    if tails[e] != -1 or u == x or seen[u] == search or retired[u]:
                        continue
                    seen[u] = search
                    via[u] = e
                    reached.append(u)
                    if out[u] > target[u]:
                        found = u
                        break
            if found == -1:
                for x in reached:
                    retired[x] = True
                break
            out[found] -= 1
            out[v] += 1
            x = found
            while x != v:
                e = via[x]
                x = g.other_end(e, x)
                flow[e] = x
    return flow, retired
