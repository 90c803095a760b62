"""Maximum matching engines for general graphs.

Two engines share the Matching type: max_cardinality_matching runs one
augmenting-path search per exposed vertex with blossom contraction, and
max_weight_matching runs the primal-dual blossom method on nonnegative
integer weights.  Both are deterministic: vertices and edges are always
scanned in index order.

The weighted engine lives in orientlight._weighted and loads on first
access to max_weight_matching here, so a process that solves only
unweighted or equal-cost instances never compiles or imports it.
"""

from __future__ import annotations

from ._record import record
from .graph import Graph

__all__ = [
    "Matching",
    "max_cardinality_matching",
    "max_weight_matching",
]


@record
class Matching:
    """A set of pairwise vertex-disjoint edges.

    mate[v] is v's partner, or -1 when v is exposed; matched_edge_ids
    holds the corresponding edge indices.  Use the classmethods, which
    keep the two fields consistent.
    """

    matched_edge_ids: frozenset[int]
    mate: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.matched_edge_ids)

    def weight_units(self, edge_weights) -> int:
        return sum(edge_weights[e] for e in self.matched_edge_ids)

    @classmethod
    def empty(cls, g: Graph) -> "Matching":
        return cls(frozenset(), (-1,) * g.n)

    @classmethod
    def from_edge_ids(cls, g: Graph, ids) -> "Matching":
        ids = sorted(ids)  # ids may be an iterator: read it once
        mate = [-1] * g.n
        for e in ids:
            if not 0 <= e < g.m:
                raise ValueError(f"edge id {e} out of range 0..{g.m - 1}")
            u, v = g.edges[e]
            if mate[u] != -1 or mate[v] != -1:
                raise ValueError(f"edge {e} shares a vertex with another matched edge")
            mate[u] = v
            mate[v] = u
        return cls(frozenset(ids), tuple(mate))

    @classmethod
    def from_mate(cls, g: Graph, mate) -> "Matching":
        mate = tuple(mate)
        if len(mate) != g.n:
            raise ValueError(f"mate covers {len(mate)} vertices, graph has {g.n}")
        # edges whose ends are each other's mates are vertex-disjoint, so
        # mate is a matching of g exactly when they cover every vertex it
        # does not leave exposed; otherwise the loop names the first fault
        ids = [e for e, (u, w) in enumerate(g.edges) if mate[u] == w and mate[w] == u]
        if 2 * len(ids) != g.n - mate.count(-1):
            edges = set(g.edges)
            for v, w in enumerate(mate):
                if w != -1 and (not 0 <= w < g.n or mate[w] != v):
                    raise ValueError(f"mate is not an involution at vertex {v}")
                if v < w and (v, w) not in edges:
                    raise ValueError(f"matched pair ({v}, {w}) is not an edge")
        return cls(frozenset(ids), mate)


def max_cardinality_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching in a general graph.

    Greedy seeding first, then one breadth-first augmenting-path search
    from each vertex still exposed; odd cycles met during a search are
    contracted by rebasing their vertices onto the cycle's base.

    Each search works on the tree it grows, never on all n vertices.  It
    records every vertex it adds to its tree; only those vertices can
    have had their parent, base or tree flag changed, and only they can
    have a base on a new odd cycle, so blossoms rebase them alone and the
    search resets them alone when it ends.

    A search that finds no augmenting path leaves a Hungarian tree: every
    neighbour of its even vertices (retired ones aside) lies in the tree,
    and the matching pairs the tree's vertices among themselves apart
    from the root.  By Edmonds (1965; see Lovasz and Plummer, Matching
    Theory) no later augmenting path passes through such a tree, and a
    maximum matching of the graph with the tree removed, plus the tree's
    matched edges, is maximum.  So the tree's vertices are retired: later
    searches skip them, which is the same as searching the graph with
    them removed.  Its root stays exposed for good, so one pass over the
    vertices suffices.
    """
    n = g.n
    nbr: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        nbr[u].append(v)
        nbr[v].append(u)
    mate = [-1] * n
    for u, v in g.edges:
        if mate[u] == -1 and mate[v] == -1:
            mate[u] = v
            mate[v] = u

    parent = [-1] * n
    base = list(range(n))
    in_tree = [False] * n
    retired = [False] * n
    # per-blossom timestamps, never reset: mark stamps the bases on the
    # way to the root, blossom the bases on the new odd cycle
    mark = [0] * n
    blossom = [0] * n
    stamp = 0

    def cycle_base(a: int, b: int) -> int:
        # walk a's alternating path to the root, stamping the blossom bases
        # met on the way, then walk b's path until it hits a stamp
        nonlocal stamp
        stamp += 1
        while True:
            a = base[a]
            mark[a] = stamp
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if mark[b] == stamp:
                return b
            b = parent[mate[b]]

    def relink_path(v: int, b: int, child: int) -> None:
        # stamp every blossom base on v's path down to b and repoint the
        # even vertices' parents across the new odd cycle
        while base[v] != b:
            blossom[base[v]] = stamp
            blossom[base[mate[v]]] = stamp
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def augment_from(root: int, tree: list[int]) -> bool:
        # grows the alternating tree from root; every vertex added to it
        # is appended to tree
        in_tree[root] = True
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for w in nbr[v]:
                if retired[w] or base[v] == base[w] or mate[v] == w:
                    continue
                if in_tree[w]:  # w is even: an odd cycle closes
                    b = cycle_base(v, w)
                    relink_path(v, b, w)
                    relink_path(w, b, v)
                    for i in tree:
                        if blossom[base[i]] == stamp:
                            base[i] = b
                            if not in_tree[i]:
                                in_tree[i] = True
                                queue.append(i)
                elif parent[w] == -1:
                    parent[w] = v
                    tree.append(w)
                    if mate[w] == -1:
                        # flip matched and unmatched edges back to the root
                        u = w
                        while u != -1:
                            pv = parent[u]
                            nxt = mate[pv]
                            mate[u] = pv
                            mate[pv] = u
                            u = nxt
                        return True
                    in_tree[mate[w]] = True
                    tree.append(mate[w])
                    queue.append(mate[w])
        return False

    for v in range(n):
        if mate[v] == -1:
            tree = [v]
            augmented = augment_from(v, tree)
            for i in tree:
                parent[i] = -1
                base[i] = i
                in_tree[i] = False
                retired[i] = not augmented
    return Matching.from_mate(g, tuple(mate))


def __getattr__(name: str):
    # called only for names missing from the globals: the first access
    # to the weighted engine imports it and stores it there, so every
    # later lookup is a plain dict read
    if name == "max_weight_matching":
        from ._weighted import max_weight_matching

        globals()[name] = max_weight_matching
        return max_weight_matching
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
