"""Maximum matching engines for general graphs.

Two engines share the Matching type: max_cardinality_matching runs one
augmenting-path search per exposed vertex with blossom contraction, and
max_weight_matching runs the primal-dual blossom method on nonnegative
integer weights.  Both are deterministic: vertices and edges are always
scanned in index order.
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
        ids = set()
        for v, w in enumerate(mate):
            if w == -1:
                continue
            if not (0 <= w < g.n) or mate[w] != v:
                raise ValueError(f"mate is not an involution at vertex {v}")
            if v < w:
                e = g.edge_ids.get((v, w))
                if e is None:
                    raise ValueError(f"matched pair ({v}, {w}) is not an edge")
                ids.add(e)
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
                # w is even iff it is the root or its mate hangs in the tree
                if w == root or (mate[w] != -1 and parent[mate[w]] != -1):
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


class _Blossom:
    """A contracted odd cycle in the weighted engine.

    children lists the sub-blossoms in cycle order starting at the base;
    links[i] = (x, y) is the edge from children[i] to children[i+1],
    with x inside children[i].  best_to_peers caches least-slack edges
    to other top-level outer blossoms.
    """

    __slots__ = ("children", "links", "best_to_peers")

    def vertices(self):
        stack = list(self.children)
        while stack:
            t = stack.pop()
            if isinstance(t, _Blossom):
                stack.extend(t.children)
            else:
                yield t


def max_weight_matching(g: Graph, edge_weights) -> Matching:
    """Maximum-weight matching via the primal-dual blossom method.

    Weights must be nonnegative integers (rational costs are scaled to
    integer units before they get here).  Internally every weight is
    doubled and vertex duals are stored doubled, so every dual adjustment
    stays an integer.  With every weight positive, as on the solve path
    (the flow kernel keeps no zero-cost vertex in the core), the result
    is maximal, since an addable edge would raise its weight; an edge of
    weight zero may be left out.  Runs in O(V^3).

    The run starts from a feasible dual solution, not a uniform one: each
    vertex's dual is its heaviest incident (doubled) edge, which covers
    every edge, and every edge whose two ends both attain that maximum is
    tight.  Such tight edges seed the matching greedily in edge-id order.
    The roots of the alternating forest are the exposed vertices whose
    dual is still positive; an exposed vertex with dual zero already
    meets complementary slackness.  All initial duals are even and every
    root has been outer in every substage since the start, so all roots
    share one parity, every tree vertex has its root's parity across the
    tight edges, and each outer-outer slack is even.

    A stage ends in one of three ways.  Two trees meet, or a tree reaches
    a free blossom whose base is exposed (it has dual zero): the path
    between the two exposed ends is augmenting.  Or an outer vertex v's
    dual falls to zero (the smallest dual among outer vertices bounds each
    dual step, so none goes negative): the tree path from v's root to v
    is flipped, the root becomes matched and v exposed with dual zero.
    Every edge on a tree path is tight and flipping a path changes no
    dual, so feasibility holds and every matched edge stays tight, and
    each full blossom on the path stays full with a rotated base.  Each
    stage removes at least one root, so the run ends when a stage starts
    with none: then every exposed vertex has dual zero and the matching
    is optimal, which verify_optimum checks on every call.

    The scan looks only at edges between two top-level blossoms, whose
    slack no blossom dual enters, so an edge is tight exactly when
    dual[v] + dual[w] - 2 w(vw) <= 0, and no cache of tight edges is
    kept.  Each substage finds its dual step delta in one pass over the
    vertices and one over the blossoms, then applies it in one more
    pass over each.
    """
    n, m = g.n, g.m
    if len(edge_weights) != m:
        raise ValueError(f"{len(edge_weights)} weights for {m} edges")
    for e, w in enumerate(edge_weights):
        if not isinstance(w, int):
            raise ValueError(f"edge weight {w!r} at id {e} is not an integer")
        if w < 0:
            raise ValueError(f"negative edge weight at id {e}")
    if m == 0:
        # the flow kernel often leaves no core; the set-up below would
        # cost such a solve about a tenth of its time
        return Matching.empty(g)

    # doubled weights, and doubled vertex duals starting at each vertex's
    # heaviest incident edge: all even, every edge covered
    pair_wt: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = [[] for _ in range(n)]
    dual: dict = {v: 0 for v in range(n)}
    for e, (u, v) in enumerate(g.edges):
        w = 2 * edge_weights[e]
        pair_wt[(u, v)] = pair_wt[(v, u)] = w
        adj[u].append(v)
        adj[v].append(u)
        dual[u] = max(dual[u], w)
        dual[v] = max(dual[v], w)

    # mate maps a matched vertex to its partner; exposed vertices are absent.
    # Seeded with the tight edges, greedily in edge-id order.
    mate: dict[int, int] = {}
    for u, v in g.edges:
        if u not in mate and v not in mate and dual[u] + dual[v] == 2 * pair_wt[(u, v)]:
            mate[u] = v
            mate[v] = u
    # label: 1 = outer (S), 2 = inner (T), on both vertices and top blossoms;
    # a vertex inside an inner blossom gets its own label 2 once reached.
    label: dict = {}
    # label_edge[b] = (x, y): the edge through which b got its label, y in b.
    label_edge: dict = {}
    # in_blossom[v] = the top-level blossom containing v (v itself if trivial).
    in_blossom: dict = {v: v for v in range(n)}
    parent_of: dict = {v: None for v in range(n)}
    base_of: dict = {v: v for v in range(n)}
    # least-slack edge per free vertex / per top-level outer blossom
    best_edge: dict = {}
    # blossom duals, stored as-is
    blossom_dual: dict = {}
    queue: list[int] = []

    def internal_error(what: str) -> RuntimeError:
        # an engine bug, not bad input: name enough to reproduce it
        return RuntimeError(f"internal error: {what} (n={n}, m={m})")

    def edge_id(x: int, y: int) -> int:
        return g.edge_ids[(x, y) if x < y else (y, x)]

    def slack(x: int, y: int) -> int:
        return dual[x] + dual[y] - 2 * pair_wt[(x, y)]

    def half_slack(x: int, y: int) -> int:
        # an outer-outer slack (a delta 3 candidate) is even; see above
        ks = slack(x, y)
        if ks % 2 != 0:
            raise internal_error(f"odd slack {ks} on outer-outer edge {edge_id(x, y)} ({x}, {y})")
        return ks // 2

    def assign_label(w, t, x) -> None:
        b = in_blossom[w]
        assert label.get(w) is None and label.get(b) is None
        label[w] = label[b] = t
        if x is not None:
            label_edge[w] = label_edge[b] = (x, w)
        else:
            label_edge[w] = label_edge[b] = None
        best_edge[w] = best_edge[b] = None
        if t == 1:
            # outer: its vertices join the scan queue
            if isinstance(b, _Blossom):
                queue.extend(b.vertices())
            else:
                queue.append(b)
        elif t == 2:
            # inner: the mate of its base becomes outer
            bb = base_of[b]
            assign_label(mate[bb], 1, bb)

    def find_cycle_base(x, y):
        # walk the alternating trees above x and y in lockstep, dropping
        # breadcrumbs (label bit 4); the first blossom seen twice is the
        # base of a new odd cycle, and hitting both roots means the trees
        # are disjoint, i.e. an augmenting path
        path = []
        found = None
        while x is not None:
            b = in_blossom[x]
            if label[b] & 4:
                found = base_of[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            if label_edge[b] is None:
                assert base_of[b] not in mate
                x = None
            else:
                assert label_edge[b][0] == mate[base_of[b]]
                x = label_edge[b][0]
                b = in_blossom[x]
                assert label[b] == 2
                x = label_edge[b][0]
            if y is not None:
                x, y = y, x
        for b in path:
            label[b] = 1
        return found

    def shrink_blossom(bse, x, y) -> None:
        # new blossom with base bse, closed by the outer-outer edge (x, y)
        bb = in_blossom[bse]
        bx = in_blossom[x]
        by = in_blossom[y]
        b = _Blossom()
        base_of[b] = bse
        parent_of[b] = None
        parent_of[bb] = b
        b.children = kids = []
        b.links = links = [(x, y)]
        while bx != bb:
            parent_of[bx] = b
            kids.append(bx)
            links.append(label_edge[bx])
            assert label[bx] == 2 or (label[bx] == 1 and label_edge[bx][0] == mate[base_of[bx]])
            x = label_edge[bx][0]
            bx = in_blossom[x]
        kids.append(bb)
        kids.reverse()
        links.reverse()
        while by != bb:
            parent_of[by] = b
            kids.append(by)
            links.append((label_edge[by][1], label_edge[by][0]))
            assert label[by] == 2 or (label[by] == 1 and label_edge[by][0] == mate[base_of[by]])
            y = label_edge[by][0]
            by = in_blossom[y]
        assert label[bb] == 1
        label[b] = 1
        label_edge[b] = label_edge[bb]
        blossom_dual[b] = 0
        for v in b.vertices():
            if label[in_blossom[v]] == 2:
                # former inner vertex turns outer inside the new blossom
                queue.append(v)
            in_blossom[v] = b
        # recompute the least-slack edges from the new blossom to its peers
        best_to: dict = {}
        for child in kids:
            if isinstance(child, _Blossom):
                if child.best_to_peers is not None:
                    pool = child.best_to_peers
                    child.best_to_peers = None
                else:
                    pool = [(v, w) for v in child.vertices() for w in adj[v]]
            else:
                pool = [(child, w) for w in adj[child]]
            for k in pool:
                i, j = k
                if in_blossom[j] == b:
                    i, j = j, i
                bj = in_blossom[j]
                if (
                    bj != b
                    and label.get(bj) == 1
                    and (bj not in best_to or slack(i, j) < slack(*best_to[bj]))
                ):
                    best_to[bj] = k
            best_edge[child] = None
        b.best_to_peers = list(best_to.values())
        best_edge[b] = None
        best_slack = None
        for k in b.best_to_peers:
            ks = slack(*k)
            if best_slack is None or ks < best_slack:
                best_slack = ks
                best_edge[b] = k

    def expand_blossom(b, endstage: bool) -> None:
        # at the end of a stage, sub-blossoms with zero dual expand too;
        # each expansion touches only its own children, so an explicit
        # stack replaces the recursion
        stack = [b]
        while stack:
            t = stack.pop()
            for s in t.children:
                parent_of[s] = None
                if isinstance(s, _Blossom):
                    if endstage and blossom_dual[s] == 0:
                        stack.append(s)
                    else:
                        for v in s.vertices():
                            in_blossom[v] = s
                else:
                    in_blossom[s] = s
            if t is not b:
                forget_blossom(t)
        if (not endstage) and label.get(b) == 2:
            # mid-stage expansion of an inner blossom: walk from the child
            # through which b was reached around to the base, relabeling
            entry = in_blossom[label_edge[b][1]]
            j = b.children.index(entry)
            if j & 1:
                j -= len(b.children)
                jstep = 1
            else:
                jstep = -1
            x, y = label_edge[b]
            while j != 0:
                if jstep == 1:
                    q = b.links[j][1]
                else:
                    q = b.links[j - 1][0]
                label[y] = None
                label[q] = None
                assign_label(y, 2, x)
                j += jstep
                if jstep == 1:
                    x, y = b.links[j]
                else:
                    y, x = b.links[j - 1]
                j += jstep
            child = b.children[j]
            label[y] = label[child] = 2
            label_edge[y] = label_edge[child] = (x, y)
            best_edge[child] = None
            j += jstep
            while b.children[j] != entry:
                child = b.children[j]
                if label.get(child) == 1:
                    j += jstep
                    continue
                if isinstance(child, _Blossom):
                    for v in child.vertices():
                        if label.get(v):
                            break
                else:
                    v = child
                if label.get(v):
                    assert label[v] == 2
                    assert in_blossom[v] == child
                    label[v] = None
                    label[mate[base_of[child]]] = None
                    assign_label(v, 2, label_edge[v][0])
                j += jstep
        forget_blossom(b)

    def forget_blossom(b) -> None:
        label.pop(b, None)
        label_edge.pop(b, None)
        best_edge.pop(b, None)
        del parent_of[b]
        del base_of[b]
        del blossom_dual[b]

    def augment_through(b, v) -> None:
        # flip matched edges inside b along the even path from v to the
        # base, then rotate the cycle so v becomes the new base.  Nested
        # blossoms on that path get the same treatment from an explicit
        # stack: each one flips only its own vertices' mates, and every
        # cycle is rotated after the blossoms inside it, so its new base
        # is already v when it is read.
        todo = [(b, v)]
        rotations = []
        while todo:
            b, v = todo.pop()
            t = v
            while parent_of[t] != b:
                t = parent_of[t]
            if isinstance(t, _Blossom):
                todo.append((t, v))
            i = j = b.children.index(t)
            if i & 1:
                j -= len(b.children)
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = b.children[j]
                if jstep == 1:
                    x, y = b.links[j]
                else:
                    y, x = b.links[j - 1]
                if isinstance(t, _Blossom):
                    todo.append((t, x))
                j += jstep
                t = b.children[j]
                if isinstance(t, _Blossom):
                    todo.append((t, y))
                mate[x] = y
                mate[y] = x
            rotations.append((b, v, i))
        for b, v, i in reversed(rotations):
            b.children = b.children[i:] + b.children[:i]
            b.links = b.links[i:] + b.links[:i]
            base_of[b] = base_of[b.children[0]]
            assert base_of[b] == v

    def flip_path(s, t) -> None:
        # match outer vertex s to t (t None: leave s exposed) and flip the
        # tree path from s up to its root, which ends up matched
        while True:
            bs = in_blossom[s]
            assert label[bs] == 1
            assert (label_edge[bs] is None and base_of[bs] not in mate) or (
                label_edge[bs][0] == mate[base_of[bs]]
            )
            if isinstance(bs, _Blossom):
                augment_through(bs, s)
            if t is None:
                mate.pop(s, None)
            else:
                mate[s] = t
            if label_edge[bs] is None:
                break
            p = label_edge[bs][0]
            bp = in_blossom[p]
            assert label[bp] == 2
            s, t = label_edge[bp]
            assert base_of[bp] == p
            if isinstance(bp, _Blossom):
                augment_through(bp, t)
            mate[t] = s

    def verify_optimum() -> None:
        # complementary slackness for the final duals; any failure here
        # is an engine bug, not bad input
        for v in range(n):
            if dual[v] < 0:
                raise internal_error(f"negative dual {dual[v]} at vertex {v}")
        for b, z in blossom_dual.items():
            if z < 0:
                raise internal_error(f"negative dual on the blossom with base {base_of[b]}")
        for e, (i, j) in enumerate(g.edges):
            s = dual[i] + dual[j] - 2 * pair_wt[(i, j)]
            chain_i = [i]
            chain_j = [j]
            while parent_of[chain_i[-1]] is not None:
                chain_i.append(parent_of[chain_i[-1]])
            while parent_of[chain_j[-1]] is not None:
                chain_j.append(parent_of[chain_j[-1]])
            chain_i.reverse()
            chain_j.reverse()
            for bi, bj in zip(chain_i, chain_j):
                if bi != bj:
                    break
                s += 2 * blossom_dual[bi]
            if s < 0:
                raise internal_error(f"negative slack {s} on edge {e} ({i}, {j})")
            if (mate.get(i) == j or mate.get(j) == i) and s != 0:
                raise internal_error(f"matched edge {e} ({i}, {j}) has slack {s}")
        for v in range(n):
            if v not in mate and dual[v] != 0:
                raise internal_error(f"exposed vertex {v} has dual {dual[v]}")
        for b, z in blossom_dual.items():
            if z > 0:
                if len(b.links) % 2 != 1:
                    raise internal_error(f"even blossom with base {base_of[b]} has dual {z}")
                for i, j in b.links[1::2]:
                    if mate.get(i) != j or mate.get(j) != i:
                        raise internal_error(
                            f"blossom with base {base_of[b]} and dual {z} is not full: "
                            f"edge {edge_id(i, j)} ({i}, {j}) is unmatched"
                        )

    while True:
        # one stage per augmentation or retired root
        label.clear()
        label_edge.clear()
        best_edge.clear()
        for b in blossom_dual:
            b.best_to_peers = None
        queue[:] = []
        for v in range(n):
            if v not in mate and dual[v] > 0 and label.get(in_blossom[v]) is None:
                assign_label(v, 1, None)
        if not queue:
            # every exposed vertex has dual zero
            break
        stage_over = False
        while not stage_over:
            # one substage per dual adjustment
            while queue and not stage_over:
                v = queue.pop()
                assert label[in_blossom[v]] == 1
                for w in adj[v]:
                    bv = in_blossom[v]
                    bw = in_blossom[w]
                    if bv == bw:
                        continue
                    ks = slack(v, w)
                    if ks <= 0:
                        if label.get(bw) is None:
                            if base_of[bw] in mate:
                                # free blossom: becomes inner, its base's
                                # mate becomes outer
                                assign_label(w, 2, v)
                            else:
                                # free blossom whose base is exposed with
                                # dual zero: the path from v's root to
                                # that base augments
                                assert dual[base_of[bw]] == 0
                                flip_path(v, w)
                                if isinstance(bw, _Blossom):
                                    augment_through(bw, w)
                                mate[w] = v
                                stage_over = True
                                break
                        elif label.get(bw) == 1:
                            # outer-outer edge: new blossom or augment
                            bse = find_cycle_base(v, w)
                            if bse is not None:
                                shrink_blossom(bse, v, w)
                            else:
                                flip_path(v, w)
                                flip_path(w, v)
                                stage_over = True
                                break
                        elif label.get(w) is None:
                            # first reach of a vertex inside an inner
                            # blossom; remember the entry edge for a
                            # later mid-stage expansion
                            assert label[bw] == 2
                            label[w] = 2
                            label_edge[w] = (v, w)
                    elif label.get(bw) == 1:
                        if best_edge.get(bv) is None or ks < slack(*best_edge[bv]):
                            best_edge[bv] = (v, w)
                    elif label.get(w) is None:
                        if best_edge.get(w) is None or ks < slack(*best_edge[w]):
                            best_edge[w] = (v, w)
            if stage_over:
                break

            # no augmenting path yet: squeeze slack out of the duals.
            # delta candidates: 1 = smallest outer vertex dual, 2 =
            # smallest slack to a free vertex, 3 = half the smallest
            # outer-outer slack, 4 = smallest inner blossom dual.  One
            # pass over the vertices and one over the blossoms find each
            # type's first minimum; a tie goes to the lower type.
            d1 = d2 = d3 = d4 = None
            for v in range(n):
                bv = in_blossom[v]
                lbl = label.get(bv)
                if lbl == 1:
                    if d1 is None or dual[v] < d1:
                        d1, d1_vertex = dual[v], v
                    if bv == v and best_edge.get(v) is not None:
                        d = half_slack(*best_edge[v])
                        if d3 is None or d < d3:
                            d3, d3_edge = d, best_edge[v]
                elif lbl is None and best_edge.get(v) is not None:
                    d = slack(*best_edge[v])
                    if d2 is None or d < d2:
                        d2, d2_edge = d, best_edge[v]
            for b, z in blossom_dual.items():
                if parent_of[b] is None:
                    lbl = label.get(b)
                    if lbl == 1 and best_edge.get(b) is not None:
                        d = half_slack(*best_edge[b])
                        if d3 is None or d < d3:
                            d3, d3_edge = d, best_edge[b]
                    elif lbl == 2 and (d4 is None or z < d4):
                        d4, d4_blossom = z, b
            delta, delta_type = d1, 1
            if d2 is not None and d2 < delta:
                delta, delta_type, delta_edge = d2, 2, d2_edge
            if d3 is not None and d3 < delta:
                delta, delta_type, delta_edge = d3, 3, d3_edge
            if d4 is not None and d4 < delta:
                delta, delta_type = d4, 4
            for v in range(n):
                lbl = label.get(in_blossom[v])
                if lbl == 1:
                    dual[v] -= delta
                elif lbl == 2:
                    dual[v] += delta
            for b in blossom_dual:
                if parent_of[b] is None:
                    if label.get(b) == 1:
                        blossom_dual[b] += delta
                    elif label.get(b) == 2:
                        blossom_dual[b] -= delta
            if delta_type == 1:
                # an outer dual hit zero: that vertex takes over as its
                # tree's exposed vertex and the root is matched (or
                # retired, when it is the root itself)
                flip_path(d1_vertex, None)
                stage_over = True
            elif delta_type == 4:
                expand_blossom(d4_blossom, False)
            else:
                # the delta 2 or 3 edge is tight now: rescan its outer end
                x = delta_edge[0]
                assert label[in_blossom[x]] == 1
                queue.append(x)
        # stage done: drop outer blossoms whose dual fell to zero
        # (children precede their blossom in blossom_dual, so none of these
        # was expanded away before its turn)
        for b in list(blossom_dual):
            if parent_of[b] is None and label.get(b) == 1 and blossom_dual[b] == 0:
                expand_blossom(b, True)
    verify_optimum()

    mate_list = [-1] * n
    for v, w in mate.items():
        mate_list[v] = w
    return Matching.from_mate(g, tuple(mate_list))
