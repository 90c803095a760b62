"""The weighted matching engine, kept apart so that runs without it never load it.

orientlight.matching exports max_weight_matching and imports this module
on first access; solves whose gadget edges all share one weight take the
cardinality engine and leave it unloaded.  verify_optimum, the engine's
closing optimality check, takes the final state as plain values.
"""

from __future__ import annotations

from .graph import Graph
from .matching import Matching

__all__ = ["max_weight_matching", "verify_optimum"]


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
    dual[v] + dual[w] - 4 w(vw) <= 0, and no cache of tight edges is
    kept.  Each substage finds its dual step delta in one pass over the
    vertices and one over the blossoms, then applies it in one more
    pass over each.

    Vertices and blossoms share one id space, and all state lives in
    lists indexed by id: vertices are 0..n-1, and a new blossom takes a
    free id from n..2n-1, which it gives back when it is expanded.  The
    live blossoms form a laminar family of odd sets, each with at least
    three children, so at most (n-1)/2 are live at once and the pool
    never runs dry.  Ids are reused, so they say nothing about age:
    blossom_dual is kept in creation order instead, which breaks ties in
    the delta pass and lets the end-of-stage expansion meet every
    blossom after its children, as the returned matching depends on.
    """
    n, m = g.n, g.m
    if len(edge_weights) != m:
        raise ValueError(f"{len(edge_weights)} weights for {m} edges")
    for e, w in enumerate(edge_weights):
        if type(w) is not int:  # a bool would pass as the int 0 or 1
            raise ValueError(f"edge weight {w!r} at id {e} is not an integer")
        if w < 0:
            raise ValueError(f"negative edge weight at id {e}")

    # doubled weights, and doubled vertex duals starting at each vertex's
    # heaviest incident edge: all even, every edge covered.  adj[v] holds
    # (neighbour, 4 w) pairs, the doubled weight as a slack reads it.
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    dual = [0] * n
    for e, (u, v) in enumerate(g.edges):
        w = 2 * edge_weights[e]
        adj[u].append((v, 2 * w))
        adj[v].append((u, 2 * w))
        dual[u] = max(dual[u], w)
        dual[v] = max(dual[v], w)

    # mate[v] is v's partner, -1 when v is exposed.  Seeded with the tight
    # edges, greedily in edge-id order.
    mate = [-1] * n
    for e, (u, v) in enumerate(g.edges):
        if mate[u] == -1 and mate[v] == -1 and dual[u] + dual[v] == 4 * edge_weights[e]:
            mate[u] = v
            mate[v] = u
    ids = 2 * n
    unused_ids = list(range(ids - 1, n - 1, -1))
    # label: 0 = none, 1 = outer (S), 2 = inner (T), on both vertices and
    # top blossoms; a vertex inside an inner blossom gets its own label 2
    # once reached.
    label = [0] * ids
    # label_edge[b] = (x, y): the edge through which b got its label, y in b.
    label_edge: list = [None] * ids
    # in_blossom[v] = the top-level blossom containing vertex v (v itself
    # if trivial).
    in_blossom = list(range(n))
    parent_of = [-1] * ids
    base_of = list(range(n)) + [-1] * n
    # children[b] lists the sub-blossoms in cycle order starting at the
    # base; links[b][i] = (x, y) is the edge from children[b][i] to the
    # next child, with x inside children[b][i].
    children: list = [None] * ids
    links: list = [None] * ids
    # least-slack (x, y, 4 w) edge per free vertex / per top-level outer
    # blossom, and per outer blossom to each of its outer peers
    best_edge: list = [None] * ids
    best_to_peers: list = [None] * ids
    # blossom duals, stored as-is, in creation order
    blossom_dual: dict[int, int] = {}
    queue: list[int] = []

    def slack(x: int, y: int, w: int) -> int:
        return dual[x] + dual[y] - w

    def half_slack(x: int, y: int, w: int) -> int:
        # an outer-outer slack (a delta 3 candidate) is even; see above
        ks = slack(x, y, w)
        if ks % 2 != 0:
            e = g.edges.index((min(x, y), max(x, y)))
            raise _internal_error(f"odd slack {ks} on outer-outer edge {e} ({x}, {y})", n, m)
        return ks // 2

    def vertices(b: int):
        # the vertices inside b, which is one vertex when b < n
        stack = [b]
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(children[t])
            else:
                yield t

    def assign_label(w: int, t: int, x: int) -> None:
        b = in_blossom[w]
        assert label[w] == 0 and label[b] == 0
        label[w] = label[b] = t
        label_edge[w] = label_edge[b] = (x, w) if x != -1 else None
        best_edge[w] = best_edge[b] = None
        if t == 1:
            # outer: its vertices join the scan queue
            queue.extend(vertices(b))
        else:
            # inner: the mate of its base becomes outer
            bb = base_of[b]
            assign_label(mate[bb], 1, bb)

    def find_cycle_base(x: int, y: int) -> int:
        # walk the alternating trees above x and y in lockstep, dropping
        # breadcrumbs (label bit 4); the first blossom seen twice is the
        # base of a new odd cycle, and hitting both roots (-1) means the
        # trees are disjoint, i.e. an augmenting path
        path = []
        found = -1
        while x != -1:
            b = in_blossom[x]
            if label[b] & 4:
                found = base_of[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            if label_edge[b] is None:
                assert mate[base_of[b]] == -1
                x = -1
            else:
                assert label_edge[b][0] == mate[base_of[b]]
                x = label_edge[b][0]
                b = in_blossom[x]
                assert label[b] == 2
                x = label_edge[b][0]
            if y != -1:
                x, y = y, x
        for b in path:
            label[b] = 1
        return found

    def shrink_blossom(bse: int, x: int, y: int) -> None:
        # new blossom with base bse, closed by the outer-outer edge (x, y)
        bb = in_blossom[bse]
        bx = in_blossom[x]
        by = in_blossom[y]
        b = unused_ids.pop()
        base_of[b] = bse
        parent_of[b] = -1
        parent_of[bb] = b
        children[b] = kids = []
        links[b] = lks = [(x, y)]
        while bx != bb:
            parent_of[bx] = b
            kids.append(bx)
            lks.append(label_edge[bx])
            assert label[bx] == 2 or (label[bx] == 1 and label_edge[bx][0] == mate[base_of[bx]])
            x = label_edge[bx][0]
            bx = in_blossom[x]
        kids.append(bb)
        kids.reverse()
        lks.reverse()
        while by != bb:
            parent_of[by] = b
            kids.append(by)
            lks.append((label_edge[by][1], label_edge[by][0]))
            assert label[by] == 2 or (label[by] == 1 and label_edge[by][0] == mate[base_of[by]])
            y = label_edge[by][0]
            by = in_blossom[y]
        assert label[bb] == 1
        label[b] = 1
        label_edge[b] = label_edge[bb]
        blossom_dual[b] = 0
        for v in vertices(b):
            if label[in_blossom[v]] == 2:
                # former inner vertex turns outer inside the new blossom
                queue.append(v)
            in_blossom[v] = b
        # recompute the least-slack edges from the new blossom to its
        # peers; every edge in a child's pool starts inside the child
        best_to: dict[int, tuple[int, int, int]] = {}
        for child in kids:
            pool = best_to_peers[child]
            if pool is None:
                pool = [(v, w, wt) for v in vertices(child) for w, wt in adj[v]]
            best_to_peers[child] = None
            for k in pool:
                bj = in_blossom[k[1]]
                if (
                    bj != b
                    and label[bj] == 1
                    and (bj not in best_to or slack(*k) < slack(*best_to[bj]))
                ):
                    best_to[bj] = k
            best_edge[child] = None
        best_to_peers[b] = peers = list(best_to.values())
        best_edge[b] = min(peers, key=lambda k: slack(*k), default=None)

    def expand_blossom(b: int, endstage: bool) -> None:
        # at the end of a stage, sub-blossoms with zero dual expand too;
        # each expansion touches only its own children, so an explicit
        # stack replaces the recursion
        stack = [b]
        while stack:
            t = stack.pop()
            for s in children[t]:
                parent_of[s] = -1
                if s < n:
                    in_blossom[s] = s
                elif endstage and blossom_dual[s] == 0:
                    stack.append(s)
                else:
                    for v in vertices(s):
                        in_blossom[v] = s
            if t != b:
                forget_blossom(t)
        if (not endstage) and label[b] == 2:
            # mid-stage expansion of an inner blossom: relabel the children
            # on cycle_path from the one through which b was reached to
            # the base, alternately inner and outer
            j = children[b].index(in_blossom[label_edge[b][1]])
            plinks = cycle_path(b, j)[1]
            x, y = label_edge[b]
            for (_, q), link in zip(plinks[0::2], plinks[1::2]):
                # y's child turns inner; q, its base's mate, turns outer
                label[y] = label[q] = 0
                assign_label(y, 2, x)
                x, y = link
            child = children[b][0]  # the base child, reached by (x, y)
            label[y] = label[child] = 2
            label_edge[y] = label_edge[child] = (x, y)
            best_edge[child] = None
            # on the other, odd-length way round, a child turns inner
            # through the edge that reached one of its vertices, if any
            for child in children[b][1:j] if j & 1 else children[b][:j:-1]:
                if label[child] == 1:
                    continue
                for v in vertices(child):
                    if label[v]:
                        break
                if label[v]:
                    assert label[v] == 2
                    assert in_blossom[v] == child
                    label[v] = 0
                    label[mate[base_of[child]]] = 0
                    assign_label(v, 2, label_edge[v][0])
        forget_blossom(b)

    def forget_blossom(b: int) -> None:
        # b's list entries are dead until shrink_blossom reuses the id
        del blossom_dual[b]
        unused_ids.append(b)

    def cycle_path(b: int, j: int):
        # b's children on the even-length way round its cycle from child
        # j to the base, and the links between them, each link (x, y)
        # with x in the earlier child: forward for odd j, backward for
        # even j.  In a full blossom its links 0, 2, 4, ... are matched.
        kids, lks = children[b], links[b]
        if j & 1:
            return kids[j:] + kids[:1], lks[j:]
        return kids[j::-1], [(y, x) for x, y in reversed(lks[:j])]

    def augment_through(b: int, v: int) -> None:
        # flip matched edges inside b along cycle_path from v's child to
        # the base, then rotate the cycle so v becomes the new base.
        # Nested blossoms on that path get the same treatment from an
        # explicit stack: each one flips only its own vertices' mates,
        # and every cycle is rotated after the blossoms inside it, so its
        # new base is already v when it is read.
        todo = [(b, v)]
        rotations = []
        while todo:
            b, v = todo.pop()
            t = v
            while parent_of[t] != b:
                t = parent_of[t]
            if t >= n:
                todo.append((t, v))
            i = children[b].index(t)
            path, plinks = cycle_path(b, i)
            for (x, y), s, t in zip(plinks[1::2], path[1::2], path[2::2]):
                if s >= n:
                    todo.append((s, x))
                if t >= n:
                    todo.append((t, y))
                mate[x] = y
                mate[y] = x
            rotations.append((b, v, i))
        for b, v, i in reversed(rotations):
            children[b] = children[b][i:] + children[b][:i]
            links[b] = links[b][i:] + links[b][:i]
            base_of[b] = base_of[children[b][0]]
            assert base_of[b] == v

    def flip_path(s: int, t: int) -> None:
        # match outer vertex s to t (t = -1: leave s exposed) and flip
        # the tree path from s up to its root, which ends up matched
        while True:
            bs = in_blossom[s]
            assert label[bs] == 1
            assert (label_edge[bs] is None and mate[base_of[bs]] == -1) or (
                label_edge[bs][0] == mate[base_of[bs]]
            )
            if bs >= n:
                augment_through(bs, s)
            mate[s] = t
            if label_edge[bs] is None:
                break
            p = label_edge[bs][0]
            bp = in_blossom[p]
            assert label[bp] == 2
            s, t = label_edge[bp]
            assert base_of[bp] == p
            if bp >= n:
                augment_through(bp, t)
            mate[t] = s

    while True:
        # one stage per augmentation or retired root
        label[:] = [0] * ids
        label_edge[:] = best_edge[:] = [None] * ids
        for b in blossom_dual:
            best_to_peers[b] = None
        queue.clear()
        for v in range(n):
            if mate[v] == -1 and dual[v] > 0 and label[in_blossom[v]] == 0:
                assign_label(v, 1, -1)
        if not queue:
            # every exposed vertex has dual zero
            break
        stage_over = False
        while not stage_over:
            # one substage per dual adjustment
            while queue and not stage_over:
                v = queue.pop()
                assert label[in_blossom[v]] == 1
                for w, wt in adj[v]:
                    bv = in_blossom[v]
                    bw = in_blossom[w]
                    if bv == bw:
                        continue
                    ks = dual[v] + dual[w] - wt
                    if ks <= 0:
                        if label[bw] == 0:
                            if mate[base_of[bw]] != -1:
                                # free blossom: becomes inner, its base's
                                # mate becomes outer
                                assign_label(w, 2, v)
                            else:
                                # free blossom whose base is exposed with
                                # dual zero: the path from v's root to
                                # that base augments
                                assert dual[base_of[bw]] == 0
                                flip_path(v, w)
                                if bw >= n:
                                    augment_through(bw, w)
                                mate[w] = v
                                stage_over = True
                                break
                        elif label[bw] == 1:
                            # outer-outer edge: new blossom or augment
                            bse = find_cycle_base(v, w)
                            if bse != -1:
                                shrink_blossom(bse, v, w)
                            else:
                                flip_path(v, w)
                                flip_path(w, v)
                                stage_over = True
                                break
                        elif label[w] == 0:
                            # first reach of a vertex inside an inner
                            # blossom; remember the entry edge for a
                            # later mid-stage expansion
                            assert label[bw] == 2
                            label[w] = 2
                            label_edge[w] = (v, w)
                    elif label[bw] == 1:
                        if best_edge[bv] is None or ks < slack(*best_edge[bv]):
                            best_edge[bv] = (v, w, wt)
                    elif label[w] == 0:
                        if best_edge[w] is None or ks < slack(*best_edge[w]):
                            best_edge[w] = (v, w, wt)
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
                lbl = label[bv]
                if lbl == 1:
                    if d1 is None or dual[v] < d1:
                        d1, d1_vertex = dual[v], v
                    if bv == v and best_edge[v] is not None:
                        d = half_slack(*best_edge[v])
                        if d3 is None or d < d3:
                            d3, d3_edge = d, best_edge[v]
                elif lbl == 0 and best_edge[v] is not None:
                    d = slack(*best_edge[v])
                    if d2 is None or d < d2:
                        d2, d2_edge = d, best_edge[v]
            for b, z in blossom_dual.items():
                if parent_of[b] == -1:
                    lbl = label[b]
                    if lbl == 1 and best_edge[b] is not None:
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
                lbl = label[in_blossom[v]]
                if lbl == 1:
                    dual[v] -= delta
                elif lbl == 2:
                    dual[v] += delta
            for b in blossom_dual:
                if parent_of[b] == -1:
                    if label[b] == 1:
                        blossom_dual[b] += delta
                    elif label[b] == 2:
                        blossom_dual[b] -= delta
            if delta_type == 1:
                # an outer dual hit zero: that vertex takes over as its
                # tree's exposed vertex and the root is matched (or
                # retired, when it is the root itself)
                flip_path(d1_vertex, -1)
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
            if parent_of[b] == -1 and label[b] == 1 and blossom_dual[b] == 0:
                expand_blossom(b, True)
    verify_optimum(g.edges, edge_weights, mate, dual, blossom_dual, parent_of, base_of, links)
    return Matching.from_mate(g, mate)


def verify_optimum(
    edges, edge_weights, mate, dual, blossom_dual, parent_of, base_of, links
) -> None:
    """Checks complementary slackness for max_weight_matching's final state.

    The state is the engine's, as plain values: edges and their integer
    weights, mate (-1 for an exposed vertex), the doubled vertex duals
    (an edge's slack is dual[i] + dual[j] - 4 w), and, per blossom id,
    blossom_dual (live blossoms only), parent_of (-1 at the top),
    base_of and links (the edges between consecutive children, from
    the base child round).  Every failure raises RuntimeError naming
    the first broken condition: an engine bug, not bad input.
    """
    n, m = len(mate), len(edges)
    for v in range(n):
        if dual[v] < 0:
            raise _internal_error(f"negative dual {dual[v]} at vertex {v}", n, m)
    for b, z in blossom_dual.items():
        if z < 0:
            raise _internal_error(f"negative dual on the blossom with base {base_of[b]}", n, m)
    for e, (i, j) in enumerate(edges):
        s = dual[i] + dual[j] - 4 * edge_weights[e]
        chain_i = [i]
        chain_j = [j]
        while parent_of[chain_i[-1]] != -1:
            chain_i.append(parent_of[chain_i[-1]])
        while parent_of[chain_j[-1]] != -1:
            chain_j.append(parent_of[chain_j[-1]])
        chain_i.reverse()
        chain_j.reverse()
        for bi, bj in zip(chain_i, chain_j):
            if bi != bj:
                break
            s += 2 * blossom_dual[bi]
        if s < 0:
            raise _internal_error(f"negative slack {s} on edge {e} ({i}, {j})", n, m)
        if (mate[i] == j or mate[j] == i) and s != 0:
            raise _internal_error(f"matched edge {e} ({i}, {j}) has slack {s}", n, m)
    for v in range(n):
        if mate[v] == -1 and dual[v] != 0:
            raise _internal_error(f"exposed vertex {v} has dual {dual[v]}", n, m)
    for b, z in blossom_dual.items():
        if z > 0:
            if len(links[b]) % 2 != 1:
                raise _internal_error(f"even blossom with base {base_of[b]} has dual {z}", n, m)
            for i, j in links[b][1::2]:
                if mate[i] != j or mate[j] != i:
                    e = edges.index((min(i, j), max(i, j)))
                    raise _internal_error(
                        f"blossom with base {base_of[b]} and dual {z} is not full: "
                        f"edge {e} ({i}, {j}) is unmatched",
                        n,
                        m,
                    )


def _internal_error(what: str, n: int, m: int) -> RuntimeError:
    # an engine bug, not bad input: name enough to reproduce it
    return RuntimeError(f"internal error: {what} (n={n}, m={m})")
