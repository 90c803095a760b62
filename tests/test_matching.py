"""Both matching engines plus the matching utility types."""

import hashlib
import sys

import pytest

from conftest import (
    alternating_augmenting_path_exists,
    complete_graph,
    cycle_graph,
    path_graph,
    random_core,
    random_maximal_matching,
    star_graph,
)
from orientlight import Graph, VertexWeights, solve_min_light
from orientlight.generate import SplitMix64, random_graph, random_weights
from orientlight import _weighted
from orientlight._weighted import verify_optimum
from orientlight.matching import Matching, max_cardinality_matching, max_weight_matching
from orientlight.oracle import brute_force_max_matching, brute_force_min_light
from orientlight.reduction import build_gprime


def pendant_heavy_graph(n: int, chords: int, seed: int) -> Graph:
    """A random tree on n vertices plus chords: many leaves, which the flow
    kernel settles before the gadget is built, leaving demand-1 vertices
    where they hung."""
    rng = SplitMix64(seed)
    edges = {(rng.next_below(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + chords:
        u, v = sorted((rng.next_below(n), rng.next_below(n)))
        if u != v:
            edges.add((u, v))
    g = Graph(n, tuple(sorted(edges)))
    assert sum(1 for v in range(n) if g.degree(v) == 1) >= n // 4
    return g


def positive_costs(n: int, top: int, seed: int) -> VertexWeights:
    """Costs in hundredths, 1..top units each, so a small top forces many
    ties.  The zero weights come from zero_a_tenth instead."""
    rng = SplitMix64(seed)
    return VertexWeights(tuple(1 + rng.next_below(top) for _ in range(n)), 100)


# (n, seed, top): 2-cores of 3n-vertex draws at average degree 3.2, which
# the flow kernel keeps whole (positive costs give it the unweighted
# targets), with costs 1..top: gadgets of 1000-1732 vertices.  The size
# floors in weighted_gadget keep a kernel change from shrinking them.
WEIGHTED_GADGETS = [(60, 31, 1000), (80, 32, 1000), (100, 33, 10)]


def zero_a_tenth(r, seed: int) -> tuple[Graph, tuple[int, ...]]:
    """The gadget graph with a tenth of its edge weights zeroed, so zero
    weights reach the engine scattered over the gadget, not owned by
    whole vertices."""
    rng = SplitMix64(seed)
    wts = tuple(0 if rng.next_below(10) == 0 else w for w in r.edge_weights)
    assert 0 in wts
    return r.gprime, wts


def weighted_gadget(n: int, seed: int, top: int) -> tuple[Graph, tuple[int, ...]]:
    core = random_core(3 * n, 3.2 / (3 * n - 1), seed)
    assert core is not None
    r = build_gprime(core, positive_costs(core.n, top, seed))
    assert r.core == core
    assert r.gprime.n >= {60: 850, 80: 1074, 100: 1449}[n]
    return zero_a_tenth(r, seed)


def mate_digest(m: Matching) -> str:
    return hashlib.sha256(repr(m.mate).encode()).hexdigest()[:16]


def pendant_heavy_weighted_gadget() -> tuple[Graph, tuple[int, ...]]:
    # a core with 128 demand-1 vertices, kept whole; a gadget of 945
    # vertices
    g = pendant_heavy_graph(400, 120, 41)
    r = build_gprime(g, positive_costs(g.n, 1000, 41))
    assert r.core.n == 224
    assert r.gprime.n >= 945
    return zero_a_tenth(r, 41)


def sub_critical_weighted_gadget() -> tuple[Graph, tuple[int, ...]]:
    # the gadget of random_graph(300, 435 / 44850, 1) with the costs
    # random_weights(300, 1000, 2): m = 1.4n, below the density at which
    # the flow kernel settles almost everything, so a core of 232
    # vertices (45 of demand 1) and a gadget of 1411 vertices remain
    n = 300
    g = random_graph(n, 435 / (n * (n - 1) // 2), 1)
    r = build_gprime(g, random_weights(n, 1000, 2))
    assert (g.m, r.core.n, r.gprime.n) == (420, 232, 1411)
    assert sum(1 for b in r.demand if b == 1) == 45
    return r.gprime, r.edge_weights


class TestMatchingType:
    def test_from_edge_ids(self, k3):
        m = Matching.from_edge_ids(k3, [0])
        assert m.size == 1
        assert m.mate == (1, 0, -1)
        assert [v for v, w in enumerate(m.mate) if w == -1] == [2]

    def test_from_edge_ids_reads_an_iterator_once(self):
        g = Graph(3, ((0, 1), (1, 2)))
        m = Matching.from_edge_ids(g, (e for e in [0]))
        assert (m.matched_edge_ids, m.mate, m.size) == (frozenset({0}), (1, 0, -1), 1)

    def test_from_edge_ids_takes_a_range(self, c4):
        m = Matching.from_edge_ids(c4, range(0, 4, 2))
        assert m == Matching.from_edge_ids(c4, [0, 2])
        assert (m.matched_edge_ids, m.size) == (frozenset({0, 2}), 2)

    def test_from_edge_ids_rejects_overlap(self, k3):
        with pytest.raises(ValueError, match="shares a vertex"):
            Matching.from_edge_ids(k3, [0, 1])

    def test_from_edge_ids_rejects_unknown(self, k3):
        with pytest.raises(ValueError, match="out of range"):
            Matching.from_edge_ids(k3, [7])

    def test_from_mate_round_trip(self, c4):
        m = Matching.from_edge_ids(c4, [0, 2])
        assert Matching.from_mate(c4, m.mate) == m

    def test_from_mate_rejects_non_involution(self, k3):
        # a cycle of partners, and a partner out of range
        for mate in ((1, 2, 0), (5, -1, -1)):
            with pytest.raises(ValueError, match="involution at vertex 0"):
                Matching.from_mate(k3, mate)

    def test_from_mate_rejects_wrong_length(self, k3):
        with pytest.raises(ValueError, match="mate covers 2 vertices, graph has 3"):
            Matching.from_mate(k3, (1, 0))

    def test_from_mate_rejects_non_edge(self):
        g = Graph(4, ((0, 1), (2, 3)))
        with pytest.raises(ValueError, match=r"^matched pair \(0, 2\) is not an edge$"):
            Matching.from_mate(g, (2, 3, 0, 1))

    def test_weight_units(self, c4):
        m = Matching.from_edge_ids(c4, [0, 2])
        assert m.weight_units((5, 1, 7, 1)) == 12


class TestIsValidMatching:
    # a record is a valid matching of g exactly when rebuilding it from
    # its mate gives it back; the engine-output checks below rely on this
    def test_accepts_single_edge(self, k3):
        m = Matching.from_edge_ids(k3, [0])
        assert Matching.from_mate(k3, m.mate) == m

    def test_rejects_shared_vertex(self, k3):
        bad = Matching(frozenset({0, 1}), (1, 0, 0))
        with pytest.raises(ValueError, match="involution"):
            Matching.from_mate(k3, bad.mate)
        with pytest.raises(ValueError, match="shares a vertex"):
            Matching.from_edge_ids(k3, bad.matched_edge_ids)

    def test_rejects_unknown_edge(self, k3):
        bad = Matching(frozenset({9}), (-1, -1, -1))
        assert Matching.from_mate(k3, bad.mate) != bad

    def test_rejects_inconsistent_mate(self, k3):
        bad = Matching(frozenset({0}), (2, -1, 0))
        assert Matching.from_mate(k3, bad.mate) != bad


class TestMaxCardinality:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_odd_cycles(self, k):
        g = cycle_graph(2 * k + 1)
        assert max_cardinality_matching(g).size == k

    def test_even_cycle_perfect(self, c4):
        assert max_cardinality_matching(c4).size == 2

    def test_c5(self, c5):
        assert max_cardinality_matching(c5).size == 2

    def test_gprime_of_triangle(self, k3):
        r = build_gprime(k3)
        assert max_cardinality_matching(r.gprime).size == 4

    def test_empty_graph(self):
        for n in (0, 1, 3, 5):
            g = Graph(n, ())
            assert max_cardinality_matching(g) == Matching.empty(g)

    def test_deterministic(self):
        g = random_graph(10, 0.5, 77)
        assert max_cardinality_matching(g) == max_cardinality_matching(g)

    def test_no_augmenting_path_remains(self):
        checked = 0
        seed = 300
        while checked < 40:
            g = random_graph(9, 0.4, seed)
            seed += 1
            if g.m == 0:
                continue
            m = max_cardinality_matching(g)
            assert Matching.from_mate(g, m.mate) == m
            assert not alternating_augmenting_path_exists(g, m)
            checked += 1

    def test_agrees_with_brute_force(self):
        checked = 0
        seed = 900
        while checked < 60:
            g = random_graph(8, 0.5, seed)
            seed += 1
            if g.m > 16:
                continue
            assert max_cardinality_matching(g).size == brute_force_max_matching(g).size
            checked += 1

    def test_failed_tree_is_retired_and_later_roots_still_augment(self):
        # Greedy seeding matches a-b, c-d, x-y and w-w2 and leaves r, s, t,
        # u and z exposed.  The search from r grows r-a=b, closes the
        # blossom b-c=d-b and fails, so r, a, b, c and d are retired; a
        # keeps an edge to x outside that tree.  The search from s then
        # augments along s-y=x-t, and the one from u along u-x=t-w=w2-z,
        # through vertices the successful search from s had in its tree.
        r, a, b, c, d, x, y, s, t, u, w, w2, z = range(13)
        g = Graph(13, (
            (a, b), (c, d), (x, y), (w, w2),
            (r, a), (b, c), (b, d), (a, x), (y, s), (x, t), (x, u), (t, w), (w2, z),
        ))
        # the engine's greedy start: every edge by id whose ends are both free
        mate = [-1] * g.n
        for p, q in g.edges:
            if mate[p] == -1 and mate[q] == -1:
                mate[p], mate[q] = q, p
        assert [v for v, w in enumerate(mate) if w == -1] == [r, s, t, u, z]
        m = max_cardinality_matching(g)
        assert Matching.from_mate(g, m.mate) == m
        assert m.size == brute_force_max_matching(g).size == 6
        assert [v for v, w in enumerate(m.mate) if w == -1] == [r]
        assert max_cardinality_matching(g) == m

    @pytest.mark.parametrize("n, seed", [(100, 11), (150, 12), (180, 13)])
    def test_agrees_with_networkx_on_random_gadgets(self, n, seed):
        # 2-cores of 3n-vertex draws at average degree 3.2, which the flow
        # kernel keeps whole: gadgets of 1636-2924 vertices, far above the
        # brute-force caps; the floors keep a kernel change from shrinking
        # them
        core = random_core(3 * n, 3.2 / (3 * n - 1), seed)
        assert core is not None
        r = build_gprime(core)
        assert r.core == core
        assert r.gprime.n >= {100: 1355, 150: 1994, 180: 2473}[n]
        self._check_against_networkx(r.gprime)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_agrees_with_networkx_on_pendant_heavy_gadgets(self, seed):
        # cores of 485 and 480 vertices, with 277 and 278 demand-1
        # vertices; gadgets of 1882 and 1978 vertices
        r = build_gprime(pendant_heavy_graph(1000, 275, seed))
        assert r.core.n == {21: 485, 22: 480}[seed]
        assert r.gprime.n >= {21: 1882, 22: 1978}[seed]
        self._check_against_networkx(r.gprime)

    # the first 16 hex digits of sha256(repr(mate)) on the unweighted
    # gadgets of TestMaxWeight's pinned graphs: graph n, d for p = d / n
    # and graph seed.  A change to which maximum matching the engine
    # returns fails here.
    @pytest.mark.parametrize(
        "case, digest",
        [
            ((8, 3.9, 62), "084a6e4e8a39c15b"),
            ((30, 3.0, 7), "480b1c3ed1743ea1"),
            ((40, 3.0, 11), "5eb8767f8a736dd8"),
            ((40, 3.4, 13), "60ab37abd1a30620"),
        ],
    )
    def test_returns_the_pinned_matching(self, case, digest):
        n, d, graph_seed = case
        r = build_gprime(random_graph(n, d / n, graph_seed))
        assert mate_digest(max_cardinality_matching(r.gprime)) == digest

    def test_returns_the_pinned_matching_on_a_sub_critical_gadget(self):
        # the unweighted gadget of sub_critical_weighted_gadget's graph
        n = 300
        r = build_gprime(random_graph(n, 435 / (n * (n - 1) // 2), 1))
        assert r.gprime.n == 1411
        assert mate_digest(max_cardinality_matching(r.gprime)) == "2d1a2389f6f6459f"

    @staticmethod
    def _check_against_networkx(g):
        nx = pytest.importorskip("networkx")
        m = max_cardinality_matching(g)
        assert Matching.from_mate(g, m.mate) == m
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        assert m.size == len(nx.max_weight_matching(h, maxcardinality=True))


class TestMaxWeight:
    def test_path_prefers_heavy_middle(self):
        g = path_graph(4)
        m = max_weight_matching(g, (1, 3, 1))
        assert m.matched_edge_ids == {1}
        assert m.weight_units((1, 3, 1)) == 3

    def test_zero_weight_edge_still_matched(self):
        g = Graph(2, ((0, 1),))
        m = max_weight_matching(g, (0,))
        assert m.weight_units((0,)) == 0
        assert Matching.from_mate(g, m.mate) == m

    def test_equal_weights_track_cardinality(self):
        for seed in range(8):
            g = random_graph(8, 0.5, seed)
            if g.m == 0:
                continue
            card = max_cardinality_matching(g).size
            m = max_weight_matching(g, (7,) * g.m)
            assert m.weight_units((7,) * g.m) == 7 * card

    def test_rejects_negative(self, k3):
        with pytest.raises(ValueError, match="negative"):
            max_weight_matching(k3, (1, -1, 1))

    def test_rejects_non_integer(self, k3):
        with pytest.raises(ValueError, match="integer"):
            max_weight_matching(k3, (1.5, 1, 1))

    def test_rejects_bool_weights(self, k3, p2):
        # a bool is an int to isinstance, and True would weigh 1
        with pytest.raises(ValueError, match=r"edge weight True at id 0 is not an integer"):
            max_weight_matching(p2, (True,))
        with pytest.raises(ValueError, match=r"edge weight False at id 2 is not an integer"):
            max_weight_matching(k3, (1, 2, False))

    def test_rejects_wrong_length(self, k3):
        with pytest.raises(ValueError):
            max_weight_matching(k3, (1, 1))

    def test_empty_graph(self):
        for n in (0, 1, 3, 5):
            g = Graph(n, ())
            assert max_weight_matching(g, ()) == Matching.empty(g)

    def test_deterministic(self):
        g = random_graph(9, 0.5, 31)
        wts = tuple((e * 13 + 5) % 11 for e in range(g.m))
        assert max_weight_matching(g, wts) == max_weight_matching(g, wts)

    def test_agrees_with_brute_force(self):
        checked = 0
        seed = 4000
        rng = SplitMix64(99)
        while checked < 60:
            g = random_graph(8, 0.5, seed)
            seed += 1
            if g.m > 16 or g.m == 0:
                continue
            wts = tuple(rng.next_below(11) for _ in range(g.m))
            got = max_weight_matching(g, wts)
            want = brute_force_max_matching(g, wts)
            assert Matching.from_mate(g, got.mate) == got
            assert got.weight_units(wts) == want.weight_units(wts)
            checked += 1

    def test_blossom_heavy_instance(self):
        # two triangles joined by a bridge force odd-set handling
        g = Graph(6, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)))
        wts = (2, 2, 2, 5, 2, 2, 2)
        m = max_weight_matching(g, wts)
        assert m.weight_units(wts) == brute_force_max_matching(g, wts).weight_units(wts)

    # Small graphs, each forcing one event of the warm-started engine.
    # Duals start doubled at each vertex's heaviest incident edge, so with
    # weights w the doubled duals read 2*max(w); the greedy seed takes the
    # edges whose two ends both attain that maximum.
    @pytest.mark.parametrize(
        "n, edges, wts",
        [
            # root retired: 0-2 is seeded; root 1 has dual 2 while its
            # only edge has slack 4, so its dual reaches zero first
            (3, ((0, 1), (0, 2)), (1, 3)),
            # root retired inside its blossom: 0-1 is seeded, root 2 closes
            # the blossom 2-0=1-2, and 2's dual is the smallest in it
            (3, ((0, 1), (0, 2), (1, 2)), (2, 2, 3)),
            # matched outer vertex: 0-4 is seeded, 1-2 augments in the
            # first stage; in the second the tree from root 3 grows
            # 3-4=0 and 3-2=1, and 1's dual reaches zero before 3's, so
            # 3-2=1 is flipped, leaving 1 exposed and 3 matched
            (5, ((0, 4), (1, 2), (2, 3), (3, 4)), (4, 1, 2, 4)),
            # matched outer vertex inside a blossom: 3-4 is seeded, 0-1
            # augments; root 2 closes the blossom 2-1=0-2 and grows
            # 2-4=3, then 0's dual reaches zero, so the blossom is rotated
            # to base 0, which is left exposed, and keeps a positive dual
            (5, ((0, 1), (0, 2), (1, 2), (2, 4), (3, 4)), (2, 2, 3, 4, 5)),
            # exposed zero-dual vertex: 0-1 is seeded; root 3 is retired in
            # the first stage, then the tree from root 2 grows 2-0=1 and
            # the edge 1-3 becomes tight: 2-0=1-3 augments
            (4, ((0, 1), (0, 2), (1, 3)), (4, 4, 1)),
            # free blossom with an exposed zero-dual base: 0-3 and 4-5 are
            # seeded; root 1 closes the blossom 1-4=5-1 and is retired in
            # it, then the tree from root 2 grows 2-3=0 and reaches the
            # blossom through 0-4: 2-3=0-4, rotated through 4=5-1, augments
            (
                6,
                ((0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5)),
                (6, 3, 2, 2, 2, 5, 3),
            ),
        ],
        ids=[
            "root-retired",
            "root-retired-in-blossom",
            "matched-outer-flipped",
            "flipped-inside-blossom",
            "zero-dual-vertex-reached",
            "zero-dual-blossom-reached",
        ],
    )
    def test_warm_start_events(self, n, edges, wts):
        g = Graph(n, edges)
        got = max_weight_matching(g, wts)
        assert Matching.from_mate(g, got.mate) == got
        assert got.weight_units(wts) == brute_force_max_matching(g, wts).weight_units(wts)
        assert max_weight_matching(g, wts) == got

    @pytest.mark.parametrize("n, seed, top", WEIGHTED_GADGETS)
    def test_agrees_with_networkx_on_weighted_gadgets(self, n, seed, top):
        self._check_against_networkx(*weighted_gadget(n, seed, top))

    def test_agrees_with_networkx_on_a_pendant_heavy_weighted_gadget(self):
        self._check_against_networkx(*pendant_heavy_weighted_gadget())

    def test_agrees_with_networkx_on_a_sub_critical_weighted_gadget(self):
        self._check_against_networkx(*sub_critical_weighted_gadget())

    def test_leaves_the_recursion_limit_alone(self, monkeypatch):
        # nested blossoms are walked with explicit stacks, so the engine
        # never changes the interpreter-wide recursion limit
        def refuse(limit):
            raise AssertionError(f"the engine set the recursion limit to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        gadgets = [weighted_gadget(*case) for case in WEIGHTED_GADGETS]
        for g, wts in gadgets + [pendant_heavy_weighted_gadget()]:
            m = max_weight_matching(g, wts)
            assert Matching.from_mate(g, m.mate) == m

    def test_nested_blossoms(self):
        # found by a search with a copy of the engine that counts events:
        # three blossoms form, two of them around an earlier blossom, an
        # augmentation runs through two nested blossoms, and the end of a
        # stage expands two zero-dual sub-blossoms
        g = Graph(8, (
            (0, 1), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4),
            (2, 7), (3, 4), (3, 6), (4, 5), (5, 6), (6, 7),
        ))
        wts = (11, 12, 9, 4, 12, 11, 11, 6, 2, 1, 3, 2, 1)
        got = max_weight_matching(g, wts)
        assert Matching.from_mate(g, got.mate) == got
        assert got.weight_units(wts) == brute_force_max_matching(g, wts).weight_units(wts)

    def test_mid_stage_expansion_relabels_a_reached_sub_blossom(self):
        # a seeded input whose mid-stage expansion of an inner blossom
        # relabels a sub-blossom child that holds a reached vertex: 15
        # edges, a gadget of 59 vertices and 80 edges
        g = random_graph(8, 3.9 / 8, 62)
        w = random_weights(8, 1000, 73)
        assert g.m == 15
        assert solve_min_light(g, w).objective == brute_force_min_light(g, w)[0]
        r = build_gprime(g, w)
        assert (r.gprime.n, r.gprime.m) == (59, 80)
        self._check_against_networkx(r.gprime, r.edge_weights)

    # the first 16 hex digits of sha256(repr(mate)) on seeded gadgets:
    # graph n, d for p = d / n, graph seed, top cost, cost seed, and a
    # tenth of the weights zeroed or not.  A change to which optimum the
    # engine returns fails here.
    @pytest.mark.parametrize(
        "case, zeroed, digest",
        [
            ((8, 3.9, 62, 1000, 73), False, "7c769e3ae55393eb"),
            ((8, 3.9, 62, 1000, 73), True, "814a9718f44cacb6"),
            ((30, 3.0, 7, 1000, 8), False, "541d9f1a0910797b"),
            ((30, 3.0, 7, 1000, 8), True, "517b926ad9f0801f"),
            ((40, 3.0, 11, 3, 12), False, "d952ece069773704"),
            ((40, 3.0, 11, 3, 12), True, "6043800b4f376506"),
            ((40, 3.4, 13, 1000, 14), False, "a7be84d19e5a6c2e"),
            ((40, 3.4, 13, 1000, 14), True, "352301403dd60055"),
        ],
    )
    def test_returns_the_pinned_matching(self, case, zeroed, digest):
        n, d, graph_seed, top, cost_seed = case
        r = build_gprime(random_graph(n, d / n, graph_seed), random_weights(n, top, cost_seed))
        g, wts = zero_a_tenth(r, graph_seed) if zeroed else (r.gprime, r.edge_weights)
        assert mate_digest(max_weight_matching(g, wts)) == digest

    def test_returns_the_pinned_matching_on_a_large_gadget(self):
        g, wts = weighted_gadget(60, 31, 1000)
        assert mate_digest(max_weight_matching(g, wts)) == "a7c876fc387697c9"

    def test_returns_the_pinned_matching_on_a_sub_critical_gadget(self):
        g, wts = sub_critical_weighted_gadget()
        assert mate_digest(max_weight_matching(g, wts)) == "8c295a72b399b214"

    @staticmethod
    def _check_against_networkx(g, wts):
        nx = pytest.importorskip("networkx")
        m = max_weight_matching(g, wts)
        assert Matching.from_mate(g, m.mate) == m
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        for e, (u, v) in enumerate(g.edges):
            h.add_edge(u, v, weight=wts[e])
        want = sum(h[u][v]["weight"] for u, v in nx.max_weight_matching(h))
        assert m.weight_units(wts) == want

    def test_dense_complete_graphs(self):
        # K7 has 21 edges, past the default matching oracle cap, so raise it here
        for k in (4, 5, 6, 7):
            g = complete_graph(k)
            rng = SplitMix64(k)
            wts = tuple(rng.next_below(9) for _ in range(g.m))
            got = max_weight_matching(g, wts).weight_units(wts)
            want = brute_force_max_matching(g, wts, max_edges=32).weight_units(wts)
            assert got == want


def edge_state(**changes):
    """verify_optimum's arguments for the optimum of one edge of weight 1
    (the duals are doubled, so each end holds 2), with changes applied."""
    state = dict(
        edges=((0, 1),), edge_weights=(1,), mate=[1, 0], dual=[2, 2],
        blossom_dual={}, parent_of=[-1] * 4, base_of=[0, 1, -1, -1], links=[None] * 4,
    )
    return {**state, **changes}


def blossom_state(**changes):
    """The optimum of a triangle of weight-1 edges as a blossom (id 3,
    base 0, dual 2) whose duals all sit on the blossom: the edge (1, 2)
    is matched, vertex 0 exposed with dual 0, and every slack is 0."""
    state = dict(
        edges=((0, 1), (0, 2), (1, 2)), edge_weights=(1, 1, 1), mate=[-1, 2, 1],
        dual=[0, 0, 0], blossom_dual={3: 2}, parent_of=[3, 3, 3, -1, -1, -1],
        base_of=[0, 1, 2, 0, -1, -1], links=[None, None, None, [(0, 1), (1, 2), (2, 0)], None, None],
    )
    return {**state, **changes}


class TestVerifyOptimum:
    """The weighted engine's closing optimality check on hand-made states:
    each broken condition raises its own internal error."""

    @pytest.mark.parametrize("state", [edge_state(), blossom_state()], ids=["edge", "blossom"])
    def test_an_optimal_state_passes(self, state):
        assert verify_optimum(**state) is None

    @pytest.mark.parametrize(
        "state, message",
        [
            (edge_state(dual=[-1, 5]), "negative dual -1 at vertex 0 (n=2, m=1)"),
            (
                blossom_state(blossom_dual={3: -1}),
                "negative dual on the blossom with base 0 (n=3, m=3)",
            ),
            (edge_state(dual=[1, 1]), "negative slack -2 on edge 0 (0, 1) (n=2, m=1)"),
            (edge_state(dual=[3, 3]), "matched edge 0 (0, 1) has slack 2 (n=2, m=1)"),
            (edge_state(mate=[-1, -1]), "exposed vertex 0 has dual 2 (n=2, m=1)"),
            (
                blossom_state(links=[None, None, None, [(0, 1), (1, 2)], None, None]),
                "even blossom with base 0 has dual 2 (n=3, m=3)",
            ),
            (
                blossom_state(mate=[-1, -1, -1]),
                "blossom with base 0 and dual 2 is not full: edge 2 (1, 2) is unmatched "
                "(n=3, m=3)",
            ),
        ],
        ids=["vertex-dual", "blossom-dual", "slack", "matched-slack", "exposed-dual",
             "even-blossom", "not-full"],
    )
    def test_each_broken_condition_is_an_internal_error(self, state, message):
        with pytest.raises(RuntimeError) as ex:
            verify_optimum(**state)
        assert str(ex.value) == "internal error: " + message

    def test_the_engine_checks_its_final_state(self, monkeypatch, k3):
        seen = []
        monkeypatch.setattr(_weighted, "verify_optimum", lambda *state: seen.append(state))
        m = max_weight_matching(k3, (1, 2, 3))
        assert len(seen) == 1
        edges, weights, mate = seen[0][:3]
        assert (edges, weights, tuple(mate)) == (k3.edges, (1, 2, 3), m.mate)


class TestMaximalMatchingHelper:
    def test_random_maximal_matching_is_maximal(self):
        for seed in range(6):
            g = random_graph(9, 0.5, seed)
            m = random_maximal_matching(g, seed)
            assert Matching.from_mate(g, m.mate) == m
            for u, v in g.edges:
                assert m.mate[u] != -1 or m.mate[v] != -1

    def test_star_fixture_shape(self):
        g = star_graph(5)
        assert g.degree(0) == 5
