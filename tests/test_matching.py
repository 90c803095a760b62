"""Both matching engines plus the matching utility types.

TestBothEngines runs every check the two engines share over one case
table.  A family builder takes an engine and returns that engine's
cases by id, each a graph and the edge weights it is matched with:
costs for max_weight_matching, unit weights for
max_cardinality_matching.  At unit weights a maximum-weight matching is
a maximum-cardinality one, so one weight_units comparison checks either
engine against brute force or networkx.
"""

import hashlib
import sys
from functools import partial

import pytest

from conftest import (
    alternating_augmenting_path_exists,
    complete_graph,
    cycle_graph,
    one_sided_mates,
    path_graph,
    random_core,
    random_maximal_matching,
    star_graph,
    wheel_graph,
)
from orientlight import Graph, VertexWeights, solve_min_light
from orientlight.generate import SplitMix64, random_graph, random_weights
from orientlight import _weighted
from orientlight._weighted import verify_optimum
from orientlight.matching import Matching, max_cardinality_matching, max_weight_matching
from orientlight.oracle import brute_force_min_light
from orientlight.reduction import build_gprime
from support import brute_force_max_matching

ENGINES = ("cardinality", "weight")


def run_engine(engine: str, g: Graph, wts) -> Matching:
    """engine's matching of g; the cardinality engine takes no weights."""
    if engine == "cardinality":
        return max_cardinality_matching(g)
    return max_weight_matching(g, wts)


def costed(engine: str, g: Graph, costs) -> tuple[Graph, tuple[int, ...]]:
    """g as a case of engine: with its edge costs for the weighted engine,
    with unit weights for the cardinality engine."""
    return g, (tuple(costs) if engine == "weight" else (1,) * g.m)


def check_against_brute_force(engine: str, g: Graph, wts) -> None:
    m = run_engine(engine, g, wts)
    assert Matching.from_mate(g, m.mate) == m
    want = brute_force_max_matching(g, wts, max_edges=BRUTE_FORCE_EDGES)
    assert m.weight_units(wts) == want.weight_units(wts)


def check_against_networkx(engine: str, g: Graph, wts) -> None:
    nx = pytest.importorskip("networkx")
    m = run_engine(engine, g, wts)
    assert Matching.from_mate(g, m.mate) == m
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_weighted_edges_from((u, v, w) for (u, v), w in zip(g.edges, wts))
    want = sum(h[u][v]["weight"] for u, v in nx.max_weight_matching(h))
    assert m.weight_units(wts) == want


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


def zero_a_tenth(r, seed: int) -> tuple[Graph, tuple[int, ...]]:
    """The gadget graph with a tenth of its edge weights zeroed, so zero
    weights reach the engine scattered over the gadget, not owned by
    whole vertices."""
    rng = SplitMix64(seed)
    wts = tuple(0 if rng.next_below(10) == 0 else w for w in r.edge_weights)
    assert 0 in wts
    return r.gprime, wts


def gadget_case(g: Graph, seed: int, top: int | None) -> tuple:
    """g's gadget record and its case: unweighted, or with costs 1..top
    drawn from seed and a tenth of the edge weights zeroed."""
    if top is None:
        r = build_gprime(g)
        return r, (r.gprime, r.edge_weights)
    r = build_gprime(g, positive_costs(g.n, top, seed))
    return r, zero_a_tenth(r, seed)


def core_gadget(n: int, seed: int, top: int | None = None) -> tuple[Graph, tuple[int, ...]]:
    """The gadget of the 2-core of a 3n-vertex draw at average degree 3.2,
    which the flow kernel keeps whole (positive costs give it the
    unweighted targets): 1000-2924 vertices, and the floors keep a kernel
    change from shrinking it."""
    core = random_core(3 * n, 3.2 / (3 * n - 1), seed)
    assert core is not None
    r, case = gadget_case(core, seed, top)
    assert r.core == core
    floors = {(100, 11): 1355, (150, 12): 1994, (180, 13): 2473, (60, 31): 850, (80, 32): 1074}
    assert r.gprime.n >= {**floors, (100, 33): 1449}[n, seed]
    return case


def pendant_heavy_gadget(
    n: int, chords: int, seed: int, top: int | None = None
) -> tuple[Graph, tuple[int, ...]]:
    """The gadget of pendant_heavy_graph(n, chords, seed).  Seeds 21 and 22
    (1000 vertices, 275 chords) keep cores of 485 and 480 vertices, with
    277 and 278 of demand 1; seed 41 (400 vertices, 120 chords) keeps one
    of 224 vertices, with 128 of demand 1."""
    r, case = gadget_case(pendant_heavy_graph(n, chords, seed), seed, top)
    core_n, floor = {21: (485, 1882), 22: (480, 1978), 41: (224, 945)}[seed]
    assert r.core.n == core_n
    assert r.gprime.n >= floor
    return case


def seeded_gadget(
    n: int, d: float, graph_seed: int, top=None, cost_seed=None, zeroed=False
) -> tuple[Graph, tuple[int, ...]]:
    """The gadget of random_graph(n, d / n, graph_seed), unweighted or with
    the costs random_weights(n, top, cost_seed), a tenth of its edge
    weights zeroed or not."""
    g = random_graph(n, d / n, graph_seed)
    r = build_gprime(g, None if top is None else random_weights(n, top, cost_seed))
    return zero_a_tenth(r, graph_seed) if zeroed else (r.gprime, r.edge_weights)


def sub_critical_gadget(top=None, cost_seed=None) -> tuple[Graph, tuple[int, ...]]:
    """The gadget of random_graph(300, 435 / 44850, 1), unweighted or with
    the costs random_weights(300, top, cost_seed): m = 1.4n, below the
    density at which the flow kernel settles almost everything, so a
    core of 232 vertices (45 of demand 1) and a gadget of 1411 vertices
    remain."""
    n = 300
    g = random_graph(n, 435 / (n * (n - 1) // 2), 1)
    r = build_gprime(g, None if top is None else random_weights(n, top, cost_seed))
    assert (g.m, r.core.n, r.gprime.n) == (420, 232, 1411)
    assert sum(1 for b in r.demand if b == 1) == 45
    return r.gprime, r.edge_weights


def mate_digest(m: Matching) -> str:
    return hashlib.sha256(repr(m.mate).encode()).hexdigest()[:16]


def family_digest(matchings) -> str:
    """mate_digest over a whole family's matchings, in order."""
    return hashlib.sha256(repr([m.mate for m in matchings]).encode()).hexdigest()[:16]


# the costs of a blossom tower's outermost cycle, from x round to y
OUTER_CYCLE_COSTS = (12, 3, 8, 3, 11)
# (depth, pendant) for every tower of the family, all drawn from one seed
BLOSSOM_TOWERS = [(depth, pendant) for depth in range(1, 5) for pendant in (False, True)]
TOWER_SEED = 123


def blossom_tower(
    depth: int, pendant: bool, seed: int = TOWER_SEED
) -> tuple[Graph, tuple[int, ...]]:
    """Odd cycles nested depth deep, and edge costs for the weighted engine.

    A 5-cycle, then depth - 1 times a new 5-cycle with one vertex
    replaced by everything built so far: the new cycle runs from a vertex
    x through four new vertices to a vertex y, x and y drawn from the
    seed and maybe equal.  With pendant, a path of two new vertices hangs
    off a drawn vertex: its first vertex is labelled 0, so its edge comes
    first and the cardinality engine's greedy start matches it, leaving
    the path's last vertex, labelled last, exposed.

    Every edge of the inner cycles costs 20, so all of them are tight at
    the weighted engine's start and contract into nested blossoms at
    once.  The outermost cycle starts lighter, so that blossom grows a
    dual before a path through it augments, and ends 1 lighter still, so
    in the next stage the blossom is reached as an inner one and expands
    mid-stage.  The seed was picked so that every tower of depth 2 or
    more makes a mid-stage expansion, and every one of depth 3 or more
    also augments through nested blossoms in the weighted engine and
    contracts earlier blossoms again in the cardinality engine.
    """
    rng = SplitMix64(seed)
    edges = [((i, (i + 1) % 5), 20) for i in range(5)]
    n = 5
    for level in range(1, depth):
        x, y = rng.next_below(n), rng.next_below(n)
        cycle = (x, n, n + 1, n + 2, n + 3, y)
        costs = OUTER_CYCLE_COSTS if level == depth - 1 else (20,) * 5
        edges += [((cycle[i], cycle[i + 1]), costs[i]) for i in range(5)]
        n += 4
    if pendant:
        x = rng.next_below(n) + 1
        edges = [((u + 1, v + 1), c) for (u, v), c in edges]
        edges += [((0, x), 12), ((0, n + 1), 8)]
        n += 2
    edges = sorted((tuple(sorted(uv)), c) for uv, c in edges)
    return Graph(n, tuple(uv for uv, _ in edges)), tuple(c for _, c in edges)


def triangle_chain(k: int, pendant: bool) -> Graph:
    """k triangles in a row, each joined to the next by one edge.

    Triangle i is 3i, 3i + 1, 3i + 2, and the edge (3i + 2, 3i + 3)
    joins it to triangle i + 1.  With pendant, new vertices 3k and
    3k + 1 hang off the chain's two ends, 0 and 3k - 1.
    """
    edges = [(3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (0, 2), (1, 2))]
    edges += [(3 * i + 2, 3 * i + 3) for i in range(k - 1)]
    n = 3 * k
    if pendant:
        edges += [(0, n), (n - 1, n + 1)]
        n += 2
    return Graph(n, tuple(sorted(edges)))


def hub_paths(k: int, length: int) -> Graph:
    """A hub, vertex 0, joined to the first vertex of each of k disjoint
    paths of length vertices."""
    edges = []
    for i in range(k):
        first = 1 + i * length
        edges += [(0, first)] + [(first + j, first + j + 1) for j in range(length - 1)]
    return Graph(1 + k * length, tuple(edges))


def cycling_costs(count: int) -> tuple[int, ...]:
    """1, 2, ..., 7, 1, 2, ...: the edge weights of a raw graph of the
    chain and hub families, and the vertex costs of its gadget.  On the
    raw triangle chains they make the weighted engine expand blossoms
    whose dual is still 0 at the end of a stage."""
    return tuple(i % 7 + 1 for i in range(count))


def cost_gadget(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    # with positive costs the gadget graph is the unweighted one
    r = build_gprime(g, VertexWeights(cycling_costs(g.n)))
    return r.gprime, r.edge_weights


# two more torture families, every graph at most 22 edges so brute force
# takes it: chains of triangles, whose augmenting paths run the length of
# the chain, and hub shapes, where one core vertex owns many ports
TRIANGLE_CHAINS = {
    f"{k}-triangles" + ("-pendants" if pendant else ""): triangle_chain(k, pendant)
    for k in range(1, 6)
    for pendant in (False, True)
}
HUB_SHAPES = {
    **{
        f"hub-{k}-paths-of-{length}": hub_paths(k, length)
        for length, ks in ((2, (3, 6, 11)), (3, (3, 7)), (4, (3, 5)))
        for k in ks
    },
    **{
        f"K2,{k}": Graph(k + 2, tuple(sorted((a, 2 + i) for i in range(k) for a in (0, 1))))
        for k in (3, 6, 11)
    },
    **{f"wheel{k}": wheel_graph(k) for k in (3, 6, 11)},
}


def tower_family(engine: str) -> dict[str, tuple[Graph, tuple[int, ...]]]:
    return {
        f"tower{depth}" + ("-pendant" if pendant else ""):
            costed(engine, *blossom_tower(depth, pendant))
        for depth, pendant in BLOSSOM_TOWERS
    }


def with_gadgets(graphs: dict[str, Graph]):
    """The family builder over graphs: each graph with the edge costs
    cycling_costs gives, then its gadget with those vertex costs."""

    def family(engine: str) -> dict[str, tuple[Graph, tuple[int, ...]]]:
        cases = {}
        for name, g in graphs.items():
            cases[name] = costed(engine, g, cycling_costs(g.m))
            cases[f"{name}-gadget"] = costed(engine, *cost_gadget(g))
        return cases

    return family


# the torture families, by name: between them they reach nested
# blossoms, and the weighted engine's mid-stage and end-of-stage
# expansions
FAMILIES = {
    "towers": tower_family,
    "chains": with_gadgets(TRIANGLE_CHAINS),
    "hubs": with_gadgets(HUB_SHAPES),
}
# brute force takes every family case of at most this many edges: every
# raw graph, and the smallest gadgets
BRUTE_FORCE_EDGES = 22


def family_rows(max_edges: int | None = None) -> list:
    """A row (engine, g, wts) for each engine and each case of each family,
    of at most max_edges edges when that is given."""
    return [
        pytest.param(engine, g, wts, id=f"{engine}-{name}")
        for engine in ENGINES
        for family in FAMILIES.values()
        for name, (g, wts) in family(engine).items()
        if max_edges is None or g.m <= max_edges
    ]


# the first 16 hex digits of sha256 of each engine's matchings over a
# whole family, in order (family_digest).  A change to which maximum
# matching an engine returns fails here.
FAMILY_DIGESTS = {
    ("cardinality", "towers"): "deecd97562964911",
    ("cardinality", "chains"): "c668c477e203a2a1",
    ("cardinality", "hubs"): "3ed0bcb0d69cfc6d",
    ("weight", "towers"): "591483d988eaa316",
    ("weight", "chains"): "e25d08e50debe429",
    ("weight", "hubs"): "0f5f62f7b8d34cc1",
}

# gadgets past brute force, each engine on its own, all checked against
# networkx: (engine, builder, digest).  A digest is the first 16 hex
# digits of sha256(repr(mate)) of the engine's matching (mate_digest), or
# None for a gadget that is not pinned.
GADGETS = [
    # unweighted gadgets of seeded graphs: n, d for p = d / n, graph seed
    ("cardinality", partial(seeded_gadget, 8, 3.9, 62), "084a6e4e8a39c15b"),
    ("cardinality", partial(seeded_gadget, 30, 3.0, 7), "480b1c3ed1743ea1"),
    ("cardinality", partial(seeded_gadget, 40, 3.0, 11), "5eb8767f8a736dd8"),
    ("cardinality", partial(seeded_gadget, 40, 3.4, 13), "60ab37abd1a30620"),
    ("cardinality", partial(sub_critical_gadget), "2d1a2389f6f6459f"),
    ("cardinality", partial(core_gadget, 100, 11), None),
    ("cardinality", partial(core_gadget, 150, 12), None),
    ("cardinality", partial(core_gadget, 180, 13), None),
    ("cardinality", partial(pendant_heavy_gadget, 1000, 275, 21), None),
    ("cardinality", partial(pendant_heavy_gadget, 1000, 275, 22), None),
    # then top cost and cost seed, and a tenth of the weights zeroed or not
    ("weight", partial(seeded_gadget, 8, 3.9, 62, 1000, 73), "7c769e3ae55393eb"),
    ("weight", partial(seeded_gadget, 8, 3.9, 62, 1000, 73, True), "814a9718f44cacb6"),
    ("weight", partial(seeded_gadget, 30, 3.0, 7, 1000, 8), "541d9f1a0910797b"),
    ("weight", partial(seeded_gadget, 30, 3.0, 7, 1000, 8, True), "517b926ad9f0801f"),
    ("weight", partial(seeded_gadget, 40, 3.0, 11, 3, 12), "d952ece069773704"),
    ("weight", partial(seeded_gadget, 40, 3.0, 11, 3, 12, True), "6043800b4f376506"),
    ("weight", partial(seeded_gadget, 40, 3.4, 13, 1000, 14), "a7be84d19e5a6c2e"),
    ("weight", partial(seeded_gadget, 40, 3.4, 13, 1000, 14, True), "352301403dd60055"),
    ("weight", partial(sub_critical_gadget, 1000, 2), "8c295a72b399b214"),
    ("weight", partial(core_gadget, 60, 31, 1000), "a7c876fc387697c9"),
    ("weight", partial(core_gadget, 80, 32, 1000), None),
    ("weight", partial(core_gadget, 100, 33, 10), None),
    ("weight", partial(pendant_heavy_gadget, 400, 120, 41, 1000), None),
]


def gadget_rows(pinned: bool) -> list:
    """A row (engine, build, digest) for each gadget, or each pinned one,
    with an id such as weight-seeded-8-3.9-62-1000-73-True."""
    rows = []
    for engine, build, digest in GADGETS:
        name = build.func.__name__.removesuffix("_gadget").replace("_", "-")
        if digest or not pinned:
            case = "-".join([engine, name, *map(str, build.args)])
            rows.append(pytest.param(engine, build, digest, id=case))
    return rows


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

    # a record is a valid matching of g exactly when rebuilding it from
    # its mate gives it back; the engine-output checks rely on this
    @pytest.mark.parametrize(
        "g, ids", [(complete_graph(3), [0]), (cycle_graph(4), [0, 2])], ids=["k3", "c4"]
    )
    def test_from_mate_round_trip(self, g, ids):
        m = Matching.from_edge_ids(g, ids)
        assert Matching.from_mate(g, m.mate) == m

    @pytest.mark.parametrize(
        "mate, vertex",
        [((1, 2, 0), 0), ((5, -1, -1), 0), ((1, 0, 0), 2)],
        ids=["cycle-of-partners", "partner-out-of-range", "shared-partner"],
    )
    def test_from_mate_rejects_non_involution(self, k3, mate, vertex):
        with pytest.raises(ValueError) as ex:
            Matching.from_mate(k3, mate)
        assert str(ex.value) == f"mate is not an involution at vertex {vertex}"

    def test_from_mate_rejects_wrong_length(self, k3):
        with pytest.raises(ValueError, match="mate covers 2 vertices, graph has 3"):
            Matching.from_mate(k3, (1, 0))

    def test_from_mate_rejects_non_edge(self):
        g = Graph(4, ((0, 1), (2, 3)))
        with pytest.raises(ValueError, match=r"^matched pair \(0, 2\) is not an edge$"):
            Matching.from_mate(g, (2, 3, 0, 1))

    @pytest.mark.parametrize(
        "ids, mate, rebuilt",
        [({9}, (-1, -1, -1), set()), ({0}, (2, -1, 0), {1})],
        ids=["unknown-edge", "inconsistent-mate"],
    )
    def test_from_mate_reads_the_edge_ids_off_the_mate(self, k3, ids, mate, rebuilt):
        # a record whose edge ids disagree with its mate does not come back
        m = Matching.from_mate(k3, mate)
        assert m.matched_edge_ids == rebuilt
        assert m != Matching(frozenset(ids), mate)

    def test_weight_units(self, c4):
        m = Matching.from_edge_ids(c4, [0, 2])
        assert m.weight_units((5, 1, 7, 1)) == 12


class TestBothEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_graph(self, engine):
        for n in (0, 1, 3, 5):
            g = Graph(n, ())
            assert run_engine(engine, g, ()) == Matching.from_edge_ids(g, ())

    @pytest.mark.parametrize("engine, n, seed", [("cardinality", 10, 77), ("weight", 9, 31)])
    def test_deterministic(self, engine, n, seed):
        g = random_graph(n, 0.5, seed)
        g, wts = costed(engine, g, [(e * 13 + 5) % 11 for e in range(g.m)])
        assert run_engine(engine, g, wts) == run_engine(engine, g, wts)

    @pytest.mark.parametrize("engine, seed", [("cardinality", 900), ("weight", 4000)])
    def test_agrees_with_brute_force_on_random_graphs(self, engine, seed):
        # 60 graphs on 8 vertices with 1 to 16 edges, and costs 0..10
        rng = SplitMix64(99)
        checked = 0
        while checked < 60:
            g = random_graph(8, 0.5, seed)
            seed += 1
            if 0 < g.m <= 16:
                costs = [rng.next_below(11) for _ in range(g.m)]
                check_against_brute_force(engine, *costed(engine, g, costs))
                checked += 1

    @pytest.mark.parametrize("engine, g, wts", family_rows(BRUTE_FORCE_EDGES))
    def test_agrees_with_brute_force(self, engine, g, wts):
        check_against_brute_force(engine, g, wts)

    @pytest.mark.parametrize("engine, g, wts", family_rows())
    def test_agrees_with_networkx(self, engine, g, wts):
        check_against_networkx(engine, g, wts)

    @pytest.mark.parametrize("engine, build, digest", gadget_rows(pinned=False))
    def test_agrees_with_networkx_on_a_gadget(self, engine, build, digest):
        check_against_networkx(engine, *build())

    @pytest.mark.parametrize("engine, family", FAMILY_DIGESTS, ids=[*map("-".join, FAMILY_DIGESTS)])
    def test_returns_the_pinned_matchings_on_a_family(self, engine, family):
        cases = FAMILIES[family](engine).values()
        got = family_digest(run_engine(engine, g, wts) for g, wts in cases)
        assert got == FAMILY_DIGESTS[engine, family]

    @pytest.mark.parametrize("engine, build, digest", gadget_rows(pinned=True))
    def test_returns_the_pinned_matching(self, engine, build, digest):
        assert mate_digest(run_engine(engine, *build())) == digest

    @pytest.mark.parametrize("engine, vertex", [("cardinality", 0), ("weight", 1)])
    def test_a_final_mate_that_is_not_a_matching_is_an_internal_error(
        self, monkeypatch, k3, engine, vertex
    ):
        # each engine's closing check reads its own state, not the
        # caller's input, so a fault there is not a ValueError
        one_sided_mates(monkeypatch)
        with pytest.raises(RuntimeError) as ex:
            run_engine(engine, k3, (1, 2, 3))
        assert str(ex.value) == (
            f"internal error: mate is not an involution at vertex {vertex} (n=3, m=3)"
        )


def test_every_blossom_tower_has_a_near_perfect_matching():
    for depth, pendant in BLOSSOM_TOWERS:
        g, _ = blossom_tower(depth, pendant)
        assert brute_force_max_matching(g, max_edges=BRUTE_FORCE_EDGES).size == g.n // 2


class TestMaxCardinality:
    @pytest.mark.parametrize("k", range(3, 14))
    def test_cycles(self, k):
        assert max_cardinality_matching(cycle_graph(k)).size == k // 2

    def test_gprime_of_triangle(self, k3):
        r = build_gprime(k3)
        assert max_cardinality_matching(r.gprime).size == 4

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

    @pytest.mark.parametrize(
        "wts, message",
        [
            ((1, -1, 1), "negative edge weight at id 1"),
            ((1.5, 1, 1), "edge weight 1.5 at id 0 is not an integer"),
            # a bool is an int to isinstance, and True would weigh 1
            ((True, 1, 1), "edge weight True at id 0 is not an integer"),
            ((1, 2, False), "edge weight False at id 2 is not an integer"),
            ((1, 1), "2 weights for 3 edges"),
        ],
        ids=["negative", "float", "true", "false", "too-few"],
    )
    def test_rejects_weights_that_are_not_nonnegative_integers(self, k3, wts, message):
        with pytest.raises(ValueError) as ex:
            max_weight_matching(k3, wts)
        assert str(ex.value) == message

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

    def test_leaves_the_recursion_limit_alone(self, monkeypatch):
        # nested blossoms are walked with explicit stacks, so the engine
        # never changes the interpreter-wide recursion limit
        def refuse(limit):
            raise AssertionError(f"the engine set the recursion limit to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        for g, wts in [build() for engine, build, _ in GADGETS if engine == "weight"]:
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
        # edges, a gadget of 59 vertices and 80 edges, which GADGETS
        # checks against networkx as weight-seeded-8-3.9-62-1000-73
        g = random_graph(8, 3.9 / 8, 62)
        w = random_weights(8, 1000, 73)
        assert g.m == 15
        assert solve_min_light(g, w).objective == brute_force_min_light(g, w)[0]
        r = build_gprime(g, w)
        assert (r.gprime.n, r.gprime.m) == (59, 80)

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
