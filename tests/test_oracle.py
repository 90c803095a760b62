"""The exhaustive baselines and their edge caps."""

import itertools
import random
from fractions import Fraction
from time import perf_counter

import pytest

from conftest import complete_graph, cycle_graph, path_graph
from orientlight import Graph, Orientation, VertexWeights, solve_min_light
from orientlight.generate import random_graph
from orientlight.graph import light_vertices
from orientlight.oracle import BudgetExceededError, brute_force_min_light
from support import brute_force_max_matching


def edges_graph(m):
    """A path with m edges, too long for a cap below m."""
    return path_graph(m + 1)


class TestBudget:
    def test_defaults(self):
        with pytest.raises(BudgetExceededError, match="21 edges exceeds the oracle cap of 20"):
            brute_force_min_light(edges_graph(21))
        assert len(brute_force_max_matching(edges_graph(18)).matched_edge_ids) == 9
        with pytest.raises(BudgetExceededError, match="matching oracle cap of 18"):
            brute_force_max_matching(edges_graph(19))

    def test_sweeps_exactly_twenty_edges(self):
        # C20 sits on the cap: swept, and its optimum is the solver's
        g = cycle_graph(20)
        assert brute_force_min_light(g)[0] == 10 == solve_min_light(g).objective

    def test_orientation_budget_enforced(self):
        g = complete_graph(7)
        assert g.m == 21
        with pytest.raises(BudgetExceededError, match="21 edges exceeds the oracle cap of 20"):
            brute_force_min_light(g)

    def test_matching_budget_enforced(self, k4):
        with pytest.raises(BudgetExceededError):
            brute_force_max_matching(k4, max_edges=3)


class TestMinLightOracle:
    def test_triangle(self, k3):
        obj, witness = brute_force_min_light(k3)
        assert obj == 2
        assert len(light_vertices(k3, witness)) == 2

    def test_tie_break_is_first_lexicographic(self, k3):
        # mask 0 orients every edge low->high, and for K3 that already
        # attains the minimum, so the witness must be exactly that
        _, witness = brute_force_min_light(k3)
        assert witness.tails == (0, 0, 1)

    def test_witness_attains_objective(self):
        for seed in range(10):
            g = random_graph(7, 0.4, seed)
            obj, witness = brute_force_min_light(g)
            assert len(light_vertices(g, witness)) == obj

    def test_weighted_matches_manual_count(self, k3):
        w = VertexWeights((5, 1, 1))
        obj, witness = brute_force_min_light(k3, w)
        assert obj == 2
        assert sum(w.unit(v) for v in light_vertices(k3, witness)) == 2

    def test_all_ones_equals_unweighted(self):
        for seed in range(8):
            g = random_graph(7, 0.45, seed)
            plain, _ = brute_force_min_light(g)
            ones, _ = brute_force_min_light(g, VertexWeights.ones(g.n))
            assert plain == ones

    def test_rejects_weights_of_wrong_length(self, k3):
        with pytest.raises(ValueError, match="weights cover 4 vertices, graph has 3"):
            brute_force_min_light(k3, VertexWeights((1, 1, 1, 1)))

    def test_edgeless(self):
        g = Graph(3, ())
        obj, witness = brute_force_min_light(g)
        assert obj == 3
        assert witness.tails == ()

    def test_costs_past_int64_stay_exact(self, k3):
        # every vertex is swept and the costs sum past 2**63: the totals
        # must be exact Python ints, and the objective an exact Fraction;
        # the dearest vertex, 2, is the one both its edges leave
        w = VertexWeights((10**20 + 1, 10**20 + 3, 10**20 + 7), 10)
        obj, witness = brute_force_min_light(k3, w)
        assert obj == Fraction(2 * 10**20 + 4, 10)
        assert isinstance(obj, Fraction)
        assert witness.tails == (0, 2, 2)

    def test_isolated_vertices_need_no_sweep(self):
        edges = complete_graph(7).edges[:16]
        want, witness = brute_force_min_light(Graph(7, edges))
        t0 = perf_counter()
        got, got_witness = brute_force_min_light(Graph(7 + 100_000, edges))
        elapsed = perf_counter() - t0
        assert got == want + 100_000
        assert got_witness == witness
        assert elapsed < 5, f"100000 isolated vertices took {elapsed:.1f}s"


def plain_min_light(g, units):
    """First minimum cost over itertools.product in lexicographic order,
    with bit 0 orienting an edge from its lower endpoint."""
    best = None
    for bits in itertools.product((0, 1), repeat=g.m):
        tails = tuple(w if b else u for (u, w), b in zip(g.edges, bits))
        out = [0] * g.n
        for t in tails:
            out[t] += 1
        cost = sum(units[v] for v in range(g.n) if out[v] <= 1)
        if best is None or cost < best[0]:
            best = (cost, tails)
    return best


def seeded_instance(seed):
    """Up to 10 edges on 2-7 vertices, 0-3 isolated vertices, labels
    shuffled, and costs with zeros and the odd cost past 2**63."""
    rng = random.Random(seed)
    core = rng.randint(2, 7)
    pairs = list(itertools.combinations(range(core), 2))
    chosen = rng.sample(pairs, rng.randint(0, min(10, len(pairs))))
    n = core + rng.randint(0, 3)
    label = list(range(n))
    rng.shuffle(label)
    g = Graph(n, tuple((label[u], label[v]) for u, v in chosen))
    units = tuple(rng.choice((0, 0, 1, 2, 3, 7, 10, 10**19)) for _ in range(n))
    return g, VertexWeights(units, rng.choice((1, 100)))


def test_matches_plain_enumeration():
    # an enumeration written without bit masks agrees on the
    # objective and on the witness, which is the first minimum
    kinds = set()
    for seed in range(300):
        g, w = seeded_instance(seed)
        degrees = [g.degree(v) for v in range(g.n)]
        kinds.update(d for d in degrees if d < 2)
        kinds.update("zero" for u in w.units if u == 0)
        for weights in (None, w):
            units = weights.units if weights is not None else (1,) * g.n
            cost, tails = plain_min_light(g, units)
            want = weights.as_value(cost) if weights is not None else cost
            assert brute_force_min_light(g, weights) == (want, Orientation(tails)), (
                f"seed {seed}, {'weighted' if weights else 'unweighted'}"
            )
    assert kinds == {0, 1, "zero"}


def assert_matches_plain(g, weights):
    units = weights.units if weights is not None else (1,) * g.n
    cost, tails = plain_min_light(g, units)
    want = weights.as_value(cost) if weights is not None else cost
    assert brute_force_min_light(g, weights) == (want, Orientation(tails))


@pytest.mark.parametrize(
    "g",
    [Graph(0, ()), Graph(2, ()), Graph(2, ((0, 1),)), Graph(4, ((1, 3),))],
    ids=["m0-empty", "m0", "m1", "m1-isolated"],
)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_no_and_one_edge(g, weighted):
    # a sweep over 2^0 or 2^1 orientations in which no vertex is swept
    weights = VertexWeights(tuple(range(3, 3 + g.n)), 10) if weighted else None
    assert_matches_plain(g, weights)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_fourteen_edges(weighted):
    # past the 10 edges of seeded_instance, with costs past 2**63 and a
    # zero, so the sum needs more planes than any int64 holds
    edges = complete_graph(6).edges[:14]
    g = Graph(7, tuple((u, v + 1 if v >= 3 else v) for u, v in edges))
    assert g.m == 14
    costs = (2**63, 2**64 + 5, 1, 0, 3 * 2**63 + 1, 7, 2)
    assert_matches_plain(g, VertexWeights(costs, 100) if weighted else None)


def test_equal_costs_tie_on_the_first_minimum():
    # K4's six edges make at most three vertices heavy: pick the one left
    # light and orient the other three as a cycle that also points at it,
    # so eight orientations share the minimum; the witness is the first
    g = complete_graph(4)
    best = []
    for bits in itertools.product((0, 1), repeat=g.m):
        tails = tuple(w if b else u for (u, w), b in zip(g.edges, bits))
        if len(light_vertices(g, Orientation(tails))) == 1:
            best.append(tails)
    assert len(best) == 8
    assert brute_force_min_light(g, VertexWeights((5,) * 4)) == (5, Orientation(best[0]))
    assert brute_force_min_light(g) == (1, Orientation(best[0]))


class TestMatchingOracle:
    def test_c5(self, c5):
        assert brute_force_max_matching(c5).size == 2

    def test_k4(self, k4):
        assert brute_force_max_matching(k4).size == 2

    def test_weighted_path(self):
        g = path_graph(4)
        m = brute_force_max_matching(g, (1, 3, 1))
        assert m.weight_units((1, 3, 1)) == 3
        assert m.matched_edge_ids == {1}

    def test_rejects_negative_weight(self, k3):
        with pytest.raises(ValueError, match="negative"):
            brute_force_max_matching(k3, (1, -2, 1))

    def test_rejects_weight_count_mismatch(self, k3):
        with pytest.raises(ValueError):
            brute_force_max_matching(k3, (1, 2))

    def test_rejects_non_integer_weights(self):
        # the same refusal, in the same words, as max_weight_matching
        g = Graph(2, ((0, 1),))
        for w in (True, 0.5):
            with pytest.raises(ValueError, match=f"^edge weight {w} at id 0 is not an integer$"):
                brute_force_max_matching(g, (w,))

    def test_complete_graph_perfect(self):
        g = complete_graph(6)
        assert brute_force_max_matching(g).size == 3

