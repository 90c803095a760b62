"""Pipeline tests: construction directions, normalization, and solve."""

from fractions import Fraction

import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_core,
    random_maximal_matching,
    size_formulas,
    wheel_graph,
)
from orientlight import (
    Certificate,
    Graph,
    Orientation,
    VertexWeights,
    parse_weights,
    solve_min_light,
    solve_with_stats,
)
from orientlight.generate import SplitMix64, random_graph, random_orientation, random_weights
from orientlight.graph import light_cost, light_vertices, out_degree
from orientlight.matching import Matching, max_cardinality_matching, max_weight_matching
from orientlight.oracle import brute_force_min_light
from orientlight.reduction import build_gprime
from orientlight.solver import (
    matching_from_orientation,
    normalize_gadget_matching,
    recover_orientation,
)
from orientlight import matching, reduction, solver
from orientlight._record import replace


def side_count(r, m, v):
    return sum(1 for eid in r.side_edges(v) if eid in m.matched_edge_ids)


def bucket_count(r, m, v):
    return sum(1 for eid in r.gadget_bucket(v) if eid in m.matched_edge_ids)


class TestMatchingFromOrientation:
    def test_triangle_with_source(self, k3):
        r = build_gprime(k3)
        # 0->1, 0->2, 1->2
        m = matching_from_orientation(r, Orientation((0, 0, 1)))
        assert m.size == 4
        assert [side_count(r, m, v) for v in range(3)] == [2, 1, 0]

    def test_triangle_cyclic(self, k3):
        r = build_gprime(k3)
        m = matching_from_orientation(r, Orientation((0, 2, 1)))
        assert m.size == 3
        assert [side_count(r, m, v) for v in range(3)] == [1, 1, 1]

    def test_side_counts_equal_out_degrees(self):
        built = 0
        seed = 0
        while built < 20:
            core = random_core(12, 3.0 / 11, seed)
            seed += 1
            if core is None:
                continue
            r = build_gprime(core)
            assert r.core == core
            o = random_orientation(core, seed + 1000)
            m = matching_from_orientation(r, o)
            assert Matching.from_mate(r.gprime, m.mate) == m
            for v in range(core.n):
                assert side_count(r, m, v) == out_degree(core, o, v)
            light = light_vertices(core, o)
            assert m.size == 2 * core.m - len(light)
            built += 1

    def test_result_is_maximal(self, k4):
        r = build_gprime(k4)
        m = matching_from_orientation(r, random_orientation(k4, 5))
        for u, v in r.gprime.edges:
            assert m.mate[u] != -1 or m.mate[v] != -1

    def test_rejects_foreign_orientation(self, k3):
        r = build_gprime(k3)
        with pytest.raises(ValueError):
            matching_from_orientation(r, Orientation((0, 0)))

    def test_flow_orientation_seeds_a_matching_no_heavier_than_the_engines(self):
        # the flow's own tails on the core edges, renumbered to core ids,
        # give a valid gadget matching of weight Q minus that orientation's
        # core light cost (a core vertex is light below its demand), and
        # no more than a maximum matching's: a warm start for the engines.
        # Sub-critical draws, m ~ 1.45n, keep a core; odd seeds carry costs
        cores = tight = 0
        for seed in range(300):
            n = 20 + seed % 41
            g = random_graph(n, 2.9 / (n - 1), seed)
            w = random_weights(n, 9, seed + 1) if seed % 2 else VertexWeights.ones(n)
            r = build_gprime(g, w)
            if not r.core.n:
                continue
            cores += 1
            core_id = {v: c for c, v in enumerate(r.core_to_input)}
            o = Orientation(tuple(core_id[r.flow_tails[e]] for e in r.core_edge_to_input))
            m = matching_from_orientation(r, o)
            assert Matching.from_mate(r.gprime, m.mate) == m, f"seed {seed}"
            short = sum(
                w.unit(v)
                for c, v in enumerate(r.core_to_input)
                if out_degree(r.core, o, c) < r.demand[c]
            )
            got = m.weight_units(r.edge_weights)
            assert got == r.connecting_weight() - short, f"seed {seed}"
            if len(set(r.edge_weights)) < 2:
                best = max_cardinality_matching(r.gprime).weight_units(r.edge_weights)
            else:
                best = max_weight_matching(r.gprime, r.edge_weights).weight_units(r.edge_weights)
            assert got <= best, f"seed {seed}"
            tight += got == best
        assert cores >= 250, cores
        assert 0 < tight < cores, (tight, cores)


class TestNormalizeGadgetMatching:
    def test_repack_case_adds_one_edge(self, k4):
        # v=0 has k=0 matched side edges and an unmatched parity edge,
        # yet its bucket is locally maximal: the inner vertex covers one
        # port and the two free ports have covered connectors
        r = build_gprime(k4)
        e_inner = r.band_edge(0, 0, 0)
        other_sides = [r.side_edge(k4.edges[e][1], e) for e in (0, 1, 2)]
        m = Matching.from_edge_ids(r.gprime, [e_inner] + other_sides)
        n = normalize_gadget_matching(r, m, 0)
        assert n.size == m.size + 1
        assert side_count(r, n, 0) == 0
        assert bucket_count(r, n, 0) == k4.degree(0) - 1
        assert r.parity_edge(0) in n.matched_edge_ids
        assert n.matched_edge_ids - m.matched_edge_ids <= set(r.gadget_bucket(0))
        assert m.matched_edge_ids - n.matched_edge_ids <= set(r.gadget_bucket(0))

    def test_parity_swap_case_adds_one_edge(self):
        # vertex 0 joined to four vertices of an 8-cycle, too sparse for
        # the flow kernel to settle: parity matched plus two far-side
        # connecting edges gives k=2; both inner vertices are exposed
        rim = tuple((i, i % 8 + 1) for i in range(1, 9))
        g = Graph(9, ((0, 1), (0, 2), (0, 3), (0, 4)) + rim)
        r = build_gprime(g)
        assert r.core == g
        assert r.gprime.n == 42
        sides = [r.side_edges(0)[2], r.side_edges(0)[3]]
        m = Matching.from_edge_ids(r.gprime, sides + [r.parity_edge(0)])
        assert side_count(r, m, 0) == 2
        n = normalize_gadget_matching(r, m, 0)
        assert n.size == m.size + 1
        assert r.parity_edge(0) not in n.matched_edge_ids
        assert bucket_count(r, n, 0) == g.degree(0)
        assert Matching.from_mate(r.gprime, n.mate) == n
        # the freed parity ports are re-covered by the two inner vertices
        pa, pb = r.gprime.edges[r.parity_edge(0)]
        assert n.mate[pa] in r.inner(0)
        assert n.mate[pb] in r.inner(0)

    def test_gadget_count_check_names_the_core_sizes(self, monkeypatch, k4):
        # the repack case of test_repack_case_adds_one_edge, with the
        # repacked matching losing its parity edge
        r = build_gprime(k4)
        e_inner = r.band_edge(0, 0, 0)
        other_sides = [r.side_edge(k4.edges[e][1], e) for e in (0, 1, 2)]
        m = Matching.from_edge_ids(r.gprime, [e_inner] + other_sides)
        real = Matching.from_edge_ids
        drop = {r.parity_edge(0)}
        monkeypatch.setattr(
            Matching, "from_edge_ids", classmethod(lambda cls, g, ids: real(g, set(ids) - drop))
        )
        with pytest.raises(RuntimeError, match="internal error: gadget of vertex 0 holds") as ex:
            normalize_gadget_matching(r, m, 0)
        assert str(ex.value).endswith("(n=4, m=6)")

    def test_identity_case_k1(self, k3):
        r = build_gprime(k3)
        # one matched side edge at v=0 plus coverage of the other connector
        m = Matching.from_edge_ids(
            r.gprime, [r.side_edges(0)[0], r.side_edge(k3.edges[1][1], 1)]
        )
        n = normalize_gadget_matching(r, m, 0)
        assert n == m
        assert bucket_count(r, n, 0) == k3.degree(0) - 1

    def test_rejects_non_maximal(self, k3):
        r = build_gprime(k3)
        with pytest.raises(ValueError, match="not maximal"):
            normalize_gadget_matching(r, Matching.empty(r.gprime), 0)

    def test_rejects_vertex_out_of_range(self, k3):
        r = build_gprime(k3)
        m = matching_from_orientation(r, Orientation((0, 0, 1)))
        with pytest.raises(ValueError, match="out of range"):
            normalize_gadget_matching(r, m, 99)

    def test_rejects_foreign_matching(self, k3, c4):
        r = build_gprime(k3)
        other = build_gprime(c4)
        m = matching_from_orientation(other, Orientation((0, 1, 2, 0)))
        with pytest.raises(ValueError, match="belong"):
            normalize_gadget_matching(r, m, 0)

    def test_case_equation_on_random_triples(self):
        tried = 0
        seed = 500
        cases = {"k0_out": 0, "k0_in": 0, "k1": 0, "k2_in": 0, "k2_out": 0}
        while tried < 80:
            core = random_core(16, 3.0 / 15, seed)
            seed += 1
            if core is None:
                continue
            r = build_gprime(core)
            assert r.core == core
            m = random_maximal_matching(r.gprime, seed)
            v = tried % core.n
            d = core.degree(v)
            k = side_count(r, m, v)
            parity_in = r.parity_edge(v) in m.matched_edge_ids
            before = bucket_count(r, m, v)
            n = normalize_gadget_matching(r, m, v)
            got = bucket_count(r, n, v)
            assert got == d - 1 + (k >= r.demand[v])
            # the band can grow a gadget by more than one edge
            assert n.size - m.size == got - before
            diff = n.matched_edge_ids ^ m.matched_edge_ids
            assert diff <= set(r.gadget_bucket(v))
            assert Matching.from_mate(r.gprime, n.mate) == n
            if k == 0:
                cases["k0_out" if not parity_in else "k0_in"] += 1
            elif k == 1:
                cases["k1"] += 1
            else:
                cases["k2_in" if parity_in else "k2_out"] += 1
            tried += 1
        # the sweep must actually exercise the two active cases
        assert cases["k0_out"] > 0
        assert cases["k2_in"] > 0
        assert cases["k1"] > 0

    def test_band_can_grow_a_gadget_by_two(self):
        # vertex 1 has degree 6: this random maximal matching leaves two
        # of its band edges addable once its gadget is refilled
        core = random_core(16, 3.0 / 15, 258)
        r = build_gprime(core)
        m = random_maximal_matching(r.gprime, 259)
        before = bucket_count(r, m, 1)
        n = normalize_gadget_matching(r, m, 1)
        assert (core.degree(1), r.demand[1]) == (6, 2)
        assert n.size - m.size == bucket_count(r, n, 1) - before == 2


def whole_core(g):
    """build_gprime with the kernel claiming every vertex for the core."""

    def claim_everything(graph, target):
        return [u for u, _ in graph.edges], [True] * graph.n

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_deficient_region", claim_everything)
        return build_gprime(g)


class TestGadgetFill:
    """The fill rule on whole gadgets, for every set of matched side edges."""

    @staticmethod
    def check_every_subset(r, v):
        d, b = r.core.degree(v), r.demand[v]
        sides = r.side_edges(v)
        for mask in range(1 << d):
            chosen = [sides[j] for j in range(d) if mask >> j & 1]
            free = [j for j in range(d) if not mask >> j & 1]
            fill = solver._gadget_fill(r, v, free)
            assert set(fill) <= set(r.gadget_bucket(v)) - set(sides)
            # from_edge_ids rejects two edges sharing a vertex
            m = Matching.from_edge_ids(r.gprime, chosen + fill)
            assert bucket_count(r, m, v) == d - 1 + (len(chosen) >= b), (v, mask)

    @pytest.mark.parametrize("k", [5, 6])
    def test_complete_graphs(self, k):
        # the kernel settles K5 and K6, so their gadgets are built whole
        r = whole_core(complete_graph(k))
        assert r.core == complete_graph(k) and r.demand == (2,) * k
        assert (r.gprime.n, r.gprime.m) == size_formulas(r)
        for v in range(k):
            self.check_every_subset(r, v)

    def test_wheel_hub(self):
        r = build_gprime(wheel_graph(8))
        assert (r.core.degree(0), r.demand[0]) == (8, 2)
        self.check_every_subset(r, 0)

    def test_demand_one_hub(self):
        # a wheel whose hub also has a leaf: the hub keeps demand 1
        w = wheel_graph(8)
        r = build_gprime(Graph(w.n + 1, w.edges + ((0, w.n),)))
        assert (r.core_to_input[0], r.core.degree(0), r.demand[0]) == (0, 8, 1)
        assert r.parity_edge(0) == -1
        self.check_every_subset(r, 0)


class TestHubCores:
    """Hubs of core degree k cost O(k) gadget edges, not k^2."""

    @pytest.mark.parametrize(
        "g, objective",
        [
            (Graph(3002, tuple((a, 2 + i) for i in range(3000) for a in (0, 1))), 2),
            (wheel_graph(3000), 1),
        ],
        ids=["K2,3000", "wheel3000"],
    )
    def test_solves_with_a_linear_gadget(self, g, objective):
        sol, stats = solve_with_stats(g)
        assert sol.objective == objective
        r = stats.reduction
        assert max(r.core.degree(c) for c in range(r.core.n)) >= 3000
        assert (r.gprime.n, r.gprime.m) == size_formulas(r)
        assert r.gprime.m < 6 * g.m


class TestRecoverOrientation:
    def test_empty_matching_orients_low_to_high(self, c4):
        r = build_gprime(c4)
        o = recover_orientation(r, Matching.empty(r.gprime))
        assert o.tails == tuple(u for u, v in c4.edges)

    def test_round_trip_through_matching(self):
        built = 0
        seed = 40
        while built < 15:
            core = random_core(8, 0.4, seed)
            seed += 1
            if core is None:
                continue
            o = random_orientation(core, seed + 7)
            r = build_gprime(core)
            m = matching_from_orientation(r, o)
            assert recover_orientation(r, m).tails == o.tails
            built += 1

    def test_rejects_both_connecting_edges(self, k3):
        r = build_gprime(k3)
        corrupt = Matching(frozenset({0, 1}), (-1,) * r.gprime.n)
        with pytest.raises(ValueError, match="both connecting edges"):
            recover_orientation(r, corrupt)

    def test_side_counts_bounded_by_out_degree(self):
        built = 0
        seed = 4200
        while built < 15:
            core = random_core(12, 3.0 / 11, seed)
            seed += 1
            if core is None:
                continue
            r = build_gprime(core)
            assert r.core == core
            m = max_cardinality_matching(r.gprime)
            o = recover_orientation(r, m)
            for v in range(core.n):
                assert side_count(r, m, v) <= out_degree(core, o, v)
            built += 1

    def test_round_trip_bound(self):
        # light count of the recovered orientation never exceeds 2m - |M|
        built = 0
        seed = 8600
        while built < 15:
            core = random_core(12, 3.0 / 11, seed)
            seed += 1
            if core is None:
                continue
            r = build_gprime(core)
            assert r.core == core
            m = max_cardinality_matching(r.gprime)
            o = recover_orientation(r, m)
            assert len(light_vertices(core, o)) <= 2 * core.m - m.size
            built += 1


class TestSolveFixedValues:
    @pytest.mark.parametrize(
        "build,want",
        [
            (lambda: complete_graph(3), 2),
            (lambda: complete_graph(4), 1),
            (lambda: cycle_graph(4), 2),
            (lambda: Graph(4, ((0, 1), (0, 2), (0, 3))), 3),
            (lambda: Graph(2, ((0, 1),)), 2),
        ],
    )
    def test_unweighted(self, build, want):
        g = build()
        sol = solve_min_light(g)
        assert sol.objective == want
        assert len(sol.light_set) == want

    def test_weighted_triangle_certificate(self, k3):
        sol = solve_min_light(k3, VertexWeights((5, 1, 1)))
        assert sol.objective == 2
        assert sol.certificate.constant == 14
        assert sol.certificate.matching_value == 12
        assert sol.certificate.offset == 0

    def test_p2_offset(self, p2):
        # both endpoints stay light outside the core, which is empty
        sol = solve_min_light(p2)
        assert sol.certificate == Certificate(0, 0, 2)
        assert sol.objective == 2

    def test_star_offset(self, star13):
        sol = solve_min_light(star13)
        assert sol.certificate == Certificate(0, 0, 3)
        assert sol.objective == 3
        assert sol.light_set == {1, 2, 3}

    def test_zero_cost_light_vertices_stay_out_of_the_offset(self):
        # a 6-cycle with cost-0 vertices at 0, 2 and 4 and a cost-7 leaf
        # on vertex 1: the flow settles everything, leaves the cost-0
        # vertices light and the offset is the leaf's cost alone
        g = Graph(7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 6)))
        w = VertexWeights((0, 5, 0, 5, 0, 5, 7))
        sol, stats = solve_with_stats(g, w)
        assert stats.core_vertices == 0
        assert sol.light_set == {0, 2, 4, 6}
        assert sol.certificate == Certificate(0, 0, 7)
        assert sol.objective == 7 == brute_force_min_light(g, w)[0]


class TestRecountChecks:
    """The solver recounts both certificate identities; a wrong part must raise."""

    @pytest.mark.parametrize("weights", [None, VertexWeights((3, 1, 4, 1, 5))])
    def test_offset_off_by_a_vertex_fails_the_objective_recount(self, monkeypatch, weights):
        # K5's 10 edges meet every target, so the kernel settles it whole
        # with every out-degree 2; reversing one fixed tail leaves a vertex
        # of degree 4 light that the offset does not count
        real = solver.build_gprime

        def one_more_light(g, w=None):
            r = real(g, w)
            assert r.core.n == 0
            tails = list(r.flow_tails)
            u, v = g.edges[0]
            tails[0] = u + v - tails[0]
            return replace(r, flow_tails=tuple(tails))

        monkeypatch.setattr(solver, "build_gprime", one_more_light)
        with pytest.raises(RuntimeError, match="internal error: objective recount") as ex:
            solve_with_stats(complete_graph(5), weights)
        assert str(ex.value).endswith("(n=5, m=10)")

    @pytest.mark.parametrize("weights", [None, VertexWeights((2, 7, 3))])
    def test_matching_short_of_an_edge_fails_the_core_recount(self, monkeypatch, k3, weights):
        engine = "max_cardinality_matching" if weights is None else "max_weight_matching"
        real = getattr(matching, engine)

        def one_edge_short(gp, *args):
            ids = sorted(real(gp, *args).matched_edge_ids)
            # K3's core stays whole: edges 0..5 connect, 6..8 are parity edges,
            # so dropping the last matched edge leaves the orientation alone
            assert ids[-1] >= 6
            return Matching.from_edge_ids(gp, ids[:-1])

        assert solve_with_stats(k3, weights)[1].core_vertices == 3
        monkeypatch.setattr(matching, engine, one_edge_short)
        with pytest.raises(RuntimeError, match="internal error: core recount") as ex:
            solve_with_stats(k3, weights)
        assert str(ex.value).endswith("(n=3, m=3)")

    @pytest.mark.parametrize("weights", [None, VertexWeights((3, 1, 4, 1))])
    def test_settled_vertex_short_of_its_target_is_an_internal_error(self, monkeypatch, weights):
        # K4 has 6 edges for targets summing to 8, so the flow leaves some
        # vertex short; claiming an empty region settles it anyway, and
        # the objective recount counts the light vertex no term predicts
        real = reduction._deficient_region

        def claim_nothing(g, target):
            flow, region = real(g, target)
            assert any(region)
            return flow, [False] * g.n

        monkeypatch.setattr(reduction, "_deficient_region", claim_nothing)
        want = r"internal error: objective recount .* \(n=4, m=6\)$"
        with pytest.raises(RuntimeError, match=want):
            solve_with_stats(complete_graph(4), weights)


class TestSolveProperties:
    def test_certificate_identity_and_recount(self):
        for seed in range(25):
            g = random_graph(9, 0.35, seed)
            sol = solve_min_light(g)
            c = sol.certificate
            assert sol.objective == c.constant - c.matching_value + c.offset
            assert sol.light_set == light_vertices(g, sol.orientation)
            assert sol.objective == len(sol.light_set)

    def test_certificate_identity_weighted(self):
        for seed in range(20):
            g = random_graph(8, 0.35, seed)
            w = random_weights(g.n, 6, seed + 1)
            sol = solve_min_light(g, w)
            c = sol.certificate
            assert sol.objective == c.constant - c.matching_value + c.offset
            assert sol.objective == light_cost(g, sol.orientation, w)

    def test_isolated_vertices_always_light(self):
        g = Graph(6, ((0, 1), (1, 2), (0, 2)))
        sol = solve_min_light(g)
        assert {3, 4, 5} <= sol.light_set
        assert sol.certificate.offset == 3

    def test_edgeless_graph(self):
        g = Graph(4, ())
        sol, stats = solve_with_stats(g)
        assert sol.objective == 4
        assert sol.light_set == {0, 1, 2, 3}
        assert sol.orientation.tails == ()
        assert (stats.reduced_vertices, stats.reduced_edges) == (0, 0)

    def test_edgeless_weighted(self):
        g = Graph(3, ())
        sol = solve_min_light(g, VertexWeights((2, 0, 7)))
        assert sol.objective == 9

    def test_all_ones_matches_unweighted(self):
        # unweighted is every cost 1, and any uniform cost c scales the
        # unweighted solution by c without changing its orientation
        for seed in range(12):
            g = random_graph(8, 0.4, seed)
            plain = solve_min_light(g)
            assert solve_min_light(g, VertexWeights.ones(g.n)) == plain
            threes = solve_min_light(g, VertexWeights((3,) * g.n))
            assert threes.orientation == plain.orientation
            assert threes.light_set == plain.light_set
            assert threes.objective == 3 * plain.objective
            c = plain.certificate
            assert threes.certificate == Certificate(
                3 * c.matching_value, 3 * c.constant, 3 * c.offset
            )

    def test_equal_costs_never_reach_the_weighted_engine(self, monkeypatch):
        class Reached(Exception):
            pass

        def refuse(gp, weights):
            raise Reached

        monkeypatch.setattr(matching, "max_weight_matching", refuse)
        g = wheel_graph(6)
        sol, stats = solve_with_stats(g, VertexWeights((5,) * g.n))
        assert stats.core_vertices == g.n
        assert sol.objective == 5 * solve_min_light(g).objective
        with pytest.raises(Reached):
            solve_min_light(g, VertexWeights(tuple(range(1, g.n + 1))))

    def test_empty_core_reaches_no_engine_and_no_recovery(self, monkeypatch):
        # the flow settles each graph whole, so there is no gadget to match
        # and the certificate reads 0 - 0 + offset
        def refuse(*args):
            raise AssertionError("an empty core reached the matching stage")

        monkeypatch.setattr(matching, "max_cardinality_matching", refuse)
        monkeypatch.setattr(matching, "max_weight_matching", refuse)
        monkeypatch.setattr(solver, "recover_orientation", refuse)
        # a seeded tree whose every inner vertex has 2 or 3 children: each
        # inner vertex orients to two of them, and only the leaves stay light
        rng = SplitMix64(33)
        edges, leaves = [], [0]
        for _ in range(4):
            v = leaves.pop(rng.next_below(len(leaves)))
            for _ in range(2 + rng.next_below(2)):
                leaves.append(len(edges) + 1)
                edges.append((v, len(edges) + 1))
        k5 = complete_graph(5)
        cases = [
            (k5, None),
            (k5, parse_weights("1 0\n2 1.5\n3 0.25\n4 2\n5 0.75\n", 5)),
            (Graph(4, ()), None),
            (Graph(len(edges) + 1, tuple(edges)), None),
        ]
        for g, w in cases:
            sol, stats = solve_with_stats(g, w)
            offset = sol.certificate.offset
            assert sol.objective == offset
            assert sol.certificate == Certificate(0, 0, offset)
            assert stats.core_vertices == stats.reduced_vertices == 0
            assert sol.objective == brute_force_min_light(g, w)[0]

    def test_scale_invariance(self):
        for seed in range(8):
            g = random_graph(7, 0.45, seed)
            w = random_weights(g.n, 5, seed + 3)
            base = solve_min_light(g, w)
            lam = 7
            scaled = solve_min_light(g, VertexWeights(tuple(u * lam for u in w.units)))
            assert scaled.objective == lam * base.objective
            # the orientation returned for the scaled instance is optimal
            # for the original weights too
            assert light_cost(g, scaled.orientation, w) == base.objective

    def test_monotone_under_edge_addition(self):
        for seed in range(10):
            g = random_graph(7, 0.4, seed)
            present = set(g.edges)
            missing = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if (u, v) not in present
            ]
            if not missing:
                continue
            base = solve_min_light(g).objective
            bigger = Graph(g.n, g.edges + (missing[0],))
            grown = solve_min_light(bigger).objective
            assert base - 2 <= grown <= base + 2

    def test_fractional_weights_exact(self, k3):
        w = parse_weights("1 0.5\n2 0.25\n3 0.25\n", 3)
        sol = solve_min_light(k3, w)
        opt, _ = brute_force_min_light(k3, w)
        assert sol.objective == opt == Fraction(1, 2)
        assert isinstance(sol.objective, Fraction)

    def test_deterministic(self):
        # sparse enough that the flow kernel leaves a core to match
        g = random_graph(28, 2.8 / 27, 9)
        assert solve_with_stats(g)[1].reduced_vertices > 0
        assert solve_min_light(g) == solve_min_light(g)

    def test_degree_one_chains_and_isolated_mix(self):
        # a tree with pendants plus loose vertices leaves no core
        g = Graph(8, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)))
        sol = solve_min_light(g)
        opt, _ = brute_force_min_light(g)
        assert sol.objective == opt

    def test_stats_report_the_core(self):
        # a triangle with a two-edge pendant path and two isolated
        # vertices: the path's end and the isolated vertices settle, and the
        # path's middle vertex stays in the core with demand 1
        g = Graph(7, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4)))
        sol, stats = solve_with_stats(g)
        assert (stats.core_vertices, stats.core_edges) == (4, 4)
        assert sol.objective == brute_force_min_light(g)[0]

    def test_oracle_on_trees_forests_and_pendant_heavy_graphs(self):
        # the shapes the kernel settles wholly or in part; every other
        # instance carries costs with zeros among them
        rng = SplitMix64(77)

        def tree(n, first=0):
            return [(first + rng.next_below(i), first + i) for i in range(1, n)]

        def one_tree():
            n = 6 + rng.next_below(8)
            return n, tree(n)

        def forest():
            # trees of 1-5 vertices: the one-vertex trees are isolated
            edges, n = [], 0
            for _ in range(2 + rng.next_below(3)):
                size = 1 + rng.next_below(5)
                edges += tree(size, n)
                n += size
            return n, edges

        def pendant():
            # a short cycle with pendant paths hung on it, plus isolated vertices
            c = 3 + rng.next_below(3)
            edges = [(i, (i + 1) % c) for i in range(c)]
            n = c
            for _ in range(4 + rng.next_below(9 - c)):
                edges.append((rng.next_below(n), n))
                n += 1
            return n + 1 + rng.next_below(3), edges

        for i in range(120):
            n, edges = (one_tree, forest, pendant)[i % 3]()
            g = Graph(n, tuple(edges))
            w = random_weights(n, 3, i) if i % 2 else None
            sol = solve_min_light(g, w)
            opt, _ = brute_force_min_light(g, w)
            assert sol.objective == opt, f"instance {i}"
            c = sol.certificate
            assert sol.objective == c.constant - c.matching_value + c.offset
            assert c.offset >= 0

    def test_zero_cost_vertices_settled_light_add_nothing(self):
        # where the flow leaves a zero-cost vertex of degree 2 or more
        # light outside the core, the offset is still the cost of the
        # vertices of degree below 2, and the objective the optimum
        seen = seed = 0
        while seen < 20:
            g = random_graph(9, 0.3, seed)
            w = random_weights(g.n, 3, seed + 1)
            seed += 1
            sol, stats = solve_with_stats(g, w)
            core = set(stats.reduction.core_to_input)
            if not any(
                w.unit(v) == 0 and g.degree(v) >= 2 and v not in core for v in sol.light_set
            ):
                continue
            seen += 1
            low = sum(w.unit(v) for v in range(g.n) if g.degree(v) < 2)
            assert sol.certificate.offset == w.as_value(low), f"seed {seed - 1}"
            assert sol.objective == brute_force_min_light(g, w)[0], f"seed {seed - 1}"

    def test_weights_length_mismatch(self, k3):
        with pytest.raises(ValueError, match="weights cover"):
            solve_min_light(k3, VertexWeights((1, 1)))

    def test_stats_fields(self):
        g = petersen_graph()
        sol, stats = solve_with_stats(g)
        assert (stats.n, stats.m) == (10, 15)
        assert (stats.core_vertices, stats.core_edges) == (10, 15)
        assert stats.reduction.gprime.n == stats.reduced_vertices
        assert stats.reduced_vertices == 5 * 15 - 2 * 10
        assert stats.reduced_edges == sum(
            g.degree(v) ** 2 - g.degree(v) + 1 for v in range(g.n)
        )
        assert stats.reduce_seconds >= 0
        assert stats.match_seconds >= 0
        assert stats.recover_seconds >= 0
        assert sol.objective == brute_force_min_light(g)[0]
