"""The flow kernel and the gadget-graph construction."""

import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_core,
    star_graph,
    two_core,
    wheel_graph,
)
from orientlight import (
    Certificate,
    Graph,
    VertexWeights,
    brute_force_min_light,
    build_gprime,
    parse_graph,
    random_graph,
    random_weights,
    solve_min_light,
)
from orientlight import reduction


def size_formulas(r):
    """|V'| and |E'| of the gadget graph from its core and demands."""
    deg = [r.core.degree(c) for c in range(r.core.n)]
    return (
        5 * r.core.m - sum(r.demand),
        sum(d * d - (b - 1) * d + (b == 2) for d, b in zip(deg, r.demand)),
    )


def settled_light(g, r):
    """The vertices outside the core that the kernel's fixed tails leave
    below out-degree 2, ascending: light whatever the core does."""
    fixed = [0] * g.n
    for t in r.peeled_tails:
        if t != -1:
            fixed[t] += 1
    core = set(r.core_to_input)
    return tuple(v for v in range(g.n) if fixed[v] < 2 and v not in core)


class TestEliminateDegreeOne:
    """Degree-1 vertices never reach the gadget: the kernel settles them."""

    def test_single_edge(self, p2):
        r = build_gprime(p2)
        assert (r.core.n, r.core.m, r.gprime.n) == (0, 0, 0)
        assert settled_light(p2, r) == (0, 1)
        assert r.peeled_tails == (0,)

    def test_star(self, star13):
        # every leaf has target 0, so the flow gives the centre all three
        # edges
        r = build_gprime(star13)
        assert (r.core.n, r.gprime.n) == (0, 0)
        assert settled_light(star13, r) == (1, 2, 3)
        assert [r.peeled_tails.count(v) for v in range(4)] == [3, 0, 0, 0]

    def test_cycle_untouched(self, c4):
        r = build_gprime(c4)
        assert r.core == c4
        assert r.demand == (2, 2, 2, 2)
        assert settled_light(c4, r) == ()
        assert r.peeled_tails == (-1,) * 4

    def test_original_edges_preserved(self):
        # every input edge is either a core edge or oriented by the kernel,
        # never both, and a fixed tail is an endpoint of its edge
        for seed in range(10):
            g = random_graph(18, 2.8 / 17, seed)
            r = build_gprime(g)
            core_edges = set(r.core_edge_to_input)
            for e, (u, v) in enumerate(g.edges):
                if e in core_edges:
                    assert r.peeled_tails[e] == -1
                else:
                    assert r.peeled_tails[e] in (u, v)

    def test_idempotent(self):
        # the draws are sparse 2-cores the flow kernel keeps whole, so
        # the kernel changes nothing and keeps the paper's gadget
        built = seed = 0
        while built < 10:
            core = random_core(16, 3.0 / 15, seed)
            seed += 1
            if core is None:
                continue
            built += 1
            r = build_gprime(core)
            assert r.core == core
            assert r.demand == (2,) * core.n
            assert r.core_to_input == tuple(range(core.n))
            assert settled_light(core, r) == ()
            assert (r.gprime.n, r.gprime.m) == (
                5 * core.m - 2 * core.n,
                sum(core.degree(v) ** 2 - core.degree(v) + 1 for v in range(core.n)),
            )


class TestStripIsolated:
    """Isolated vertices stay light outside the core; it is relabeled in order."""

    def test_removes_and_maps_back(self):
        g = Graph(6, ((1, 3), (1, 4), (3, 4)))
        r = build_gprime(g)
        assert r.core == complete_graph(3)
        assert r.core_to_input == (1, 3, 4)
        assert r.core_edge_to_input == (0, 1, 2)
        assert settled_light(g, r) == (0, 2, 5)

    def test_noop_when_connected(self, k4):
        r = build_gprime(k4)
        assert r.core == k4
        assert r.core_to_input == (0, 1, 2, 3)
        assert r.core_edge_to_input == tuple(range(k4.m))

    def test_edge_order_preserved(self):
        for seed in range(10):
            g = random_graph(18, 2.8 / 17, seed)
            r = build_gprime(g)
            assert list(r.core_edge_to_input) == sorted(r.core_edge_to_input)
            assert list(r.core_to_input) == sorted(r.core_to_input)
            for f, e in enumerate(r.core_edge_to_input):
                assert tuple(r.core_to_input[x] for x in r.core.edges[f]) == g.edges[e]


class TestPeel:
    def test_forest_peels_to_empty_core(self):
        # two trees and two isolated vertices; every leaf and every
        # isolated vertex stays light
        g = Graph(11, ((0, 1), (1, 2), (1, 3), (3, 4), (5, 6), (6, 7), (6, 8)))
        r = build_gprime(g)
        assert (r.core.n, r.core.m, r.gprime.n) == (0, 0, 0)
        assert set(settled_light(g, r)) >= {0, 2, 4, 5, 7, 8, 9, 10}
        assert all(t != -1 for t in r.peeled_tails)

    def test_zero_cost_cycle_empties_core(self):
        # zero-cost vertices have target 0, so the flow can give each
        # cost-5 vertex both its edges: the 6-cycle is settled whole,
        # its zero-cost vertices are the light ones, and they cost 0
        g = cycle_graph(6)
        w = VertexWeights((0, 5, 0, 5, 0, 5))
        r = build_gprime(g, w)
        assert (r.core.n, r.core.m, r.gprime.n) == (0, 0, 0)
        assert settled_light(g, r) == (0, 2, 4)
        sol = solve_min_light(g, w)
        assert sol.objective == 0
        assert sol.light_set == {0, 2, 4}
        assert sol.certificate == Certificate(0, 0, 0)

    def test_core_degree_at_least_demand(self):
        # every core vertex has demand 1 or 2 and degree at least its
        # demand; the demand is 2 minus the out-edges the kernel already
        # gave it.  Every other draw carries costs with zeros among them.
        demands = set()
        for seed in range(30):
            g = random_graph(28, 2.8 / 27, seed)
            w = random_weights(g.n, 4, seed + 1) if seed % 2 else None
            r = build_gprime(g, w)
            fixed = [r.peeled_tails.count(v) for v in range(g.n)]
            for c, v in enumerate(r.core_to_input):
                b = r.demand[c]
                assert b in (1, 2)
                assert r.core.degree(c) >= b
                assert b == 2 - fixed[v]
                demands.add(b)
            assert (r.gprime.n, r.gprime.m) == size_formulas(r)
        assert demands == {1, 2}

    def test_peeled_light_is_fixed(self):
        # a light vertex outside the core stays light under any
        # orientation of the core edges, and a heavy one stays heavy:
        # the solver's orientation agrees with the fixed tails there
        for seed in range(20):
            g = random_graph(10, 0.25, seed)
            r = build_gprime(g)
            light = solve_min_light(g).light_set
            core = set(r.core_to_input)
            for v in range(g.n):
                if v in core:
                    continue
                fixed = sum(1 for e in g.adjacency[v] if r.peeled_tails[e] == v)
                free = sum(1 for e in g.adjacency[v] if r.peeled_tails[e] == -1)
                assert free == 0
                assert (fixed <= 1) == (v in light)

    def test_demand_one_gadget(self):
        # a pendant vertex on a triangle leaves its anchor with demand 1:
        # d ports, d - 1 inner vertices and no parity edge
        g = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
        r = build_gprime(g)
        assert r.core == complete_graph(3)
        assert r.demand == (2, 2, 1)
        assert len(r.inner[2]) == 1
        assert r.parity_edge[2] == -1
        assert len(r.gadget_bucket(2)) == 2 + 2
        assert (r.gprime.n, r.gprime.m) == size_formulas(r) == (10, 10)


class TestBuildGprime:
    def test_k3_sizes(self, k3):
        r = build_gprime(k3)
        assert (r.gprime.n, r.gprime.m) == (9, 9)

    def test_c4_sizes(self, c4):
        r = build_gprime(c4)
        assert (r.gprime.n, r.gprime.m) == (12, 12)

    def test_degree_three_gadget(self, k4):
        # d(v) = 3: one inner vertex, three ports, 3 bipartite edges + parity
        r = build_gprime(k4)
        for v in range(4):
            assert len(r.inner[v]) == 1
            assert len(r.gadget_edge_ids[v]) == 3
            gadget_vertices = set(r.inner[v]) | {
                r.port_at(v, e) for e in k4.adjacency[v]
            }
            assert len(gadget_vertices) == 4

    def test_size_formulas_on_random_cores(self):
        built = 0
        seed = 0
        while built < 25:
            core = random_core(8, 0.35, seed)
            seed += 1
            if core is None:
                continue
            r = build_gprime(core)
            assert r.gprime.n == 5 * core.m - 2 * core.n
            assert r.gprime.m == sum(
                core.degree(v) ** 2 - core.degree(v) + 1 for v in range(core.n)
            )
            built += 1

    def test_unchecked_graphs_equal_checked_ones(self):
        # parse_graph and build_gprime skip Graph's checks and normalisation:
        # each graph they build must be the one Graph(n, edges) would build
        graphs = [complete_graph(k) for k in range(1, 7)]
        graphs += [cycle_graph(5), path_graph(6), star_graph(4), wheel_graph(6), petersen_graph()]
        graphs += [
            random_graph(n, min(1.0, degree / (n - 1)), seed)
            for n in (6, 12, 25, 60, 150)
            for degree in (1.2, 1.6, 2.2, 3.0, 5.0)
            for seed in range(3)
        ]
        core_sizes = set()
        for i, g in enumerate(graphs):
            # every other edge line names its higher endpoint first
            lines = [f"{g.n} {g.m}"]
            lines += [f"{v + 1} {u + 1}" if e % 2 else f"{u + 1} {v + 1}"
                      for e, (u, v) in enumerate(g.edges)]
            parsed = parse_graph("\n".join(lines))
            assert Graph(parsed.n, parsed.edges) == parsed == g
            for w in (None, random_weights(g.n, 3, i)):
                r = build_gprime(g, w)
                for built in (r.core, r.gprime):
                    assert Graph(built.n, built.edges) == built, f"graph {i}, weights {w}"
                core_sizes.add(r.core.n)
        assert len(core_sizes) >= 30 and max(core_sizes) >= 100, sorted(core_sizes)

    def test_connectors_have_degree_two(self):
        r = build_gprime(petersen_graph())
        for e in range(r.core.m):
            assert r.gprime.degree(r.connector[e]) == 2

    def test_connecting_edges_touch_ports_and_connector(self, c4):
        r = build_gprime(c4)
        for e, (u, v) in enumerate(c4.edges):
            lo, hi = r.connecting_edges[e]
            assert set(r.gprime.edges[lo]) == {r.port_at(u, e), r.connector[e]}
            assert set(r.gprime.edges[hi]) == {r.port_at(v, e), r.connector[e]}

    def test_parity_edge_joins_two_smallest_incident_ports(self, k4):
        r = build_gprime(k4)
        for v in range(4):
            e0, e1 = k4.adjacency[v][0], k4.adjacency[v][1]
            want = {r.port_at(v, e0), r.port_at(v, e1)}
            assert set(r.gprime.edges[r.parity_edge[v]]) == want

    def test_buckets_partition_all_edges(self):
        core = random_core(12, 3.0 / 11, 14)
        assert core is not None
        r = build_gprime(core)
        assert r.core == core
        seen = {}
        for v in range(core.n):
            for eid in r.gadget_bucket(v):
                assert eid not in seen, f"edge {eid} owned twice"
                seen[eid] = v
        assert len(seen) == r.gprime.m
        # independent classification: an edge belongs to v when both ends
        # lie among v's ports/inner vertices, or when it is the v-side
        # connecting edge
        for eid, v in seen.items():
            a, b = r.gprime.edges[eid]
            mine = set(r.inner[v]) | {r.port_at(v, e) for e in core.adjacency[v]}
            if a in mine and b in mine:
                continue
            assert eid in r.side_edges[v]
            assert r.connector[eid // 2] in (a, b)

    def test_edge_owner_matches_buckets(self):
        core = random_core(8, 0.4, 23)
        assert core is not None
        r = build_gprime(core)
        for v in range(core.n):
            for eid in r.gadget_bucket(v):
                assert r.edge_owner[eid] == v

    def test_side_edges_align_with_adjacency(self, k4):
        r = build_gprime(k4)
        for v in range(4):
            assert len(r.side_edges[v]) == k4.degree(v)
            for pos, e in enumerate(k4.adjacency[v]):
                side = r.side_edges[v][pos]
                u, w = k4.edges[e]
                assert side == 2 * e + (0 if v == u else 1)

    def test_weighted_edges_carry_owner_cost(self, k3):
        w = VertexWeights((5, 1, 1))
        r = build_gprime(k3, w)
        for eid in range(r.gprime.m):
            assert r.edge_weights[eid] == w.unit(r.edge_owner[eid])

    def test_unweighted_edges_all_one(self, c4):
        r = build_gprime(c4)
        assert set(r.edge_weights) == {1}

    def test_weight_length_mismatch(self, k3):
        with pytest.raises(ValueError, match="weights cover"):
            build_gprime(k3, VertexWeights((1, 1)))


class TestQuotientQ:
    """Q, the certificate's constant: sum over core edges {u, v} of
    c_u + c_v, which equals sum over core vertices of d(v) c_v."""

    def test_weighted_triangle(self, k3):
        assert solve_min_light(k3, VertexWeights((5, 1, 1))).certificate.constant == 14

    def test_all_ones_gives_2m(self):
        # a wheel with 6 spokes has 12 edges on 7 vertices, too few for
        # the flow to settle anything, so the whole wheel is the core
        g = wheel_graph(6)
        assert build_gprime(g).core == g
        assert solve_min_light(g, VertexWeights.ones(7)).certificate.constant == 2 * g.m
        assert solve_min_light(g).certificate.constant == 2 * g.m

    def test_zero_weights(self, c4):
        # every vertex has target 0, so the flow settles the whole cycle
        sol = solve_min_light(c4, VertexWeights((0, 0, 0, 0)))
        assert sol.certificate.constant == 0
        assert sol.objective == 0

    def test_matches_edge_sum(self):
        checked = 0
        for seed in range(40):
            g = random_graph(40, 2.6 / 39, seed)
            w = random_weights(g.n, 9, seed + 1)
            r = build_gprime(g, w)
            cost = [w.unit(v) for v in r.core_to_input]
            by_edges = sum(cost[u] + cost[v] for u, v in r.core.edges)
            want = w.as_value(by_edges)
            assert solve_min_light(g, w).certificate.constant == want
            checked += by_edges > 0
        assert checked >= 20


class TestFlowKernel:
    """The flow step of build_gprime: settle what can meet its target."""

    def test_matches_the_oracle_where_a_core_is_left(self):
        # both modes, every other instance with costs 0..3; the lemma does
        # real work where the flow settles part of the 2-core and leaves
        # the rest to the matching
        checked = left = partial = 0
        seed = 70_000
        while checked < 300:
            n = 5 + checked % 7
            g = random_graph(n, 0.45, seed)
            w = random_weights(n, 3, seed + 1) if checked % 2 else None
            seed += 2
            if g.m > 14:
                continue
            r = build_gprime(g, w)
            sol = solve_min_light(g, w)
            want, _ = brute_force_min_light(g, 1, w)
            assert sol.objective == want, f"seed {seed - 2}"
            c = sol.certificate
            assert sol.objective == c.constant - c.matching_value + c.offset
            checked += 1
            left += r.core.n > 0
            partial += 0 < r.core.n < two_core(g).n
        assert left >= 150, left
        assert partial >= 30, partial

    def test_outside_the_core_everything_is_settled(self):
        # every vertex outside the final core has out-degree 2 from the
        # fixed tails alone unless its degree is below 2 (then it is
        # light) or its cost is 0, and every fixed edge between the core
        # and the rest leaves the core
        for seed in range(40):
            g = random_graph(30, (2.0 + seed % 5) / 29, seed)
            w = random_weights(g.n, 3, seed + 1) if seed % 2 else None
            r = build_gprime(g, w)
            core = set(r.core_to_input)
            light = set(settled_light(g, r))
            for v in range(g.n):
                if v not in core and (g.degree(v) < 2 or w is None or w.unit(v) > 0):
                    assert (v in light) == (g.degree(v) < 2), f"seed {seed}, vertex {v}"
            for e, (u, v) in enumerate(g.edges):
                t = r.peeled_tails[e]
                if (u in core) != (v in core):
                    assert t in core, f"seed {seed}: edge {e} enters the core"
                else:
                    assert (t == -1) == (u in core), f"seed {seed}, edge {e}"

    @pytest.mark.parametrize("weights_max", [None, 10])
    def test_shrinks_dense_random_graphs(self, weights_max):
        # at m ~ 3n almost every vertex can be made heavy: the kernel
        # must leave at most a few percent of the input to the matching
        g = random_graph(1000, 6 / 999, 1)
        w = random_weights(g.n, weights_max, 2) if weights_max else None
        r = build_gprime(g, w)
        assert two_core(g).n > 900
        assert r.core.n <= 30, f"{r.core.n} core vertices left"

    def test_flow_edge_into_the_region_is_an_internal_error(self, monkeypatch):
        # vertex 0 of K5 claimed as the whole deficient region: the flow
        # points some edges into it, which the kernel must refuse
        real = reduction._deficient_region

        def claim_vertex_zero(g, target):
            flow, _ = real(g, target)
            return flow, [v == 0 for v in range(g.n)]

        monkeypatch.setattr(reduction, "_deficient_region", claim_vertex_zero)
        want = r"flow edge \d+ \(0, \d\) enters the deficient region \(n=5, m=10\)"
        with pytest.raises(RuntimeError, match=want):
            build_gprime(complete_graph(5))

    def test_region_vertex_with_two_edges_leaving_is_an_internal_error(self, monkeypatch):
        # vertex 0 of K4 claimed as the whole deficient region with its
        # three edges leaving it: its demand would fall below 1
        def claim_vertex_zero(g, target):
            tails = [0 if 0 in uv else uv[0] for uv in g.edges]
            return tails, [v == 0 for v in range(g.n)]

        monkeypatch.setattr(reduction, "_deficient_region", claim_vertex_zero)
        want = (
            r"region vertex 0 has 3 out-edges leaving the deficient region "
            r"\(n=4, m=6\)"
        )
        with pytest.raises(RuntimeError, match=want):
            build_gprime(complete_graph(4))
