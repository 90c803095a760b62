"""Graph construction, parsing, orientations, and light accounting."""

from fractions import Fraction

import pytest

from orientlight import Graph, Orientation, VertexWeights, parse_graph, parse_weights
from orientlight.generate import random_graph, random_orientation
from orientlight.graph import (
    MAX_VERTICES,
    light_cost,
    light_vertices,
    out_degree,
    render_graph,
)
from conftest import complete_graph


class TestGraph:
    def test_edges_normalized_lower_first(self):
        g = Graph(3, ((2, 0), (1, 2)))
        assert g.edges == ((0, 2), (1, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((1, 1),))

    def test_rejects_duplicate_even_when_flipped(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(2, ((0, 2),))

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            Graph(-1, ())

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_rejects_a_vertex_count_that_is_not_an_int(self, n):
        with pytest.raises(ValueError, match=f"vertex count {n!r} is not an integer"):
            Graph(n, ((0, 1),))

    @pytest.mark.parametrize(
        "edges",
        [((0, 1.0), (1, 2)), ((0, 1), (1.5, 2)), ((0, True),), ((False, 2),), (("0", 1),)],
    )
    def test_rejects_an_endpoint_that_is_not_an_int(self, edges):
        with pytest.raises(ValueError, match="has an endpoint that is not an integer"):
            Graph(3, edges)

    def test_adjacency_consistent_with_edges(self):
        g = random_graph(9, 0.5, 11)
        for e, (u, v) in enumerate(g.edges):
            assert e in g.adjacency[u]
            assert e in g.adjacency[v]
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m

    def test_adjacency_lists_ascending(self):
        g = random_graph(10, 0.6, 5)
        for v in range(g.n):
            assert list(g.adjacency[v]) == sorted(g.adjacency[v])


class TestParseGraph:
    def test_triangle(self):
        g = parse_graph("3 3\n1 2\n2 3\n1 3\n")
        assert g.n == 3 and g.m == 3
        assert g.edges == ((0, 1), (1, 2), (0, 2))

    def test_comments_and_blank_lines_ignored(self):
        g = parse_graph("# triangle\n\n3 3\n1 2\n# middle\n2 3\n1 3\n")
        assert g.m == 3

    def test_vertex_count_capped(self):
        assert parse_graph(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES
        with pytest.raises(ValueError, match="line 2: .* exceed the limit"):
            parse_graph(f"# big\n{MAX_VERTICES + 1} 0\n")

    def test_self_loop_reports_line(self):
        with pytest.raises(ValueError, match="line 2.*self-loop"):
            parse_graph("2 1\n1 1\n")

    def test_duplicate_reports_line(self):
        with pytest.raises(ValueError, match="line 3.*duplicate"):
            parse_graph("3 2\n1 2\n1 2\n")

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="line 2.*out of range"):
            parse_graph("2 1\n1 3\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ValueError, match="promises 2"):
            parse_graph("3 2\n1 2\n")

    def test_too_many_edges(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_graph("3 1\n1 2\n1 3\n2 3\n")

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_graph("three nodes\n")
        for text, message in [
            ("3\n", "line 1: header must be 'n m'"),
            ("# counts\n3 1 2\n", "line 2: header must be 'n m'"),
            ("-1 0\n", "line 1: header counts must be nonnegative"),
            ("3 -1\n", "line 1: header counts must be nonnegative"),
        ]:
            with pytest.raises(ValueError) as ex:
                parse_graph(text)
            assert str(ex.value) == message

    def test_bad_edge_line(self):
        for text, message in [
            ("3 1\n1\n", "line 2: edge line must be 'u v'"),
            ("3 1\n1 2 3\n", "line 2: edge line must be 'u v'"),
            ("3 1\n1 x\n", "line 2: edge endpoints must be integers"),
            ("3 1\n1.5 2\n", "line 2: edge endpoints must be integers"),
        ]:
            with pytest.raises(ValueError) as ex:
                parse_graph(text)
            assert str(ex.value) == message

    def test_empty_input(self):
        with pytest.raises(ValueError, match="header"):
            parse_graph("")

    def test_round_trip(self):
        for seed in range(6):
            g = random_graph(8, 0.4, seed)
            assert parse_graph(render_graph(g)) == g


class TestOutDegree:
    def test_cyclic_triangle(self, k3):
        # edges (0,1),(0,2),(1,2); 0->1->2->0 means tails 0,2,1
        o = Orientation((0, 2, 1))
        assert [out_degree(k3, o, v) for v in range(3)] == [1, 1, 1]

    def test_source_vertex(self, k3):
        o = Orientation((0, 0, 1))  # 0->1, 0->2, 1->2
        assert out_degree(k3, o, 0) == 2
        assert out_degree(k3, o, 1) == 1
        assert out_degree(k3, o, 2) == 0

    def test_single_edge_head_has_zero(self):
        g = Graph(2, ((0, 1),))
        assert out_degree(g, Orientation((0,)), 1) == 0

    def test_out_degrees_sum_to_m(self):
        for seed in range(8):
            g = random_graph(9, 0.5, seed)
            o = random_orientation(g, seed + 100)
            assert sum(out_degree(g, o, v) for v in range(g.n)) == g.m


class TestLightVertices:
    def test_cyclic_triangle_all_light(self, k3):
        o = Orientation((0, 2, 1))
        assert light_vertices(k3, o) == {0, 1, 2}

    def test_source_orientation(self, k3):
        o = Orientation((0, 0, 1))
        assert light_vertices(k3, o) == {1, 2}

    def test_agrees_with_out_degree(self):
        for seed in range(10):
            g = random_graph(12, 0.3, seed)
            o = random_orientation(g, seed + 100)
            want = {v for v in range(g.n) if out_degree(g, o, v) <= 1}
            assert light_vertices(g, o) == want

    def test_rejects_orientation_of_wrong_length(self, k3):
        with pytest.raises(ValueError, match="covers 2 edges, graph has 3"):
            light_vertices(k3, Orientation((0, 1)))
        with pytest.raises(ValueError, match="covers 4 edges"):
            light_vertices(k3, Orientation((0, 1, 0, 1)))

    @pytest.mark.parametrize("tail", [-1, 2])
    def test_rejects_tail_off_its_edge(self, k3, tail):
        # edge 0 is (0, 1); a plain count would charge tail -1 to vertex 2
        with pytest.raises(ValueError, match=rf"tail {tail} of edge 0 is not one of its endpoints"):
            light_vertices(k3, Orientation((tail, 1, 0)))

    def test_names_the_id_of_a_bad_tail_after_edge_0(self, k3):
        # edges 0 and 1 hold vertex 0; edge 2 is (1, 2)
        with pytest.raises(
            ValueError, match=r"^tail 0 of edge 2 is not one of its endpoints \(1, 2\)$"
        ):
            light_vertices(k3, Orientation((0, 0, 0)))


class TestVertexWeights:
    def test_rejects_negative_with_hardness_note(self):
        with pytest.raises(ValueError, match="NP-hard"):
            VertexWeights((1, -1))

    @pytest.mark.parametrize(
        "units, scale",
        [
            ((0.5, 0.5), 1),
            ((1, 1, 1), 2.5),
            ((True, 2), 1),
            ((1, 2), True),
            ((Fraction(1, 2), 1), 1),
            ((1, 2), Fraction(10)),
        ],
        ids=["float-unit", "float-scale", "bool-unit", "bool-scale", "fraction-unit", "fraction-scale"],
    )
    def test_rejects_units_and_scales_that_are_not_ints(self, units, scale):
        with pytest.raises(ValueError, match="not an integer|not a positive integer"):
            VertexWeights(units, scale)

    def test_as_value_integer(self):
        w = VertexWeights((15, 5), 5)
        assert w.as_value(15) == 3
        assert isinstance(w.as_value(15), int)

    def test_as_value_fraction(self):
        w = VertexWeights((1, 3), 10)
        assert w.as_value(3) == Fraction(3, 10)

    def test_ones(self):
        assert VertexWeights.ones(3) == VertexWeights((1, 1, 1), 1)
        assert VertexWeights.ones(0) == VertexWeights((), 1)

    def test_as_value_builds_no_fraction_when_whole(self, monkeypatch):
        monkeypatch.setattr("orientlight.graph._fraction", None)
        assert VertexWeights.ones(2).as_value(7) == 7
        assert VertexWeights((150,), 100).as_value(300) == 3


class TestParseWeights:
    def test_decimal_scaling(self):
        w = parse_weights("1 0.5\n2 2\n", 2)
        assert w.scale == 10
        assert w.units == (5, 20)
        assert w.as_value(w.units[0]) == Fraction(1, 2)

    def test_omitted_vertices_default_to_one(self):
        w = parse_weights("2 3\n", 3)
        assert w.units == (1, 3, 1)

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_weights("1 2\n1 3\n", 2)

    def test_negative_rejected_with_hardness_note(self):
        with pytest.raises(ValueError, match="NP-hard"):
            parse_weights("1 -2\n", 2)

    def test_non_number_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_weights("1 abc\n", 2)

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_weights("5 1\n", 3)

    def test_bad_line(self):
        for text, message in [
            ("1\n", "line 1: weight line must be 'v cost'"),
            ("1 2\n2 3 4\n", "line 2: weight line must be 'v cost'"),
            ("x 2\n", "line 1: vertex label must be an integer"),
            ("1.0 2\n", "line 1: vertex label must be an integer"),
        ]:
            with pytest.raises(ValueError) as ex:
                parse_weights(text, 3)
            assert str(ex.value) == message

    def test_comments_and_blank_lines_ignored(self):
        assert parse_weights("# costs\n\n2 3\n  \n# end\n", 3).units == (1, 3, 1)

    def test_infinity_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            parse_weights("1 Infinity\n", 2)

    def test_exact_at_the_digit_bounds(self):
        # 59 integer digits and 60 decimal places: 119 significant digits,
        # every one kept
        w = parse_weights("1 " + "7" * 59 + "." + "3" * 60 + "\n", 2)
        assert w.scale == 10**60
        assert w.units == (int("7" * 59 + "3" * 60), 10**60)

    @pytest.mark.parametrize("cost", ["0." + "0" * 60 + "1", "1e-1000000"])
    def test_more_than_sixty_places_rejected(self, cost):
        with pytest.raises(ValueError, match="line 2: cost has more than 60 decimal places"):
            parse_weights(f"1 1\n2 {cost}\n", 2)

    @pytest.mark.parametrize("cost", ["1" + "0" * 59, "1" + "0" * 65 + ".5", "1e5000"])
    def test_sixty_integer_digits_rejected(self, cost):
        with pytest.raises(ValueError, match="line 2: cost has 60 or more integer digits"):
            parse_weights(f"1 1\n2 {cost}\n", 2)


class TestLightCost:
    def test_weighted_triangle(self, k3):
        w = VertexWeights((5, 1, 1))
        o = Orientation((0, 0, 1))  # light set {1, 2}
        assert light_cost(k3, o, w) == 2

    def test_zero_weights(self):
        g = complete_graph(4)
        w = VertexWeights((0, 0, 0, 0))
        assert light_cost(g, random_orientation(g, 1), w) == 0

    def test_all_ones_matches_count(self):
        for seed in range(6):
            g = random_graph(7, 0.5, seed)
            o = random_orientation(g, seed + 50)
            w = VertexWeights.ones(g.n)
            assert light_cost(g, o, w) == len(light_vertices(g, o))

    def test_rejects_weights_of_wrong_length(self, k3):
        with pytest.raises(ValueError, match="weights cover 2 vertices, graph has 3"):
            light_cost(k3, Orientation((0, 1, 0)), VertexWeights((1, 1)))

    def test_fractional_costs(self, k3):
        w = parse_weights("1 0.25\n2 0.25\n3 0.25\n", 3)
        o = Orientation((0, 0, 1))
        assert light_cost(k3, o, w) == Fraction(1, 2)
