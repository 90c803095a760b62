"""Seeded instance generation."""

import pytest

from orientlight.generate import SplitMix64, random_graph, random_orientation, random_weights
from orientlight.graph import light_vertices, render_graph


class TestSplitMix64:
    def test_known_first_output_for_seed_zero(self):
        # published test vector for splitmix64
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    def test_sequence_reproducible(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_next_below_in_range(self):
        rng = SplitMix64(5)
        for _ in range(200):
            assert 0 <= rng.next_below(7) < 7

    def test_next_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(1).next_below(0)

    def test_next_below_takes_bounds_up_to_2_64(self, monkeypatch):
        # a bound of 2**64 accepts every word; a larger one is refused
        # before a draw, as its rejection loop would never accept one
        assert SplitMix64(9).next_below(1 << 64) == SplitMix64(9).next_u64()

        def no_draw(self):
            raise AssertionError("the generator was stepped")

        monkeypatch.setattr(SplitMix64, "next_u64", no_draw)
        with pytest.raises(ValueError):
            SplitMix64(9).next_below((1 << 64) + 1)


class TestRandomGraph:
    def test_determinism(self):
        assert random_graph(9, 0.4, 7) == random_graph(9, 0.4, 7)

    def test_rendered_bytes_identical(self):
        a = render_graph(random_graph(11, 0.3, 2))
        b = render_graph(random_graph(11, 0.3, 2))
        assert a == b

    def test_p_zero_empty(self):
        assert random_graph(6, 0.0, 1).m == 0

    def test_p_one_complete(self):
        g = random_graph(5, 1.0, 1)
        assert g.m == 10

    def test_seed_changes_graph(self):
        assert random_graph(10, 0.5, 1) != random_graph(10, 0.5, 2)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            random_graph(5, 1.5, 0)

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            random_graph(0, 0.5, 0)


class TestRandomWeights:
    def test_range_and_determinism(self):
        w = random_weights(30, 10, 4)
        assert w == random_weights(30, 10, 4)
        assert all(0 <= u <= 10 for u in w.units)
        assert w.scale == 1

    def test_zero_max(self):
        assert random_weights(5, 0, 1).units == (0,) * 5

    def test_rejects_negative_max(self):
        with pytest.raises(ValueError):
            random_weights(5, -1, 1)


class TestRandomOrientation:
    def test_valid_and_deterministic(self):
        g = random_graph(9, 0.5, 3)
        o = random_orientation(g, 11)
        light_vertices(g, o)  # raises unless o orients every edge of g
        assert o == random_orientation(g, 11)
