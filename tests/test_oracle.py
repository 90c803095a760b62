"""The exhaustive baselines and their budget guard."""

import os
import subprocess
import sys

import pytest

from conftest import complete_graph, path_graph
import orientlight
from orientlight import (
    BudgetExceededError,
    Graph,
    OracleBudget,
    VertexWeights,
    brute_force_max_matching,
    brute_force_min_light,
    light_vertices,
    random_graph,
)


class TestBudget:
    def test_defaults(self):
        b = OracleBudget()
        assert b.max_edges == 20
        assert b.max_matching_edges == 18

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            OracleBudget(0, 5)

    def test_env_single_value(self, monkeypatch):
        monkeypatch.setenv("ORIENT_LIGHT_ORACLE_BUDGET", "12")
        assert OracleBudget.from_env() == OracleBudget(12, 12)

    def test_env_pair(self, monkeypatch):
        monkeypatch.setenv("ORIENT_LIGHT_ORACLE_BUDGET", "15,10")
        assert OracleBudget.from_env() == OracleBudget(15, 10)

    def test_env_unset_gives_defaults(self, monkeypatch):
        monkeypatch.delenv("ORIENT_LIGHT_ORACLE_BUDGET", raising=False)
        assert OracleBudget.from_env() == OracleBudget()

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("ORIENT_LIGHT_ORACLE_BUDGET", "lots")
        with pytest.raises(ValueError, match="ORIENT_LIGHT_ORACLE_BUDGET"):
            OracleBudget.from_env()

    def test_orientation_budget_enforced(self):
        g = random_graph(12, 0.9, 1)
        assert g.m > 6
        with pytest.raises(BudgetExceededError):
            brute_force_min_light(g, budget=OracleBudget(6, 6))

    def test_matching_budget_enforced(self, k4):
        with pytest.raises(BudgetExceededError):
            brute_force_max_matching(k4, budget=OracleBudget(6, 3))

    def test_env_budget_reaches_oracle(self, monkeypatch, k4):
        monkeypatch.setenv("ORIENT_LIGHT_ORACLE_BUDGET", "2,2")
        with pytest.raises(BudgetExceededError):
            brute_force_min_light(k4)


class TestMinLightOracle:
    def test_triangle(self, k3):
        obj, witness = brute_force_min_light(k3)
        assert obj == 2
        assert len(light_vertices(k3, witness, 1)) == 2

    def test_c4_threshold_zero(self, c4):
        obj, _ = brute_force_min_light(c4, k=0)
        assert obj == 0

    def test_triangle_threshold_two(self, k3):
        obj, _ = brute_force_min_light(k3, k=2)
        assert obj == 3

    def test_tie_break_is_first_lexicographic(self, k3):
        # mask 0 orients every edge low->high, and for K3 that already
        # attains the minimum, so the witness must be exactly that
        _, witness = brute_force_min_light(k3)
        assert witness.tails == (0, 0, 1)

    def test_witness_attains_objective(self):
        for seed in range(10):
            g = random_graph(7, 0.4, seed)
            obj, witness = brute_force_min_light(g)
            assert len(light_vertices(g, witness, 1)) == obj

    def test_weighted_matches_manual_count(self, k3):
        w = VertexWeights((5, 1, 1))
        obj, witness = brute_force_min_light(k3, 1, w)
        assert obj == 2
        assert sum(w.unit(v) for v in light_vertices(k3, witness, 1)) == 2

    def test_all_ones_equals_unweighted(self):
        for seed in range(8):
            g = random_graph(7, 0.45, seed)
            plain, _ = brute_force_min_light(g)
            ones, _ = brute_force_min_light(g, 1, VertexWeights.ones(g.n))
            assert plain == ones

    def test_edgeless(self):
        g = Graph(3, ())
        obj, witness = brute_force_min_light(g)
        assert obj == 3
        assert witness.tails == ()

    def test_rejects_negative_threshold(self, k3):
        with pytest.raises(ValueError):
            brute_force_min_light(k3, k=-1)


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

    def test_complete_graph_perfect(self):
        g = complete_graph(6)
        assert brute_force_max_matching(g).size == 3


def test_importing_the_package_does_not_load_numpy():
    # only brute_force_min_light needs numpy, and it imports it itself
    src = os.path.dirname(os.path.dirname(os.path.abspath(orientlight.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, orientlight, orientlight.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
