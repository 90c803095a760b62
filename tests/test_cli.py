"""End-to-end CLI behavior through main()."""

import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import orientlight
from conftest import size_formulas
from orientlight import parse_graph, parse_weights, solve_min_light
from orientlight.cli import main
from orientlight.generate import SplitMix64, random_graph
from orientlight.graph import MAX_VERTICES, render_graph
from orientlight.reduction import build_gprime

K3_TEXT = "3 3\n1 2\n2 3\n1 3\n"


@pytest.fixture
def k3_file(tmp_path):
    p = tmp_path / "k3.graph"
    p.write_text(K3_TEXT)
    return p


def module_env() -> dict[str, str]:
    # the environment for `python -m orientlight.cli` in a child process
    src = str(Path(orientlight.__file__).parents[1])
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSolve:
    def test_human_output(self, capsys, k3_file):
        rc, out, _ = run(capsys, "solve", k3_file)
        assert rc == 0
        assert "objective: 2" in out
        assert "light:" in out
        assert "certificate:" in out
        assert out.count("->") == 3

    def test_human_output_of_an_edgeless_graph(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text("3 0\n")
        assert run(capsys, "solve", g) == (
            0,
            "objective: 3\nlight: 1 2 3\ncertificate: matching_value=0 constant=0 offset=3\n",
            "",
        )

    def test_weighted(self, capsys, tmp_path, k3_file):
        w = tmp_path / "w.txt"
        w.write_text("1 5\n2 1\n3 1\n")
        rc, out, _ = run(capsys, "solve", k3_file, "--weights", w)
        assert rc == 0
        assert "objective: 2" in out

    def test_json_round_trips_through_verify(self, capsys, tmp_path, k3_file):
        rc, out, _ = run(capsys, "solve", k3_file, "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["objective"] == 2
        assert len(doc["orientation"]) == 3
        sol = tmp_path / "sol.json"
        sol.write_text(out)
        rc, out, _ = run(capsys, "verify", k3_file, sol)
        assert rc == 0
        assert "OK" in out

    def test_json_writes_one_line_per_key(self, capsys, k3_file):
        rc, out, _ = run(capsys, "solve", k3_file, "--json")
        assert rc == 0
        doc = json.loads(out)
        assert list(doc) == ["objective", "light", "orientation", "certificate"]
        inner = ",\n".join(f"  {json.dumps(key)}: {json.dumps(doc[key])}" for key in doc)
        assert out == "{\n" + inner + "\n}\n"
        assert '  "orientation": [[1, 2], [2, 3], [1, 3]],\n' in out

    @pytest.mark.parametrize(
        "text",
        ["3 0\n", "5 10\n" + "".join(f"{u} {v}\n" for u in range(1, 6) for v in range(u + 1, 6))],
        ids=["edgeless", "k5"],
    )
    def test_json_lists_are_the_bytes_json_dumps_writes(self, capsys, tmp_path, text):
        # an edgeless graph has no orientation entries, and K5 no light vertex
        g = tmp_path / "g.txt"
        g.write_text(text)
        rc, out, _ = run(capsys, "solve", g, "--json")
        assert rc == 0
        doc = json.loads(out)
        assert [] in (doc["light"], doc["orientation"])
        inner = ",\n".join(f"  {json.dumps(key)}: {json.dumps(doc[key])}" for key in doc)
        assert out == "{\n" + inner + "\n}\n"

    def test_fractional_weights_round_trip(self, capsys, tmp_path, k3_file):
        w = tmp_path / "w.txt"
        w.write_text("1 0.5\n2 0.25\n3 0.25\n")
        rc, out, _ = run(capsys, "solve", k3_file, "--json", "--weights", w)
        assert rc == 0
        doc = json.loads(out)
        assert doc["objective"] == 0.5
        sol = tmp_path / "sol.json"
        sol.write_text(out)
        rc, out, _ = run(capsys, "verify", k3_file, sol, "--weights", w)
        assert rc == 0, out

    def test_malformed_graph_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("2 1\n1 1\n")
        rc, _, err = run(capsys, "solve", bad)
        assert rc == 2
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "solve", tmp_path / "nope.graph")
        assert rc == 2
        assert "error:" in err

    def test_invalid_utf8_is_usage_error(self, capsys, tmp_path, k3_file):
        bad = tmp_path / "bad.graph"
        bad.write_bytes(b"3 3\n1 \xff\n")
        sol = tmp_path / "sol.json"
        sol.write_text("{}")
        for argv in (["solve", bad], ["solve", bad, "--json"], ["verify", bad, sol]):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (2, "")
            assert err.startswith("error: ") and "utf-8" in err

    def test_negative_weights_rejected(self, capsys, tmp_path, k3_file):
        w = tmp_path / "w.txt"
        w.write_text("1 -3\n")
        rc, _, err = run(capsys, "solve", k3_file, "--weights", w)
        assert rc == 2
        assert "NP-hard" in err

    @pytest.mark.parametrize("cost", ["1" + "0" * 65 + ".5", "1e-1000000", "1e5000"])
    def test_hostile_costs_are_usage_errors(self, capsys, tmp_path, k3_file, cost):
        w = tmp_path / "w.txt"
        w.write_text(f"1 {cost}\n")
        rc, out, err = run(capsys, "solve", k3_file, "--weights", w)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: line 1: cost has ")

    def test_dump_reduction(self, capsys, tmp_path, k3_file):
        target = tmp_path / "gprime.graph"
        rc, _, _ = run(capsys, "solve", k3_file, "--dump-reduction", target)
        assert rc == 0
        gp = parse_graph(target.read_text())
        assert (gp.n, gp.m) == (9, 9)
        sidecar = json.loads((tmp_path / "gprime.graph.json").read_text())
        assert sidecar["core_vertices"] == 3
        assert len(sidecar["connector"]) == 3
        assert len(sidecar["edge_owner"]) == gp.m
        assert "conventions" in sidecar
        assert sidecar["demand"] == [2, 2, 2]
        assert sidecar["core_edge_to_input"] == [0, 1, 2]

    def test_dump_reduction_maps_the_peeled_core(self, capsys, tmp_path):
        # vertex 4 hangs off the triangle and vertex 5 is isolated: both
        # stay outside the core, and vertex 3 keeps demand 1 inside it
        g = tmp_path / "g.graph"
        g.write_text("5 4\n1 2\n2 3\n1 3\n3 4\n")
        target = tmp_path / "gprime.graph"
        rc, _, _ = run(capsys, "solve", g, "--dump-reduction", target)
        assert rc == 0
        sidecar = json.loads((tmp_path / "gprime.graph.json").read_text())
        assert sidecar["core_to_input"] == [1, 2, 3]
        assert sidecar["core_edge_to_input"] == [0, 1, 2]
        assert sidecar["demand"] == [2, 2, 1]
        assert sidecar["parity_edge"][2] == -1
        gp = parse_graph(target.read_text())
        assert (gp.n, gp.m) == (5 * 3 - 5, len(sidecar["edge_owner"]))

    def test_dump_reduction_golden(self, capsys, tmp_path):
        # K4 with a pendant vertex 5 on vertex 4 and an isolated vertex 6:
        # the core is K4, vertex 4 keeps demand 1 and the others demand 2,
        # and the decimal costs give weight_scale 100
        g = tmp_path / "g.graph"
        g.write_text("6 7\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n4 5\n")
        w = tmp_path / "w.txt"
        w.write_text("1 1.5\n2 2\n3 0.25\n4 3\n5 1\n6 2\n")
        target = tmp_path / "gprime.graph"
        rc, out, _ = run(capsys, "solve", g, "--weights", w, "--dump-reduction", target)
        assert rc == 0
        assert out.startswith("objective: 3.25\nlight: 3 5 6\n")
        # 12 connecting edges, then per vertex its band edges and parity edge
        band = "1 19\n4 19\n7 19\n1 4\n3 20\n10 20\n13 20\n3 10\n"
        band += "6 21\n12 21\n16 21\n6 12\n9 22\n15 22\n15 23\n18 23\n"
        connecting = "".join(f"{3 * e + 1} {3 * e + 2}\n{3 * e + 2} {3 * e + 3}\n" for e in range(6))
        assert target.read_text() == "23 28\n" + connecting + band
        assert json.loads((tmp_path / "gprime.graph.json").read_text()) == {
            "conventions": "vertex labels are 1-based; edge indices are 0-based "
            "positions in the edge list of the graph file",
            "core_vertices": 4,
            "core_edges": 6,
            "core_to_input": [1, 2, 3, 4],
            "core_edge_to_input": [0, 1, 2, 3, 4, 5],
            "demand": [2, 2, 2, 1],
            "connector": [2, 5, 8, 11, 14, 17],
            "ports": [[1, 3], [4, 6], [7, 9], [10, 12], [13, 15], [16, 18]],
            "connecting_edges": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]],
            "inner": [[19], [20], [21], [22, 23]],
            "gadget_edge_ids": [[12, 13, 14], [16, 17, 18], [20, 21, 22], [24, 25, 26, 27]],
            "parity_edge": [15, 19, 23, -1],
            "side_edges": [[0, 2, 4], [1, 6, 8], [3, 7, 10], [5, 9, 11]],
            "edge_owner": [1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4] + [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4,
            "edge_weight_units": [150, 200, 150, 25, 150, 300, 200, 25, 200, 300, 25, 300]
            + [150] * 4 + [200] * 4 + [25] * 4 + [300] * 4,
            "weight_scale": 100,
        }

    def test_unit_cost_file_solves_as_no_cost_file(self, capsys, tmp_path):
        # the golden test's graph, whose core is K4: every output, the text,
        # the JSON and both dump files, is the same as with no cost file
        g = tmp_path / "g.graph"
        g.write_text("6 7\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n4 5\n")
        w = tmp_path / "w.txt"
        w.write_text("".join(f"{v} 1\n" for v in range(1, 7)))
        outputs = []
        for costs in ([], ["--weights", w]):
            dump = tmp_path / f"dump{len(costs)}.graph"
            rc, text, _ = run(capsys, "solve", g, *costs, "--dump-reduction", dump)
            assert rc == 0
            rc, doc, _ = run(capsys, "solve", g, *costs, "--json")
            assert rc == 0
            sidecar = (tmp_path / f"dump{len(costs)}.graph.json").read_text()
            outputs.append((text, doc, dump.read_text(), sidecar))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].startswith("objective: 3\n")

    @pytest.mark.parametrize("clash", ["g", "w"])
    @pytest.mark.parametrize("suffix", ["", ".json"])
    def test_dump_reduction_refuses_to_overwrite_its_input(self, capsys, tmp_path, clash, suffix):
        # PATH or PATH.json names the graph or weights file, spelled
        # differently: exit 2 before solving, every file left as it was
        g = tmp_path / f"g{suffix}"
        w = tmp_path / f"w{suffix}"
        g.write_text("3 3\n1 2\n2 3\n1 3\n")
        w.write_text("1 1\n2 2\n3 3\n")
        (tmp_path / "sub").mkdir()
        dump = tmp_path / "sub" / ".." / clash
        rc, out, err = run(capsys, "solve", g, "--weights", w, "--dump-reduction", dump)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: --dump-reduction would overwrite the ")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["sub", g.name, w.name])
        assert g.read_text() == "3 3\n1 2\n2 3\n1 3\n"
        assert w.read_text() == "1 1\n2 2\n3 3\n"

    def test_dump_reduction_reports_both_core_sizes(self, capsys, tmp_path):
        # the flow settles all of K5: a regular tournament gives every
        # vertex out-degree 2
        g = tmp_path / "k5.graph"
        g.write_text("5 10\n" + "".join(f"{u} {v}\n" for u in range(1, 6) for v in range(u + 1, 6)))
        target = tmp_path / "gprime.graph"
        rc, _, _ = run(capsys, "solve", g, "--dump-reduction", target)
        assert rc == 0
        sidecar = json.loads((tmp_path / "gprime.graph.json").read_text())
        assert (sidecar["core_vertices"], sidecar["core_edges"]) == (0, 0)
        assert parse_graph(target.read_text()).n == 0

    @pytest.mark.parametrize(
        "edges, objective",
        [
            ([(a, 3 + i) for i in range(3000) for a in (1, 2)], 2),  # K_{2,3000}
            ([(1, i) for i in range(2, 3002)]
             + [(i, i + 1) for i in range(2, 3001)] + [(3001, 2)], 1),  # wheel, 3000 spokes
        ],
        ids=["K2,3000", "wheel3000"],
    )
    def test_hub_cores(self, capsys, tmp_path, edges, objective):
        # one core vertex of degree 3000: the banded gadget keeps it linear
        p = tmp_path / "hub.graph"
        n = max(max(e) for e in edges)
        text = f"{n} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges)
        p.write_text(text)
        dump = tmp_path / "gadget.txt"
        rc, out, _ = run(capsys, "solve", p, "--json", "--dump-reduction", dump)
        assert rc == 0
        assert json.loads(out)["objective"] == objective
        r = build_gprime(parse_graph(text))
        assert parse_graph(dump.read_text()).m == size_formulas(r)[1] < 6 * len(edges)

    def test_huge_vertex_count_rejected(self, capsys, tmp_path):
        # rejected at the header, before any per-vertex allocation
        g = tmp_path / "huge.graph"
        g.write_text("1000000000 0\n")
        rc, out, err = run(capsys, "solve", g)
        assert rc == 2
        assert out == ""
        assert "limit of 1000000" in err


class TestVerify:
    def write_solution(self, tmp_path, doc):
        p = tmp_path / "claim.json"
        p.write_text(json.dumps(doc))
        return p

    def cyclic_suboptimal(self):
        return {
            "objective": 3,
            "light": [1, 2, 3],
            "orientation": [[1, 2], [2, 3], [3, 1]],
            "certificate": {"matching_value": 3, "constant": 6, "offset": 0},
        }

    def test_rejects_suboptimal_via_oracle(self, capsys, tmp_path, k3_file):
        sol = self.write_solution(tmp_path, self.cyclic_suboptimal())
        rc, out, _ = run(capsys, "verify", k3_file, sol)
        assert rc == 1
        assert "not optimal" in out

    def all_light_claim(self, tmp_path, n, edges):
        """A graph file of n vertices and the 1-based edges, and a
        consistent claim that orients each edge as listed: no vertex then
        leaves more than one edge, so all n are light."""
        g = tmp_path / "g.txt"
        g.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        doc = {
            "objective": n,
            "light": list(range(1, n + 1)),
            "orientation": [list(e) for e in edges],
            "certificate": {"matching_value": 0, "constant": n, "offset": 0},
        }
        return g, self.write_solution(tmp_path, doc)

    def test_oracle_at_the_cap_rejects_suboptimal(self, capsys, tmp_path):
        # C20 has exactly as many edges as the oracle takes
        g, sol = self.all_light_claim(tmp_path, 20, [(v, v % 20 + 1) for v in range(1, 21)])
        rc, out, err = run(capsys, "verify", g, sol)
        assert (rc, out, err) == (
            1, "verify: FAIL: objective 20 is not optimal (optimum is 10)\n", ""
        )

    def test_budget_skip_notes_and_passes(self, capsys, tmp_path):
        # one edge past the cap: the claim is consistent, so it passes
        # with its optimality left unchecked
        g, sol = self.all_light_claim(tmp_path, 22, [(v, v + 1) for v in range(1, 22)])
        rc, out, err = run(capsys, "verify", g, sol)
        assert (rc, out, err) == (
            0,
            "verify: optimality not checked (21 edges exceeds the oracle cap of 20)\n"
            "verify: OK\n",
            "",
        )

    def test_rejects_wrong_light_set(self, capsys, tmp_path, k3_file):
        doc = self.cyclic_suboptimal()
        doc["light"] = [1]
        sol = self.write_solution(tmp_path, doc)
        rc, out, _ = run(capsys, "verify", k3_file, sol)
        assert rc == 1
        assert "light set" in out

    def test_rejects_wrong_objective(self, capsys, tmp_path, k3_file):
        doc = self.cyclic_suboptimal()
        doc["objective"] = 1
        doc["certificate"] = {"matching_value": 5, "constant": 6, "offset": 0}
        sol = self.write_solution(tmp_path, doc)
        rc, out, _ = run(capsys, "verify", k3_file, sol)
        assert rc == 1
        assert "objective" in out

    def test_rejects_orientation_of_wrong_length(self, capsys, tmp_path, k3_file):
        doc = self.cyclic_suboptimal()
        doc["orientation"] = [[1, 2]]
        sol = self.write_solution(tmp_path, doc)
        rc, out, _ = run(capsys, "verify", k3_file, sol)
        assert rc == 1
        assert "orientation" in out

    def test_rejects_pair_that_is_not_an_edge(self, capsys, tmp_path, k3_file):
        doc = self.cyclic_suboptimal()
        doc["orientation"][0] = [1, 3]
        sol = self.write_solution(tmp_path, doc)
        rc, out, _ = run(capsys, "verify", k3_file, sol)
        assert rc == 1
        assert "endpoints" in out

    def test_rejects_broken_certificate_identity(self, capsys, tmp_path, k3_file):
        doc = self.cyclic_suboptimal()
        doc["certificate"]["offset"] = 5
        sol = self.write_solution(tmp_path, doc)
        rc, out, _ = run(capsys, "verify", k3_file, sol)
        assert rc == 1
        assert "certificate identity" in out

    def test_certificate_identity_is_exact_on_large_integers(self, capsys, tmp_path):
        # objective 10**10: a relative tolerance of 1e-9 would forgive an offset 7 off
        g, w = tmp_path / "p2.graph", tmp_path / "p2.costs"
        g.write_text("2 1\n1 2\n")
        w.write_text("1 5000000000\n2 5000000000\n")
        rc, out, _ = run(capsys, "solve", g, "--weights", w, "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["objective"] == 10**10
        assert run(capsys, "verify", g, self.write_solution(tmp_path, doc), "--weights", w)[0] == 0
        doc["certificate"]["offset"] += 7
        rc, out, _ = run(capsys, "verify", g, self.write_solution(tmp_path, doc), "--weights", w)
        assert rc == 1
        assert "certificate identity" in out

    def test_objective_is_exact_on_non_integers(self, capsys, tmp_path):
        # objective 100000000.02: a relative tolerance of 1e-9 would forgive 0.01 more
        g, w = tmp_path / "p2.graph", tmp_path / "p2.costs"
        g.write_text("2 1\n1 2\n")
        w.write_text("1 50000000.01\n2 50000000.01\n")
        rc, out, _ = run(capsys, "solve", g, "--weights", w, "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["objective"] == 100000000.02
        assert run(capsys, "verify", g, self.write_solution(tmp_path, doc), "--weights", w)[0] == 0
        # the certificate identity still holds: only the objective is wrong
        doc["objective"] += 0.01
        doc["certificate"]["offset"] += 0.01
        rc, out, _ = run(capsys, "verify", g, self.write_solution(tmp_path, doc), "--weights", w)
        assert rc == 1
        assert out == (
            "verify: FAIL: objective 100000000.03 disagrees with the recomputed "
            "value 100000000.02\n"
        )

    def test_certificate_identity_is_exact_on_large_decimals(self, capsys, tmp_path):
        # objective 10000000000.75: a relative tolerance of 1e-9 would forgive an offset 7 off
        g, w = tmp_path / "p2.graph", tmp_path / "p2.costs"
        g.write_text("2 1\n1 2\n")
        w.write_text("1 5000000000.25\n2 5000000000.5\n")
        rc, out, _ = run(capsys, "solve", g, "--weights", w, "--json")
        assert rc == 0
        assert '  "objective": 10000000000.75,\n' in out
        doc = json.loads(out)  # every term is a multiple of 1/4: exact as a float
        assert run(capsys, "verify", g, self.write_solution(tmp_path, doc), "--weights", w)[0] == 0
        doc["certificate"]["offset"] += 7
        rc, out, _ = run(capsys, "verify", g, self.write_solution(tmp_path, doc), "--weights", w)
        assert rc == 1
        assert out == (
            "verify: FAIL: certificate identity fails: "
            "objective != constant - matching_value + offset\n"
        )

    def test_writes_decimals_past_float_precision(self, capsys, tmp_path, k3_file):
        w = tmp_path / "k3.costs"
        w.write_text("1 0.12345678901234567891\n2 1\n3 1\n")
        rc, out, _ = run(capsys, "solve", k3_file, "--json", "--weights", w)
        assert rc == 0
        assert '  "objective": 1.12345678901234567891,\n' in out
        doc = json.loads(out, parse_float=Fraction)
        assert doc["objective"] == Fraction(112345678901234567891, 10**20)
        cert = doc["certificate"]
        assert doc["objective"] == cert["constant"] - cert["matching_value"] + cert["offset"]
        sol = tmp_path / "sol.json"
        sol.write_text(out)
        assert run(capsys, "verify", k3_file, sol, "--weights", w) == (0, "verify: OK\n", "")
        rc, out, _ = run(capsys, "solve", k3_file, "--weights", w)
        assert rc == 0
        assert out.startswith("objective: 1.12345678901234567891\n")

    @pytest.mark.parametrize(
        "old, new",
        [('"objective": 3', '"objective": 1e999999999'), ('"offset": 0', '"offset": 2.5E0')],
        ids=["objective", "offset"],
    )
    def test_refuses_exponents(self, capsys, tmp_path, k3_file, old, new):
        # Fraction("1e999999999") would build a billion-digit integer
        sol = tmp_path / "claim.json"
        sol.write_text(json.dumps(self.cyclic_suboptimal()).replace(old, new))
        start = time.perf_counter()
        rc, out, err = run(capsys, "verify", k3_file, sol)
        assert time.perf_counter() - start < 0.5
        assert rc == 2
        assert out == ""
        literal = new.split(": ")[1]
        assert err.startswith("error: ") and literal in err

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_at_the_cost_limits(self, capsys, tmp_path, seed):
        # parse_weights takes up to 60 decimal places and 59 integer digits
        rng = random.Random(seed)
        graph = random_graph(6, 0.6, seed)
        lines = []
        for v in range(1, graph.n + 1):
            places, whole = (60, 59) if v == 1 else (rng.randrange(61), rng.randrange(60))
            digits = "".join(rng.choice("0123456789") for _ in range(whole + places))
            if whole:
                digits = rng.choice("123456789") + digits[1:]
            cost = (digits[:whole] or "0") + ("." + digits[whole:] if places else "")
            lines.append(f"{v} {cost}\n")
        g, w = tmp_path / "r.graph", tmp_path / "r.costs"
        g.write_text(render_graph(graph))
        w.write_text("".join(lines))
        rc, out, _ = run(capsys, "solve", g, "--weights", w, "--json")
        assert rc == 0
        sol = tmp_path / "sol.json"
        sol.write_text(out)
        assert run(capsys, "verify", g, sol, "--weights", w) == (0, "verify: OK\n", "")
        exact = solve_min_light(graph, parse_weights(w.read_text(), graph.n))
        doc = json.loads(out, parse_float=Fraction)
        cert = exact.certificate
        assert doc["objective"] == exact.objective
        assert doc["certificate"] == {
            "matching_value": cert.matching_value, "constant": cert.constant, "offset": cert.offset
        }

    HUGE = 10**400  # 401 digits: float() of it overflows

    @pytest.mark.parametrize(
        "costs, changes",
        [
            (None, {"offset": float("nan")}),
            ("1 0.5\n", {"offset": float("nan")}),
            ("1 0.5\n", {"constant": float("inf"), "matching_value": float("inf")}),
            ("1 0.5\n", {"constant": HUGE}),
            ("1 0.5\n", {"objective": HUGE}),
            ("1 0.5\n", {"constant": HUGE, "matching_value": 3, "offset": 0.0}),
        ],
        ids=["nan-offset", "weighted-nan-offset", "infinite-certificate",
             "huge-constant", "huge-objective", "huge-constant-and-float"],
    )
    def test_rejects_non_finite_and_huge_numbers(self, capsys, tmp_path, k3_file, costs, changes):
        # json.loads reads NaN and Infinity; float() of a huge integer overflows
        weights = []
        if costs is not None:
            w = tmp_path / "k3.costs"
            w.write_text(costs)
            weights = ["--weights", w]
        rc, out, _ = run(capsys, "solve", k3_file, "--json", *weights)
        assert rc == 0
        doc = json.loads(out)
        assert run(capsys, "verify", k3_file, self.write_solution(tmp_path, doc), *weights)[0] == 0
        for key, value in changes.items():
            target = doc if key == "objective" else doc["certificate"]
            target[key] = value
        rc, out, err = run(capsys, "verify", k3_file, self.write_solution(tmp_path, doc), *weights)
        assert rc == 1
        assert out.startswith("verify: FAIL: ")
        assert "OK" not in out and err == ""

    def test_rejects_light_vertex_listed_twice(self, capsys, tmp_path, k3_file):
        rc, out, _ = run(capsys, "solve", k3_file, "--json")
        doc = json.loads(out)
        assert doc["light"] == [2, 3]
        doc["light"] = [2, 2, 3]
        rc, out, _ = run(capsys, "verify", k3_file, self.write_solution(tmp_path, doc))
        assert rc == 1
        assert out == "verify: FAIL: light names a vertex more than once: [2]\n"

    def test_oracle_is_exact_on_costs_past_int64(self, capsys, tmp_path, k3_file):
        w = tmp_path / "k3.costs"
        w.write_text("1 100000000000000000000\n2 1\n3 1\n")
        rc, out, _ = run(capsys, "solve", k3_file, "--json", "--weights", w)
        assert rc == 0
        sol = tmp_path / "sol.json"
        sol.write_text(out)
        rc, out, err = run(capsys, "verify", k3_file, sol, "--weights", w)
        assert (rc, out, err) == (0, "verify: OK\n", "")

    @pytest.mark.parametrize(
        "change, problem",
        [
            (lambda doc: [doc], "solution must be a JSON object"),
            (lambda doc: {**doc, "objective": "3"}, "objective must be a finite number"),
            (lambda doc: {**doc, "objective": True}, "objective must be a finite number"),
            (lambda doc: {**doc, "light": "1 2 3"}, "light must be a list of integers"),
            (lambda doc: {**doc, "light": [1, "2", 3]}, "light must be a list of integers"),
            (
                lambda doc: {**doc, "orientation": [[1, 2], [2], [3, 1]]},
                "orientation entry 1 must be a [tail, head] pair",
            ),
            (
                lambda doc: {**doc, "orientation": [[1, 2], [2, 3], [3, "1"]]},
                "orientation entry 2 must be a [tail, head] pair",
            ),
            (
                # 1 -> 2, 2 -> 3, 1 -> 3: vertex 1 has out-degree 2
                lambda doc: {**doc, "orientation": [[1, 2], [2, 3], [1, 3]]},
                "light set disagrees with the orientation (not light: [1])",
            ),
        ],
        ids=["not-an-object", "string-objective", "boolean-objective", "light-string",
             "light-non-integer", "short-pair", "non-integer-endpoint", "heavy-vertex-claimed"],
    )
    def test_rejects_malformed_documents(self, capsys, tmp_path, k3_file, change, problem):
        sol = self.write_solution(tmp_path, change(self.cyclic_suboptimal()))
        rc, out, err = run(capsys, "verify", k3_file, sol)
        assert (rc, err) == (1, "")
        assert f"verify: FAIL: {problem}\n" in out

    @pytest.mark.parametrize(
        "changes, problem",
        [
            (
                {"orientation": [[1, 3], [2, 3], [3]]},
                "orientation entry 2 must be a [tail, head] pair",
            ),
            (
                {"objective": "3", "orientation": [[1, 3], [2, 3], [3, 1]]},
                "objective must be a finite number",
            ),
        ],
        ids=["short-pair", "string-objective"],
    )
    def test_shape_problems_hide_a_stray_pair(self, capsys, tmp_path, k3_file, changes, problem):
        # entry 0, [1, 3], is not the endpoints of edge 1 2, but a shape
        # problem anywhere in the document is all that verify reports
        sol = self.write_solution(tmp_path, {**self.cyclic_suboptimal(), **changes})
        rc, out, err = run(capsys, "verify", k3_file, sol)
        assert (rc, out, err) == (1, f"verify: FAIL: {problem}\n", "")

    def test_crlf_files_read_as_their_lf_twins(self, capsys, tmp_path):
        texts = {
            "g.txt": "5 7\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n4 5\n",
            "w.txt": "1 0.5\n2 1.25\n3 2\n4 1\n5 3\n",
        }
        outs = []
        for newline in ("\n", "\r\n"):
            d = tmp_path / repr(newline)
            d.mkdir()
            for name, text in texts.items():
                (d / name).write_bytes(text.replace("\n", newline).encode())
            g, w = d / "g.txt", d / "w.txt"
            rc, out, err = run(capsys, "solve", g, "--weights", w, "--json")
            assert (rc, err) == (0, "")
            outs.append(out)
            sol = d / "sol.json"
            sol.write_bytes(out.replace("\n", newline).encode())
            assert run(capsys, "verify", g, sol, "--weights", w) == (0, "verify: OK\n", "")
        assert outs[0] == outs[1]

    def test_files_with_a_byte_order_mark_read_as_their_unmarked_twins(self, capsys, tmp_path):
        texts = {
            "g.txt": "5 7\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n4 5\n",
            "w.txt": "1 0.5\n2 1.25\n3 2\n4 1\n5 3\n",
        }
        results = []
        for mark in (b"", b"\xef\xbb\xbf"):
            d = tmp_path / f"mark{len(mark)}"
            d.mkdir()
            for name, text in texts.items():
                (d / name).write_bytes(mark + text.encode())
            g, w, plain, weighted = d / "g.txt", d / "w.txt", d / "plain.json", d / "weighted.json"
            got = [
                run(capsys, "solve", g),
                run(capsys, "solve", g, "--json"),
                run(capsys, "solve", g, "--weights", w, "--json"),
            ]
            plain.write_bytes(mark + got[1][1].encode())
            weighted.write_bytes(mark + got[2][1].encode())
            got.append(run(capsys, "verify", g, plain))
            got.append(run(capsys, "verify", g, weighted, "--weights", w))
            results.append(got)
        assert [rc for rc, _, _ in results[0]] == [0] * 5
        assert results[0][3:] == [(0, "verify: OK\n", "")] * 2
        assert results[1] == results[0]

    def test_rejects_missing_keys(self, capsys, tmp_path, k3_file):
        sol = self.write_solution(tmp_path, {"objective": 2})
        rc, out, _ = run(capsys, "verify", k3_file, sol)
        assert rc == 1
        assert "missing key" in out

    def test_unparseable_json_is_usage_error(self, capsys, tmp_path, k3_file):
        sol = tmp_path / "claim.json"
        sol.write_text("{not json")
        rc, _, err = run(capsys, "verify", k3_file, sol)
        assert rc == 2

    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path, k3_file):
        sol = tmp_path / "claim.json"
        sol.write_text("[" * 100_000 + "]" * 100_000)
        rc, out, err = run(capsys, "verify", k3_file, sol)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "nested too deeply" in err


class TestGen:
    def test_stdout_p_zero(self, capsys):
        rc, out, _ = run(capsys, "gen", "5", "0.0", "--seed", "1")
        assert rc == 0
        assert out == "5 0\n"

    def test_p_one_complete(self, capsys):
        rc, out, _ = run(capsys, "gen", "4", "1.0", "--seed", "1")
        assert rc == 0
        assert out.splitlines()[0] == "4 6"

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        assert run(capsys, "gen", "6", "0.4", "--seed", "7", "--out", a)[0] == 0
        assert run(capsys, "gen", "6", "0.4", "--seed", "7", "--out", b)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_weights_file(self, capsys, tmp_path):
        g, w = tmp_path / "g.graph", tmp_path / "w.txt"
        rc, _, _ = run(
            capsys, "gen", "6", "0.4", "--seed", "2",
            "--out", g, "--weights-max", "9", "--weights-out", w,
        )
        assert rc == 0
        weights = parse_weights(w.read_text(), 6)
        assert all(0 <= u <= 9 for u in weights.units)

    def test_weights_max_requires_out_path(self, capsys, tmp_path):
        rc, _, err = run(capsys, "gen", "6", "0.4", "--weights-max", "9")
        assert rc == 2
        assert "--weights-out" in err

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_negative_weights_max_writes_nothing(self, capsys, tmp_path, monkeypatch, to_file):
        monkeypatch.chdir(tmp_path)
        argv = ["gen", "5", "0.5", "--weights-max", "-1", "--weights-out", "w.txt"]
        if to_file:
            argv += ["--out", "g.txt"]
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (2, "", "error: --weights-max must be nonnegative\n")
        assert list(tmp_path.iterdir()) == []

    def test_weights_out_requires_weights_max(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, out, err = run(capsys, "gen", "5", "0.5", "--out", "g.txt", "--weights-out", "w.txt")
        assert (rc, out, err) == (2, "", "error: --weights-out requires --weights-max\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "graph,costs",
        [("nodir/g.txt", "w.txt"), ("g.txt", "nodir/w.txt"), (None, "nodir/w.txt")],
        ids=["graph-fails", "costs-fail", "costs-fail-stdout"],
    )
    def test_unwritable_file_leaves_nothing(self, capsys, tmp_path, monkeypatch, graph, costs):
        # one file that cannot be opened: gen writes neither file nor stdout
        monkeypatch.chdir(tmp_path)
        argv = ["gen", "5", "0.5", "--weights-max", "3", "--weights-out", costs]
        if graph:
            argv += ["--out", graph]
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: [Errno 2] No such file or directory: 'nodir/")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("costs", ["g.txt", "./g.txt"])
    def test_one_file_for_graph_and_costs(self, capsys, tmp_path, monkeypatch, costs):
        monkeypatch.chdir(tmp_path)
        argv = ["gen", "5", "0.5", "--out", "g.txt", "--weights-max", "3", "--weights-out", costs]
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (2, "", "error: --out and --weights-out name the same file\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_existing_file(self, capsys, tmp_path, monkeypatch):
        # the graph is written to a temporary file first; as the costs
        # cannot be written, g.txt keeps its old text and no file is left
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.txt").write_text("old")
        argv = ["gen", "5", "0.5", "--out", "g.txt", "--weights-max", "3"]
        rc, out, err = run(capsys, *argv, "--weights-out", "nodir/w.txt")
        assert (rc, out) == (2, "")
        assert err.startswith("error: [Errno 2] No such file or directory: 'nodir/w.txt")
        assert (tmp_path / "g.txt").read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_refuses_a_path_that_is_not_a_regular_file(self, capsys, tmp_path, monkeypatch):
        # renaming over a pipe or a device would replace it
        monkeypatch.chdir(tmp_path)
        os.mkfifo("pipe")
        rc, out, err = run(capsys, "gen", "5", "0.5", "--out", "pipe")
        assert (rc, out, err) == (2, "", "error: pipe exists and is not a regular file\n")
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]
        assert not (tmp_path / "pipe").is_file()

    def test_replaces_existing_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.txt").write_text("old")
        (tmp_path / "w.txt").write_text("old")
        argv = ["gen", "5", "0.5", "--out", "g.txt", "--weights-max", "3", "--weights-out", "w.txt"]
        assert run(capsys, *argv) == (0, "", "")
        assert parse_graph((tmp_path / "g.txt").read_text()).n == 5
        assert len(parse_weights((tmp_path / "w.txt").read_text(), 5)) == 5
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "w.txt"]

    def test_invalid_probability(self, capsys):
        rc, _, err = run(capsys, "gen", "6", "1.7")
        assert rc == 2

    @pytest.mark.parametrize("argv", [("gen", MAX_VERTICES + 1, "0")])
    def test_vertex_count_above_the_limit_draws_nothing(self, capsys, monkeypatch, argv):
        # solve would refuse the header, so the quadratic draw must not start
        def no_draw(self):
            raise AssertionError("the generator was stepped")

        monkeypatch.setattr(SplitMix64, "next_u64", no_draw)
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == f"error: {MAX_VERTICES + 1} vertices exceed the limit of {MAX_VERTICES}\n"

    def test_weights_max_of_2_64_draws_nothing(self, capsys, tmp_path, monkeypatch):
        # a cost is drawn from one 64-bit word: a larger range is refused
        # before the draw, which would otherwise never end
        def no_draw(self):
            raise AssertionError("the generator was stepped")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(SplitMix64, "next_u64", no_draw)
        argv = ["gen", "3", "1", "--weights-max", str(1 << 64), "--weights-out", "w.txt"]
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (2, "", "error: --weights-max must be below 2**64\n")
        assert list(tmp_path.iterdir()) == []

    def test_weights_max_of_2_64_minus_1_draws_whole_words(self, capsys, tmp_path, monkeypatch):
        # the widest range gen takes: each cost is one generator word
        monkeypatch.chdir(tmp_path)
        argv = ["gen", "3", "1", "--weights-max", str((1 << 64) - 1), "--weights-out", "w.txt"]
        assert run(capsys, *argv) == (0, "3 3\n1 2\n1 3\n2 3\n", "")
        assert (tmp_path / "w.txt").read_text() == (
            "1 10451216379200822465\n2 13757245211066428519\n3 17911839290282890590\n"
        )


TOP_USAGE = "usage: orientlight [-h] {solve,verify,gen} ...\n"
SOLVE_USAGE = (
    "usage: orientlight solve [-h] [--weights WEIGHTS] [--json]\n"
    "                         [--dump-reduction PATH]\n"
    "                         graph\n"
)

# exit code, stdout and stderr of main(argv.split()), argparse wrapping at 80 columns
PINNED = {
    "": (2, "", TOP_USAGE + "orientlight: error: the following arguments are required: command\n"),
    "--help": (
        0,
        TOP_USAGE
        + "\n"
        "Orient every edge of a graph so that as few vertices as possible (or as little\n"
        "total cost as possible) end up with out-degree at most 1.\n"
        "\n"
        "positional arguments:\n"
        "  {solve,verify,gen}\n"
        "    solve             solve one instance\n"
        "    verify            check a solution document against its instance\n"
        "    gen               generate a reproducible random instance\n"
        "\n"
        "options:\n"
        "  -h, --help          show this help message and exit\n",
        "",
    ),
    "frobnicate": (
        2,
        "",
        TOP_USAGE
        + "orientlight: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'solve', 'verify', 'gen')\n",
    ),
    "bench": (
        2,
        "",
        TOP_USAGE
        + "orientlight: error: argument command: invalid choice: 'bench' "
        "(choose from 'solve', 'verify', 'gen')\n",
    ),
    "solve": (
        2,
        "",
        SOLVE_USAGE + "orientlight solve: error: the following arguments are required: graph\n",
    ),
    "solve g --bogus": (
        2,
        "",
        TOP_USAGE + "orientlight: error: unrecognized arguments: --bogus\n",
    ),
    "solve --help": (
        0,
        SOLVE_USAGE
        + "\n"
        "positional arguments:\n"
        "  graph                 graph file: 'n m' header, then 'u v' lines, 1-based\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --weights WEIGHTS     per-vertex cost file: 'v cost' lines, default 1\n"
        "  --json                emit the solution as JSON\n"
        "  --dump-reduction PATH\n"
        "                        also write the gadget graph to PATH and its\n"
        "                        bookkeeping to PATH.json\n",
        "",
    ),
    "verify g": (
        2,
        "",
        "usage: orientlight verify [-h] [--weights WEIGHTS] graph solution\n"
        "orientlight verify: error: the following arguments are required: solution\n",
    ),
    "gen x 0.5": (
        2,
        "",
        "usage: orientlight gen [-h] [--seed SEED] [--out OUT]\n"
        "                       [--weights-max WEIGHTS_MAX] [--weights-out WEIGHTS_OUT]\n"
        "                       n p\n"
        "orientlight gen: error: argument n: invalid int value: 'x'\n",
    ),
}


class TestMainPlumbing:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("argv", PINNED, ids=[a or "no-arguments" for a in PINNED])
    def test_pinned_messages(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *argv.split()) == PINNED[argv]

    def test_module_entry_point(self, tmp_path, k3_file):
        # python -m orientlight.cli: main() reads its arguments from sys.argv
        env = module_env()

        def cli(*argv):
            done = subprocess.run(
                [sys.executable, "-m", "orientlight.cli", *map(str, argv)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            return done.returncode, done.stdout, done.stderr

        code, out, err = cli("solve", k3_file, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["objective"] == 2
        sol = tmp_path / "sol.json"
        sol.write_text(out)
        assert cli("verify", k3_file, sol) == (0, "verify: OK\n", "")
        assert cli("frobnicate") == PINNED["frobnicate"]

    def test_closed_stdout_is_not_a_usage_error(self, capsys, monkeypatch, k3_file):
        # a reader that stops early: exit 1 with nothing on stderr, and an
        # in-process call leaves file descriptor 1 where it was
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        before = os.fstat(1)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["solve", str(k3_file)]) == 1
        assert capsys.readouterr().err == ""
        after = os.fstat(1)
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)

    def test_closed_stdout_exits_1_quietly_as_a_process(self, tmp_path):
        # `orientlight solve big.graph | head -1`: the solution (about
        # 170 KB) overflows the pipe buffer, so the write is still pending
        # when the reader closes its end
        g = tmp_path / "big.graph"
        assert main(["gen", "400", "0.2", "--seed", "3", "--out", str(g)]) == 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "orientlight.cli", "solve", str(g)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
        )
        assert proc.stdout.readline() == b"objective: 0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, b"")

    def test_repeated_calls_share_no_flags(self, capsys, tmp_path, k3_file):
        # one process, several main() calls: no flag or default of one
        # call may leak into the next
        w = tmp_path / "w.txt"
        w.write_text("1 3\n2 3\n3 3\n")
        sol_w = tmp_path / "sol_w.json"
        rc, out, _ = run(capsys, "solve", k3_file, "--weights", w, "--json")
        assert rc == 0
        assert json.loads(out)["objective"] == 6
        sol_w.write_text(out)

        rc, out, _ = run(capsys, "solve", k3_file)
        assert rc == 0
        assert out.startswith("objective: 2\n")

        rc, out, _ = run(capsys, "verify", k3_file, sol_w)
        assert rc == 1
        assert "objective 6 disagrees" in out
        rc, out, _ = run(capsys, "verify", k3_file, sol_w, "--weights", w)
        assert rc == 0
        assert out == "verify: OK\n"

        rc, out, _ = run(capsys, "solve", k3_file, "--json")
        assert rc == 0
        assert json.loads(out)["objective"] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2
