"""End-to-end CLI behavior through main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orientlight
from orientlight import parse_graph, parse_weights
from orientlight.cli import main

K3_TEXT = "3 3\n1 2\n2 3\n1 3\n"


@pytest.fixture
def k3_file(tmp_path):
    p = tmp_path / "k3.graph"
    p.write_text(K3_TEXT)
    return p


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

    def test_no_oracle_accepts_consistent_claim(self, capsys, tmp_path, k3_file):
        sol = self.write_solution(tmp_path, self.cyclic_suboptimal())
        rc, out, _ = run(capsys, "verify", k3_file, sol, "--no-oracle")
        assert rc == 0

    def test_budget_skip_notes_and_passes(self, capsys, tmp_path, k3_file, monkeypatch):
        monkeypatch.setenv("ORIENT_LIGHT_ORACLE_BUDGET", "1,1")
        sol = self.write_solution(tmp_path, self.cyclic_suboptimal())
        rc, out, _ = run(capsys, "verify", k3_file, sol)
        assert rc == 0
        assert "optimality not checked" in out

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

    def test_invalid_probability(self, capsys):
        rc, _, err = run(capsys, "gen", "6", "1.7")
        assert rc == 2


class TestBench:
    def test_two_rows(self, capsys):
        rc, out, _ = run(capsys, "bench", "n=10,m=15;n=12,m=20")
        assert rc == 0
        rows = out.strip().splitlines()
        assert len(rows) == 2
        assert all("objective=" in row for row in rows)
        assert all("core_n=" in row for row in rows)

    def test_deterministic(self, capsys):
        args = ("bench", "n=9,m=14", "--seed", "5")
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0
        # timings vary between runs; objectives must not
        obj1 = [row.split("objective=")[1] for row in out1.strip().splitlines()]
        obj2 = [row.split("objective=")[1] for row in out2.strip().splitlines()]
        assert obj1 == obj2

    def test_bad_schedule(self, capsys):
        rc, _, err = run(capsys, "bench", "n=10")
        assert rc == 2
        assert "schedule" in err

    def test_weighted_rows(self, capsys):
        rc, out, _ = run(capsys, "bench", "n=10,m=15;n=12,m=20;n=8,m=12", "--weights-max", "9")
        assert rc == 0
        rows = out.strip().splitlines()
        assert len(rows) == 3
        assert all("objective=" in row for row in rows)

    def test_weighted_matches_solve_on_gen_instance(self, capsys, tmp_path):
        # bench entry i uses the graph and costs gen draws from seed S + i
        rc, out, _ = run(capsys, "bench", "n=9,m=36;n=9,m=36", "--seed", "4", "--weights-max", "7")
        assert rc == 0
        bench_objective = out.strip().splitlines()[1].split("objective=")[1].split()[0]
        g, w = tmp_path / "g.graph", tmp_path / "w.txt"
        rc, _, _ = run(
            capsys, "gen", "9", "1", "--seed", "5", "--out", g,
            "--weights-max", "7", "--weights-out", w,
        )
        assert rc == 0
        rc, out, _ = run(capsys, "solve", g, "--weights", w, "--json")
        assert rc == 0
        assert str(json.loads(out)["objective"]) == bench_objective

    def test_negative_weights_max_is_usage_error(self, capsys):
        rc, out, err = run(capsys, "bench", "n=10,m=15", "--weights-max", "-1")
        assert rc == 2
        assert out == ""
        assert "--weights-max" in err


TOP_USAGE = "usage: orientlight [-h] {solve,verify,gen,bench} ...\n"
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
        "  {solve,verify,gen,bench}\n"
        "    solve               solve one instance\n"
        "    verify              check a solution document against its instance\n"
        "    gen                 generate a reproducible random instance\n"
        "    bench               time the solver on random instances\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    ),
    "frobnicate": (
        2,
        "",
        TOP_USAGE
        + "orientlight: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'solve', 'verify', 'gen', 'bench')\n",
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
        "usage: orientlight verify [-h] [--weights WEIGHTS] [--no-oracle]\n"
        "                          graph solution\n"
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
        src = str(Path(orientlight.__file__).parents[1])
        env = dict(os.environ, COLUMNS="80")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

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
