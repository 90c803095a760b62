"""The package root: the names it exports and the modules it loads."""

import contextlib
import io
import os
import subprocess
import sys

import pytest

import orientlight
from orientlight import (
    _record,
    _weighted,
    cli,
    generate,
    graph,
    matching,
    oracle,
    reduction,
    solver,
)

SOLVE_API = [
    "Certificate",
    "Graph",
    "Orientation",
    "Solution",
    "SolveStats",
    "VertexWeights",
    "parse_graph",
    "parse_weights",
    "solve_min_light",
    "solve_with_stats",
]


@pytest.fixture(scope="module")
def library_modules():
    """Modules a fresh interpreter holds after importing the package
    alone and solving K3, unweighted and weighted."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(orientlight.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, orientlight\n"
        "g = orientlight.Graph(3, ((0, 1), (1, 2), (0, 2)))\n"
        "assert orientlight.solve_min_light(g).objective == 2\n"
        "w = orientlight.VertexWeights((5, 10, 10), 10)\n"
        "assert orientlight.solve_min_light(g, w).objective == 1.5\n"
        "print(' '.join(sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return set(out.stdout.split())


@pytest.mark.parametrize(
    "module", ["orientlight.oracle", "orientlight.generate", "numpy", "dataclasses", "inspect"]
)
def test_a_library_solve_does_not_load(library_modules, module):
    # the solve path calls neither the oracle nor the generator
    assert "orientlight.solver" in library_modules
    assert "orientlight.cli" not in library_modules
    assert module not in library_modules


def test_the_root_exports_the_solve_api():
    assert sorted(orientlight.__all__) == SOLVE_API
    for name in SOLVE_API:
        getattr(orientlight, name)


@pytest.mark.parametrize(
    "module", [_record, _weighted, cli, generate, graph, matching, oracle, reduction, solver],
    ids=lambda m: m.__name__,
)
def test_every_module_name_resolves(module):
    for name in module.__all__:
        getattr(module, name)


def fresh_modules(code: str, cwd=None) -> set[str]:
    """Modules a fresh interpreter holds after running code in cwd; code
    may print lines of its own before the module list."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(orientlight.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(' '.join(sys.modules))\n"],
        cwd=cwd, env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return set(out.stdout.splitlines()[-1].split())


K3_TEXT = "3 3\n1 2\n2 3\n1 3\n"


@pytest.fixture(scope="module")
def unweighted_modules():
    """After importing the package, parsing K3 and solving it without
    costs and with equal whole costs."""
    return fresh_modules(
        "import orientlight\n"
        f"g = orientlight.parse_graph({K3_TEXT!r})\n"
        "assert orientlight.solve_min_light(g).objective == 2\n"
        "w = orientlight.parse_weights('1 4\\n2 4\\n3 4\\n', 3)\n"
        "assert orientlight.solve_min_light(g, w).objective == 8\n"
    )


@pytest.mark.parametrize("module", ["orientlight._weighted", "fractions", "decimal"])
def test_an_unweighted_solve_does_not_load(unweighted_modules, module):
    assert "orientlight.solver" in unweighted_modules
    assert module not in unweighted_modules


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    """K3 with mixed whole costs and its solution document, k3.json, and
    the unweighted solution document, k3.plain.json."""
    d = tmp_path_factory.mktemp("k3")
    (d / "k3.txt").write_text(K3_TEXT)
    (d / "k3.costs").write_text("1 1\n2 2\n3 3\n")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        argv = ["solve", str(d / "k3.txt"), "--weights", str(d / "k3.costs"), "--json"]
        assert cli.main(argv) == 0
    (d / "k3.json").write_text(out.getvalue())
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["solve", str(d / "k3.txt"), "--json"]) == 0
    (d / "k3.plain.json").write_text(out.getvalue())
    return d


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "k3.txt", "--json"],
        ["verify", "k3.txt", "k3.json", "--weights", "k3.costs"],
        ["gen", "6", "0.5", "--out", "g.txt", "--weights-max", "9", "--weights-out", "g.costs"],
    ],
    ids=["solve", "verify", "gen"],
)
def test_the_command_line_does_not_load_the_weighted_engine(instance_files, argv):
    # verify checks a weighted document with the exhaustive oracle, not
    # the solver, and gen draws an instance without solving it
    modules = fresh_modules(
        f"from orientlight import cli\nassert cli.main({argv!r}) == 0\n", cwd=instance_files
    )
    assert "orientlight.cli" in modules
    assert "orientlight._weighted" not in modules


@pytest.mark.parametrize(
    "argv", [["solve", "k3.txt", "--json"], ["solve", "k3.txt"]], ids=["json", "text"]
)
def test_solve_on_the_command_line_loads_neither_json_nor_fractions(instance_files, argv):
    modules = fresh_modules(
        f"from orientlight import cli\nassert cli.main({argv!r}) == 0\n", cwd=instance_files
    )
    assert "orientlight.cli" in modules
    assert not {"json", "fractions", "decimal"} & modules


def test_an_unweighted_verify_does_not_load_fractions(instance_files):
    # a document without decimal literals reads no number as a Fraction
    argv = ["verify", "k3.txt", "k3.plain.json"]
    modules = fresh_modules(
        f"from orientlight import cli\nassert cli.main({argv!r}) == 0\n", cwd=instance_files
    )
    assert "json" in modules
    assert not {"fractions", "decimal"} & modules


def test_a_mixed_cost_solve_loads_the_weighted_engine_and_not_fractions():
    modules = fresh_modules(
        "import orientlight\n"
        f"g = orientlight.parse_graph({K3_TEXT!r})\n"
        "w = orientlight.VertexWeights((1, 2, 3))\n"
        "assert orientlight.solve_min_light(g, w).objective == 3\n"
    )
    assert "orientlight._weighted" in modules
    assert "fractions" not in modules


def test_a_non_whole_objective_loads_fractions():
    modules = fresh_modules(
        "import orientlight\n"
        f"g = orientlight.parse_graph({K3_TEXT!r})\n"
        "w = orientlight.VertexWeights((5, 10, 10), 10)\n"
        "assert str(orientlight.solve_min_light(g, w).objective) == '3/2'\n"
    )
    assert "fractions" in modules


def test_the_matching_module_exports_the_weighted_engine_itself():
    assert matching.max_weight_matching is _weighted.max_weight_matching
    assert "max_weight_matching" in vars(matching)
