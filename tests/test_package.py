"""The package root: the names it exports, and the modules each run loads."""

import contextlib
import functools
import io

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
from support import run_python

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


def test_solver_and_oracle_export_only_what_the_package_runs():
    # the gadget normalizer and the matching oracle live in tests/support.py
    assert solver.__all__ == [
        "Certificate",
        "Solution",
        "SolveStats",
        "matching_from_orientation",
        "recover_orientation",
        "solve_min_light",
        "solve_with_stats",
    ]
    assert oracle.__all__ == ["BudgetExceededError", "brute_force_min_light"]
    assert not hasattr(solver, "normalize_gadget_matching")
    assert not hasattr(oracle, "brute_force_max_matching")
    assert not hasattr(oracle, "Matching")


K3_TEXT = "3 3\n1 2\n2 3\n1 3\n"
LIBRARY = f"import orientlight\ng = orientlight.parse_graph({K3_TEXT!r})\n"


def cli_runs(*argvs) -> str:
    """Code that runs main() on each argv in turn, each to exit 0."""
    return "from orientlight import cli\n" + "".join(
        f"assert cli.main({argv!r}) == 0\n" for argv in argvs
    )


# a solve, through the library or `solve`, calls neither the oracle nor
# the generator, and the value types are built by orientlight._record,
# not dataclasses, which would pull in inspect
SOLVE_SKIPS = ["orientlight.oracle", "orientlight.generate", "numpy", "dataclasses", "inspect"]
LIBRARY_SKIPS = ["orientlight.cli", *SOLVE_SKIPS]
WHOLE_SKIPS = ["fractions", "decimal"]

# each run, in a fresh interpreter in instance_files' directory: its
# code, the modules it must load and the modules it must not
RUNS = {
    # without costs or with equal whole costs: no weighted engine, and
    # every total whole
    "library-unweighted": (
        LIBRARY + "assert orientlight.solve_min_light(g).objective == 2\n"
        "w = orientlight.parse_weights('1 4\\n2 4\\n3 4\\n', 3)\n"
        "assert orientlight.solve_min_light(g, w).objective == 8\n",
        ["orientlight.solver"],
        ["orientlight._weighted", *WHOLE_SKIPS, *LIBRARY_SKIPS],
    ),
    "library-mixed-cost": (
        LIBRARY + "w = orientlight.VertexWeights((1, 2, 3))\n"
        "assert orientlight.solve_min_light(g, w).objective == 3\n",
        ["orientlight._weighted"],
        ["fractions", *LIBRARY_SKIPS],
    ),
    "library-non-whole": (
        LIBRARY + "w = orientlight.VertexWeights((5, 10, 10), 10)\n"
        "assert str(orientlight.solve_min_light(g, w).objective) == '3/2'\n",
        ["orientlight.solver", "fractions"],
        LIBRARY_SKIPS,
    ),
    # solve writes its output without json, and reads no number as a Fraction
    "solve-json": (
        cli_runs(["solve", "k3.txt", "--json"]),
        ["orientlight.cli"],
        ["orientlight._weighted", "json", *WHOLE_SKIPS, *SOLVE_SKIPS],
    ),
    "solve-text": (
        cli_runs(["solve", "k3.txt"]),
        ["orientlight.cli"],
        ["orientlight._weighted", "json", *WHOLE_SKIPS, *SOLVE_SKIPS],
    ),
    "solve-non-whole": (
        cli_runs(["solve", "k3.txt", "--weights", "k3.halves"]),
        ["orientlight.cli"],
        SOLVE_SKIPS,
    ),
    # verify checks a document with the exhaustive oracle, not the
    # solver, and the oracle needs no numpy; a document without decimal
    # literals reads no number as a Fraction
    "verify-unweighted": (
        cli_runs(["verify", "k3.txt", "k3.plain.json"]),
        ["orientlight.cli", "orientlight.oracle", "json"],
        ["orientlight._weighted", "numpy", *WHOLE_SKIPS],
    ),
    "verify-weighted": (
        cli_runs(
            ["verify", "k3.txt", "k3.json", "--weights", "k3.costs"],
            ["verify", "k3.txt", "k3.halves.json", "--weights", "k3.halves"],
        ),
        ["orientlight.cli", "orientlight.oracle"],
        ["orientlight._weighted", "numpy"],
    ),
    # with every numpy import made to fail, solve and verify still pass
    "verify-numpy-blocked": (
        "import sys\nsys.modules['numpy'] = None\n"
        + cli_runs(
            ["solve", "k3.txt", "--json"],
            ["solve", "k3.txt", "--weights", "k3.halves", "--json"],
            ["verify", "k3.txt", "k3.plain.json"],
            ["verify", "k3.txt", "k3.halves.json", "--weights", "k3.halves"],
        ),
        ["orientlight.cli", "orientlight.oracle"],
        [],
    ),
    # gen draws an instance without solving it
    "gen": (
        cli_runs(
            ["gen", "6", "0.5", "--out", "g.txt", "--weights-max", "9", "--weights-out", "g.costs"]
        ),
        ["orientlight.cli", "orientlight.generate"],
        ["orientlight._weighted"],
    ),
}
LOADS = [(run, m) for run, (_, loads, _) in RUNS.items() for m in loads]
SKIPS = [(run, m) for run, (_, _, skips) in RUNS.items() for m in skips]


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    """K3, k3.txt, with mixed whole costs, k3.costs, and with non-whole
    costs, k3.halves, and the solution document of each: k3.plain.json,
    k3.json and k3.halves.json."""
    d = tmp_path_factory.mktemp("k3")
    (d / "k3.txt").write_text(K3_TEXT)
    (d / "k3.costs").write_text("1 1\n2 2\n3 3\n")
    (d / "k3.halves").write_text("1 0.5\n2 1\n3 1\n")
    docs = {"k3.plain.json": None, "k3.json": "k3.costs", "k3.halves.json": "k3.halves"}
    for doc, costs in docs.items():
        argv = ["solve", str(d / "k3.txt"), "--json"]
        if costs:
            argv += ["--weights", str(d / costs)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        (d / doc).write_text(out.getvalue())
    return d


@pytest.fixture(scope="module")
def loaded(instance_files):
    """The modules a run of RUNS leaves loaded, each run made once."""

    @functools.cache
    def modules(run: str) -> frozenset[str]:
        code = RUNS[run][0] + "import sys\nprint(' '.join(sys.modules))\n"
        out = run_python("-c", code, cwd=instance_files).stdout
        return frozenset(out.splitlines()[-1].split())

    return modules


@pytest.mark.parametrize("run,module", LOADS, ids=[f"{r}-{m}" for r, m in LOADS])
def test_the_run_loads(loaded, run, module):
    assert module in loaded(run)


@pytest.mark.parametrize("run,module", SKIPS, ids=[f"{r}-{m}" for r, m in SKIPS])
def test_the_run_does_not_load(loaded, run, module):
    assert module not in loaded(run)


def test_the_matching_module_exports_the_weighted_engine_itself():
    assert matching.max_weight_matching is _weighted.max_weight_matching
    assert "max_weight_matching" in vars(matching)
