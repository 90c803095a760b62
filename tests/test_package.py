"""The package root: the names it exports and the modules it loads."""

import os
import subprocess
import sys

import pytest

import orientlight
from orientlight import _record, cli, generate, graph, matching, oracle, reduction, solver

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
    "module", [_record, cli, generate, graph, matching, oracle, reduction, solver],
    ids=lambda m: m.__name__,
)
def test_every_module_name_resolves(module):
    for name in module.__all__:
        getattr(module, name)
