"""Test-only helpers: the matching oracle, the gadget normalizer and
the child interpreter.

None runs on any solve path or command.  brute_force_max_matching is
the ground truth the matching engines are checked against,
normalize_gadget_matching is the per-gadget step of the optimality
argument, checked here on the matchings the engines return, and
run_python starts every interpreter the tests spawn.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import orientlight
from orientlight.graph import Graph
from orientlight.matching import Matching
from orientlight.oracle import BudgetExceededError
from orientlight.reduction import ReducedGraph
from orientlight.solver import _gadget_fill

# the environment of a child interpreter: this checkout's package on its
# path, and argparse's help text wrapped at a fixed width
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(orientlight.__file__).parents[1]), COLUMNS="80")


def run_python(*args, cwd=None, check=True) -> subprocess.CompletedProcess:
    """Runs a fresh interpreter with args in cwd and CHILD_ENV, its
    output captured as text; with check, a nonzero exit raises."""
    return subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=cwd, env=CHILD_ENV, capture_output=True, text=True, check=check, timeout=60,
    )


def normalize_gadget_matching(r: ReducedGraph, m: Matching, v: int) -> Matching:
    """Rebalances the matching inside one gadget, leaving the rest alone.

    With k matched side edges at core vertex v of degree d and demand b,
    the result holds exactly d - 1 + [k >= b] matched edges among v's
    gadget and side edges: v meets its demand in the core orientation
    read off the matching exactly when its gadget holds d edges.  A
    gadget that already holds that many is returned unchanged, as a
    maximum matching's always is; otherwise v's gadget and parity edges
    are swapped for _gadget_fill's, which keeps every side edge.
    Requires a maximal matching.  With every gadget normalized, the
    matching's weight is Q (2m at unit costs) minus the core's light
    total; the vertices the kernel removed are already settled, since
    the tails it fixed never hurt a core vertex and their own status was
    fixed when removed.
    """
    core = r.core
    if not 0 <= v < core.n:
        raise ValueError(f"vertex {v} out of range 0..{core.n - 1}")
    if len(m.mate) != r.gprime.n:
        raise ValueError("matching does not belong to the gadget graph")
    mate = m.mate
    bucket = r.gadget_bucket(v)
    for eid in bucket:
        a, b = r.gprime.edges[eid]
        if mate[a] == -1 and mate[b] == -1:
            raise ValueError(
                f"matching is not maximal: edge {eid} near vertex {v} could be added"
            )
    matched = m.matched_edge_ids
    sides = r.side_edges(v)
    free = [j for j, eid in enumerate(sides) if eid not in matched]
    expected = core.degree(v) - 1 + (core.degree(v) - len(free) >= r.demand[v])
    out = m
    if sum(1 for eid in bucket if eid in matched) != expected:
        internal = set(bucket).difference(sides)
        out = Matching.from_edge_ids(
            r.gprime, (matched - internal).union(_gadget_fill(r, v, free))
        )
    got = sum(1 for eid in bucket if eid in out.matched_edge_ids)
    if got != expected:
        raise RuntimeError(
            f"internal error: gadget of vertex {v} holds {got} matched edges, "
            f"expected {expected} (n={core.n}, m={core.m})"
        )
    return out


def brute_force_max_matching(
    g: Graph,
    edge_weights=None,
    max_edges: int = 18,
) -> Matching:
    """Exact optimum matching by enumerating independent edge subsets.

    Maximizes total weight; without edge_weights every edge weighs 1.
    Graphs with more than max_edges edges are refused.  Shares no
    algorithmic code with the matching module.
    """
    if g.m > max_edges:
        raise BudgetExceededError(f"{g.m} edges exceeds the matching oracle cap of {max_edges}")
    if edge_weights is None:
        edge_weights = (1,) * g.m
    if len(edge_weights) != g.m:
        raise ValueError(f"{len(edge_weights)} weights for {g.m} edges")
    for e, w in enumerate(edge_weights):
        if type(w) is not int:  # a bool would pass as the int 0 or 1
            raise ValueError(f"edge weight {w!r} at id {e} is not an integer")
        if w < 0:
            raise ValueError("negative edge weight")
    best_value = -1
    best_ids: tuple[int, ...] = ()
    used = bytearray(g.n)
    chosen: list[int] = []

    def explore(e: int, value: int) -> None:
        nonlocal best_value, best_ids
        if e == g.m:
            if value > best_value:
                best_value = value
                best_ids = tuple(chosen)
            return
        explore(e + 1, value)
        u, v = g.edges[e]
        if not used[u] and not used[v]:
            used[u] = used[v] = 1
            chosen.append(e)
            explore(e + 1, value + edge_weights[e])
            chosen.pop()
            used[u] = used[v] = 0

    explore(0, 0)
    return Matching.from_edge_ids(g, best_ids)
