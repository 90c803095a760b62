"""Shared instance builders and helpers for the test suite."""

from __future__ import annotations

import pytest

from orientlight import Graph
from orientlight.generate import SplitMix64, random_graph
from orientlight.matching import Matching
from orientlight.reduction import build_gprime


def complete_graph(k: int) -> Graph:
    return Graph(k, tuple((i, j) for i in range(k) for j in range(i + 1, k)))


def cycle_graph(k: int) -> Graph:
    return Graph(k, tuple((i, (i + 1) % k) for i in range(k)))


def path_graph(k: int) -> Graph:
    return Graph(k, tuple((i, i + 1) for i in range(k - 1)))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def wheel_graph(spokes: int) -> Graph:
    """A hub, vertex 0, joined to every vertex of a cycle 1..spokes."""
    hub = [(0, i) for i in range(1, spokes + 1)]
    rim = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    return Graph(spokes + 1, tuple(hub + rim))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(outer + spokes + inner))


@pytest.fixture
def k3() -> Graph:
    return complete_graph(3)


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def c4() -> Graph:
    return cycle_graph(4)


@pytest.fixture
def c5() -> Graph:
    return cycle_graph(5)


@pytest.fixture
def p2() -> Graph:
    return Graph(2, ((0, 1),))


@pytest.fixture
def star13() -> Graph:
    return star_graph(3)


def forbid_draws(monkeypatch) -> None:
    """Makes any later step of the generator fail the test."""

    def stepped(self):
        raise AssertionError("the generator was stepped")

    monkeypatch.setattr(SplitMix64, "next_u64", stepped)


def one_sided_mates(monkeypatch) -> None:
    """Makes Matching.from_mate see every mate with the partner of its
    first matched vertex left exposed, as an engine that forgot one end
    of a matched edge would hand it over."""
    real = Matching.from_mate.__func__

    def one_sided(cls, g, mate):
        mate = list(mate)
        v = next(v for v, w in enumerate(mate) if w != -1)
        mate[mate[v]] = -1
        return real(cls, g, mate)

    monkeypatch.setattr(Matching, "from_mate", classmethod(one_sided))


def two_core(g: Graph) -> Graph:
    """The largest subgraph of minimum degree 2, relabeled in vertex order.

    Edges keep their relative order.  Built independently of the
    solver's kernel, which keeps demand-1 vertices that this drops.
    """
    alive = [True] * g.n
    deg = [g.degree(v) for v in range(g.n)]
    stack = [v for v in range(g.n) if deg[v] < 2]
    for v in stack:
        alive[v] = False
    while stack:
        v = stack.pop()
        for e in g.adjacency[v]:
            w = sum(g.edges[e]) - v  # e's other end
            deg[w] -= 1
            if alive[w] and deg[w] < 2:
                alive[w] = False
                stack.append(w)
    new_id = {}
    for v in range(g.n):
        if alive[v]:
            new_id[v] = len(new_id)
    edges = tuple(
        (new_id[u], new_id[v]) for u, v in g.edges if alive[u] and alive[v]
    )
    return Graph(len(new_id), edges)


def random_core(n: int, p: float, seed: int) -> Graph | None:
    """The 2-core of a random graph when build_gprime keeps all of it.

    None when the 2-core has no edges, or when the flow kernel settles
    part of it, so the gadget tests that draw here always see the
    paper's gadget over a whole core of minimum degree 2.  Sparse draws,
    average degree about 3, are kept whole nine times in ten.
    """
    core = two_core(random_graph(n, p, seed))
    if not core.m or build_gprime(core).core != core:
        return None
    return core


def size_formulas(r) -> tuple[int, int]:
    """|V'| and |E'| of the banded gadget graph from its core and demands."""
    deg = [r.core.degree(c) for c in range(r.core.n)]
    return (
        5 * r.core.m - sum(r.demand),
        2 * r.core.m + sum((b + 1) * (d - b) + (b == 2) for d, b in zip(deg, r.demand)),
    )


def random_maximal_matching(g: Graph, seed: int) -> Matching:
    """Greedy matching over a seeded Fisher-Yates shuffle of the edge ids."""
    order = list(range(g.m))
    rng = SplitMix64(seed)
    for i in range(g.m - 1, 0, -1):
        j = rng.next_below(i + 1)
        order[i], order[j] = order[j], order[i]
    mate = [-1] * g.n
    ids = []
    for e in order:
        u, v = g.edges[e]
        if mate[u] == -1 and mate[v] == -1:
            mate[u] = v
            mate[v] = u
            ids.append(e)
    return Matching(frozenset(ids), tuple(mate))


def alternating_augmenting_path_exists(g: Graph, m: Matching) -> bool:
    """Exhaustive search for an augmenting path, independent of the engine.

    Explores every simple alternating path from every exposed vertex.
    Exponential, so only usable on small graphs; by Berge's theorem a
    matching is maximum iff this returns False.
    """
    mate = m.mate
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)

    def walk(v: int, visited: frozenset[int]) -> bool:
        # v is the current endpoint; the next step must use an unmatched edge
        for w in adj[v]:
            if w in visited or mate[v] == w:
                continue
            if mate[w] == -1:
                return True
            x = mate[w]
            if x in visited:
                continue
            if walk(x, visited | {w, x}):
                return True
        return False

    return any(walk(v, frozenset([v])) for v, w in enumerate(mate) if w == -1)
