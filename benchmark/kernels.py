"""Fixed reference kernels that read the host's current speed.

Each timed operation of the benchmark runs next to one of these kernels.
A time at reference host speed is the raw time multiplied by the
kernel's nominal time and divided by the kernel time measured alongside
it.  Each kernel resembles the hot loop of the workloads it normalises,
so that the host's slow phases slow the kernel as they slow the program.

The kernels and their nominal times are frozen: changing either changes
every normalised figure, so a later change to the program must not touch
them.  Nominal times are the best times read on the reference host
(2 vCPU, Python 3.11, networkx 3.6).
"""

from __future__ import annotations

import json
import subprocess
import sys
from time import perf_counter

_U64 = (1 << 64) - 1


def _stream(seed: int):
    """splitmix64 stream; kept here so the kernels depend on nothing else."""
    state = seed & _U64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _U64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        yield z ^ (z >> 31)


def _random_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    rnd = _stream(seed)
    seen: set[tuple[int, int]] = set()
    edges = []
    while len(edges) < m:
        u, v = next(rnd) % n, next(rnd) % n
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((min(u, v), max(u, v)))
    return edges


class BfsKernel:
    """Breadth-first searches over a fixed sparse graph in indexed lists.

    Resembles the cardinality blossom engine: list-indexed label and
    parent arrays, a queue list, and an adjacency scan per vertex.
    """

    name = "bfs"
    nominal_s = 0.0110

    def __init__(self) -> None:
        n = 3000
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in _random_edges(n, 3 * n, 0xB5):
            adj[u].append(v)
            adj[v].append(u)
        self._adj = adj
        self._dist = [-1] * n
        self._queue = [0] * n

    def run(self) -> int:
        adj, dist, queue = self._adj, self._dist, self._queue
        reached = 0
        for root in range(0, 3000, 300):
            for i in range(len(dist)):
                dist[i] = -1
            dist[root] = 0
            queue[0] = root
            head, tail = 0, 1
            while head < tail:
                v = queue[head]
                head += 1
                dv = dist[v] + 1
                for w in adj[v]:
                    if dist[w] < 0:
                        dist[w] = dv
                        queue[tail] = w
                        tail += 1
            reached += tail
        return reached


class NxMatchingKernel:
    """networkx max_weight_matching on a fixed small weighted graph.

    Resembles the weighted blossom engine: the same primal-dual method,
    with dict-keyed labels, duals and blossoms.  The program itself does
    not use networkx, so a change to the program cannot move this kernel.
    """

    name = "nx-matching"
    nominal_s = 0.0180

    def __init__(self) -> None:
        import networkx as nx

        rnd = _stream(0x77)
        g = nx.Graph()
        for u, v in _random_edges(64, 192, 0x77):
            g.add_edge(u, v, weight=next(rnd) % 1000)
        self._nx = nx
        self._g = g

    def run(self) -> int:
        return len(self._nx.max_weight_matching(self._g))


class TextKernel:
    """Parses an edge-list text, builds adjacency, and round-trips JSON.

    Resembles the small-instance command-line path, where line parsing,
    tuple and dict building, and JSON carry the time.
    """

    name = "text"
    nominal_s = 0.0065

    def __init__(self) -> None:
        edges = _random_edges(120, 360, 0x7E)
        lines = ["120 360"] + [f"{u + 1} {v + 1}" for u, v in edges]
        self._text = "\n".join(lines) + "\n"

    def run(self) -> int:
        total = 0
        for _ in range(12):
            rows = self._text.splitlines()
            n, m = (int(x) for x in rows[0].split())
            edges = []
            seen = {}
            for lineno, row in enumerate(rows[1:], start=2):
                a, b = row.split()
                u, v = int(a) - 1, int(b) - 1
                seen[(u, v)] = lineno
                edges.append((u, v))
            adj: list[list[int]] = [[] for _ in range(n)]
            for e, (u, v) in enumerate(edges):
                adj[u].append(e)
                adj[v].append(e)
            doc = {"orientation": [[u + 1, v + 1] for u, v in edges], "m": m}
            total += len(json.loads(json.dumps(doc))["orientation"])
        return total


class FreshImportKernel:
    """A fresh interpreter that imports a fixed set of installed modules.

    Resembles set-up: process start, bytecode unmarshalling, and loading
    numpy's C extensions.  The pure-Python kernels above track set-up
    poorly, because a fresh process spends its time elsewhere.
    """

    name = "fresh-import"
    nominal_s = 0.130

    def run(self) -> int:
        done = subprocess.run(
            [sys.executable, "-c", "import argparse, dataclasses, decimal, fractions, json, numpy"],
            capture_output=True, timeout=120, check=True,
        )
        return done.returncode


def read(kernel) -> float:
    """One timed execution of the kernel, in seconds."""
    t0 = perf_counter()
    kernel.run()
    return perf_counter() - t0
