"""Reproducible random instances.

The generator is splitmix64, chosen because it is trivial to implement
identically anywhere: a given (n, p, seed) triple produces the same
graph on every platform and Python version.
"""

from __future__ import annotations

from .graph import MAX_VERTICES, Graph, Orientation, VertexWeights

__all__ = [
    "MAX_DRAW_EDGES",
    "MAX_DRAW_PAIRS",
    "SplitMix64",
    "random_graph",
    "random_orientation",
    "random_weights",
]

_U64 = (1 << 64) - 1

# random_graph steps the generator once for each vertex pair, about
# 0.44-0.6 us a pair, and holds about 290 bytes for each edge it keeps
# (the whole of `gen`, peak RSS at n = 2000, p = 0.5; CPython 3.11), so
# these refuse a draw of more than about a minute or 0.6 GB
MAX_DRAW_PAIRS = 100_000_000
MAX_DRAW_EDGES = 2_000_000


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64)."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _U64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection-sampled to avoid bias.

        bound is at most 2**64: one 64-bit word is drawn per try.
        """
        if not 0 < bound <= _U64 + 1:
            raise ValueError("bound must lie in [1, 2**64]")
        limit = (_U64 + 1) - (_U64 + 1) % bound
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Random simple graph: each of the n*(n-1)/2 pairs kept with probability p.

    Pairs are drawn in lexicographic order, one generator step per pair,
    so the output is a pure function of (n, p, seed).  A draw of more
    than MAX_DRAW_PAIRS pairs, or of more than MAX_DRAW_EDGES expected
    edges, is refused before the generator is stepped.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_VERTICES:
        # checked before the Theta(n^2) draw, with parse_graph's words
        raise ValueError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    pairs = n * (n - 1) // 2
    if pairs > MAX_DRAW_PAIRS:
        raise ValueError(
            f"{n} vertices make {pairs} vertex pairs to draw, "
            f"above the limit of {MAX_DRAW_PAIRS} pairs"
        )
    expected = p * pairs
    if expected > MAX_DRAW_EDGES:
        raise ValueError(
            f"{n} vertices at p = {p} expect {expected:.0f} edges, "
            f"above the limit of {MAX_DRAW_EDGES} edges"
        )
    threshold = int(p * (_U64 + 1))
    rng = SplitMix64(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.next_u64() < threshold:
                edges.append((u, v))
    return Graph(n, tuple(edges))


def random_weights(n: int, max_cost: int, seed: int) -> VertexWeights:
    """Integer costs drawn uniformly from [0, max_cost]."""
    if max_cost < 0:
        raise ValueError("max_cost must be nonnegative")
    rng = SplitMix64(seed)
    return VertexWeights(tuple(rng.next_below(max_cost + 1) for _ in range(n)), 1)


def random_orientation(g: Graph, seed: int) -> Orientation:
    """Uniform random orientation; handy for tests and benchmarks."""
    rng = SplitMix64(seed)
    return Orientation(tuple(uv[rng.next_u64() & 1] for uv in g.edges))
