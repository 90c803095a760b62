"""Reproducible random instances.

The generator is splitmix64, chosen because it is trivial to implement
identically anywhere: a given (n, p, seed) triple produces the same
graph on every platform and Python version.
"""

from __future__ import annotations

from .graph import MAX_VERTICES, Graph, Orientation, VertexWeights

__all__ = ["SplitMix64", "random_graph", "random_orientation", "random_weights"]

_U64 = (1 << 64) - 1


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
    so the output is a pure function of (n, p, seed).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_VERTICES:
        # checked before the Theta(n^2) draw, with parse_graph's words
        raise ValueError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
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
