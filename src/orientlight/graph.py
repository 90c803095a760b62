"""Graph, orientation, and vertex-cost primitives.

Vertices are 0-based and contiguous internally; the text formats use
1-based labels.  All types here are immutable and safe to share.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property

from ._record import record

__all__ = [
    "MAX_VERTICES",
    "Graph",
    "Orientation",
    "VertexWeights",
    "check_orientation",
    "light_cost",
    "light_vertices",
    "out_degree",
    "parse_graph",
    "parse_weights",
    "render_graph",
]

# largest vertex count parse_graph accepts: the solver keeps a few
# per-vertex lists, about 0.25 GB at this size
MAX_VERTICES = 1_000_000

# parse_weights rejects a cost with more decimal places than this, or
# with this many integer digits, so every unit stays below 10**120
_COST_DIGITS = 60


@record
class Graph:
    """Simple undirected graph with an ordered edge list.

    Edges are stored as (u, v) pairs with u < v; pairs arriving the
    other way round are flipped on construction.  Self-loops and
    duplicate edges are rejected.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        norm = []
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{self.n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            norm.append((u, v))
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex tuple of incident edge indices, ascending."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            adj[u].append(e)
            adj[v].append(e)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def edge_ids(self) -> dict[tuple[int, int], int]:
        """Maps each normalized (u, v) pair to its edge index."""
        return {uv: e for e, uv in enumerate(self.edges)}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def other_end(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} is not an endpoint of edge {e}")


def _valid_graph(n: int, edges: tuple[tuple[int, int], ...]) -> Graph:
    """The Graph Graph(n, edges) would build, without __post_init__'s checks.

    For callers that build edges valid by construction: every (u, v)
    has 0 <= u < v < n and no pair occurs twice.
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "edges", edges)
    return g


@record
class Orientation:
    """Per-edge direction choice: tails[e] is the endpoint edge e leaves."""

    tails: tuple[int, ...]

    def head(self, g: Graph, e: int) -> int:
        return g.other_end(e, self.tails[e])


def check_orientation(g: Graph, o: Orientation) -> None:
    """Raises ValueError unless o assigns a valid tail to every edge of g."""
    if len(o.tails) != g.m:
        raise ValueError(f"orientation covers {len(o.tails)} edges, graph has {g.m}")
    for e, t in enumerate(o.tails):
        u, v = g.edges[e]
        if t != u and t != v:
            raise ValueError(f"tail {t} of edge {e} is not one of its endpoints ({u}, {v})")


@record
class VertexWeights:
    """Exact nonnegative per-vertex costs.

    Costs are kept as integer multiples of 1/scale, where scale is the
    power of ten chosen by the parser.  All downstream arithmetic runs
    on the integer units; as_value converts a unit total back to an int
    or Fraction.
    """

    units: tuple[int, ...]
    scale: int = 1

    def __post_init__(self) -> None:
        # exact integers only: a float unit or scale fails deep inside a
        # solve, and a bool would pass as the int 0 or 1
        if type(self.scale) is not int or self.scale < 1:
            raise ValueError(f"scale {self.scale!r} is not a positive integer")
        for v, u in enumerate(self.units):
            if type(u) is not int:
                raise ValueError(f"cost units {u!r} for vertex {v} are not an integer")
            if u < 0:
                raise ValueError(
                    f"negative cost for vertex {v}: minimizing with negative costs "
                    "is NP-hard and not supported"
                )

    def __len__(self) -> int:
        return len(self.units)

    def unit(self, v: int) -> int:
        return self.units[v]

    def as_value(self, units: int) -> int | Fraction:
        """Converts a unit total back to an exact number (int when whole)."""
        f = Fraction(units, self.scale)
        return int(f) if f.denominator == 1 else f

    @classmethod
    def ones(cls, n: int) -> "VertexWeights":
        return cls((1,) * n, 1)


def parse_graph(text: str) -> Graph:
    """Parses the edge-list format: header "n m", then m lines "u v".

    Labels are 1-based.  Blank lines and lines starting with '#' are
    ignored.  Errors carry the offending line number.  A header with
    more than MAX_VERTICES vertices is rejected before anything is
    allocated for them.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    first_line: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: header must be 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: header must be two integers") from None
            if n < 0 or m < 0:
                raise ValueError(f"line {lineno}: header counts must be nonnegative")
            if n > MAX_VERTICES:
                raise ValueError(
                    f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}"
                )
            header = (n, m)
            continue
        n, m = header
        if len(edges) == m:
            raise ValueError(f"line {lineno}: more than the {m} edges promised by the header")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: edge line must be 'u v'")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: edge endpoints must be integers") from None
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"line {lineno}: endpoint out of range 1..{n}")
        if a == b:
            raise ValueError(f"line {lineno}: self-loop at vertex {a}")
        u, v = min(a, b) - 1, max(a, b) - 1
        if (u, v) in first_line:
            raise ValueError(
                f"line {lineno}: duplicate edge {a} {b} (first seen at line {first_line[(u, v)]})"
            )
        first_line[(u, v)] = lineno
        edges.append((u, v))
    if header is None:
        raise ValueError("empty input: missing 'n m' header")
    n, m = header
    if len(edges) != m:
        raise ValueError(f"header promises {m} edges, found {len(edges)}")
    return _valid_graph(n, tuple(edges))


def render_graph(g: Graph) -> str:
    """Canonical text form; parse_graph(render_graph(g)) == g."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_weights(text: str, n: int) -> VertexWeights:
    """Parses per-vertex costs: lines "v c", 1-based v, decimal c >= 0.

    Vertices not mentioned default to cost 1.  Costs are scaled by a
    common power of ten so that all stored units are integers; the
    scaling is exact integer arithmetic on each cost's digits.  A cost
    with more than 60 decimal places or with 60 or more integer digits,
    as written, is rejected.
    """
    entries: dict[int, tuple[int, int]] = {}  # coefficient, exponent
    first_line: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: weight line must be 'v cost'")
        try:
            v = int(parts[0])
        except ValueError:
            raise ValueError(f"line {lineno}: vertex label must be an integer") from None
        if not 1 <= v <= n:
            raise ValueError(f"line {lineno}: vertex {v} out of range 1..{n}")
        if v in first_line:
            raise ValueError(
                f"line {lineno}: duplicate cost for vertex {v} (first seen at line {first_line[v]})"
            )
        first_line[v] = lineno
        try:
            d = Decimal(parts[1])
        except InvalidOperation:
            raise ValueError(f"line {lineno}: cost {parts[1]!r} is not a decimal number") from None
        if not d.is_finite():
            raise ValueError(f"line {lineno}: cost must be finite")
        if d < 0:
            raise ValueError(
                f"line {lineno}: negative cost for vertex {v}: minimizing with "
                "negative costs is NP-hard and not supported"
            )
        _, digits, exponent = d.as_tuple()
        if -exponent > _COST_DIGITS:
            raise ValueError(
                f"line {lineno}: cost has more than {_COST_DIGITS} decimal places"
            )
        if len(digits) + exponent >= _COST_DIGITS:
            raise ValueError(
                f"line {lineno}: cost has {_COST_DIGITS} or more integer digits"
            )
        entries[v - 1] = (int("".join(map(str, digits))), exponent)
    places = max([0] + [-e for _, e in entries.values()])
    scale = 10**places
    units = [scale] * n  # omitted vertices cost 1
    for v, (c, e) in entries.items():
        units[v] = c * 10 ** (e + places)
    return VertexWeights(tuple(units), scale)


def out_degree(g: Graph, o: Orientation, v: int) -> int:
    """Number of edges leaving v under the orientation."""
    tails = o.tails
    return sum(1 for e in g.adjacency[v] if tails[e] == v)


def light_vertices(g: Graph, o: Orientation) -> frozenset[int]:
    """Vertices with out-degree at most 1.

    One O(n + m) pass over o.tails counts every vertex's out-degree and
    checks each tail on the way.  Raises ValueError, as check_orientation
    does, when o covers a different number of edges than g or a tail is
    not an endpoint of its edge.
    """
    tails, edges = o.tails, g.edges
    if len(tails) != len(edges):
        raise ValueError(f"orientation covers {len(tails)} edges, graph has {len(edges)}")
    out = [0] * g.n
    for e, t in enumerate(tails):
        if t not in edges[e]:
            u, v = edges[e]
            raise ValueError(f"tail {t} of edge {e} is not one of its endpoints ({u}, {v})")
        out[t] += 1
    return frozenset([v for v, d in enumerate(out) if d <= 1])


def light_cost(g: Graph, o: Orientation, w: VertexWeights) -> int | Fraction:
    """Total cost of the vertices with out-degree at most 1."""
    if len(w) != g.n:
        raise ValueError(f"weights cover {len(w)} vertices, graph has {g.n}")
    return w.as_value(sum(w.unit(v) for v in light_vertices(g, o)))
