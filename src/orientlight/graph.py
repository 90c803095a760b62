"""Graph, orientation, and vertex-cost primitives.

Vertices are 0-based and contiguous internally; the text formats use
1-based labels.  All types here are immutable and safe to share.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat

from ._record import record

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only; _fraction and _decimal load them on first use
    from decimal import Decimal
    from fractions import Fraction

__all__ = [
    "MAX_VERTICES",
    "Graph",
    "Orientation",
    "VertexWeights",
    "light_cost",
    "light_vertices",
    "out_degree",
    "parse_graph",
    "parse_weights",
    "render_graph",
]

# largest vertex count parse_graph accepts.  No limit applies to m: a
# solve's peak memory grows by about 1.7 kB per input edge unweighted
# and 2.7 kB weighted on sub-critical G(n, 1.45n) graphs (n = 8000 and
# 1200; resource.getrusage, CPython 3.11)
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
        # exact integers only, as in VertexWeights: a float or a bool
        # would build here and fail deep inside a solve
        if type(self.n) is not int:
            raise ValueError(f"vertex count {self.n!r} is not an integer")
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        norm = []
        for u, v in self.edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not an integer")
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

    # stored in the instance dict on first read, past the frozen
    # __setattr__.  On 3.10 and 3.11 that first read takes a lock, about
    # 1 us per fresh graph; only input graphs and non-empty cores are
    # read, so a solve pays it at most twice
    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex tuple of incident edge indices, ascending."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            adj[u].append(e)
            adj[v].append(e)
        return tuple(tuple(a) for a in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


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
        whole, rest = divmod(units, self.scale)
        return _fraction(units, self.scale) if rest else whole

    @classmethod
    def ones(cls, n: int) -> "VertexWeights":
        return _valid_weights((1,) * n, 1)


def _fraction(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator).  The first call imports fractions
    (which imports decimal) and rebinds this name to the class itself, so
    a process whose totals are all whole loads neither module and every
    later call is the class's own."""
    global _fraction
    from fractions import Fraction as _fraction

    return _fraction(numerator, denominator)


def _valid_weights(units: tuple[int, ...], scale: int) -> VertexWeights:
    """VertexWeights(units, scale) unchecked, for units and scale valid by construction."""
    w = object.__new__(VertexWeights)
    object.__setattr__(w, "units", units)
    object.__setattr__(w, "scale", scale)
    return w


def _pairs(text: str) -> list[str] | None:
    """The tokens of text's data lines, two a line, or None.

    Data lines are those neither blank nor starting with '#'.  They are
    split as one text with a ';' token between neighbours, and every
    third token is dropped.  When a line holds more or fewer than two
    tokens, the count is off or a ';' stays among the tokens, which no
    caller reads as a count, label or cost.
    """
    lines = text.splitlines()
    if "#" in text or not all(map(str.strip, lines)):
        lines = [line for line in lines if line.lstrip()[:1] not in ("", "#")]
    if not lines:
        return []
    tokens = " ; ".join(lines).split()
    gaps = len(lines) - 1
    if len(tokens) != 3 * gaps + 2:
        return None
    del tokens[2::3]
    return tokens


def parse_graph(text: str) -> Graph:
    """Parses the edge-list format: header "n m", then m lines "u v".

    Labels are 1-based.  Blank lines and lines starting with '#' are
    ignored.  Errors carry the offending line number.  A header with
    more than MAX_VERTICES vertices is rejected before anything is
    allocated for them.  The text is read and checked with whole-text
    operations; a line loop runs only to name the fault they found.
    """
    try:
        # no data line, or None, leaves too few values to unpack
        n, m, *ends = map(int, _pairs(text) or ())
    except ValueError:
        raise _graph_fault(text) from None
    if not 0 <= n <= MAX_VERTICES or 2 * m != len(ends):
        raise _graph_fault(text)
    # None stands for an endpoint out of range or a self-loop
    edges = tuple([
        (x - 1, y - 1) if 0 < x < y <= n else (y - 1, x - 1) if 0 < y < x <= n else None
        for x, y in zip(ends[::2], ends[1::2])
    ])
    distinct = set(edges)
    if len(distinct) != m or None in distinct:
        raise _graph_fault(text)
    return _valid_graph(n, edges)


def _graph_fault(text: str) -> Exception:
    """The error naming the first line of text that parse_graph refuses.

    It reads text line by line and builds nothing.  When no line is at
    fault, the error is an internal one: parse_graph refused valid text.
    """
    header: tuple[int, int] | None = None
    first_line: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                return ValueError(f"line {lineno}: header must be 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                return ValueError(f"line {lineno}: header must be two integers")
            if n < 0 or m < 0:
                return ValueError(f"line {lineno}: header counts must be nonnegative")
            if n > MAX_VERTICES:
                return ValueError(
                    f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}"
                )
            header = (n, m)
            continue
        n, m = header
        if len(first_line) == m:
            return ValueError(f"line {lineno}: more than the {m} edges promised by the header")
        if len(parts) != 2:
            return ValueError(f"line {lineno}: edge line must be 'u v'")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            return ValueError(f"line {lineno}: edge endpoints must be integers")
        if not (1 <= a <= n and 1 <= b <= n):
            return ValueError(f"line {lineno}: endpoint out of range 1..{n}")
        if a == b:
            return ValueError(f"line {lineno}: self-loop at vertex {a}")
        uv = (min(a, b), max(a, b))
        if uv in first_line:
            return ValueError(
                f"line {lineno}: duplicate edge {a} {b} (first seen at line {first_line[uv]})"
            )
        first_line[uv] = lineno
    if header is None:
        return ValueError("empty input: missing 'n m' header")
    n, m = header
    if len(first_line) != m:
        return ValueError(f"header promises {m} edges, found {len(first_line)}")
    return RuntimeError(
        f"internal error: parse_graph refused {len(text)} characters "
        f"with no faulty line (n={n}, m={m})"
    )


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
    as written, is rejected.  As in parse_graph, a line loop runs only
    to name the fault that whole-text checks found.
    """
    tokens = _pairs(text)
    if tokens is None:
        raise _weights_fault(text, n)
    try:
        labels = list(map(int, tokens[::2]))
        terms = _cost_terms(tokens[1::2], labels)
    except ValueError:
        raise _weights_fault(text, n) from None
    places = max([0] + [-e for _, e in terms])
    scale = 10**places
    by_label = dict(zip(labels, [c * 10 ** (e + places) for c, e in terms]))
    if labels and (min(labels) < 1 or max(labels) > n or len(by_label) != len(labels)):
        raise _weights_fault(text, n)
    return _valid_weights(tuple(map(by_label.get, range(1, n + 1), repeat(scale))), scale)


def _cost_terms(costs: list[str], labels: list[int]) -> list[tuple[int, int]]:
    """Each cost's coefficient and exponent, as Decimal reads them.

    Raises ValueError on a cost _decimal_cost refuses.  When every cost
    is decimal digits with at most one point, and too short to pass a
    digit bound, int() reads the digits around the point as Decimal
    would; otherwise each cost goes through _decimal_cost.
    """
    if "".join(costs).replace(".", "").isdecimal() and max(map(len, costs)) < _COST_DIGITS:
        # a second point leaves one in the digits, which int() refuses
        return [(int(a + b), -len(b)) for a, _, b in map(str.partition, costs, repeat("."))]
    return list(map(_decimal_cost, costs, labels))


def _decimal_cost(cost: str, v: int) -> tuple[int, int]:
    """The coefficient and exponent of vertex v's cost, read by Decimal.

    Raises ValueError, without a line number, unless cost is a finite,
    nonnegative decimal within the digit bounds.
    """
    d = _decimal(cost)
    if not d.is_finite():
        raise ValueError("cost must be finite")
    if d < 0:
        raise ValueError(
            f"negative cost for vertex {v}: minimizing with "
            "negative costs is NP-hard and not supported"
        )
    _, digits, exponent = d.as_tuple()
    if -exponent > _COST_DIGITS:
        raise ValueError(f"cost has more than {_COST_DIGITS} decimal places")
    if len(digits) + exponent >= _COST_DIGITS:
        raise ValueError(f"cost has {_COST_DIGITS} or more integer digits")
    return int("".join(map(str, digits))), exponent


def _decimal(cost: str) -> Decimal:
    """Decimal(cost), or ValueError when cost is not a decimal number.
    The first call imports decimal and rebinds this name to the reader
    it defines, so decimal loads only for a cost that is not plain digits
    with at most one point, and no later call imports anything."""
    global _decimal
    from decimal import Decimal, InvalidOperation

    def _decimal(cost: str) -> Decimal:
        try:
            return Decimal(cost)
        except InvalidOperation:
            raise ValueError(f"cost {cost!r} is not a decimal number") from None

    return _decimal(cost)


def _weights_fault(text: str, n: int) -> Exception:
    """The error naming the first line of text that parse_weights refuses.

    Like _graph_fault, it reads line by line, builds nothing and falls
    back on an internal error.
    """
    first_line: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            return ValueError(f"line {lineno}: weight line must be 'v cost'")
        try:
            v = int(parts[0])
        except ValueError:
            return ValueError(f"line {lineno}: vertex label must be an integer")
        if not 1 <= v <= n:
            return ValueError(f"line {lineno}: vertex {v} out of range 1..{n}")
        if v in first_line:
            return ValueError(
                f"line {lineno}: duplicate cost for vertex {v} (first seen at line {first_line[v]})"
            )
        first_line[v] = lineno
        try:
            _decimal_cost(parts[1], v)
        except ValueError as ex:
            return ValueError(f"line {lineno}: {ex}")
    return RuntimeError(
        f"internal error: parse_weights refused {len(text)} characters "
        f"with no faulty line (n={n}, {len(first_line)} cost lines)"
    )


def out_degree(g: Graph, o: Orientation, v: int) -> int:
    """Number of edges leaving v under the orientation."""
    tails = o.tails
    return sum(1 for e in g.adjacency[v] if tails[e] == v)


def light_vertices(g: Graph, o: Orientation) -> frozenset[int]:
    """Vertices with out-degree at most 1.

    One O(n + m) pass over o.tails counts every vertex's out-degree and
    checks each tail on the way.  Raises ValueError when o covers a
    different number of edges than g or a tail is not an endpoint of
    its edge; this is the one validity check of an orientation.
    """
    tails, edges = o.tails, g.edges
    if len(tails) != len(edges):
        raise ValueError(f"orientation covers {len(tails)} edges, graph has {len(edges)}")
    out = [0] * g.n
    for t, uv in zip(tails, edges):
        if t not in uv:
            # edges holds no pair twice, so index finds this edge's id
            u, v = uv
            raise ValueError(
                f"tail {t} of edge {edges.index(uv)} is not one of its endpoints ({u}, {v})"
            )
        out[t] += 1
    return frozenset([v for v, d in enumerate(out) if d <= 1])


def light_cost(g: Graph, o: Orientation, w: VertexWeights) -> int | Fraction:
    """Total cost of the vertices with out-degree at most 1."""
    if len(w) != g.n:
        raise ValueError(f"weights cover {len(w)} vertices, graph has {g.n}")
    return w.as_value(sum(w.unit(v) for v in light_vertices(g, o)))
