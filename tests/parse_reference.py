"""The line-by-line parsers that orientlight.graph shipped before its bulk ones.

parse_graph and parse_weights below are copied verbatim from the
earlier orientlight/graph.py.  They are the reference the bulk parsers
are checked against: equal results on valid text, and the same
ValueError message on every fault.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation

from orientlight.graph import (
    _COST_DIGITS,
    MAX_VERTICES,
    Graph,
    VertexWeights,
    _valid_graph,
)


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
