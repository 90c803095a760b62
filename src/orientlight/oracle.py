"""Exhaustive baselines, used as ground truth in tests.

Both oracles enumerate the full search space outright (every orientation
or every independent edge subset); there is no pruning, which is the
point: their correctness is plain to see.  The orientation oracle takes
at most 20 edges, a fixed cap, and the matching oracle 18 unless its
caller raises that; overshooting a cap is an explicit error, never a
silent skip.

The orientation oracle sweeps all 2^m orientations at once on Python
ints used as 2^m-bit planes: bit k of a plane belongs to orientation k.
Each vertex's light orientations come out as one such mask, and the
costs add up in a bit-sliced sum, one plane per bit of the totals, so
the sums are exact at any size.  Vertices of degree at most 1, light in
every orientation, and vertices of cost 0 add a constant and are not
swept.  The sweep needs no library beyond Python itself.
"""

from __future__ import annotations

from .graph import Graph, Orientation, VertexWeights
from .matching import Matching

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: fractions loads when a total is not whole
    from fractions import Fraction

__all__ = [
    "BudgetExceededError",
    "brute_force_max_matching",
    "brute_force_min_light",
]

# the sweep holds m + (bits of the total cost) + a few masks of 2^m bits
# each, 128 KB apiece at 20 edges: a 20-edge cycle with 120-digit costs
# runs in about 1 s at a peak RSS of about 75 MB on a 2-vCPU Xeon, and
# every further edge doubles both
_EDGE_CAP = 20


class BudgetExceededError(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


def brute_force_min_light(
    g: Graph, weights: VertexWeights | None = None
) -> tuple[int | Fraction, Orientation]:
    """Exact minimum light count (or cost) over all 2^m orientations, with a witness.

    Orientation k, for k in 0..2^m-1, orients edge e from its lower
    endpoint to its higher one when bit m-1-e of k is 0.  Ties go to the
    smallest such k: the first minimum in lexicographic direction order,
    where edge 0 is the most significant position and lower-to-higher
    precedes higher-to-lower.  Graphs with more than 20 edges are
    refused.
    """
    m = g.m
    if m > _EDGE_CAP:
        raise BudgetExceededError(f"{m} edges exceeds the oracle cap of {_EDGE_CAP}")
    if weights is None:
        weights = VertexWeights.ones(g.n)
    elif len(weights) != g.n:
        raise ValueError(f"weights cover {len(weights)} vertices, graph has {g.n}")
    units = weights.units
    # each vertex with an edge, and its edges as (column, whether the
    # edge leaves it on the column): edge e is column j = m-1-e, the
    # 2^m-bit mask whose bit k is bit j of k, and a 0 there orients e
    # from its lower endpoint, so e leaves its higher endpoint on the
    # column and its lower endpoint on the column's complement
    incident: dict[int, list[tuple[int, bool]]] = {}
    for e, (u, w) in enumerate(g.edges):
        incident.setdefault(u, []).append((m - 1 - e, False))
        incident.setdefault(w, []).append((m - 1 - e, True))
    # a vertex of degree at most 1 is light in every orientation, and
    # one of cost 0 never counts: neither needs a sweep
    swept = [v for v, es in incident.items() if len(es) > 1 and units[v]]
    constant = sum(units) - sum(units[v] for v in swept)
    size = 1 << m
    full = (1 << size) - 1
    columns = []
    for j in range(m):
        # one period of column j, 2^j zeros then 2^j ones, doubled by
        # shift-or until it spans 2^m bits
        half = 1 << j
        col = ((1 << half) - 1) << half
        width = half << 1
        while width < size:
            col |= col << width
            width <<= 1
        columns.append(col)
    # planes[i] holds bit i of every orientation's swept total
    planes: list[int] = []
    for v in swept:
        ones = twos = 0
        for j, on_column in incident[v]:
            c = columns[j] if on_column else full ^ columns[j]
            twos |= ones & c
            ones |= c
        light = full ^ twos
        cost = units[v]
        for i in range(cost.bit_length()):
            if cost >> i & 1:
                # ripple-carry add light into the sum, starting at plane i
                while len(planes) < i:
                    planes.append(0)
                carry, k = light, i
                while carry:
                    if k == len(planes):
                        planes.append(carry)
                        break
                    p = planes[k]
                    planes[k] = p ^ carry
                    carry &= p
                    k += 1
    # narrow the candidates from the top plane down, keeping those with a
    # 0 wherever some candidate has one; the lowest survivor is the first
    # minimum
    candidates = full
    total = 0
    for i in reversed(range(len(planes))):
        zero = candidates & ~planes[i]
        if zero:
            candidates = zero
        else:
            total |= 1 << i
    best = (candidates & -candidates).bit_length() - 1
    tails = []
    for e, (u, w) in enumerate(g.edges):
        bit = (best >> (m - 1 - e)) & 1
        tails.append(u if bit == 0 else w)
    return weights.as_value(constant + total), Orientation(tuple(tails))


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
