"""Reference optima, computed apart from the program under test.

Two independent routes to the optimum light cost:

* enumerate: every one of the 2^m orientations, recounted with the
  benchmark's own code; used on instances of at most ENUMERATE_EDGES
  edges.
* gadget: the paper's construction built here independently, solved by
  networkx max_weight_matching.  Isolated vertices are dropped and each
  degree-1 vertex gets a 4-cycle attached (ring vertices cost 1
  unweighted, 0 weighted).  On the resulting core of minimum degree 2,
  vertex v of degree d becomes d ports, d-2 inner vertices joined to
  every port, and one edge between two of its ports; core edge uv
  becomes the path port_u - connector - port_v.  Every gadget edge of v
  and its port-connector edges weigh c_v.  The optimum is
  2m - |M| + isolated - degree-1 unweighted, and
  sum d(v) c_v - w(M) + (cost of the degree <= 1 vertices) weighted.

Remaking the stored optima is one command, run from the repository root:

    python3 benchmark/reference.py

It enumerates every instance small enough, cross-checks the gadget route
against enumeration there, solves the rest with the gadget route, and
rewrites benchmark/optima.json.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from inputs import COST_SCALE, WORKLOADS, Instance, corpus, degrees

OPTIMA = Path(__file__).resolve().parent / "optima.json"
ENUMERATE_EDGES = 16


def light_units(n: int, edges, tails, units) -> tuple[set[int], int]:
    """Light vertices of an orientation and their total cost in hundredths."""
    out = [0] * n
    for t in tails:
        out[t] += 1
    light = {v for v in range(n) if out[v] <= 1}
    cost = sum(units[v] for v in light) if units is not None else len(light)
    return light, cost


def value(inst: Instance, cost: int) -> Fraction:
    """A cost total as an exact number: a count, or hundredths as a fraction."""
    return Fraction(cost, COST_SCALE) if inst.units is not None else Fraction(cost)


def enumerate_optimum(inst: Instance) -> int:
    best = None
    m = len(inst.edges)
    for mask in range(1 << m):
        tails = [inst.edges[e][(mask >> e) & 1] for e in range(m)]
        cost = light_units(inst.n, inst.edges, tails, inst.units)[1]
        if best is None or cost < best:
            best = cost
    return best


def gadget(inst: Instance):
    """The gadget graph as (edges, weights), the constant and the offset."""
    unit = (lambda v: 1) if inst.units is None else (lambda v: inst.units[v])
    deg = degrees(inst)
    edges = list(inst.edges)
    cost = {v: unit(v) for v in range(inst.n)}
    offset = 0
    nxt = inst.n
    for v in range(inst.n):
        if deg[v] == 0:
            offset += unit(v)
        elif deg[v] == 1:
            ring = (nxt, nxt + 1, nxt + 2)
            nxt += 3
            edges += [(v, ring[0]), (ring[0], ring[1]), (ring[1], ring[2]), (ring[2], v)]
            for r in ring:
                cost[r] = 1 if inst.units is None else 0
            offset += -1 if inst.units is None else unit(v)
    incident: dict[int, list[int]] = {}
    for e, (u, v) in enumerate(edges):
        incident.setdefault(u, []).append(e)
        incident.setdefault(v, []).append(e)
    g_edges, g_weights = [], []
    for e, (u, v) in enumerate(edges):
        g_edges += [(("port", u, e), ("conn", e)), (("conn", e), ("port", v, e))]
        g_weights += [cost[u], cost[v]]
    constant = 0
    for v, inc in incident.items():
        d = len(inc)
        constant += d * cost[v]
        for i in range(d - 2):
            for e in inc:
                g_edges.append((("inner", v, i), ("port", v, e)))
                g_weights.append(cost[v])
        g_edges.append((("port", v, inc[0]), ("port", v, inc[1])))
        g_weights.append(cost[v])
    return g_edges, g_weights, constant, offset


def gadget_optimum(inst: Instance) -> tuple[int, int, int]:
    """The optimum in hundredths (or a count), with |V'| and |E'|."""
    import networkx as nx

    g_edges, g_weights, constant, offset = gadget(inst)
    g = nx.Graph()
    for (a, b), w in zip(g_edges, g_weights):
        g.add_edge(a, b, weight=w)
    # unweighted, every weight is 1, so the heaviest matching is a largest one
    matched = sum(g[a][b]["weight"] for a, b in nx.max_weight_matching(g))
    return constant - matched + offset, g.number_of_nodes(), g.number_of_edges()


def remake() -> dict:
    table = {}
    for workload in WORKLOADS:
        rows = {}
        for inst in corpus(workload):
            via_gadget, gv, ge = gadget_optimum(inst)
            if len(inst.edges) <= ENUMERATE_EDGES:
                via_enum = enumerate_optimum(inst)
                if via_enum != via_gadget:
                    raise SystemExit(
                        f"{workload}/{inst.name}: enumeration gives {via_enum}, "
                        f"the gadget gives {via_gadget}"
                    )
            deg = degrees(inst)
            rows[inst.name] = {
                "digest": inst.digest(),
                "optimum": str(value(inst, via_gadget)),
                "enumerated": len(inst.edges) <= ENUMERATE_EDGES,
                "n": inst.n,
                "m": len(inst.edges),
                "degree_one": deg.count(1),
                "isolated": deg.count(0),
                "gadget_vertices": gv,
                "gadget_edges": ge,
                "zero_costs": None if inst.units is None else inst.units.count(0),
            }
            print(f"{workload}/{inst.name}: {rows[inst.name]['optimum']}", file=sys.stderr)
        table[workload] = rows
    return table


def load() -> dict:
    return json.loads(OPTIMA.read_text(encoding="utf-8"))


if __name__ == "__main__":
    OPTIMA.write_text(json.dumps(remake(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
