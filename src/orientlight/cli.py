"""Command-line front end: solve, verify, gen, and bench subcommands.

Exit codes: 0 success, 1 a verification or benchmark check failed, 2
bad usage or unreadable/unparseable input.

main hands an argument list that starts with a subcommand's name
straight to that subcommand's parser, so each call runs one argparse
pass; arguments it does not know go to the top-level parser's error, as
argparse itself reports them.  Anything else (no arguments, --help, an
unknown command) goes through the top-level parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction

from .generate import random_graph, random_weights
from .graph import (
    Graph,
    Orientation,
    VertexWeights,
    light_vertices,
    parse_graph,
    parse_weights,
    render_graph,
)
from .oracle import BudgetExceededError, brute_force_min_light
from .reduction import ReducedGraph
from .solver import Solution, solve_with_stats

__all__ = ["main"]


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _write_all(files: list[tuple[str, str]]) -> None:
    """Writes each (path, text) pair in turn; on an OSError removes the
    files this call created before raising it."""
    created = []
    try:
        for path, text in files:
            fresh = not os.path.exists(path)
            with open(path, "w", encoding="utf-8") as f:
                if fresh:
                    created.append(path)
                f.write(text)
    except OSError:
        for path in created:
            os.remove(path)
        raise


# the relative tolerance of a certificate identity with a float term
_TOLERANCE = Fraction(1e-9)


def _num(x: int | Fraction) -> int | float:
    """JSON-friendly number: exact for ints, float otherwise."""
    return x if isinstance(x, int) else float(x)


def _is_number(x: object) -> bool:
    """A finite JSON number: json.loads also yields NaN and Infinity."""
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or isinstance(x, float) and math.isfinite(x)


def _near(claimed: Fraction, exact: Fraction) -> bool:
    """Within 1e-9 relative of exact, in exact arithmetic: a float
    term has made a round trip through JSON.  Fractions never overflow
    as float() does on a huge integer."""
    return abs(claimed - exact) <= _TOLERANCE * max(1, abs(exact))


def _equals(claimed: object, exact: int | Fraction) -> bool:
    """claimed is exactly the number solve --json writes for exact: the
    integer itself, or float(exact), the correctly rounded value, which
    survives the round trip through JSON unchanged."""
    return _is_number(claimed) and claimed == _num(exact)


def _solution_to_json(g: Graph, sol: Solution) -> dict:
    cert = sol.certificate
    return {
        "objective": _num(sol.objective),
        "light": sorted(v + 1 for v in sol.light_set),
        "orientation": [
            [sol.orientation.tails[e] + 1, sol.orientation.head(g, e) + 1]
            for e in range(g.m)
        ],
        "certificate": {
            "matching_value": _num(cert.matching_value),
            "constant": _num(cert.constant),
            "offset": _num(cert.offset),
        },
    }


def _dump_reduction(r: ReducedGraph, weights: VertexWeights | None, path: str) -> None:
    """Writes the gadget graph to path and its bookkeeping to path.json.

    The sidecar uses 1-based vertex labels (matching the graph file) and
    0-based edge indices into that file's edge list.
    """
    sidecar = {
        "conventions": "vertex labels are 1-based; edge indices are 0-based "
        "positions in the edge list of the graph file",
        "core_vertices": r.core.n,
        "core_edges": r.core.m,
        "core_to_input": [v + 1 for v in r.core_to_input],
        "core_edge_to_input": list(r.core_edge_to_input),
        "demand": list(r.demand),
        "connector": [v + 1 for v in r.connector],
        "ports": [[a + 1, b + 1] for a, b in r.ports],
        "connecting_edges": [list(pair) for pair in r.connecting_edges],
        "inner": [[v + 1 for v in vs] for vs in r.inner],
        "gadget_edge_ids": [list(ids) for ids in r.gadget_edge_ids],
        "parity_edge": list(r.parity_edge),
        "side_edges": [list(ids) for ids in r.side_edges],
        "edge_owner": [v + 1 for v in r.edge_owner],
        "edge_weight_units": list(r.edge_weights),
        "weight_scale": weights.scale if weights is not None else 1,
    }
    _write_all([
        (path, render_graph(r.gprime)),
        (path + ".json", json.dumps(sidecar, indent=2) + "\n"),
    ])


def cmd_solve(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    weights = parse_weights(_read(args.weights), g.n) if args.weights else None
    sol, stats = solve_with_stats(g, weights)
    if args.dump_reduction:
        _dump_reduction(stats.reduction, weights, args.dump_reduction)
    if args.json:
        # one line per top-level key; json.dumps without indent runs the
        # C encoder, which indent would replace with the Python one
        doc = _solution_to_json(g, sol)
        lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in doc.items()]
        print("{\n" + ",\n".join(lines) + "\n}")
        return 0
    cert = sol.certificate
    print(f"objective: {_num(sol.objective)}")
    print("light:", " ".join(str(v + 1) for v in sorted(sol.light_set)))
    print(
        f"certificate: matching_value={_num(cert.matching_value)} "
        f"constant={_num(cert.constant)} offset={_num(cert.offset)}"
    )
    for e in range(g.m):
        print(f"{sol.orientation.tails[e] + 1} -> {sol.orientation.head(g, e) + 1}")
    return 0


def _shape_problems(g: Graph, claimed: object) -> list[str]:
    """Structural complaints about a claimed solution document."""
    out = []
    if not isinstance(claimed, dict):
        return ["solution must be a JSON object"]
    for key in ("objective", "light", "orientation", "certificate"):
        if key not in claimed:
            out.append(f"missing key {key!r}")
    if out:
        return out
    if not _is_number(claimed["objective"]):
        out.append("objective must be a finite number")
    light = claimed["light"]
    if not isinstance(light, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in light
    ):
        out.append("light must be a list of integers")
    ori = claimed["orientation"]
    if not isinstance(ori, list) or len(ori) != g.m:
        out.append(f"orientation must list all {g.m} edges")
    else:
        for e, pair in enumerate(ori):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
            ):
                out.append(f"orientation entry {e} must be a [tail, head] pair")
                break
    cert = claimed["certificate"]
    if not isinstance(cert, dict) or not all(
        k in cert and _is_number(cert[k]) for k in ("matching_value", "constant", "offset")
    ):
        out.append("certificate must carry finite numeric matching_value, constant, offset")
    return out


def _content_problems(
    g: Graph, weights: VertexWeights | None, claimed: dict
) -> list[str]:
    """Semantic complaints: the document is well-shaped but wrong."""
    out = []
    tails = []
    for e, (u, v) in enumerate(g.edges):
        a, b = claimed["orientation"][e]
        if {a, b} != {u + 1, v + 1}:
            out.append(
                f"orientation entry {e} is [{a}, {b}], expected the endpoints "
                f"of edge {u + 1} {v + 1}"
            )
            return out
        tails.append(a - 1)
    o = Orientation(tuple(tails))
    light = light_vertices(g, o, 1)
    claimed_light = set(claimed["light"])
    if len(claimed_light) != len(claimed["light"]):
        twice = sorted(v for v, c in Counter(claimed["light"]).items() if c > 1)
        out.append(f"light names a vertex more than once: {twice}")
    actual_light = {v + 1 for v in light}
    if claimed_light != actual_light:
        extra = sorted(claimed_light - actual_light)
        missing = sorted(actual_light - claimed_light)
        parts = []
        if extra:
            parts.append(f"not light: {extra}")
        if missing:
            parts.append(f"missing: {missing}")
        out.append("light set disagrees with the orientation (" + "; ".join(parts) + ")")
    if weights is None:
        objective: int | Fraction = len(light)
    else:
        objective = weights.as_value(sum(weights.unit(v) for v in light))
    if not _equals(claimed["objective"], objective):
        out.append(
            f"objective {claimed['objective']} disagrees with the recomputed "
            f"value {_num(objective)}"
        )
    cert = claimed["certificate"]
    terms = (claimed["objective"], cert["constant"], cert["matching_value"], cert["offset"])
    if all(isinstance(x, int) for x in terms):
        # all four are JSON integers: compare exactly, as the relative
        # tolerance lets large totals differ by whole units
        claimed_objective, constant, matching_value, offset = terms
        holds = claimed_objective == constant - matching_value + offset
    else:
        claimed_objective, constant, matching_value, offset = map(Fraction, terms)
        holds = _near(claimed_objective, constant - matching_value + offset)
    if not holds:
        out.append(
            "certificate identity fails: objective != constant - matching_value + offset"
        )
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    weights = parse_weights(_read(args.weights), g.n) if args.weights else None
    try:
        claimed = json.loads(_read(args.solution))
    except RecursionError:
        raise ValueError(f"{args.solution}: solution JSON is nested too deeply") from None
    problems = _shape_problems(g, claimed)
    if not problems:
        problems = _content_problems(g, weights, claimed)
    if problems:
        for p in problems:
            print(f"verify: FAIL: {p}")
        return 1
    if not args.no_oracle:
        try:
            optimum, _ = brute_force_min_light(g, 1, weights)
        except BudgetExceededError as ex:
            print(f"verify: optimality not checked ({ex})")
        else:
            if not _equals(claimed["objective"], optimum):
                print(
                    f"verify: FAIL: objective {claimed['objective']} is not optimal "
                    f"(optimum is {_num(optimum)})"
                )
                return 1
    print("verify: OK")
    return 0


def _render_weights(w: VertexWeights) -> str:
    lines = [f"{v + 1} {w.unit(v)}" for v in range(len(w))]
    return "\n".join(lines) + "\n"


def cmd_gen(args: argparse.Namespace) -> int:
    if args.weights_max is not None:
        if not args.weights_out:
            raise ValueError("--weights-max requires --weights-out")
        if args.weights_max < 0:
            raise ValueError("--weights-max must be nonnegative")
    elif args.weights_out:
        raise ValueError("--weights-out requires --weights-max")
    g = random_graph(args.n, args.p, args.seed)
    text = render_graph(g)
    files = [(args.out, text)] if args.out else []
    if args.weights_max is not None:
        w = random_weights(args.n, args.weights_max, args.seed + 1)
        files.append((args.weights_out, _render_weights(w)))
    _write_all(files)  # before stdout, so a failed write prints nothing
    if not args.out:
        sys.stdout.write(text)
    return 0


def _parse_schedule(text: str) -> list[tuple[int, int]]:
    """Parses "n=50,m=150;n=100,m=300" into [(50, 150), (100, 300)]."""
    entries = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = {}
        for item in part.split(","):
            if "=" not in item:
                raise ValueError(f"schedule entry {part!r} must look like n=50,m=150")
            key, _, val = item.partition("=")
            try:
                fields[key.strip()] = int(val)
            except ValueError:
                raise ValueError(f"schedule value {val!r} is not an integer") from None
        if set(fields) != {"n", "m"}:
            raise ValueError(f"schedule entry {part!r} must set exactly n and m")
        n, m = fields["n"], fields["m"]
        if n < 2 or m < 0:
            raise ValueError(f"schedule entry {part!r} needs n >= 2 and m >= 0")
        entries.append((n, m))
    if not entries:
        raise ValueError("empty schedule")
    return entries


def cmd_bench(args: argparse.Namespace) -> int:
    entries = _parse_schedule(args.schedule)
    if args.weights_max is not None and args.weights_max < 0:
        raise ValueError("--weights-max must be nonnegative")
    for i, (n, m_target) in enumerate(entries):
        pairs = n * (n - 1) // 2
        p = min(1.0, m_target / pairs)
        g = random_graph(n, p, args.seed + i)
        weights = None
        if args.weights_max is not None:
            # the costs gen draws for a graph generated from the same seed
            weights = random_weights(n, args.weights_max, args.seed + i + 1)
        sol, stats = solve_with_stats(g, weights)
        cert = sol.certificate
        # the gadget the solve built must satisfy the closed-form formulas
        r = stats.reduction
        want_v = 5 * r.core.m - sum(r.demand)
        want_e = sum(
            r.core.degree(c) ** 2 - (b - 1) * r.core.degree(c) + (b == 2)
            for c, b in enumerate(r.demand)
        )
        if (r.gprime.n, r.gprime.m) != (want_v, want_e):
            print(f"bench: reduced sizes disagree with the formulas on n={n} m={g.m}")
            return 1
        print(
            f"n={g.n:>5}  m={g.m:>6}  core_n={stats.core_vertices:>5}  "
            f"core_m={stats.core_edges:>6}  |V'|={stats.reduced_vertices:>6}  "
            f"|E'|={stats.reduced_edges:>7}  reduce={stats.reduce_seconds:7.3f}s  "
            f"match={stats.match_seconds:7.3f}s  recover={stats.recover_seconds:7.3f}s  "
            f"objective={_num(sol.objective)}  "
            f"[{_num(cert.constant)} - {_num(cert.matching_value)} + {_num(cert.offset)}]"
        )
    return 0


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser, by name.

    Built once per process: parsing leaves a parser unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="orientlight",
        description="Orient every edge of a graph so that as few vertices as "
        "possible (or as little total cost as possible) end up with "
        "out-degree at most 1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["solve"] = sub.add_parser("solve", help="solve one instance")
    p.add_argument("graph", help="graph file: 'n m' header, then 'u v' lines, 1-based")
    p.add_argument("--weights", help="per-vertex cost file: 'v cost' lines, default 1")
    p.add_argument("--json", action="store_true", help="emit the solution as JSON")
    p.add_argument(
        "--dump-reduction",
        metavar="PATH",
        help="also write the gadget graph to PATH and its bookkeeping to PATH.json",
    )
    p.set_defaults(func=cmd_solve)

    p = commands["verify"] = sub.add_parser(
        "verify", help="check a solution document against its instance"
    )
    p.add_argument("graph")
    p.add_argument("solution", help="solution JSON, as produced by solve --json")
    p.add_argument("--weights")
    p.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip the exhaustive optimality check (it is capped by "
        "ORIENT_LIGHT_ORACLE_BUDGET anyway)",
    )
    p.set_defaults(func=cmd_verify)

    p = commands["gen"] = sub.add_parser("gen", help="generate a reproducible random instance")
    p.add_argument("n", type=int)
    p.add_argument("p", type=float, help="edge probability in [0, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the graph here instead of stdout")
    p.add_argument("--weights-max", type=int, help="also draw integer costs in [0, K]")
    p.add_argument("--weights-out", help="where to write the generated costs")
    p.set_defaults(func=cmd_gen)

    p = commands["bench"] = sub.add_parser("bench", help="time the solver on random instances")
    p.add_argument(
        "schedule",
        nargs="?",
        default="n=50,m=150;n=100,m=300",
        help="semicolon-separated n=..,m=.. entries",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--weights-max",
        type=int,
        metavar="W",
        help="draw integer costs in [0, W] (as gen does for the same seed) "
        "and solve the weighted problem",
    )
    p.set_defaults(func=cmd_bench)
    return parser, commands


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _build_parser()
    try:
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
