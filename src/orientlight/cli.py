"""Command-line front end: solve, verify and gen subcommands.

Exit codes: 0 success, 1 a verification check failed or stdout was
closed before the output was written (`solve g.txt | head -1`), 2 bad
usage, an input file that cannot be opened (the OS's message) or one
that cannot be decoded or parsed (`error: <path>: <reason>`), 3 an
internal error: one of the solver's own checks failed, reported on one
stderr line that names each input file with its sha256.  A closed
stdout prints nothing on stderr.
main() leaves file descriptor 1 alone, so it can be called in-process;
only entry_point, the process entry point, points it at os.devnull once
the reader is gone, so that the interpreter's flush at exit has nothing
left to fail on.

main hands an argument list that starts with a subcommand's name
straight to that subcommand's parser, so each call runs one argparse
pass; arguments it does not know go to the top-level parser's error, as
argparse itself reports them.  Anything else (no arguments, --help, an
unknown command) goes through the top-level parser.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import Counter

from .graph import (
    Graph,
    Orientation,
    VertexWeights,
    light_vertices,
    parse_graph,
    parse_weights,
    render_graph,
)
from .reduction import ReducedGraph
from .solver import Solution, solve_with_stats

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only; verify loads fractions on its first decimal
    from fractions import Fraction

__all__ = ["main"]

_INPUTS = ("graph", "weights", "solution")  # the argparse names of input files


def _load(path: str, parse, *extra):
    """parse(text, *extra) of the file decoded as UTF-8, a leading byte-order
    mark dropped and newlines left as they are (every parser splits at CRLF
    and a lone CR).  A ValueError from either step is raised naming the path.
    Dropping the mark first keeps decode("utf-8-sig")'s errors and positions."""
    with open(path, "rb", buffering=0) as f:
        data = f.readall()
    try:
        return parse(data.removeprefix(b"\xef\xbb\xbf").decode(), *extra)
    except ValueError as ex:
        raise ValueError(f"{path}: {ex}") from None


def _write_all(files: list[tuple[str, str]]) -> None:
    """Writes each (path, text) pair to a temporary sibling of its path,
    then moves them all into place; on an OSError removes those
    temporary files before raising it, so no path is created or changed
    unless every text was written.  A path that exists as anything but a
    regular file, such as a device, is refused, as the rename would
    replace it."""
    for path, _ in files:
        if os.path.exists(path) and not os.path.isfile(path):
            raise ValueError(f"{path} exists and is not a regular file")
    temps = []
    try:
        for path, text in files:
            temp = f"{path}.{os.getpid()}.tmp"
            with open(temp, "x", encoding="utf-8") as f:
                temps.append(temp)
                f.write(text)
        for temp, (path, _) in zip(temps, files):
            os.replace(temp, path)
    except OSError:
        for temp in temps:
            if os.path.lexists(temp):
                os.remove(temp)
        raise


def _num(x: int | Fraction) -> str:
    """x as exact decimal text, never in exponent form.  Every Fraction
    here is a sum of costs parse_weights read or a decimal literal
    verify read, so its denominator divides a power of ten."""
    if x.denominator == 1:
        return str(x.numerator)
    places = next(k for k in range(x.denominator.bit_length()) if 10**k % x.denominator == 0)
    whole, fraction = divmod(abs(x.numerator) * 10**places // x.denominator, 10**places)
    return f"{'-' if x.numerator < 0 else ''}{whole}.{fraction:0{places}d}"


def _exact(literal: str) -> Fraction:
    """A JSON literal with a fraction part, read exactly.  An exponent is
    refused: Fraction("1e999999999") would build a billion-digit integer.
    As in Fraction's own reader, the whole part and the fraction digits are
    two ints: one int of all the digits would reach int()'s limit sooner."""
    if "e" in literal or "E" in literal:
        raise ValueError(f"number {literal} has an exponent; write it as a plain decimal")
    from fractions import Fraction

    whole, _, digits = literal.partition(".")
    numerator = abs(int(whole)) * 10 ** len(digits) + int(digits)
    return Fraction(-numerator if literal[0] == "-" else numerator, 10 ** len(digits))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSONDecoder object_pairs_hook that refuses an object naming a
    key twice, which json would otherwise read as its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, c in Counter(k for k, _ in pairs).items() if c > 1)
        raise ValueError(f"solution repeats the key {key!r}")
    return obj


@functools.cache
def _solution_decoder():  # json.loads would build one per call
    import json

    return json.JSONDecoder(parse_float=_exact, object_pairs_hook=_unique_keys)


def _parse_solution(text: str) -> object:
    """The solution document, every number an int or an exact Fraction."""
    if text.startswith("\ufeff"):  # the one check json.loads makes before decoding
        from json import JSONDecodeError

        raise JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _solution_decoder().decode(text)
    except RecursionError:
        raise ValueError("solution JSON is nested too deeply") from None
    except ValueError as ex:
        # int()'s digit limit, which integer and decimal literals both reach
        if type(ex) is not ValueError or not str(ex).startswith("Exceeds the limit"):
            raise
        raise ValueError(f"a number has more than {sys.get_int_max_str_digits()} digits") from None


def _is_number(x: object) -> bool:
    """An int or a Fraction, as verify reads numbers: an exact rational
    that is not a bool.  The JSON decoder yields NaN and Infinity as floats,
    which are refused."""
    if type(x) is int:
        return True
    from numbers import Rational

    return isinstance(x, Rational) and not isinstance(x, bool)


def _solution_to_json(g: Graph, sol: Solution) -> str:
    """The solution document, one line per top-level key, numbers as
    exact decimals."""
    cert = sol.certificate
    light = ", ".join(map(str, sorted(v + 1 for v in sol.light_set)))
    # the head of edge (u, v) with tail t is u + v - t
    orientation = ", ".join(
        f"[{t + 1}, {u + v - t + 1}]" for (u, v), t in zip(g.edges, sol.orientation.tails)
    )
    return (
        f'{{\n  "objective": {_num(sol.objective)},\n'
        f'  "light": [{light}],\n'
        f'  "orientation": [{orientation}],\n'
        f'  "certificate": {{"matching_value": {_num(cert.matching_value)}, '
        f'"constant": {_num(cert.constant)}, "offset": {_num(cert.offset)}}}\n}}'
    )


def _dump_reduction(r: ReducedGraph, weights: VertexWeights, path: str) -> None:
    """Writes the gadget graph to path and its bookkeeping to path.json.

    The sidecar uses 1-based vertex labels (matching the graph file) and
    0-based edge indices into that file's edge list.
    """
    import json

    core = r.core
    owner = {eid: v + 1 for v in range(core.n) for eid in r.gadget_bucket(v)}
    sidecar = {
        "conventions": "vertex labels are 1-based; edge indices are 0-based "
        "positions in the edge list of the graph file",
        "core_vertices": core.n,
        "core_edges": core.m,
        "core_to_input": [v + 1 for v in r.core_to_input],
        "core_edge_to_input": list(r.core_edge_to_input),
        "demand": list(r.demand),
        "connector": [r.connector(e) + 1 for e in range(core.m)],
        "ports": [[r.port_at(v, e) + 1 for v in uw] for e, uw in enumerate(core.edges)],
        "connecting_edges": [[r.side_edge(v, e) for v in uw] for e, uw in enumerate(core.edges)],
        "inner": [[x + 1 for x in r.inner(v)] for v in range(core.n)],
        "gadget_edge_ids": [list(r.gadget_edge_ids(v)) for v in range(core.n)],
        "parity_edge": [r.parity_edge(v) for v in range(core.n)],
        "side_edges": [list(r.side_edges(v)) for v in range(core.n)],
        "edge_owner": [owner[eid] for eid in range(r.gprime.m)],
        "edge_weight_units": list(r.edge_weights),
        "weight_scale": weights.scale,
    }
    _write_all([
        (path, render_graph(r.gprime)),
        (path + ".json", json.dumps(sidecar, indent=2) + "\n"),
    ])


def cmd_solve(args: argparse.Namespace) -> int:
    dump = args.dump_reduction
    if dump:
        outputs = {os.path.realpath(dump), os.path.realpath(dump + ".json")}
        for name in _INPUTS:
            path = getattr(args, name, None)
            if path and os.path.realpath(path) in outputs:
                raise ValueError(f"--dump-reduction would overwrite the {name} file {path}")
    g = _load(args.graph, parse_graph)
    weights = _load(args.weights, parse_weights, g.n) if args.weights else VertexWeights.ones(g.n)
    sol, stats = solve_with_stats(g, weights)
    if dump:
        _dump_reduction(stats.reduction, weights, dump)
    if args.json:
        print(_solution_to_json(g, sol))
        return 0
    cert = sol.certificate
    lines = [
        f"objective: {_num(sol.objective)}",
        "light: " + " ".join(str(v + 1) for v in sorted(sol.light_set)),
        f"certificate: matching_value={_num(cert.matching_value)} "
        f"constant={_num(cert.constant)} offset={_num(cert.offset)}",
    ]
    lines += (f"{t + 1} -> {u + v - t + 1}" for (u, v), t in zip(g.edges, sol.orientation.tails))
    print("\n".join(lines))
    return 0


def _document_problems(g: Graph, weights: VertexWeights, claimed: object) -> list[str]:
    """What is wrong with a claimed solution document.  Shape problems
    (a missing key, a value of the wrong type) come first; only a
    well-shaped document is checked against the instance, and the first
    orientation entry that does not name its edge's endpoints stops
    that check.  Values come from the JSON decoder, so `type(x) is int` is
    an integer that is not a boolean."""
    if not isinstance(claimed, dict):
        return ["solution must be a JSON object"]
    keys = ("objective", "light", "orientation", "certificate")
    out = [f"missing key {key!r}" for key in keys if key not in claimed]
    if out:
        return out
    if not _is_number(claimed["objective"]):
        out.append("objective must be a finite number")
    light = claimed["light"]
    if not isinstance(light, list) or not all(type(v) is int for v in light):
        out.append("light must be a list of integers")
    ori = claimed["orientation"]
    tails, stray = [], None
    if not isinstance(ori, list) or len(ori) != g.m:
        out.append(f"orientation must list all {g.m} edges")
    else:
        for e, (uv, pair) in enumerate(zip(g.edges, ori)):
            a, b = pair if type(pair) is list and len(pair) == 2 else (None, None)
            if type(a) is not int or type(b) is not int:
                out.append(f"orientation entry {e} must be a [tail, head] pair")
                break
            if stray is None and (a - 1, b - 1) != uv and (b - 1, a - 1) != uv:
                stray = (
                    f"orientation entry {e} is [{a}, {b}], expected the endpoints "
                    f"of edge {uv[0] + 1} {uv[1] + 1}"
                )
            tails.append(a - 1)
    cert = claimed["certificate"]
    if not isinstance(cert, dict) or not all(
        k in cert and _is_number(cert[k]) for k in ("matching_value", "constant", "offset")
    ):
        out.append("certificate must carry finite numeric matching_value, constant, offset")
    if out:
        return out
    if stray:
        return [stray]
    claimed_light = set(light)
    if len(claimed_light) != len(light):
        twice = sorted(v for v, c in Counter(light).items() if c > 1)
        out.append(f"light names a vertex more than once: {twice}")
    recount = light_vertices(g, Orientation(tuple(tails)))
    actual_light = {v + 1 for v in recount}
    if claimed_light != actual_light:
        diffs = {"not light": claimed_light - actual_light, "missing": actual_light - claimed_light}
        parts = "; ".join(f"{what}: {sorted(vs)}" for what, vs in diffs.items() if vs)
        out.append(f"light set disagrees with the orientation ({parts})")
    objective = weights.as_value(sum(weights.unit(v) for v in recount))
    if claimed["objective"] != objective:
        out.append(
            f"objective {_num(claimed['objective'])} disagrees with the recomputed "
            f"value {_num(objective)}"
        )
    if claimed["objective"] != cert["constant"] - cert["matching_value"] + cert["offset"]:
        out.append(
            "certificate identity fails: objective != constant - matching_value + offset"
        )
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load(args.graph, parse_graph)
    weights = _load(args.weights, parse_weights, g.n) if args.weights else VertexWeights.ones(g.n)
    claimed = _load(args.solution, _parse_solution)
    problems = _document_problems(g, weights, claimed)
    if problems:
        for p in problems:
            print(f"verify: FAIL: {p}")
        return 1
    from .oracle import BudgetExceededError, brute_force_min_light

    try:
        optimum, _ = brute_force_min_light(g, weights)
    except BudgetExceededError as ex:
        print(f"verify: optimality not checked ({ex})")
    else:
        if claimed["objective"] != optimum:
            print(
                f"verify: FAIL: objective {_num(claimed['objective'])} is not optimal "
                f"(optimum is {_num(optimum)})"
            )
            return 1
    print("verify: OK")
    return 0


def _render_weights(w: VertexWeights) -> str:
    lines = [f"{v + 1} {w.unit(v)}" for v in range(len(w))]
    return "\n".join(lines) + "\n"


def cmd_gen(args: argparse.Namespace) -> int:
    from .generate import random_graph, random_weights

    if args.weights_max is not None:
        if not args.weights_out:
            raise ValueError("--weights-max requires --weights-out")
        if args.weights_max < 0:
            raise ValueError("--weights-max must be nonnegative")
        if args.weights_max >= 1 << 64:
            # random_weights draws each cost from one 64-bit word
            raise ValueError("--weights-max must be below 2**64")
    elif args.weights_out:
        raise ValueError("--weights-out requires --weights-max")
    if args.out and args.weights_out:
        if os.path.realpath(args.out) == os.path.realpath(args.weights_out):
            raise ValueError("--out and --weights-out name the same file")
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
    p.set_defaults(func=cmd_verify)

    p = commands["gen"] = sub.add_parser("gen", help="generate a reproducible random instance")
    p.add_argument("n", type=int)
    p.add_argument("p", type=float, help="edge probability in [0, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the graph here instead of stdout")
    p.add_argument("--weights-max", type=int, help="also draw integer costs in [0, K]")
    p.add_argument("--weights-out", help="where to write the generated costs")
    p.set_defaults(func=cmd_gen)

    return parser, commands


def _input_digests(args: argparse.Namespace) -> str:
    """Each input file the command read, with the sha256 of its bytes."""
    import hashlib

    parts = []
    for name in _INPUTS:
        path = getattr(args, name, None)
        if path:
            try:
                with open(path, "rb") as f:
                    digest = hashlib.sha256(f.read()).hexdigest()
            except OSError as ex:
                digest = f"unreadable ({ex.strerror})"
            parts.append(f"{name} {path} sha256 {digest}")
    return ", ".join(parts)


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
    except BrokenPipeError:
        # the reader of stdout went away: not bad usage, and nothing to say
        return 1
    except (ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except RuntimeError as ex:
        # a failed self-check; the digests let the run be reproduced
        what = str(ex).removeprefix("internal error: ")
        print(f"error: internal error: {what}; {_input_digests(args)}", file=sys.stderr)
        return 3


def entry_point() -> int:
    """main() for a process of its own: the console script and -m."""
    code = main()
    if sys.stdout is None:
        # started with fd 1 closed: print() wrote nothing, so nothing failed
        return code
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # what main() left buffered cannot be written either; send it to
        # os.devnull so the flush at interpreter exit succeeds silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(entry_point())
