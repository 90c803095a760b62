"""Checks one operation's answer with the benchmark's own recount.

An answer passes when its orientation orients every edge of the input,
its light set and objective agree with a recount of that orientation,
the recounted objective equals the stored optimum, and the certificate
identity objective = constant - matching_value + offset holds.  Numbers
read back from the command line's JSON may be floats (the program
writes non-integral values that way); they are compared at 1e-9
relative tolerance, everything else exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction

from inputs import Instance
from reference import light_units, value


def _same(claimed, exact) -> bool:
    if isinstance(claimed, bool) or not isinstance(claimed, (int, float, Fraction)):
        return False
    if isinstance(claimed, float):
        return abs(Fraction(claimed) - exact) <= Fraction(1, 10**9) * max(1, abs(exact))
    return claimed == exact


def problems(inst: Instance, optimum: Fraction, tails, light, objective, certificate) -> list[str]:
    """Everything wrong with one answer; empty when it is right."""
    if len(tails) != len(inst.edges):
        return [f"orientation covers {len(tails)} edges, the input has {len(inst.edges)}"]
    for e, (u, v) in enumerate(inst.edges):
        if tails[e] not in (u, v):
            return [f"tail {tails[e]} of edge {e} is not one of its endpoints"]
    own_light, own_cost = light_units(inst.n, inst.edges, tails, inst.units)
    own = value(inst, own_cost)
    out = []
    if set(light) != own_light:
        out.append("light set disagrees with the recount")
    if not _same(objective, own):
        out.append(f"objective {objective} disagrees with the recount {own}")
    if own != optimum:
        out.append(f"recounted objective {own} is not the optimum {optimum}")
    constant, matching_value, offset = certificate
    if any(isinstance(x, float) for x in certificate):
        residual = Fraction(constant) - Fraction(matching_value) + Fraction(offset)
    else:
        residual = constant - matching_value + offset
    if not _same(objective, Fraction(residual)):
        out.append("certificate identity fails: objective != constant - matching_value + offset")
    return out


def solution_problems(inst: Instance, optimum: Fraction, sol) -> list[str]:
    """Checks a Solution returned by the library."""
    c = sol.certificate
    return problems(
        inst,
        optimum,
        sol.orientation.tails,
        sol.light_set,
        sol.objective,
        (c.constant, c.matching_value, c.offset),
    )


def cli_problems(inst: Instance, optimum: Fraction, result) -> list[str]:
    """Checks one solve --json plus verify round trip of the command line."""
    solve_code, solve_out, verify_code, verify_out = result
    if solve_code != 0:
        return [f"solve exited with {solve_code}"]
    try:
        doc = json.loads(solve_out)
        tails = []
        for e, (a, b) in enumerate(doc["orientation"]):
            u, v = inst.edges[e]
            if sorted((a - 1, b - 1)) != [u, v]:
                return [f"orientation entry {e} is not edge {u + 1} {v + 1}"]
            tails.append(a - 1)
        cert = doc["certificate"]
        out = problems(
            inst,
            optimum,
            tails,
            [v - 1 for v in doc["light"]],
            doc["objective"],
            (cert["constant"], cert["matching_value"], cert["offset"]),
        )
    except (ValueError, KeyError, TypeError, IndexError) as ex:
        return [f"solve printed a malformed solution: {ex!r}"]
    if verify_code != 0 or verify_out != "verify: OK\n":
        out.append(f"verify exited with {verify_code} and printed {verify_out!r}")
    return out
