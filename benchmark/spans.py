"""Spans around the program's layers, recorded from outside the program.

Each layer function is wrapped in every orientlight module that holds a
reference to it, so a caller that looks the name up in its own module
calls the wrapper.  The program's files are not edited.  A function that
no longer exists is simply not wrapped and reports zero calls.

A span is (name, start, end, parent, operation id).  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# metric name -> the functions it covers, as (defining module, name)
LAYERS = {
    "graph.parse_s": [("orientlight.graph", "parse_graph"), ("orientlight.graph", "parse_weights")],
    "graph.recount_s": [("orientlight.graph", "light_vertices")],
    "reduction.preprocess_s": [
        ("orientlight.reduction", "eliminate_degree_one"),
        ("orientlight.reduction", "strip_isolated"),
    ],
    "reduction.build_s": [("orientlight.reduction", "build_gprime")],
    "matching.cardinality_s": [("orientlight.matching", "max_cardinality_matching")],
    "matching.weighted_s": [("orientlight.matching", "max_weight_matching")],
    "solver.recover_s": [("orientlight.solver", "recover_orientation")],
    "solver.self_s": [("orientlight.solver", "solve_with_stats")],
    "cli.self_s": [("orientlight.cli", "main")],
    "oracle.verify_s": [("orientlight.oracle", "brute_force_min_light")],
}
CALLS = {
    "matching.cardinality_calls": "matching.cardinality_s",
    "matching.weighted_calls": "matching.weighted_s",
}
ROOT = "op"


class Tracer:
    """Spans kept as parallel lists of plain values, which the cyclic
    garbage collector does not have to traverse."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.gadget = [0, 0]  # summed |V'| and |E'| of every build_gprime result
        self._stack: list[int] = []
        self._op = -1

    def open(self, name: str, op: int | None = None) -> int:
        if op is not None:
            self._op = op
        idx = len(self.name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, metric: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if metric == "reduction.build_s":
                gprime = getattr(result, "gprime", None)
                self.gadget[0] += getattr(gprime, "n", 0)
                self.gadget[1] += getattr(gprime, "m", 0)
            return result

        return traced

    def install(self) -> list[tuple]:
        """Wraps every layer function; returns what uninstall() needs."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "orientlight"]
        undo = []
        for metric, targets in LAYERS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules.get(mod_name), attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(metric, original)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
        return undo

    @staticmethod
    def uninstall(undo: list[tuple]) -> None:
        for mod, attr, original in undo:
            setattr(mod, attr, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [e - s - c for s, e, c in zip(self.start, self.end, child)]

    def layer_totals(self, factor: dict[int, float]) -> tuple[dict, dict]:
        """Normalised self time and call count per span name, over all spans."""
        time, calls = defaultdict(float), defaultdict(int)
        for name, op, own in zip(self.name, self.op, self.self_times()):
            time[name] += own * factor[op]
            calls[name] += 1
        return time, calls

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start, end, parent index, operation id."""
        with path.open("w", encoding="utf-8") as f:
            for row in zip(self.name, self.start, self.end, self.parent, self.op):
                f.write(json.dumps(row) + "\n")
