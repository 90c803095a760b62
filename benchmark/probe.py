"""Fresh-interpreter probes, started as child processes by run.py.

    probe.py setup SRC WORKLOAD INPUT_DIR   import the program and load the
                                            workload's inputs, then print
                                            the monotonic clock
    probe.py import SRC MODULE              print the seconds one import takes

The parent reads the monotonic clock before it starts the child, so the
set-up time includes the interpreter's own start.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter


def setup(src: str, workload: str, input_dir: str) -> None:
    sys.path.insert(0, src)
    if workload == "small-cli":
        import orientlight.cli  # noqa: F401  each operation reads its own input files
    else:
        import orientlight

        for g in sorted(Path(input_dir).glob("*.graph")):
            graph = orientlight.parse_graph(g.read_text(encoding="utf-8"))
            costs = g.with_suffix(".costs")
            if costs.exists():
                orientlight.parse_weights(costs.read_text(encoding="utf-8"), graph.n)
    print(perf_counter())


def import_time(src: str, module: str) -> None:
    sys.path.insert(0, src)
    t0 = perf_counter()
    __import__(module)
    print(perf_counter() - t0)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(*sys.argv[2:5])
    else:
        import_time(*sys.argv[2:4])
