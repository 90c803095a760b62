"""Runs one workload of the orientlight benchmark and prints its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
./src, inputs go to ./.bench_out/.  Each workload is a single-process
closed loop, one operation after another, in whole passes over a pool of
instances drawn by --seed from the stored corpus (see inputs.py), for
about --seconds.  Every answer is checked against the stored
optimum and recounted (see check.py).

Times are reported at reference host speed: each chunk of operations
runs between two readings of a fixed kernel (kernels.py), and its raw
time is multiplied by the kernel's nominal time over the mean of the two
readings.  Raw figures are printed alongside.

--trace 0 prints the end-to-end metrics; --trace 1 spends part of the
run untraced and the rest with spans around every layer (spans.py), and
prints the per-layer metrics.  The last line of the output is always one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import check
import inputs
import kernels
import reference
from spans import CALLS, LAYERS, ROOT, Tracer

HERE = Path(__file__).resolve().parent

KERNEL = {
    "sparse-unweighted": kernels.BfsKernel,
    "sparse-weighted": kernels.NxMatchingKernel,
    "small-cli": kernels.TextKernel,
}
# operations timed between two kernel readings; the small-cli operations
# take milliseconds, so several share one pair of readings
CHUNK = {"sparse-unweighted": 1, "sparse-weighted": 1, "small-cli": 8}
SETUP_KERNEL = kernels.FreshImportKernel()
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
UNTRACED_SHARE = 0.4  # of a traced run, spent untraced to read the overhead


@dataclass
class Op:
    inst: inputs.Instance
    optimum: Fraction
    run: object
    check: object


@dataclass
class Phase:
    passes: int = 0
    norm: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    readings: list[float] = field(default_factory=list)
    factor: dict[int, float] = field(default_factory=dict)
    failed: int = 0
    wrong: int = 0

    @property
    def attempted(self) -> int:
        return len(self.norm)


def _normalise(kernel, raw: float, before: float, after: float) -> float:
    return raw * kernel.nominal_s * 2 / (before + after)


def fresh(root: Path, argv: list[str], samples: int) -> tuple[float, float, list[float]]:
    """Fresh-interpreter probes, each between two readings of the set-up
    kernel: the medians of the normalised and raw seconds, and the readings."""
    readings = [kernels.read(SETUP_KERNEL)]
    norm, raw = [], []
    for _ in range(samples):
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), *argv],
            cwd=root, capture_output=True, text=True, timeout=120, check=True,
        )
        reading = float(done.stdout.split()[-1])
        readings.append(kernels.read(SETUP_KERNEL))
        raw.append(reading - t0 if argv[0] == "setup" else reading)
        norm.append(_normalise(SETUP_KERNEL, raw[-1], readings[-2], readings[-1]))
    return statistics.median(norm), statistics.median(raw), readings


def library_ops(pool, paths, optima) -> list[Op]:
    import orientlight

    ops = []
    for inst, (g_path, w_path) in zip(pool, paths):
        g = orientlight.parse_graph(g_path.read_text(encoding="utf-8"))
        w = orientlight.parse_weights(w_path.read_text(encoding="utf-8"), g.n) if w_path else None
        ops.append(Op(
            inst, optima[inst.name],
            lambda g=g, w=w: orientlight.solve_min_light(g, w),
            check.solution_problems,
        ))
    return ops


def cli_ops(pool, paths, optima) -> list[Op]:
    import orientlight.cli as cli

    def call(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    def solve_and_verify(g: Path, w: Path | None):
        extra = ["--weights", str(w)] if w else []
        solution = g.with_suffix(".solution.json")
        solve_code, solve_out = call(["solve", str(g), *extra, "--json"])
        solution.write_text(solve_out, encoding="utf-8")
        verify_code, verify_out = call(["verify", str(g), str(solution), *extra])
        return solve_code, solve_out, verify_code, verify_out

    return [
        Op(inst, optima[inst.name], lambda g=g, w=w: solve_and_verify(g, w), check.cli_problems)
        for inst, (g, w) in zip(pool, paths)
    ]


def measure(ops: list[Op], chunk: int, kernel, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Whole passes over ops for about seconds: at least one, and another
    only while it would end at most half a pass after the deadline."""
    ph = Phase()
    started = perf_counter()
    deadline = started + seconds
    before = kernels.read(kernel)
    ph.readings.append(before)
    op_id = 0
    while ph.passes == 0 or perf_counter() + (perf_counter() - started) / ph.passes / 2 < deadline:
        for c in range(0, len(ops), chunk):
            done = []
            for op in ops[c : c + chunk]:
                error = out = None
                t0 = perf_counter()
                span = tracer.open(ROOT, op_id) if tracer else None
                try:
                    out = op.run()
                except Exception:  # an operation that raises is counted as failed
                    error = traceback.format_exc(limit=3)
                finally:
                    if tracer:
                        tracer.close(span)
                done.append((op, out, error, perf_counter() - t0, op_id))
                op_id += 1
            after = kernels.read(kernel)
            ph.readings.append(after)
            for op, out, error, raw, oid in done:
                ph.factor[oid] = _normalise(kernel, 1.0, before, after)
                ph.raw.append(raw)
                ph.norm.append(raw * ph.factor[oid])
                found = [error] if error else op.check(op.inst, op.optimum, out)
                if found:
                    ph.failed += 1
                    ph.wrong += error is None
                    print(f"FAILED {op.inst.name}: {found[0]}", file=sys.stderr)
            before = after
        ph.passes += 1
    return ph


def describe(pool, rows) -> str:
    def span(key):
        vals = [rows[i.name][key] for i in pool]
        return f"{min(vals)}..{max(vals)} (sum {sum(vals)})"

    weighted = sum(i.units is not None for i in pool)
    return (
        f"pool: {len(pool)} instances, {weighted} with costs; n {span('n')}, m {span('m')}, "
        f"degree-1 {span('degree_one')}, isolated {span('isolated')}, "
        f"|V'| {span('gadget_vertices')}, |E'| {span('gadget_edges')}"
    )


def report_kernel(kernel, readings: list[float]) -> None:
    med = statistics.median(readings)
    print(
        f"kernel {kernel.name}: {len(readings)} readings, median {med:.5f} s "
        f"({med / kernel.nominal_s:.3f}x nominal {kernel.nominal_s} s), "
        f"min {min(readings):.5f}, max {max(readings):.5f}"
    )


def end_to_end(ph: Phase, setup: tuple) -> dict:
    op_p50 = statistics.median(ph.norm)
    ops_per_s = ph.attempted / sum(ph.norm)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"setup_s      {setup[0]:.5f} s   (raw {setup[1]:.5f} s, median of {SETUP_SAMPLES})")
    print(f"op_p50_s     {op_p50:.5f} s   (raw {statistics.median(ph.raw):.5f} s)")
    if ph.attempted >= 40:
        p90 = statistics.quantiles(ph.norm, n=10)[-1]
        print(f"op_p90_s     {p90:.5f} s   (not gated)")
    print(f"ops_per_s    {ops_per_s:.4f} 1/s (raw {ph.attempted / sum(ph.raw):.4f} 1/s)")
    print(f"peak_rss_mb  {rss_mb:.2f} MB")
    return {
        "setup_s": {"value": setup[0], "unit": "s"},
        "op_p50_s": {"value": op_p50, "unit": "s"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(untraced: Phase, traced: Phase, tracer: Tracer, imports: dict) -> dict:
    time, calls = tracer.layer_totals(traced.factor)
    ops = traced.attempted
    metrics = {k: {"value": v[0], "unit": "s"} for k, v in imports.items()}
    for metric in LAYERS:
        metrics[metric] = {"value": time[metric] / ops, "unit": "s"}
    for metric, layer in CALLS.items():
        metrics[metric] = {"value": calls[layer] // traced.passes, "unit": "count"}
    metrics["reduction.gadget_vertices"] = {"value": tracer.gadget[0] // traced.passes, "unit": "count"}
    metrics["reduction.gadget_edges"] = {"value": tracer.gadget[1] // traced.passes, "unit": "count"}
    for k, v in imports.items():
        print(f"{k:28s} {v[0]:.5f} s (raw {v[1]:.5f} s)")
    for metric in LAYERS:
        print(f"{metric:28s} {metrics[metric]['value']:.6f} s per operation, {calls[metric]} calls")
    for metric in (*CALLS, "reduction.gadget_vertices", "reduction.gadget_edges"):
        print(f"{metric:28s} {metrics[metric]['value']} per pass")
    untraced_mean = sum(untraced.norm) / untraced.attempted
    traced_mean = sum(traced.norm) / ops
    layers = sum(time[m] for m in LAYERS) / ops
    print(
        f"tracing overhead: {traced_mean - untraced_mean:+.6f} s per operation "
        f"(mean {traced_mean:.6f} traced, {untraced_mean:.6f} untraced); "
        f"op_p50_s {statistics.median(traced.norm):.6f} traced, "
        f"{statistics.median(untraced.norm):.6f} untraced"
    )
    print(
        f"layer self times sum to {layers:.6f} s per operation; the rest of the traced "
        f"operation, {time[ROOT] / ops:.6f} s, is the benchmark's own call overhead"
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "orientlight" / "__init__.py").is_file():
        print(f"error: no orientlight sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    stored = reference.load()[args.workload]
    pool = inputs.pool(args.workload, args.seed)
    for inst in pool:
        if stored[inst.name]["digest"] != inst.digest():
            print(f"error: {inst.name} differs from the stored corpus; remake optima.json", file=sys.stderr)
            return 2
    optima = {inst.name: Fraction(stored[inst.name]["optimum"]) for inst in pool}
    out_dir = root / ".bench_out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    paths = inputs.write_pool(pool, out_dir)
    kernel = KERNEL[args.workload]()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(describe(pool, stored))

    # the first probe compiles the program's bytecode; it is not timed
    setup_argv = ["setup", str(src), args.workload, str(out_dir)]
    fresh(root, setup_argv, 1)
    if args.trace:
        imports = {
            "package.import_s": fresh(root, ["import", str(src), "orientlight"], IMPORT_SAMPLES),
            "package.numpy_import_s": fresh(root, ["import", str(src), "numpy"], IMPORT_SAMPLES),
        }
    else:
        setup = fresh(root, setup_argv, SETUP_SAMPLES)
        report_kernel(SETUP_KERNEL, setup[2])

    make = cli_ops if args.workload == "small-cli" else library_ops
    ops = make(pool, paths, optima)
    chunk = CHUNK[args.workload]
    # warm-up, untimed and unchecked: the same operation is checked in every pass
    with contextlib.suppress(Exception):
        ops[0].run()

    if args.trace:
        untraced = measure(ops, chunk, kernel, args.seconds * UNTRACED_SHARE)
        tracer = Tracer()
        undo = tracer.install()
        try:
            ph = measure(ops, chunk, kernel, args.seconds * (1 - UNTRACED_SHARE), tracer)
        finally:
            Tracer.uninstall(undo)
        report_kernel(kernel, untraced.readings + ph.readings)
        metrics = per_layer(untraced, ph, tracer, imports)
        trace_path = root / ".bench_out" / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.name)} written to {trace_path.relative_to(root)}")
        attempted = untraced.attempted + ph.attempted
        failed, wrong = untraced.failed + ph.failed, untraced.wrong + ph.wrong
    else:
        ph = measure(ops, chunk, kernel, args.seconds)
        report_kernel(kernel, ph.readings)
        metrics = end_to_end(ph, setup)
        attempted, failed, wrong = ph.attempted, ph.failed, ph.wrong
    print(f"passes {ph.passes}, attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
