"""Benchmark of the sphslice package: end-to-end metrics, or per-layer ones when traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload plane_invert --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all                 # every workload, one process each
    python3 bench/run.py --workload all --size acceptance   # the acceptance-test sizes

One run sets the workload up, then runs its operation in a closed loop (one
caller, the next operation starts when the previous one has returned) until
--seconds would be exceeded.  Untraced runs sample the host's speed during
each operation (calibrate.py), report operation times in units of that
sampler's kernel, and time the set-up in fresh processes between
operations.  Every operation's accuracy is checked against the acceptance
gates.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable report.  Details of
the run (environment, per-operation times, accuracy figures) are written to
bench/out/<workload>-<size>-seed<seed>-trace<0|1>/, and in traced runs the
spans of the last traced operation too.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("plane_invert", "sphere_invert", "forward_sweep")
SETUP_PROBES = 7

# Untraced runs report these, traced runs the per-layer metrics below.
END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_cal": "ratio",
    "peak_rss_mb": "MB",
    "err_gate_frac": "ratio",
    "err_geomean": "rel",
}

# Traced runs report these.  Tracer.summary gives all but inversion.nonconv_warnings
# (counted from the warnings an operation raises) and trace.overhead_frac.
PER_LAYER = {
    "quadrature.rule_calls": "count",
    "quadrature.unique_rule_frac": "ratio",
    "quadrature.self_s": "s",
    "geometry.flats_validated": "count",
    "geometry.section_rules": "count",
    "geometry.self_s": "s",
    "stereo.points": "count",
    "stereo.self_s": "s",
    "transforms.integrals": "count",
    "transforms.self_s": "s",
    "scenes.field_calls": "count",
    "scenes.field_points": "count",
    "scenes.field_s": "s",
    "scenes.self_s": "s",
    "inversion.build_s": "s",
    "inversion.eval_s": "s",
    "inversion.table_lines": "count",
    "inversion.growth_lines": "count",
    "inversion.table_fill_s": "s",
    "inversion.spline_fits": "count",
    "inversion.spline_fit_s": "s",
    "inversion.kernel_points": "count",
    "inversion.field_eval_s": "s",
    "inversion.kernel_self_s": "s",
    "inversion.nonconv_warnings": "count",
    "inversion.self_s": "s",
    "zonal.forward_calls": "count",
    "zonal.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_frac": "ratio",
}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description="sphslice benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=50.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--size", choices=("bench", "acceptance", "smoke"), default="bench",
                        help="size preset (see workloads.SIZES)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _cap_blas_threads() -> int:
    """Limit OpenBLAS to the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS")
    if current is None or not current.isdigit() or int(current) > nproc:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    return nproc


def _import_library():
    """Import sphslice from this checkout's src/, or exit if it is not there."""
    if not (SRC / "sphslice" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'sphslice'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import sphslice

    if Path(sphslice.__file__).resolve().parent != SRC / "sphslice":
        sys.exit(f"error: imported sphslice from {sphslice.__file__}, not from {SRC}")


def _environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc,
        "cpu": cpu,
        "platform": platform.platform(),
    }


def _probe_setup(args) -> float:
    """Seconds from starting a fresh process to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--trace", str(args.trace), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


@dataclass
class _Loop:
    """What the closed loop of operations measured and found."""

    untraced: list = field(default_factory=list)   # seconds per untraced operation
    sampler: object = None                         # calibrate.SpeedSampler in untraced runs
    cal: list = field(default_factory=list)        # untraced operation cost in kernel units
    kernel: list = field(default_factory=list)     # mean kernel seconds during each untraced operation
    traced: list = field(default_factory=list)     # seconds per traced operation
    layer_rows: list = field(default_factory=list)  # per-layer metrics per traced operation
    attempted: int = 0
    failed: int = 0
    figures: dict | None = None
    files: dict | None = None
    problems: list = field(default_factory=list)

    def run_op(self, workload, hooks, tracer):
        """One timed operation, traced when tracer is given."""
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is None:
                with self.sampler.sampling() if self.sampler else contextlib.nullcontext():
                    start = time.perf_counter()
                    outcome = workload.run(hooks)
                    elapsed = time.perf_counter() - start
                self.untraced.append(elapsed)
                if self.sampler:
                    kernel = statistics.mean(self.sampler.samples)
                    self.kernel.append(kernel)
                    self.cal.append((elapsed - self.sampler.handler_s) / kernel)
            else:
                tracer.reset()
                with tracer.install(), tracer.span("bench", "operation"):
                    outcome = workload.run(tracer)
                row, problems = tracer.summary()
                row["inversion.nonconv_warnings"] = sum(
                    "hypersingular non-convergent" in str(w.message) for w in caught)
                self.layer_rows.append(row)
                self.traced.append(row["trace.solve_s"])
                self.problems.extend(problems)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.errors)
        if self.figures is None:
            self.figures, self.files = outcome.figures, outcome.files
        elif (outcome.figures, outcome.files) != (self.figures, self.files):
            self.problems.append("an operation's accuracy figures or output files differ from the first one's")
        seconds = (self.traced if tracer else self.untraced)[-1]
        print(f"# op {len(self.untraced) + len(self.traced)}: {'traced' if tracer else 'untraced'} "
              f"{seconds:.3f} s, {outcome.attempted} cases, {outcome.failed} failed", flush=True)
        return seconds

    def warm_untraced(self) -> list:
        """Untraced times without the first operation, which also fills caches and the heap."""
        return self.untraced[1:] or self.untraced

    def warm_cal(self) -> list:
        """Untraced operation costs in kernel units, without the first operation."""
        return self.cal[1:] or self.cal

    def per_layer(self) -> dict:
        """Per-layer metrics, each the median over the traced operations."""
        overhead = statistics.median(self.traced) / statistics.median(self.warm_untraced()) - 1.0
        metrics = {}
        for name, unit in PER_LAYER.items():
            values = [overhead] if name == "trace.overhead_frac" else [row[name] for row in self.layer_rows]
            if unit == "count" and len(set(values)) > 1:
                self.problems.append(f"{name} differs between traced operations: {values}")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        return metrics

    def end_to_end(self, setup_s: float, gates: dict) -> dict:
        figures = self.figures
        values = {
            "setup_s": setup_s,
            "solve_cal": statistics.median(self.warm_cal()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "err_gate_frac": max(v / gates[k] for k, v in figures.items()),
            "err_geomean": math.prod(figures.values()) ** (1.0 / len(figures)),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def run_workload(args) -> int:
    nproc = _cap_blas_threads()
    _import_library()
    import workloads

    run_dir = OUT_DIR / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    workload = workloads.setup(args.workload, args.size, args.seed, run_dir)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    env = _environment(nproc)
    print(f"# {args.workload} size={args.size} seed={args.seed} trace={args.trace}")
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    loop = _Loop()
    if not args.trace:
        from calibrate import SpeedSampler

        loop.sampler = SpeedSampler()
    setup_samples = []
    start = time.perf_counter()
    while True:
        # Traced runs alternate untraced and traced operations, starting untraced.
        use_tracer = tracer if len(loop.untraced) > len(loop.traced) else None
        seconds = loop.run_op(workload, workloads.PLAIN, use_tracer)
        if not args.trace:
            # Set-up probes are spread over the run, so that setup_s sees the
            # host over the whole run and not only at its start.
            elapsed = time.perf_counter() - start
            if len(setup_samples) < SETUP_PROBES and elapsed >= len(setup_samples) * args.seconds / SETUP_PROBES:
                setup_samples.append(_probe_setup(args))
        if (loop.traced or not args.trace) and time.perf_counter() - start + seconds > args.seconds:
            break
    while not args.trace and len(setup_samples) < SETUP_PROBES:
        setup_samples.append(_probe_setup(args))

    if not loop.figures:
        metrics = {}
    elif args.trace:
        metrics = loop.per_layer()
    else:
        metrics = loop.end_to_end(statistics.median(setup_samples), workloads.GATES)
    for name, value in (loop.figures or {}).items():
        print(f"# {name} = {value:.4e} (gate {workloads.GATES[name]:g})")
    if loop.untraced:
        print(f"# untraced operation wall time: median {statistics.median(loop.warm_untraced()):.4f} s "
              f"over {len(loop.warm_untraced())} warm operations")
    if loop.kernel:
        print(f"# speed sampler: median kernel time {statistics.median(loop.kernel) * 1e3:.4f} ms")
    for name, metric in metrics.items():
        print(f"{name:30s} {metric['value']:.6g} {metric['unit']}")
    for problem in loop.problems:
        print(f"# problem: {problem}")

    correct = loop.failed == 0 and not loop.problems and bool(metrics)
    result = {"correct": correct, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
    run_dir.mkdir(parents=True, exist_ok=True)
    details = {"args": vars(args), "environment": env, "setup_samples_s": setup_samples,
               "untraced_s": loop.untraced, "kernel_s": loop.kernel, "cal": loop.cal, "traced_s": loop.traced,
               "figures": loop.figures,
               "problems": loop.problems, "result": result}
    (run_dir / "result.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.save(run_dir / "spans.npz")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints a summary table and all results."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, json.JSONDecodeError):
            results[name] = None
    print("\n# summary")
    for name, result in results.items():
        if result is None:
            print(f"{name:15s} FAILED TO RUN")
            continue
        shown = ", ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items())
        print(f"{name:15s} correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}  {shown}")
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
