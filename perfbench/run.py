#!/usr/bin/env python3
"""Figure-pipeline benchmark: one workload, seeded inputs, gated outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: entanglement_surface, bistability_map, power_hysteresis. The
package is imported from ``src/`` of the checkout the script sits in.
Timed passes run until ``--seconds`` have elapsed; every pass must
produce identical output, and the last one goes through the correctness
gate. With ``--trace 0`` the
end-to-end metrics are reported; with ``--trace 1`` passes alternate
untraced and traced and the per-layer metrics are reported. Every metric
is printed by name and unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 0 when
the gate passes, 1 when it fails, 2 when the package is not there.
"""

from __future__ import annotations

import os

# single-threaded BLAS, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import EIGVALS, TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("entanglement_surface", "bistability_map", "power_hysteresis")

# fresh interpreters timed for setup_s, spread evenly over the timed passes
SETUP_SAMPLES = 24

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import optomech_bistab
t1 = time.perf_counter()
physical = optomech_bistab.load_config(sys.argv[1])
t2 = time.perf_counter()
optomech_bistab.derive_model(physical)
t3 = time.perf_counter()
print(t1 - t0, t2 - t1, t3 - t2)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_sample(config: Path) -> tuple[float, float, float]:
    """(import, load_config, derive_model) seconds in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(config)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=60)
    return tuple(float(x) for x in out.stdout.split())


def timed_pass(workload, out_dir: Path) -> tuple[list, list[float]]:
    """Outputs and seconds of every unit of one pass."""
    outputs, times = [], []
    for unit in workload.units(out_dir):
        start = time.perf_counter()
        outputs.append(unit())
        times.append(time.perf_counter() - start)
    return outputs, times


def fastest(passes: list[list[float]]) -> float:
    """Sum over units of each unit's fastest time across passes."""
    return sum(map(min, zip(*passes)))


def run_passes(workload, out_dir: Path, seconds: float, traced: bool,
               config: Path):
    """Timed passes until ``seconds`` have elapsed.

    Returns (untraced unit times per pass, traced pass records, pass
    results, last output, set-up samples). With ``traced`` the passes
    alternate untraced/traced. There is no separate warm-up: a unit's
    fastest time comes from a later pass than the first. Between passes,
    ``SETUP_SAMPLES`` fresh interpreters are timed at evenly spaced
    moments of the run, so that set-up sees the same mix of machine load
    as the passes; samples still due at the deadline are taken after it.
    """
    results, plain, traced_passes, setup = [], [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    due = [start + seconds * k / SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
    while True:
        if due and time.perf_counter() >= due[0]:
            due.pop(0)
            setup.append(setup_sample(config))
        outputs, times = timed_pass(workload, out_dir)
        plain.append(times)
        results.append(workload.summarize(outputs))
        if traced:
            tracer.reset()
            with tracer:
                outputs, times = timed_pass(workload, out_dir)
            traced_passes.append((times, tracer.snapshot()))
            results.append(workload.summarize(outputs))
        if time.perf_counter() >= start + seconds:
            setup += [setup_sample(config) for _ in due]
            return plain, traced_passes, results, outputs, setup


def end_to_end(plain, result, setup, peak_rss_kb: int) -> dict:
    wall = fastest(plain)
    return {
        "wall_s": (wall, "s"),
        "rows_per_s": (result.rows / wall, "1/s"),
        "setup_s": (min(map(sum, setup)), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def per_layer(plain, records, result, setup) -> dict:
    rows = result.rows
    stats = [r[1] for r in records]
    calls = {name: acc[0] for name, acc in stats[-1].items()}
    metrics = {}
    for name in TRACED + (EIGVALS,):
        busy = min(s[name][1] for s in stats)
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.busy_s"] = (busy, "s")
        metrics[f"{name}.us_per_row"] = (1e6 * busy / rows, "us")
    metrics["harness.sweep.self_s"] = (min(s["harness.sweep"][2] for s in stats), "s")
    write_busy = metrics["harness.write_csv.busy_s"][0]
    metrics["harness.write_csv.bytes"] = (result.bytes, "B")
    metrics["harness.write_csv.MB_per_s"] = (
        result.bytes / 1e6 / write_busy if write_busy else 0.0, "MB/s")
    metrics[f"{EIGVALS}.calls_per_row"] = (calls[EIGVALS] / rows, "count")
    solves = calls["dynamics.solve_lyapunov"]
    metrics["dynamics.solve_lyapunov.calls_per_ok_row"] = (
        solves / result.ok_rows if result.ok_rows else 0.0, "count")
    metrics["harness.rows"] = (rows, "count")
    metrics["harness.ok_rows"] = (result.ok_rows, "count")
    metrics["harness.ok_rows_frac"] = (result.ok_rows / rows, "fraction")
    metrics["trace.overhead_frac"] = (
        fastest([r[0] for r in records]) / fastest(plain) - 1.0, "fraction")
    for i, part in enumerate(("import", "load_config", "derive_model")):
        metrics[f"cli.{part}.busy_s"] = (min(s[i] for s in setup), "s")
    return metrics


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "optomech_bistab" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    import inputs
    import workloads

    workload = workloads.make(args.workload, args.seed)
    physical = workload.physical
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        config = inputs.write_config(physical, scratch / "seeded.cfg")
        try:
            plain, records, results, last, setup = run_passes(
                workload, scratch / "out", args.seconds, bool(args.trace), config)
        except Exception as exc:  # a raising pass fails every row
            print(f"error: pass raised {type(exc).__name__}: {exc}", file=sys.stderr)
            rows = workload.expected_rows()
            print(json.dumps({"correct": False, "attempted": rows,
                              "failed": rows, "metrics": {}}))
            return 1
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            problems = workload.check(last, inputs.gate_rng(args.seed))
        except Exception as exc:  # malformed output
            problems = [f"gate raised {type(exc).__name__}: {exc}"]
        if len({r.digest for r in results}) != 1:
            problems.append("passes produced different output")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = results[-1]
    if args.trace:
        metrics = per_layer(plain, records, result, setup)
    else:
        metrics = end_to_end(plain, result, setup, peak_rss_kb)
    attempted = sum(r.rows for r in results)
    failed = sum(r.failed for r in results)

    report = {
        "workload": args.workload, "seed": args.seed, "rows_per_pass": result.rows,
        "passes": len(plain) + len(records), "trace": args.trace,
        "pass_s": [round(sum(t), 6) for t in plain],
        "pass_median_s": statistics.median(sum(t) for t in plain),
        "setup_samples_s": [round(sum(t), 6) for t in setup],
        "jittered": {name: getattr(physical, name) for name in inputs.JITTERED_FIELDS},
        "statuses": result.statuses, "failed_frac": failed / attempted,
        "environment": environment(),
    }
    print("# " + json.dumps(report, sort_keys=True))
    for problem in problems[:20]:
        print(f"# gate: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
