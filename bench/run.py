"""emitterforge benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is grid_simulate, census, g2_long or all. Run from anywhere; the
package is imported from ``src/`` next to this directory, never from an
installed copy, and the run fails (exit 2, no result) when it is missing.

One client process runs the workload's pass in a closed loop (the next
pass starts when the previous one has finished and been checked): untimed
warm-up passes, then timed passes until S seconds have passed, with no
extra threads. Every pass is checked; a pass that raises, exits non-zero
or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (see ``layers.py``), plus the tracing overhead and the isolated
detection-step figures. Human-readable lines come first; the last line of
stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import FULL, WORKLOADS, Size, size_to_json

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_REPEATS = 3
MIN_PASSES = 3  # so wall_s is a median that one slow pass cannot move
# untimed passes before the loop, for this long and at least one: the first
# pass in a process pays lazy imports and first-touch page faults (grid's
# first pass takes about 1.4 times the later ones)
WARMUP_S = 3.0
STEP_REPEATS = 15

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "tags_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "output_mb": ("MB", "lower"),
    "op_p50_ms": ("ms", "lower"),
}
OPERATION = {
    "grid_simulate": "simulate call",
    "census": "bright spot (correlate + fit_g2)",
    "g2_long": "g2 call",
}


def import_package():
    """Import emitterforge from ``src/``; None when it is not there."""
    if not (SRC / "emitterforge" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import emitterforge

    if not Path(emitterforge.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return emitterforge


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def set_up(name: str, seed: int, work: Path, size: Size) -> float:
    """Make the inputs SETUP_REPEATS times in fresh interpreters; median wall."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH / "inputs.py"), name, str(seed), str(work),
           size_to_json(size)]
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def attempt(workload, package=None):
    """One pass, traced when ``package`` is given, then its checks.

    Returns (result or None, per-layer metrics or None, failures).
    """
    gc.collect()  # every pass starts with the same garbage: none
    try:
        with package or contextlib.nullcontext():
            result = workload.run_pass()
    except Exception:
        traceback.print_exc()
        return None, None, ["pass raised"]
    layers = package.pass_metrics(result.wall) if package else None
    try:
        return result, layers, workload.check(result)
    except Exception:
        traceback.print_exc()
        return result, layers, ["check raised"]


def closed_loop(workload, seconds: float, min_passes: int, package=None):
    """Untimed warm-up passes, then at least ``min_passes`` passes and more
    while another one is expected to end within ``seconds``; with a
    package, untraced and traced passes alternate. Every pass is checked.
    Returns ({traced: results}, per-layer metrics of each traced pass,
    passes attempted, passes failed, failures)."""
    results = {False: [], True: []}
    layer_passes, failures, spent = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < WARMUP_S:
        attempted += 1
        errors = attempt(workload)[2]
        failed += bool(errors)
        failures.extend(errors)
    warm = attempted
    start = time.perf_counter()
    while attempted - warm < min_passes or time.perf_counter() - start + statistics.median(spent) <= seconds:
        traced = package is not None and len(results[True]) < len(results[False])
        attempted += 1
        began = time.perf_counter()
        result, layers, errors = attempt(workload, package if traced else None)
        spent.append(time.perf_counter() - began)
        failed += bool(errors)
        failures.extend(errors)
        if result is not None:
            results[traced].append(result)
        if layers is not None:
            layer_passes.append(layers)
    return results, layer_passes, attempted, failed, failures


def end_to_end(results: list, setup_s: float) -> tuple[dict, list]:
    ops = [ms for r in results for ms in r.op_ms]
    values = {
        "wall_s": statistics.median(r.wall for r in results),
        "tags_per_s": statistics.median(r.tags / r.wall for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "output_mb": statistics.median(r.out_bytes for r in results) / 1e6,
        "op_p50_ms": statistics.median(ops),
    }
    return values, ops


def per_layer(results: dict, layer_passes: list, package) -> dict:
    """Medians over the traced passes, tracing overhead, detection steps."""
    from layers import detection_steps, no_detection_steps

    values = {k: statistics.median(p[k] for p in layer_passes) for k in layer_passes[0]}
    values["trace.overhead_s"] = (statistics.median(r.wall for r in results[True])
                                  - statistics.median(r.wall for r in results[False]))
    if package.heaviest is None:
        values.update(no_detection_steps())
    else:
        stream, split, det = package.heaviest
        values.update(detection_steps(stream, split, det, STEP_REPEATS))
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: Size = FULL,
                 work: Path | None = None, min_passes: int = MIN_PASSES) -> dict:
    """Set up, loop, check; prints the report and returns the JSON result."""
    work_root = BENCH / ".work"
    work = work or work_root / name
    try:
        setup_s = set_up(name, seed, work, size)
        workload = WORKLOADS[name](work, seed, size)
        print(f"machine {json.dumps(machine_info())}")
        if trace:
            from layers import PER_LAYER, TracedPackage

            package = TracedPackage()
            results, layer_passes, attempted, failed, failures = closed_loop(
                workload, seconds, max(min_passes, 2), package)
            units = PER_LAYER
            values = per_layer(results, layer_passes, package) if layer_passes and results[False] else {}
            print(f"workload {name} seed {seed}: {len(results[False])} untraced and "
                  f"{len(results[True])} traced passes")
        else:
            results, _, attempted, failed, failures = closed_loop(workload, seconds, min_passes)
            units = END_TO_END
            values, ops = end_to_end(results[False], setup_s) if results[False] else ({}, [])
            print(f"workload {name} seed {seed}: {len(results[False])} timed passes of "
                  f"{attempted}, {len(ops)} operations ({OPERATION[name]}), setup_s "
                  f"median of {SETUP_REPEATS}")
            if len(ops) >= 100:
                # unbounded: only the census has ten operations beyond its p90
                print(f"op_p90_ms {statistics.quantiles(ops, n=10)[-1]:.6g} ms (information)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} passes)")
    for key, (unit, _better) in units.items():
        if key in values:
            print(f"{key} {values[key]:.6g} {unit}")
    report = {
        "correct": not failures and all(k in values for k in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, (u, _) in units.items() if k in values},
    }
    print(json.dumps(report))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if import_package() is None:
        print(f"emitterforge not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
