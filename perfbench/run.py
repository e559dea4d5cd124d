"""Benchmark of the oddind solvers: one workload per run, one process, one
thread, a closed loop with one client (each solve starts after the previous
one returns).

    python3 perfbench/run.py --workload alpha-od-search --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  A full report (every metric, failures, the machine) is
printed as JSON above that line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import DERIVED, PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Clock  # noqa: E402

SUBMODULES = ("graphs", "formats", "generators", "independence", "coloring",
              "matching", "bounds", "enumeration", "cli")
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "exact_ratio": "ratio",
}


def import_package():
    """Import ``oddind`` afresh from the checkout, so every module-level
    cache (the enumeration and generator ``lru_cache``s) starts cold."""
    for name in [m for m in sys.modules if m == "oddind" or m.startswith("oddind.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("oddind")
    if Path(pkg.__file__).resolve().parent != SRC / "oddind":
        raise ImportError(f"oddind imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"oddind.{m}") for m in SUBMODULES})


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def run_pass(workload, mods, inputs, tracer=None):
    clock = Clock(tracer)
    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        workload.run_pass(mods, inputs, clock)
    else:
        with tracer:
            workload.run_pass(mods, inputs, clock)
    return time.perf_counter() - start, clock


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))]


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path):
    workload = WORKLOADS[name]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        mods = import_package()
        inputs = workload.build(mods, seed, smoke, workdir)
        setup_times.append(time.perf_counter() - start)

    walls, clocks = [], []
    tracer = overhead = None
    begin = time.perf_counter()
    while True:
        wall, clock = run_pass(workload, mods, inputs)
        walls.append(wall)
        clocks.append(clock)
        if trace or time.perf_counter() - begin + statistics.median(walls) > seconds:
            break
    if trace:
        tracer = Tracer(mods)
        wall, clock = run_pass(workload, mods, inputs, tracer)
        overhead = wall - walls[0]
        clocks.append(clock)

    # the correctness gate, outside every timed section
    failures = {}
    attempted = failed = solves = exact = 0
    for clock in clocks:
        errors = workload.check(mods, inputs, clock)
        attempted += len(clock.ops)
        failed += len(errors)
        for op in clock.ops:
            s, e = workload.solves(op)
            solves += s
            exact += e
        for key, errs in errors.items():
            failures.setdefault(key or "pass", errs)
    failed = min(failed, attempted)

    op_ms = [op.seconds * 1000 for clock in clocks[:len(walls)] for op in clock.ops]
    report = {
        "workload": name, "seed": seed, "trace": trace, "smoke": smoke,
        "passes": len(walls), "machine": machine(),
        "ambient_budget_env": os.environ.get("ODDIND_BUDGET_SECS"),
        "end_to_end": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "exact_ratio": exact / solves if solves else 0.0,
            "error_ratio": failed / attempted if attempted else 0.0,
            "op_count": len(op_ms) // len(walls),
            "op_p50_ms": statistics.median(op_ms) if op_ms else 0.0,
        },
        "failures": failures,
    }
    e2e = report["end_to_end"]
    # the highest percentile with at least ten samples beyond it
    if e2e["op_count"] >= 1000:
        e2e["op_p99_ms"] = percentile(op_ms, 0.99)
    limited = {}
    for clock in clocks[:len(walls)]:
        for op in clock.ops:
            if op.budget is not None:
                limited.setdefault(op.name, []).append(op.seconds - op.budget)
    if limited:
        overruns = {k: statistics.median(v) for k, v in limited.items()}
        e2e["overrun_max_s"] = max(overruns.values())
        report["results"] = {f"results.overrun_s.{k}": v for k, v in overruns.items()}

    if trace:
        report["per_layer"] = tracer.metrics(clocks[-1].stages, overhead)
        report["per_layer_derived"] = list(DERIVED)
        if len(tracer.by_op) <= 32:
            report["op_layers_s"] = {str(op): dict(spans) for op, spans in tracer.by_op.items()}
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in report["per_layer"].items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="measure passes until this much time is used (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced pass, per-layer metrics")
    args = parser.parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import oddind from {SRC}: {exc}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             False, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
