"""Benchmark of the chebextremal library in this checkout.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload certify_matrix --seed 1 --seconds 16 --trace 0

Workloads are ``certify_matrix``, ``phase_sweep``, ``cli_cold`` and
``oracle_crosscheck`` (see ``workloads.py`` and README.md).  Each run is one
closed-loop caller in this process, single-threaded BLAS, repeating whole
rounds of seeded ops until ``--seconds`` have passed.  Every op is checked
against a 60-digit reference computed before timing.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it repeats the same ops a second time with spans wrapped
around the library's public functions and reports the per-layer metrics;
the wall-time difference between the two passes is the tracing overhead.

Standard output carries one detail record (every metric with its unit and
sample count, failures with reasons, health numbers with their margins,
and an environment stamp), then, as the last line, the result record
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
the run completed, 2 when the checkout holds no library to benchmark.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refvalues
import spans
import workloads

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: fresh interpreters timed for ``setup_s``, after one untimed warm-up
SETUP_SAMPLES = 5

#: failing cells listed in the detail record (all are counted)
MAX_LISTED = 100

#: a tail percentile needs this many ops beyond it
TAIL_BEYOND = 10

#: end-to-end metrics of the result line.  The detail record adds
#: ``op_p50_ms``, ``op_tail_ms`` and ``failed_share``, reported but not
#: gated: order statistics of ops whose costs cluster by cell jump between
#: clusters from seed to seed, and ``failed_share`` is 0 on two workloads
E2E_UNITS = {
    "ops_per_s": "1/s",
    "pass_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_library(src: Path):
    """Import the library from ``src``, refusing any other copy."""
    sys.path.insert(0, str(src))
    lib = importlib.import_module("chebextremal")
    cli = importlib.import_module("chebextremal.cli")
    where = Path(lib.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"chebextremal imported from {where}, not from {src}")
    return lib, cli


def measure_setup(root: Path) -> list[float]:
    """Wall times of fresh interpreters running ``import chebextremal``."""
    argv = [sys.executable, "-c", "import chebextremal"]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=root, check=True)
        if i:  # the first call only warms caches and bytecode
            times.append(time.perf_counter() - t0)
    return times


def timed_loop(workload, rounds, seconds: float, recorder=None, limit: int | None = None):
    """Run whole rounds within ``seconds`` (or exactly ``limit`` ops).

    A further round starts only if, at the mean round time so far, it ends
    within ``seconds``; the first always runs.  So a workload whose round
    outlasts half the time runs exactly one round, whatever the machine's
    speed, and its op count (and with it the tail percentile) stays fixed.

    Returns (per-op records, wall seconds of the loop).  An op that raises
    is timed like any other and judged as failed.
    """
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        for op in rounds[i % len(rounds)]:
            if limit is not None and len(records) == limit:
                return records, time.perf_counter() - start
            t0 = time.perf_counter()
            try:
                raw, exc = workload.execute(op, recorder), None
            except Exception as err:  # an op that raises is a failed op, not a crash
                raw, exc = None, err
            dt = time.perf_counter() - t0
            if exc is None:
                try:
                    outcome = workload.judge(op, raw, recorder)
                except Exception as err:
                    outcome, exc = workloads.Outcome(), err
            else:
                outcome = workloads.Outcome()
            if exc is not None:
                outcome.reasons.insert(0, "exception")
                outcome.error = f"{type(exc).__name__}: {exc}"
            records.append((op, dt, outcome))
        i += 1
        elapsed = time.perf_counter() - start
        if limit is None and elapsed * (i + 1) / i > seconds:
            return records, elapsed


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND ops beyond it, and its value.

    With fewer ops than that the maximum is reported as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def failure_summary(records) -> tuple[dict, list]:
    counts = {reason: 0 for reason in workloads.FAIL_REASONS}
    cells: dict[str, dict] = {}
    for op, _, outcome in records:
        for reason in set(outcome.reasons):
            counts[reason] += 1
        if outcome.reasons:
            cells.setdefault(op.label, {"op": op.label, "reasons": sorted(set(outcome.reasons)),
                                        "error": outcome.error})
    return counts, list(cells.values())


def health_summary(records) -> dict:
    out = {}
    for name, tol in workloads.HEALTH_TOLS.items():
        values = [o.health[name] for _, _, o in records if name in o.health]
        if values:
            worst = max(values)
            out[f"health.{name}"] = {"value": worst, "tolerance": tol, "margin": tol - worst,
                                     "samples": len(values)}
    return out


def end_to_end(records, wall: float, setup_times: list[float], child_rss_kb: int):
    latencies = [dt * 1e3 for _, dt, _ in records]
    n = len(records)
    failed = sum(1 for _, _, o in records if o.reasons)
    pct, tail_ms = tail(latencies)
    rss_kb = child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "ops_per_s": (n / wall, n),
        "pass_share": (1.0 - failed / n, n),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (rss_kb / 1024.0, 1),
    }
    detail = {name: {"value": v, "unit": E2E_UNITS[name], "samples": s}
              for name, (v, s) in values.items()}
    detail["op_p50_ms"] = {"value": statistics.median(latencies), "unit": "ms", "samples": n}
    detail["op_tail_ms"] = {"value": tail_ms, "unit": "ms", "samples": n, "percentile": pct}
    detail["failed_share"] = {"value": failed / n, "unit": "share", "samples": n}
    return detail


def per_layer(recorder, records, absent: list[str], overhead: float):
    n = len(records)
    op_ms = sum(dt for _, dt, _ in records) * 1e3
    detail = {}
    for name in spans.SPAN_NAMES:
        ms = recorder.ms.get(name, 0.0)
        calls = recorder.calls.get(name, 0)
        detail[f"{name}.ms"] = {"value": ms / n, "unit": "ms", "samples": calls}
        detail[f"{name}.calls"] = {"value": calls / n, "unit": "count", "samples": n}
        detail[f"{name}.share"] = {"value": ms / op_ms, "unit": "share", "samples": calls}
    for name in spans.COUNTERS:
        detail[name] = {"value": recorder.counts.get(name, 0) / n, "unit": "count", "samples": n}
    gap = [o.gap_ok for _, _, o in records if o.gap_ok is not None]
    ratios = dict(recorder.ratios, **{"cli.oracle.gap_ok_ratio": [sum(gap), len(gap)]})
    for name in spans.RATIOS:
        hits, trials = ratios.get(name, (0, 0))
        detail[name] = {"value": hits / trials if trials else 0.0, "unit": "ratio",
                        "samples": trials}
    counts, _ = failure_summary(records)
    for reason, count in counts.items():
        detail[f"fail.{reason}"] = {"value": count / n, "unit": "share", "samples": n}
    detail["trace.overhead_share"] = {"value": overhead, "unit": "share", "samples": n}
    for name in absent:
        for stat in ("ms", "calls", "share"):
            detail[f"{name}.{stat}"]["absent"] = True
    return detail


def environment(args, src: Path) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "library": str(src / "chebextremal"),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "chebextremal" / "__init__.py").is_file():
        print(f"error: no library at {src / 'chebextremal'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOAD_NAMES)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # one closed-loop caller: no BLAS threads, here or in any child
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(src)
    lib, cli = load_library(src)

    anchors = refvalues.anchor_errors()
    anchors_ok = all(err <= refvalues.REFERENCE_RTOL for err in anchors.values())
    setup_times = [] if args.trace else measure_setup(root)
    workload = workloads.build(args.workload, lib, cli, str(root))
    rounds = workload.plan(random.Random(args.seed))
    # warm lazy initialisation in numpy and scipy before timing
    warm = workloads.make_op("first", (1, 2, 3), 2.0)
    workloads.CertifyMatrix(lib).execute(warm)

    records, wall = timed_loop(workload, rounds, args.seconds)
    report = {"workload": args.workload, "env": environment(args, src), "anchors": anchors}
    if args.trace:
        recorder = spans.Recorder()
        with spans.patched(recorder) as absent:
            traced, traced_wall = timed_loop(workload, rounds, args.seconds, recorder,
                                             limit=len(records))
        overhead = traced_wall / wall - 1.0
        detail = per_layer(recorder, traced, absent, overhead)
        report["absent"] = absent
        report["hook_errors"] = recorder.hook_errors
        judged = traced
    else:
        child_rss = max((o.child_rss_kb for _, _, o in records), default=0)
        detail = end_to_end(records, wall, setup_times, child_rss)
        judged = records
    _, cells = failure_summary(judged)
    report["metrics"] = detail
    report["failures"] = cells[:MAX_LISTED]
    report["failed_cells"] = len(cells)
    report["health"] = health_summary(judged)
    failed = sum(1 for _, _, o in judged if o.reasons)
    # a failed op is one the library flagged or raised on; a wrong answer it
    # did not flag (the reference check is its only failure) is incorrect
    silent = [op.label for op, _, o in judged if o.reasons == ["reference"]]
    report["silent_wrong_answers"] = sorted(set(silent))[:MAX_LISTED]
    correct = anchors_ok and not silent
    result = {
        "correct": correct,
        "attempted": len(judged),
        "failed": failed,
        "metrics": {name: {"value": d["value"], "unit": d["unit"]} for name, d in detail.items()
                    if args.trace or name in E2E_UNITS},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
