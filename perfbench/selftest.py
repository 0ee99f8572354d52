"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the reference reproduces its anchors, that a doctored solution
is counted as failed, that ``cli_cold`` children import the tree under
test, that the traced run survives a missing function, and that the
benchmark refuses to run without the library.  It then times the three
figures of the ROADMAP baseline (verify_solution at n = 30, b = 5; solve at
n = 30; a fresh ``import chebextremal``) and prints them beside the ROADMAP
values; a disagreement there is reported, not failed.  Exits 1 if a check
fails.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import refvalues
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

results: list[tuple[str, bool, str]] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    results.append((name, ok, detail))
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")


def test_anchors():
    errors = refvalues.anchor_errors()
    worst = max(errors.values())
    check("reference reproduces the anchors", worst <= 1e-14, f"worst relative error {worst:.2e}")


def test_doctored_solution_fails(lib):
    op = workloads.make_op("first", (1, 2, 3), 2.0)
    sol, report, cert = workloads.CertifyMatrix(lib).execute(op)
    honest = workloads.judge_certified(op, sol, report, cert)
    doctored = dataclasses.replace(
        sol, polys={j: 1.01 * p for j, p in sol.polys.items()}, objective=sol.objective * 1.01**2
    )
    spec = lib.ProblemSpec(op.kind, op.indices, op.b)
    bad = workloads.judge_certified(
        op, doctored, lib.verify_solution(doctored, spec), lib.duality_certificate(doctored, spec)
    )
    check("honest (1,2,3) at b = 2 passes", not honest.reasons, str(honest.reasons))
    check("solution scaled by 1.01 is counted failed",
          "feasible" in bad.reasons and "reference" in bad.reasons, str(bad.reasons))


def test_cli_children_use_tree():
    wl = workloads.CliCold(str(ROOT))
    for env, label in ((wl.env, "untraced"), (wl.trace_env, "traced")):
        rc, out, err, _ = workloads.run_child(
            [sys.executable, "-c", "import chebextremal.cli as c; print(c.__file__)"], env, str(ROOT)
        )
        where = Path(out.strip()).resolve()
        check(f"{label} cli_cold child imports the tree under test",
              rc == 0 and SRC.resolve() in where.parents, str(where))
    op = workloads.make_op("first", (1, 2, 3), 2.0)
    for recorder in (None, spans.Recorder()):
        outcome = wl.judge(op, wl.execute(op, recorder), recorder)
        traced = recorder is not None
        check(f"cli_cold op passes ({'traced' if traced else 'untraced'})",
              not outcome.reasons and (not traced or "cli.import" in recorder.ms),
              str(outcome.reasons))


def test_missing_function_is_absent(lib):
    saved = dict(spans.LAYERS)
    spans.LAYERS["solver"] = saved["solver"] + ("no_such_function",)
    spans.LAYERS["no_such_module"] = ("anything",)
    original = lib.solve
    try:
        rec = spans.Recorder()
        with spans.patched(rec) as absent:
            wrapped = lib.solve is not original
            lib.solve(lib.ProblemSpec("first", (1, 2), 1.5))
    finally:
        spans.LAYERS.clear()
        spans.LAYERS.update(saved)
    check("a missing function or module is reported absent",
          {"solver.no_such_function", "no_such_module.anything"} <= set(absent), str(absent))
    check("patching wraps and then restores the library",
          wrapped and lib.solve is original and rec.calls.get("solver.solve") == 1)


def test_refuses_without_library():
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "phase_sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
        dt = time.perf_counter() - t0
    check("refuses to run without the library", proc.returncode != 0 and not proc.stdout,
          f"exit {proc.returncode} after {dt:.2f} s, stderr {proc.stderr.strip()!r}")


def roadmap_baseline(lib):
    """Time the ROADMAP baseline figures and report any disagreement."""
    spec = lib.ProblemSpec("first", tuple(range(1, 31)), 5.0)
    sol = lib.solve(spec)
    solve_ms = []
    for _ in range(20):
        t0 = time.perf_counter()
        lib.solve(spec)
        solve_ms.append((time.perf_counter() - t0) * 1e3)
    t0 = time.perf_counter()
    lib.verify_solution(sol, spec)
    verify_s = time.perf_counter() - t0
    import_s = statistics.median(run.measure_setup(ROOT))
    rows = [
        ("verify_solution n=30 b=5", f"{verify_s:.2f} s", "4.2-4.5 s", 4.2 <= verify_s <= 4.5),
        ("solve n=30 b=5 (median of 20)", f"{statistics.median(solve_ms):.2f} ms", "<= 1.2 ms",
         statistics.median(solve_ms) <= 1.2),
        ("fresh import chebextremal", f"{import_s:.2f} s", "about 0.7 s", 0.6 <= import_s <= 0.8),
    ]
    print("\nROADMAP baseline comparison (reported, not gated):")
    for name, measured, roadmap, agrees in rows:
        print(f"  {name:34} measured {measured:>9}   ROADMAP {roadmap:>10}   "
              f"{'agrees' if agrees else 'DISAGREES'}")


def main() -> int:
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    lib, _ = run.load_library(SRC)
    test_anchors()
    test_doctored_solution_fails(lib)
    test_cli_children_use_tree()
    test_missing_function_is_absent(lib)
    test_refuses_without_library()
    roadmap_baseline(lib)
    failed = [name for name, ok, _ in results if not ok]
    print(f"\n{len(results) - len(failed)} of {len(results)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
