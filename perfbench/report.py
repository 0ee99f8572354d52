"""Run the benchmark over workloads and seeds and print every metric.

    python3 perfbench/report.py                       # each workload once, both modes
    python3 perfbench/report.py --seeds 1-10 --trace 0 --workloads cli_cold

For each workload and metric it prints the unit, the sample count of the
last run, and, over the seeds, the median, the quartiles and the spread
(quartile distance over median) next to the metric's bound in
BENCHMARK.json.  ``--out FILE`` also saves every run's records as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance over median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    modes = [0, 1] if args.trace == "both" else [int(args.trace)]
    runs = []
    for workload in args.workloads.split(","):
        for trace in modes:
            batch = []
            for seed in parse_seeds(args.seeds):
                rec = run_once(workload, seed, args.seconds, trace)
                res = rec["result"]
                print(f"# {workload} trace={trace} seed={seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)
                batch.append(rec)
                runs.append({"workload": workload, "trace": trace, "seed": seed, **rec})
            last = batch[-1]["detail"]["metrics"]
            print(f"\n== {workload} (trace={trace}, {len(batch)} seed(s))")
            print(f"{'metric':48} {'unit':6} {'n':>6} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>8} {'bound':>6}")
            for name, info in last.items():
                values = [b["detail"]["metrics"][name]["value"] for b in batch]
                med, q1, q3, sp = spread(values)
                bound = bounds.get(name)
                note = " absent" if info.get("absent") else ""
                if "percentile" in info:
                    note += f" p{info['percentile']:.1f}"
                print(f"{name:48} {info['unit']:6} {info['samples']:>6} {med:12.5g} {q1:12.5g} "
                      f"{q3:12.5g} {sp:8.4f} {'' if bound is None else bound:>6}{note}")
            health = batch[-1]["detail"]["health"]
            for name, h in health.items():
                print(f"{name:48} {'':6} {h['samples']:>6} {h['value']:12.4g} "
                      f"margin {h['margin']:.3g} to tolerance {h['tolerance']:.3g}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
