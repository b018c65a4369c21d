"""Run the benchmark over several seeds and print every metric by name.

    python3 bench/report.py [--workloads ensemble structure trajectory]
        [--seeds 1 2 3] [--seconds 30] [--trace 0 1] [--save results.json]

Runs are made one after another, never in parallel. For each workload and
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median. With both trace modes it also prints the tracing overhead,
untraced over traced median ``jobs_per_s``. After the traced runs of a
workload it prints each layer function's share of the job time, from the
spans of the last traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import job_shares

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ensemble", "structure", "trajectory")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", nargs="+", type=int, default=[0, 1])
    parser.add_argument("--save", type=Path, help="write every run's result here")
    args = parser.parse_args(argv)

    results = {}
    for wl in args.workloads:
        for trace in args.trace:
            runs = [run_once(wl, seed, args.seconds, trace) for seed in args.seeds]
            results[f"{wl}/trace{trace}"] = runs
            share = {r["failed"] / r["attempted"] for r in runs}
            print(f"\n{wl} trace={trace}: {len(runs)} runs, jobs "
                  f"{[r['attempted'] for r in runs]}, failed share {sorted(share)}, "
                  f"correct {all(r['correct'] for r in runs)}")
            for name, first in runs[0]["metrics"].items():
                vals = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summarize(vals)
                print(f"  {name:48s} {first['unit']:6s} median {med:12.5g} "
                      f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:7.2%}")
            if trace:
                print("  self time as a share of job time:")
                for share, name in job_shares(HERE / "out" / f"trace-{wl}.npz"):
                    if share >= 0.001:
                        print(f"    {name:46s} {share:7.1%}")
        if {0, 1} <= set(args.trace):
            untraced = statistics.median(
                r["metrics"]["jobs_per_s"]["value"] for r in results[f"{wl}/trace0"])
            traced = statistics.median(
                r["metrics"]["trace.jobs_per_s"]["value"] for r in results[f"{wl}/trace1"])
            print(f"  tracing overhead: untraced/traced jobs_per_s = {untraced / traced:.3f}")
    if args.save:
        args.save.write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
