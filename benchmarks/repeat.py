"""Run the benchmark once per seed on each workload and summarise the runs.

Run from the repository root:

    python3 benchmarks/repeat.py --workloads sweep-eight-dim iso-cached \
        --seeds 1-10 --seconds 30 --trace 0 1 --out BENCH_label.json

For each workload and metric it prints the median of the per-run values,
their first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread: the distance between the quartiles as a share of the median.
It also counts the distinct sets of deterministic counters: the sweeps'
inputs do not depend on the seed, so their runs must all report one set.
Runs go one at a time.  ``--out`` also writes every run's result line and
info line to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}: "
            f"{done.stderr.strip()}"
        )
    info = next(
        json.loads(line[len("info "):]) for line in lines
        if line.startswith("info ")
    )
    return {"result": json.loads(lines[-1]), "info": info,
            "stderr": done.stderr.strip()}


def summarise(runs: list[dict]) -> dict:
    by_metric: dict = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            by_metric.setdefault(name, (m["unit"], []))[1].append(m["value"])
    out = {}
    for name, (unit, values) in by_metric.items():
        median = statistics.median(values)
        q1, _q2, q3 = (statistics.quantiles(values, n=4)
                       if len(values) > 1 else (median, median, median))
        out[name] = {
            "unit": unit, "n": len(values), "median": median,
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1),
                        default=[0])
    parser.add_argument("--out", help="write all runs and summaries here")
    args = parser.parse_args()
    report = {"seconds": args.seconds, "runs": {}}
    for trace in args.trace:
        for workload in args.workloads:
            runs = [run_once(workload, seed, args.seconds, trace)
                    for seed in args.seeds]
            summary = summarise(runs)
            report["runs"].setdefault(f"trace{trace}", {})[workload] = {
                "summary": summary, "runs": runs,
            }
            incorrect = sum(1 for r in runs if not r["result"]["correct"])
            counter_sets = {
                json.dumps(r["info"]["counters"], sort_keys=True)
                for r in runs
            }
            print(f"{workload} --trace {trace}: {len(runs)} runs, "
                  f"{incorrect} incorrect, {len(counter_sets)} distinct "
                  f"counter sets")
            for name, s in summary.items():
                spread = ("n/a" if s["spread"] is None
                          else f"{s['spread']:.4f}")
                print(f"  {name:<32} median {s['median']:.6g} {s['unit']}  "
                      f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}")
            sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
