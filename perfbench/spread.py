"""Run one workload over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workload large_bank --seeds 1 2 3 4 5

For each metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median, the figure every bound in
BENCHMARK.json is compared with. The last line is the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def summarise(results):
    """{metric: {median, q1, q3, spread, unit}} over a list of run results."""
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None,
                         "unit": first["unit"], "values": values}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", default="48")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    results = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, cwd=RUN.parent.parent, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
        results.append(result)

    summary = summarise(results)
    for name, row in summary.items():
        spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
        print(f"{name:28s} median {row['median']:12.6g} {row['unit']:6s} "
              f"q1 {row['q1']:12.6g} q3 {row['q3']:12.6g} spread {spread}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "all_correct": all(r["correct"] for r in results),
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
