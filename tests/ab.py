"""Paired A/B runs of perfbench: the working tree against a base, or a recorded set.

Usage::

    python tests/ab.py --base REV|DIR --workload W --pairs N [--seed S] [--seconds T]
    python tests/ab.py --record LABEL [--pairs N] [--seed S] [--seconds T]

Each side runs its own ``perfbench/run.py`` from its own copy of ``src/``
and ``perfbench/`` under one scratch directory, which is deleted at exit:
the working tree's, a directory's, or a revision's, extracted with ``git
archive`` (a ``git worktree`` would register itself in the repository and
outlive a run that is killed). Pair i runs the base first when i is odd
and the working tree first when it is even. Each run's first stdout line
(the environment), last line (the result), phase lines and digests are
parsed, and the share of stolen CPU is read from ``/proc/stat`` around it.
Runs whose digests differ, or that fail, stop the comparison with an error.

The output is one block to paste into CHANGES.md: per metric, both
medians, the base IQR, the pairs the working tree won (ties excluded) and
the exact two-sided sign-test p-value, then every run's values and steal.

``--record LABEL`` runs the working tree alone, N runs per workload of
BENCHMARK.json, and writes ``BENCH_<LABEL>.json`` at the root: the
environment, each workload's medians and IQRs, and the line totals of
``tests/source_lines.py``.
Standard library only.
"""

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import source_lines

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "perfbench")


def checkout(base, dest):
    """Copy ``src/`` and ``perfbench/`` of a directory or a git revision into ``dest``."""
    if Path(base).is_dir():
        for name in COPIED:
            shutil.copytree(Path(base) / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        return
    tar = subprocess.run(["git", "archive", "--format=tar", base, *COPIED], cwd=REPO,
                         check=True, capture_output=True).stdout
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def cpu_times():
    """The machine's (steal, total) CPU ticks from /proc/stat, or None where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def run_once(root, workload, seed, seconds):
    """One perfbench run in ``root``: env, metrics, units, better, digests and steal."""
    before = cpu_times()
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    after = cpu_times()
    lines = done.stdout.splitlines()
    if done.returncode or not lines or not lines[0].startswith("env "):
        sys.exit(f"perfbench in {root} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"perfbench in {root} was not correct:\n{done.stdout}")
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    better = {}
    for line in lines:
        words = line.split()
        if line.endswith("(phase, not in the result)"):
            metrics[words[1]], units[words[1]] = float(words[2]), words[3]
        elif line.endswith("is better)"):
            better[words[1]] = words[-3].lstrip("(")
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    return {"env": json.loads(lines[0][4:]), "metrics": metrics, "units": units,
            "better": better, "steal": steal,
            "digests": sorted(line for line in lines if line.startswith("digest "))}


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def sign_test(wins, losses):
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def compare(args, scratch):
    """Run the pairs and print the block; exits on differing digests."""
    sides = {"base": scratch / "base", "head": scratch / "head"}
    checkout(args.base, sides["base"])
    checkout(REPO, sides["head"])
    runs = []
    for pair in range(1, args.pairs + 1):
        order = ("base", "head") if pair % 2 else ("head", "base")
        runs.append({side: run_once(sides[side], args.workload, args.seed, args.seconds)
                     for side in order})
        runs[-1]["first"] = order[0]
        digests = {tuple(run[side]["digests"]) for run in runs for side in sides}
        if len(digests) > 1:
            sys.exit(f"the digests differ after pair {pair}: {sorted(digests)}")
    names = [name for name in runs[0]["head"]["metrics"] if name in runs[0]["base"]["metrics"]]
    better = runs[0]["head"]["better"]
    print(f"ab {args.workload} seed {args.seed} seconds {args.seconds:g}: {args.pairs} "
          f"pairs, base {args.base}, head the working tree")
    print("env " + json.dumps(runs[0]["head"]["env"], sort_keys=True))
    for digest in runs[0]["head"]["digests"]:
        print(f"{digest} (every run of both sides)")
    print(f"{'metric':<14}{'base_med':>10}{'head_med':>10}{'delta':>8}{'base_iqr':>10}"
          f"{'head_won':>10}{'p_sign':>8}")
    for name in names:
        values = {side: [run[side]["metrics"][name] for run in runs] for side in sides}
        sign = -1 if better.get(name, "lower") == "lower" else 1
        diffs = [sign * (run["head"]["metrics"][name] - run["base"]["metrics"][name])
                 for run in runs]
        wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
        base_med, head_med = (statistics.median(values[side]) for side in ("base", "head"))
        delta = (head_med - base_med) / base_med if base_med else 0.0
        print(f"{name:<14}{base_med:>10.4f}{head_med:>10.4f}{delta:>+8.1%}"
              f"{iqr(values['base']):>10.4f}{f'{wins}/{wins + losses}':>10}"
              f"{sign_test(wins, losses):>8.3f}")
    print(f"{'pair':<5}{'side':<6}{'first':<6}" + "".join(f"{n:>13}" for n in names)
          + f"{'steal':>8}")
    for pair, run in enumerate(runs, 1):
        for side in ("base", "head"):
            steal = run[side]["steal"]
            print(f"{pair:<5}{side:<6}{'yes' if run['first'] == side else '':<6}"
                  + "".join(f"{run[side]['metrics'][n]:>13.4f}" for n in names)
                  + (f"{steal:>8.2%}" if steal is not None else f"{'-':>8}"))


def record(args, scratch):
    """Run the working tree alone and write BENCH_<label>.json at the root."""
    head = scratch / "head"
    checkout(REPO, head)
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    totals = dict.fromkeys(source_lines.KINDS, 0)
    for _, text in source_lines.sources():
        for kind, count in source_lines.count_lines(text).items():
            totals[kind] += count
    out = {"label": args.record, "seed": args.seed, "seconds": args.seconds,
           "source_lines": totals, "workloads": {}}
    for workload in workloads:
        runs = [run_once(head, workload, args.seed, args.seconds) for _ in range(args.pairs)]
        if len({tuple(run["digests"]) for run in runs}) > 1:
            sys.exit(f"{workload}: the runs' digests differ")
        out["env"] = runs[0]["env"]
        out["workloads"][workload] = {
            "runs": len(runs), "digests": [line.split()[-1] for line in runs[0]["digests"]],
            "steal": [run["steal"] for run in runs],
            "metrics": {name: {"median": statistics.median(values), "iqr": iqr(values),
                               "unit": runs[0]["units"][name]}
                        for name in runs[0]["metrics"]
                        for values in [[run["metrics"][name] for run in runs]]}}
        print(f"{workload}: {len(runs)} runs recorded")
    path = REPO / f"BENCH_{args.record}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--base", help="git revision or directory to compare against")
    mode.add_argument("--record", metavar="LABEL", help="write BENCH_<LABEL>.json")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=5, help="pairs, or runs with --record")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=48.0)
    args = parser.parse_args(argv)
    if bool(args.base) != bool(args.workload):
        parser.error("--workload goes with --base, and --record runs every workload")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    scratch = Path(tempfile.mkdtemp(prefix="mvfa-ab-"))
    try:
        (compare if args.base else record)(args, scratch)
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    main(sys.argv[1:])
