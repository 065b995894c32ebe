"""mvfa benchmark: one workload per process, one BLAS thread, outputs checked.

    python3 perfbench/run.py --workload fewshot_ref --seed 42 --seconds 48 --trace 0
    python3 perfbench/run.py --workload all          # each workload in a child process

Run from the root of a source checkout; mvfa is imported from its ``src/``.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). The lines before it give the
recorded environment, every phase time, the AUCs and the output digests.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench_spans"     # raw spans of each traced run
WORKLOAD_NAMES = ("fewshot_ref", "zeroshot_loo", "large_bank")
# the workloads BENCHMARK.json gates; large_bank's run-to-run spread on a
# shared machine is wider than any allowed bound (see README.md)
GATED = ("fewshot_ref", "zeroshot_loo")

# set before numpy is first imported: unpinned OpenBLAS threads slow a small
# matmul by up to 100x when the cores are contended
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "MVFA_THREADS": "1"}

SETUP_REPEATS = 5


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "env": {name: os.environ.get(name) for name in PINNED_ENV}}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, run, seconds):
    """Set up SETUP_REPEATS times, then run the passes that fit in ``seconds``.

    The pass count comes from ``seconds`` and the workload's nominal pass
    length, never from how fast this commit is, so every commit measures
    the same work. ``pass_s`` sums each timed unit of a pass (a CLI
    subcommand, or one scored image) at its median over the passes: other
    tenants of a shared machine slow it for seconds at a time, and a
    median over the whole run repeats better than the fastest pass.
    ``setup_s`` is the median of the set-ups; README.md says why it
    spreads more.
    """
    setup_s, pass_s = [], []
    for index in range(SETUP_REPEATS):
        start = perf_counter()
        context = workload.setup(run, index)
        setup_s.append(perf_counter() - start)
    for index in range(max(1, int(seconds // workload.nominal_pass_s))):
        pass_s.append(workload.run_pass(run, context, index))
    print(f"passes {len(pass_s)}: " + " ".join(f"{s:.4f}" for s in pass_s) + " s")
    print(f"setups {len(setup_s)}: " + " ".join(f"{s:.4f}" for s in setup_s) + " s")
    values = {"setup_s": statistics.median(setup_s),
              "pass_s": sum(statistics.median(times) for times in run.units.values()),
              "peak_rss_mb": _peak_rss_mb()}
    if workload.units_are_phases:
        values.update({f"{name}_s": statistics.median(times)
                       for name, times in run.units.items()})
    for name, samples in run.phases.items():
        values[name] = statistics.median(samples)
    if run.latencies:
        lat_ms = sorted(1e3 * t for t in run.latencies)
        values["score_ms_p50"] = statistics.median(lat_ms)
        values["score_ms_p90"] = tracing.quantile(lat_ms, 90)
        values["score_images_per_s"] = len(lat_ms) / sum(run.phases["score_loop_s"])
    return values


def trace(workload, run):
    """One untraced pass, then a traced setup and pass; per-layer values.

    The raw spans are written to ``SPANS_DIR``. Each phase's table of self
    times plus its uncovered remainder equals the phase's wall time by
    definition of self time, so that sum is printed, not checked.
    """
    context = workload.setup(run, 0)
    untraced = workload.run_pass(run, context, 0)
    tracer = tracing.Tracer()
    run.tracer = tracer
    tracing.instrument(tracer)
    try:
        with tracer.span("setup"):
            context = workload.setup(run, 1)
        first_pass_span = len(tracer.names)
        traced = workload.run_pass(run, context, 1)
    finally:
        tracer.uninstall()
        run.tracer = tracing.NullTracer()

    durations, own = tracer.self_times()
    roots = tracer.roots()
    phases = sorted({roots[i] for i in range(first_pass_span, len(roots))})
    covered = 0
    for phase in phases:
        table = tracer.by_name(within={phase})
        inner = {n: v for n, v in table.items() if n != tracer.names[phase]}
        phase_ms = durations[phase] / 1e6
        print(f"trace phase {tracer.names[phase]} wall {phase_ms:.3f} ms")
        for name, (calls, ns) in sorted(inner.items(), key=lambda kv: -kv[1][1]):
            print(f"trace   {name:28s} calls {calls:7d} self {ns / 1e6:11.3f} ms")
            covered += ns
        uncovered_ms = own[phase] / 1e6
        total = sum(ns for _, ns in inner.values()) / 1e6 + uncovered_ms
        print(f"trace   {'uncovered':28s} {'':13s} self {uncovered_ms:11.3f} ms")
        print(f"trace   sum of self times {total:.3f} ms, phase wall {phase_ms:.3f} ms")
    spans_path = SPANS_DIR / f"{workload.name}-seed{run.seed}.tsv"
    tracer.write(spans_path)
    print(f"trace spans {len(tracer.names)} written to {spans_path.relative_to(ROOT)}")
    for name in tracer.absent:
        print(f"trace absent {name}")
    uncovered_frac = (traced - covered / 1e9) / traced
    overhead_frac = (traced - untraced) / untraced
    print(f"trace pass untraced {untraced:.4f} s traced {traced:.4f} s")
    return tracing.layer_metrics(tracer, uncovered_frac, overhead_frac)


def run_workload(args):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mvfa
    except ImportError as exc:
        print(f"error: cannot import mvfa from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(mvfa.__file__).resolve().parent != ROOT / "src" / "mvfa":
        print(f"error: mvfa resolved to {mvfa.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    run = workloads.Run(args.seed, work_dir, tracing.NullTracer())
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    try:
        if args.trace:
            values = trace(workload, run)
            declared = tracing.PER_LAYER
        else:
            values = measure(workload, run, args.seconds)
            declared = workload.metrics
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    if len(set(run.digests)) > 1:
        run.problem(f"passes disagree on output digests: {sorted(set(run.digests))}")
    for name, value in run.quality.items():
        print(f"metric {name} {value} (report JSON)")
    print(f"metric failed_ops_frac {run.failed / max(run.attempted, 1):.4f} ratio "
          f"({run.failed} of {run.attempted} ops)")
    for digest in sorted(set(run.digests)):
        print(f"digest {workload.name} {digest}")
    for problem in run.problems:
        print(f"problem {problem}")
    for name in sorted(set(values) - {n for n, _, _ in declared}):
        print(f"metric {name} {values[name]:.6g} s (phase, not in the result)")
    metrics = {}
    for name, unit, better in declared:
        # a phase that never ran (an earlier subcommand failed) reads 0
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
        print(f"metric {name} {metrics[name]['value']:.6g} {unit} ({better} is better)")
    print(json.dumps({"correct": not run.problems and run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in a child process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=48.0,
                        help="measuring budget for the passes after setup")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(PINNED_ENV)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
