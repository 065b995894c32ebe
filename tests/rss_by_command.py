"""Print the peak RSS and the traced peak of each CLI command of one process.

Usage: ``python tests/rss_by_command.py [--passes N] [--zero-shot] [--seed S]
[--config PATH] [--epochs N] [--no-trace]``.

It runs the README command sequence through ``mvfa.cli.main`` in this one
process: ``gen-data``, then N passes (default 4) of ``train``,
``build-bank``, ``eval`` and ``predict``, or with ``--zero-shot`` of the
2-epoch zero-shot ``train`` and the bank-free ``eval``. Those are the
commands of the benchmark's ``fewshot_ref`` and ``zeroshot_loo`` passes.
BLAS runs on one thread, set before numpy is imported. ``--seed`` selects
the synthetic dataset, ``--config`` is passed to every command and
``--epochs`` to every ``train``; the working files go to a temporary
directory that is deleted at exit.

One line per command gives its pass, its name, ``ru_maxrss`` before and
after it in MiB, and its tracemalloc peak in MiB: the most that the
command's Python and numpy allocations held at once in this process, a
forked worker's not counted. Tracing keeps its own record of each live
block in this process's memory, so ``--no-trace`` leaves tracemalloc off
and prints ``-`` for the peak, for an RSS that is the commands' alone.
"""

import argparse
import io
import os
import resource
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mvfa.cli import main as cli_main  # noqa: E402

MIB = 2 ** 20


def commands(data, out, zero_shot, epochs):
    """(name, argv) of one pass's commands, writing under ``out``."""
    ckpt, bank = str(out / "model.ckpt"), str(out / "bank.bin")
    if zero_shot:
        return [("train", ["train", "--data", data, "--out", ckpt, "--mode", "zero-shot",
                           "--epochs", str(2 if epochs is None else epochs)]),
                ("eval", ["eval", "--data", data, "--ckpt", ckpt, "--mode", "zero-shot",
                          "--out", str(out / "report.json")])]
    epochs = [] if epochs is None else ["--epochs", str(epochs)]
    return [("train", ["train", "--data", data, "--out", ckpt, *epochs]),
            ("build-bank", ["build-bank", "--data", data, "--ckpt", ckpt, "--out", bank]),
            ("eval", ["eval", "--data", data, "--ckpt", ckpt, "--bank", bank,
                      "--out", str(out / "report.json")]),
            ("predict", ["predict", "--data", data, "--ckpt", ckpt, "--bank", bank,
                         "--out-dir", str(out / "maps")])]


def run_command(label, name, argv, trace):
    """Run one command, its stdout discarded, and print its line; exit if it fails."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        peak = tracemalloc.get_traced_memory()[1] / MIB if trace else None
    finally:
        tracemalloc.stop()
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{label:<6}{name:<12}{before:>10.2f}{after:>10.2f}"
          + (f"{peak:>10.2f}" if trace else f"{'-':>10}"), flush=True)
    if code != 0:
        sys.exit(f"{name} exited {code}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=4)
    parser.add_argument("--zero-shot", action="store_true")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--config")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--no-trace", dest="trace", action="store_false")
    args = parser.parse_args(argv)
    config = [] if args.config is None else ["--config", args.config]
    print(f"{'pass':<6}{'command':<12}{'rss0_mib':>10}{'rss1_mib':>10}{'peak_mib':>10}")
    with tempfile.TemporaryDirectory() as work:
        data = os.path.join(work, "data")
        run_command("-", "gen-data", ["gen-data", "--out", data, "--seed", str(args.seed),
                                      *config], args.trace)
        for index in range(1, args.passes + 1):
            out = Path(work) / f"pass{index}"
            out.mkdir()
            for name, command in commands(data, out, args.zero_shot, args.epochs):
                run_command(str(index), name, command + config, args.trace)


if __name__ == "__main__":
    main(sys.argv[1:])
