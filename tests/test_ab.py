"""The paired A/B runner, ``tests/ab.py``."""

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ab

REPO = Path(__file__).resolve().parent.parent


def _files(root):
    """Every file under ``root`` but those of ``.git``, as relative paths."""
    found = []
    for base, dirs, names in os.walk(root):
        dirs[:] = [d for d in dirs if d != ".git"]
        found += [os.path.relpath(os.path.join(base, name), root) for name in names]
    return sorted(found)


def _running_in(root):
    """{pid: parent pid} of the live processes whose working directory lies under ``root``."""
    found = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cwd = os.readlink(f"/proc/{pid}/cwd")
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                parent = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):  # gone, a zombie, or another user's
            continue
        if cwd == str(root) or cwd.startswith(f"{root}/"):
            found[int(pid)] = parent
    return found


def _a_run_and_its_worker(root):
    running = _running_in(root)
    return any(parent in running for parent in running.values())


def _copy_base(base):
    for name in ab.COPIED:
        shutil.copytree(REPO / name, base / name, ignore=shutil.ignore_patterns("__pycache__"))


def test_ab_runs_the_tree_against_a_copy_of_itself_inside_its_scratch(tmp_path):
    """One pair at the smallest budget: equal digests, and no file left outside.

    The scratch directory is the one ``tempfile`` picks from ``TMPDIR``; it
    must end empty, and the repository and the base directory unchanged.
    """
    base, scratch = tmp_path / "base", tmp_path / "scratch"
    _copy_base(base)
    scratch.mkdir()
    repo_before, base_before = _files(REPO), _files(base)
    env = dict(os.environ, TMPDIR=str(scratch), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "tests/ab.py", "--base", str(base), "--workload",
                           "fewshot_ref", "--pairs", "1", "--seconds", "0"],
                          cwd=REPO, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("ab fewshot_ref seed 42 seconds 0: 1 pairs")
    assert lines[2].startswith("digest fewshot_ref ") and \
        lines[2].endswith("(every run of both sides)")
    assert [line.split()[:2] for line in lines[-2:]] == [["1", "base"], ["1", "head"]]
    assert _files(REPO) == repo_before and _files(base) == base_before
    assert sorted(os.listdir(tmp_path)) == ["base", "scratch"] and not os.listdir(scratch)


@pytest.mark.skipif(shutil.which("git") is None or not (REPO / ".git").exists(),
                    reason="needs a git checkout")
def test_a_revision_is_extracted_from_git(tmp_path):
    ab.checkout("HEAD", tmp_path / "rev")
    committed = subprocess.run(["git", "show", "HEAD:perfbench/run.py"], cwd=REPO,
                               check=True, capture_output=True).stdout
    assert (tmp_path / "rev" / "perfbench" / "run.py").read_bytes() == committed
    assert sorted(os.listdir(tmp_path / "rev")) == sorted(ab.COPIED)


def test_sign_test_is_exact_and_two_sided():
    assert ab.sign_test(10, 0) == ab.sign_test(0, 10) == 2 / 2 ** 10
    assert ab.sign_test(9, 1) == 2 * 11 / 2 ** 10
    assert ab.sign_test(0, 0) == ab.sign_test(3, 3) == 1.0


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="finds the runs through /proc")
def test_sigterm_mid_pair_kills_the_run_with_its_worker_and_deletes_the_scratch(tmp_path):
    """SIGTERM while a perfbench run has its mvfa worker: no process and no file stay.

    Each perfbench run, and the worker it forks, works in the scratch
    directory, so a process whose working directory lies there is one the
    runner started.
    """
    base, scratch = tmp_path / "base", tmp_path / "scratch"
    _copy_base(base)
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch), PYTHONDONTWRITEBYTECODE="1")
    runner = subprocess.Popen([sys.executable, "tests/ab.py", "--base", str(base),
                               "--workload", "fewshot_ref", "--pairs", "1", "--seconds", "0"],
                              cwd=REPO, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 120
        while not (seen := _a_run_and_its_worker(scratch)) and runner.poll() is None \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        assert seen and runner.poll() is None, "no run with its worker was seen mid-pair"
        runner.send_signal(signal.SIGTERM)
        code, err = runner.wait(timeout=60), runner.stderr.read()
        deadline = time.monotonic() + 10
        while _running_in(scratch) and time.monotonic() < deadline:  # SIGKILL is not instant
            time.sleep(0.02)
        left = sorted(_running_in(scratch))
    finally:
        if runner.poll() is None:
            runner.kill()
            runner.wait()
        runner.stderr.close()
        for pid in _running_in(scratch):  # a failed check leaves no run behind either
            os.kill(pid, signal.SIGKILL)
    assert code == 128 + signal.SIGTERM, err
    assert not left, f"processes left running in the scratch directory: {left}"
    assert os.listdir(scratch) == []
