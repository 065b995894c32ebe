"""The paired A/B runner, ``tests/ab.py``."""

import os
import shutil
import subprocess
import sys
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


def test_ab_runs_the_tree_against_a_copy_of_itself_inside_its_scratch(tmp_path):
    """One pair at the smallest budget: equal digests, and no file left outside.

    The scratch directory is the one ``tempfile`` picks from ``TMPDIR``; it
    must end empty, and the repository and the base directory unchanged.
    """
    base, scratch = tmp_path / "base", tmp_path / "scratch"
    for name in ab.COPIED:
        shutil.copytree(REPO / name, base / name, ignore=shutil.ignore_patterns("__pycache__"))
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
