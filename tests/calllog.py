"""Call logs that see both processes of a training run, and its forks.

Training runs the later half of each step's samples on a forked worker,
which counts into its own copy of any list or counter a test holds. A line
appended to a file is seen from both processes.
"""

import os


def logged(path, fn, line):
    """``fn``, appending ``line(*args, **kwargs)`` to ``path`` before each call."""
    def wrapper(*args, **kwargs):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{line(*args, **kwargs)}\n")
        return fn(*args, **kwargs)
    return wrapper


def read_lines(path):
    """The lines logged to ``path``; none if nothing was called."""
    return path.read_text(encoding="utf-8").splitlines() if path.exists() else []


def count_forks(monkeypatch):
    """The pids of the processes forked from now on, as ``os.fork`` returns them."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks
