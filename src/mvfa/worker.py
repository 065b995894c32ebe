"""One forked worker process, and the native settings of the processes around it.

Training, scoring and ``gen-data`` each halve their work with :func:`halves`,
entered once per ``train``, scoring call or ``gen-data`` with the function
``run`` that does the work. It yields ``split(items, cut, *shared)``, which
runs ``run(items[:cut], *shared)`` in this process and
``run(items[cut:], *shared)`` on one worker, and yields this process's
results, then the worker's, in order. The worker is forked on the first
split whose halves are both non-empty, once the caller's inputs are in
memory, so it reads its pages without a copy until either process writes
them; without ``os.fork``, and for a split with an empty half, ``run`` gets
all the items here. A fork that fails with an ``OSError`` (``EAGAIN`` under
a process limit) counts as no ``os.fork``: the rest of the context runs
here, and no fork is tried again. Each site chooses only its cut and its
``run``.

A split sends the worker its items and ``shared`` pickled, and the worker
answers with one reply, sent once its share is done: a worker that wrote as
it went would fill the pipe (64 KiB on Linux) and wait for a caller still
busy with its own share, and the two would take turns instead of running at
once. An error in the worker is raised in the caller as the same exception,
after the results that came before it.

One error policy serves every site. An ``Exception`` in this process's
half, or in the code that consumes a split's results, waits for the
worker's pending reply, then the caller's error is raised: the worker's
half ends as it would have, so a failed ``gen-data`` leaves the same files
every time. Training's and scoring's workers write no files, so for them
the wait changes only the time to the error. Any other ``BaseException``
(a Ctrl-C, a closed generator) kills a worker still at its share, and
``split.pid`` names it, so that a caller can delete what it was killed in
the middle of. Either way the worker is reaped before the context ends.

This is the only module that forks, and the only one that calls into a
native library through ``ctypes``: OpenBLAS's thread count, which
:func:`halves` holds at one, and glibc's malloc thresholds, which the CLI
sets when it starts.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import pickle
import signal


@contextlib.contextmanager
def halves(run):
    """Yield a :class:`Split` of ``run``, with the module's error policy around it.

    BLAS runs on one thread meanwhile, in both processes once the worker is
    forked: processes whose BLAS threads share the cores slow each other
    down. On 2 cores, with OpenBLAS's default of 2 threads, a seed-42
    zero-shot ``train --epochs 2`` took 12-17 s this way, against 3.2 s on
    one thread each. Without a worker the second thread only wastes a
    core: the same train in one process took 11.7 s of CPU unpinned,
    against 5.4 s on one thread.
    """
    split = Split(run)
    with one_blas_thread():
        try:
            yield split
        except Exception:
            if split.pending:  # wait for the worker's reply; the caller's error wins
                with contextlib.suppress(ChildProcessError):
                    split.reply()
            raise
        finally:
            split.close()


class Split:
    """``split(items, cut, *shared)``: the caller's results, then the worker's.

    ``pid`` is the worker's, None until one is forked.
    """

    def __init__(self, run):
        self.run, self.pid, self.pending = run, None, False
        self.forkable = hasattr(os, "fork")

    def __call__(self, items, cut, *shared):
        halved = 0 < cut < len(items)
        if halved and self.pid is None and self.forkable:
            self._fork()
        if not halved or self.pid is None:
            yield from self.run(items, *shared)
            return
        pickle.dump((items[cut:], shared), self._commands)
        self._commands.flush()
        # only now: a command cut short ends the worker once its pipe closes
        self.pending = True
        yield from self.run(items[:cut], *shared)
        for result in self.reply():
            if isinstance(result, BaseException):
                raise result
            yield result

    def _fork(self):
        command_in, command_out = os.pipe()
        result_in, result_out = os.pipe()
        try:
            pid = os.fork()
        except BaseException as exc:
            for fd in (command_in, command_out, result_in, result_out):
                os.close(fd)
            if not isinstance(exc, OSError):
                raise
            self.forkable = False
            return
        if pid == 0:
            # leave only through _exit: no atexit handler or stdio flush runs twice
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(command_out)
                os.close(result_in)
                _serve(open(command_in, "rb"), open(result_out, "wb"), self.run)
                code = 0
            finally:
                os._exit(code)
        os.close(command_in)
        os.close(result_out)
        self.pid = pid
        self._commands = open(command_out, "wb")
        self._results = open(result_in, "rb")

    def reply(self):
        """The list the worker sent for the last split, its error included."""
        try:
            replies = pickle.load(self._results)
        except EOFError:
            raise ChildProcessError("the worker exited without its results") from None
        self.pending = False
        return replies

    def close(self):
        """Kill a worker still at its share, close the pipes, and reap the worker."""
        if self.pid is None:
            return
        if self.pending:
            os.kill(self.pid, signal.SIGKILL)
        for pipe in (self._commands, self._results):
            with contextlib.suppress(OSError):  # the pipe of a killed worker
                pipe.close()
        os.waitpid(self.pid, 0)


def _serve(commands, results, run):
    """The worker's loop: answer each split until the command pipe closes.

    The reply is ``run``'s results as one pickled list, sent once the last
    is made, or once one raises: then the list ends with the error, or, if
    that does not pickle, with a RuntimeError of its text.
    """
    while True:
        try:
            items, shared = pickle.load(commands)
        except EOFError:
            return
        replies = []
        try:
            for reply in run(items, *shared):
                replies.append(reply)
        except Exception as exc:
            replies.append(exc)
        try:
            payload = pickle.dumps(replies)
        except Exception:
            replies[-1] = RuntimeError(f"{type(replies[-1]).__name__}: {replies[-1]}")
            payload = pickle.dumps(replies)
        results.write(payload)
        results.flush()


@contextlib.contextmanager
def one_blas_thread():
    """Run the loaded OpenBLAS on one thread inside the context, where it is found.

    Yields None. Without a worker, a second BLAS thread only wastes a core
    on these small products: a seed-42 ``eval`` took about the same wall
    time on OpenBLAS's default of 2 threads, but 1.0-1.5 s of CPU against
    0.7-0.8 s on one.
    """
    calls = openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def openblas_thread_calls():
    """The get and set thread-count functions of the OpenBLAS mapped into this process.

    Returns None where there is none, or where the maps cannot be read
    (outside Linux).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    for lib, name in itertools.product(libs, ("scipy_openblas{}_num_threads64_",
                                              "scipy_openblas{}_num_threads",
                                              "openblas{}_num_threads64_",
                                              "openblas{}_num_threads")):
        get = getattr(lib, name.format("_get"), None)
        set_ = getattr(lib, name.format("_set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


# glibc's mallopt parameters, and the values keep_freed_heap sets: freed arrays
# up to 32 MiB go back to the heap, and the heap top is trimmed only past 64 MiB
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_OPTIONS = ((M_MMAP_THRESHOLD, 32 * 2 ** 20), (M_TRIM_THRESHOLD, 64 * 2 ** 20))


def keep_freed_heap():
    """Stop glibc from handing each freed training step back to the kernel.

    With its dynamic thresholds, glibc maps large arrays on their own and
    trims the freed step graph off the heap top, so the next step faults
    the same pages back in. Fixed thresholds keep those pages for reuse.
    Nothing is set without glibc, or where the user set one of glibc's own
    ``MALLOC_*_`` variables or ``GLIBC_TUNABLES``, which then decide.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    if "GLIBC_TUNABLES" in os.environ or any(
            name.startswith("MALLOC_") and name.endswith("_") for name in os.environ):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for option, value in MALLOC_OPTIONS:
        mallopt(option, value)
