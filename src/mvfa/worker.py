"""One forked worker process, and the native settings of the processes around it.

Training, scoring and ``gen-data`` each split their work with one worker
that they fork (:func:`forked`) once their inputs are in memory, so the
worker reads its pages without a copy until either process writes them.
The caller sends a command, runs its own share, then reads the worker's
results. A worker answers each command with one reply, sent once its share
is done: a worker that wrote as it went would fill the pipe (64 KiB on
Linux) and wait for a caller still busy with its own share, and the two
would take turns instead of running at once. An error in the worker is raised in the caller as the
same exception, after the results that came before it.

This is the only module that forks, and the only one that calls into a
native library through ``ctypes``: OpenBLAS's thread count, which both
processes hold at one while a worker lives, and glibc's malloc thresholds,
which the CLI sets when it starts.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import pickle
import signal


class Worker:
    """A forked process that answers each command sent to it with one reply.

    ``handle(command)`` runs in the worker and yields the command's results.
    They go back as one pickled list once the last is made, or once one
    raises: then the list ends with the error, or, if that does not pickle,
    with a RuntimeError of its text.
    """

    def __init__(self, handle):
        command_in, command_out = os.pipe()
        result_in, result_out = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (command_in, command_out, result_in, result_out):
                os.close(fd)
            raise
        if self.pid == 0:
            # leave only through _exit: no atexit handler or stdio flush runs twice
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(command_out)
                os.close(result_in)
                _serve(open(command_in, "rb"), open(result_out, "wb"), handle)
                code = 0
            finally:
                os._exit(code)
        os.close(command_in)
        os.close(result_out)
        self._commands = open(command_out, "wb")
        self._results = open(result_in, "rb")

    def send(self, command):
        """Start the worker on ``command``."""
        pickle.dump(command, self._commands)
        self._commands.flush()

    def results(self):
        """The results of the command sent last, in order; raises the worker's error."""
        try:
            replies = pickle.load(self._results)
        except EOFError:
            raise ChildProcessError("the worker exited without its results") from None
        for reply in replies:
            if isinstance(reply, BaseException):
                raise reply
            yield reply

    def close(self):
        """Close the pipes and reap the worker; a closed command pipe ends a live one."""
        for pipe in (self._commands, self._results):
            with contextlib.suppress(OSError):  # the pipe of a killed worker
                pipe.close()
        os.waitpid(self.pid, 0)


def _serve(commands, results, handle):
    """The worker's loop: answer each command until the command pipe closes."""
    while True:
        try:
            command = pickle.load(commands)
        except EOFError:
            return
        replies = []
        try:
            for reply in handle(command):
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
def forked(handle):
    """A forked :class:`Worker` serving ``handle`` for the code inside the context.

    BLAS runs on one thread in both processes meanwhile: processes whose
    BLAS threads share the cores slow each other down. On 2 cores, with
    OpenBLAS's default of 2 threads, a seed-42 zero-shot ``train --epochs 2``
    took 12-17 s this way, against 3.2 s on one thread each. The worker is
    reaped on the way out, and killed first if the context ends by an
    exception, a closed generator's included.
    """
    with one_blas_thread():
        worker = Worker(handle)
        try:
            yield worker
        except BaseException:
            os.kill(worker.pid, signal.SIGKILL)  # its results are not wanted
            raise
        finally:
            worker.close()


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
