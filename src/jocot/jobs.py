"""The one runner of forked jobs.

_in_children yields, for each job of a list in order, a call that returns
the job's result or raises its error. Each job runs in a child process that
_forked forks, at most _fork_workers(len(jobs)) alive at once; where fewer
than two fit, every job runs in the caller. It has three callers, each one
loop over one job list: experiment.run_experiment runs one job per grid
cell, training.train_teachers one per teacher pair, and data.save_csv and
data.load_csv one per contiguous, line-aligned range of a feature CSV.
Each child pins its own OpenBLAS to one thread and stops the library's
thread pool, which would otherwise spin idle for its first 0.1-0.2 s; the
caller's count is never changed. A job starts only when a slot is free
and the caller asks for the next call, and closing the runner stops every
live child, so no process outlives the call that forked it.

cli.main turns SIGTERM and SIGINT into exceptions through this module's
handlers for the length of a command, so the command unwinds and stops its
children. A handler records its signal before it raises: a raise inside
os.fork's Python at-fork hooks is reported as unraisable and dropped, so
_forked raises it again once its child has started.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import signal
import threading
import traceback
from collections import deque
from contextlib import contextmanager
from itertools import islice
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np

# the signal that one of this module's handlers raised for last, or None;
# cleared where the handlers are installed and in each child
_caught_signal = None


@functools.cache
def _openblas_library():
    """(library, get, set) of the OpenBLAS bundled with numpy, with its
    thread count's getter and setter, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(dll, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return dll, get, set_
    return None


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or None."""
    found = _openblas_library()
    return None if found is None else found[1:]


@functools.cache
def _openblas_pool_stop():
    """blas_thread_shutdown_, the hook that OpenBLAS runs before a fork to
    stop its thread pool, or None where the library does not export it."""
    found = _openblas_library()
    stop = None if found is None else getattr(found[0], "blas_thread_shutdown_", None)
    if stop is not None:
        stop.argtypes, stop.restype = [], ctypes.c_int
    return stop


def _default_start_method() -> str:
    """The start method a multiprocessing context would use, read without
    fixing it, so a later set_start_method call by the caller still works."""
    return (multiprocessing.get_start_method(allow_none=True)
            or multiprocessing.get_all_start_methods()[0])


def _fork_workers(jobs: int) -> int:
    """How many forked processes share ``jobs`` independent jobs: one per
    usable CPU, at most one per job. 1 means in this process: fewer than two
    fit, no OpenBLAS count can be pinned to one thread per process, this
    process is a daemon, which multiprocessing lets start no process, or the
    platform's default start method is not fork, which is then missing or
    held unsafe in a process with threads (_forked always forks)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(jobs, cpus)
    if (workers < 2 or _openblas_threads() is None or _default_start_method() != "fork"
            or multiprocessing.current_process().daemon):
        return 1
    return workers


def _signal_error(signum) -> BaseException:
    """What a handler of this module raises for ``signum``: KeyboardInterrupt
    for SIGINT, as Python's own handler does, else SystemExit(128 + signum),
    the status of a process the signal killed."""
    if signum == signal.SIGINT:
        return KeyboardInterrupt()
    return SystemExit(128 + signum)


def _raise_on_signal(signum, frame):
    """The handler of SIGTERM and SIGINT: records the signal, then raises."""
    global _caught_signal
    _caught_signal = signum
    raise _signal_error(signum)


@contextmanager
def _signals_unwind():
    """For the body, SIGTERM raises SystemExit(143) and SIGINT
    KeyboardInterrupt through this module's handlers, so the caller unwinds
    and stops its children; the caller's handlers are put back after. Only
    the main thread may set a handler, so elsewhere nothing changes."""
    global _caught_signal
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = {signum: signal.signal(signum, _raise_on_signal)
                for signum in (signal.SIGTERM, signal.SIGINT)}
    _caught_signal = None
    try:
        yield
    finally:
        _caught_signal = None
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _child_main(send, fn, args) -> None:
    """The body of a _forked child: pins its own OpenBLAS to one thread, runs
    fn(*args) and sends back (result, None), or (None, (exception, traceback
    text)). It ignores SIGINT, so a Ctrl-C reaches the parent alone, which
    then stops it. SIGTERM unwinds it without an answer, so that the finally
    blocks of fn stop the children fn forked in turn. A signal the parent
    caught while it forked is the parent's, so the child forgets it."""
    global _caught_signal
    _caught_signal = None
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _raise_on_signal)
    blas = _openblas_threads()
    if blas is not None:
        blas[1](1)
        # the fork stopped OpenBLAS's thread pool and setting the count
        # starts it again, where its idle threads spin for 0.1-0.2 s before
        # they sleep; at one thread the library never starts it, so stop it
        stop = _openblas_pool_stop()
        if stop is not None:
            stop()
    try:
        outcome = (fn(*args), None)
    except SystemExit:
        raise
    except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
        outcome = (None, (exc, traceback.format_exc()))
    send.send(outcome)


class _forked:
    """fn(*args) in one forked child process named ``name``, started on
    construction. result() waits for its answer: the child's exception is
    raised in the caller with its type and message, and a child that exits
    without an answer raises RuntimeError naming its exit code. stop()
    terminates the child if it is still running, then joins it; _in_children
    calls it whether its consumer returns or raises. A signal whose handler
    raised inside os.fork's at-fork hooks, where the raise is dropped, is
    raised here once the child is stopped."""

    def __init__(self, name: str, fn, *args):
        context = multiprocessing.get_context("fork")
        self._recv, send = context.Pipe(duplex=False)
        # not a daemon: multiprocessing lets a daemon fork no child, and a
        # grid's cell forks its teacher pairs
        self._child = context.Process(target=_child_main, args=(send, fn, args), name=name)
        self._child.start()
        send.close()
        if _caught_signal is not None:
            self.stop()
            raise _signal_error(_caught_signal)

    def result(self):
        child = self._child
        wait([self._recv, child.sentinel])
        outcome = None
        try:
            # a child gone without a message leaves the pipe at its end,
            # which poll reports as readable and recv as EOFError; poll, not
            # a blocking recv, since a process the child forked in turn may
            # hold a copy of the write end and keep it open
            if self._recv.poll():
                outcome = self._recv.recv()
        except EOFError:
            pass
        if outcome is None:
            child.join()
            raise RuntimeError(f"the forked process {child.name} exited with code "
                               f"{child.exitcode} before sending its result")
        value, error = outcome
        if error is not None:
            exc, trace = error
            raise exc from RuntimeError(f"in the forked process:\n{trace}")
        return value

    def stop(self) -> None:
        if self._child.is_alive():
            self._child.terminate()
        self._child.join()
        self._recv.close()


def _in_children(name: str, fn, jobs):
    """Yield, for each job of the list ``jobs`` in order, a call that returns
    fn(*job) or raises what fn raised: in this process when _fork_workers
    allows no second process, else in a _forked child named ``name``, at
    most _fork_workers(len(jobs)) alive at once. A job starts only when a
    slot is free and the consumer asks for the next call; its child is
    stopped once the consumer moves on, and closing the generator
    terminates every live child."""
    workers = _fork_workers(len(jobs))
    if workers < 2:
        yield from (functools.partial(fn, *job) for job in jobs)
        return
    window, todo = deque(), iter(jobs)
    try:
        for _ in jobs:
            for job in islice(todo, workers - len(window)):
                window.append(_forked(name, fn, *job))
            yield window[0].result
            window.popleft().stop()
    finally:
        for child in window:
            child.stop()
