"""The forked-job runner: each call's answer, in job order, and no job or
child process past the consumer's stop."""

import multiprocessing
import os
import tempfile
import time
from contextlib import closing
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jocot.jobs as jobs


def job(kind, arg, marks, index):
    """Marks its start in the directory ``marks``, then returns ``arg``,
    raises, sleeps ``arg`` seconds and returns its index, or exits with
    code ``arg`` without an answer."""
    (Path(marks) / str(index)).touch()
    if kind == "return":
        return arg
    if kind == "raise":
        raise ValueError(f"job {index} failed")
    if kind == "sleep":
        time.sleep(arg)
        return index
    os._exit(arg)


def check_call(get, kind, arg, index):
    if kind == "raise":
        with pytest.raises(ValueError, match=f"^job {index} failed$"):
            get()
    elif kind == "exit":
        with pytest.raises(RuntimeError, match=f"exited with code {arg} before sending"):
            get()
    else:
        assert get() == (arg if kind == "return" else index)


_JOBS = st.lists(st.one_of(
    st.tuples(st.just("return"), st.integers()),
    st.tuples(st.just("raise"), st.none()),
    st.tuples(st.just("sleep"), st.sampled_from([0.001, 0.02])),
    st.tuples(st.just("exit"), st.integers(0, 3))), max_size=5)


class Stop(Exception):
    pass


@pytest.mark.skipif(jobs._default_start_method() != "fork",
                    reason="jobs fork only where fork is the default")
@settings(max_examples=20, deadline=None)
@given(_JOBS, st.data())
def test_in_children_answers_in_job_order_and_stops_with_its_consumer(job_list, data):
    reads = data.draw(st.integers(0, len(job_list)), label="reads")
    stop = data.draw(st.sampled_from(["close", "raise"]), label="stop")
    with tempfile.TemporaryDirectory() as marks, \
            mock.patch.object(jobs, "_fork_workers", lambda count: 2):
        calls = jobs._in_children("jocot-test", job, [
            (kind, arg, marks, i) for i, (kind, arg) in enumerate(job_list)])

        def consume():
            for i, get in zip(range(reads), calls):
                check_call(get, *job_list[i], i)

        if stop == "close":
            consume()
            calls.close()
        else:
            with pytest.raises(Stop), closing(calls):
                consume()
                raise Stop
        started = {int(p.name) for p in Path(marks).iterdir()}
    # the runner had asked for call reads - 1, with the window of 2 full
    assert started <= set(range(min(len(job_list), reads + 1) if reads else 0))
    assert set(range(reads)) <= started
    assert multiprocessing.active_children() == []


def blas_threads_here():
    """This process's OpenBLAS thread count and how many threads it runs."""
    return jobs._openblas_threads()[0](), len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(jobs._default_start_method() != "fork"
                    or jobs._openblas_pool_stop() is None
                    or not Path("/proc/self/task").is_dir(),
                    reason="needs fork, OpenBLAS's pool hook and /proc")
def test_a_child_runs_on_one_blas_thread_with_no_idle_pool():
    # the fork stops OpenBLAS's thread pool and pinning the child's count
    # starts it again, where an idle thread would spin beside the job
    get, set_ = jobs._openblas_threads()
    before = get()
    set_(2)
    try:
        with mock.patch.object(jobs, "_fork_workers", lambda count: 2):
            answers = [call() for call in
                       jobs._in_children("jocot-test", blas_threads_here, [(), ()])]
        assert answers == [(1, 1), (1, 1)]
        assert get() == 2
    finally:
        set_(before)
