from __future__ import annotations

import os
import signal
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsum import verify
from meshsum.cli import main
from meshsum.verify import run_verification
from support import reference_run_verification


@given(
    st.lists(st.integers(min_value=7, max_value=13), min_size=1, max_size=7),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=5),
    st.sampled_from([None, "census", "invariants"]),
)
@settings(max_examples=25, deadline=None)
def test_pool_report_equals_the_sequential_reference(degrees, layers, trials, fault):
    args = (degrees, layers, 3000, trials, 4, fault)
    assert run_verification(*args) == reference_run_verification(*args)


def _failing_degree(monkeypatch, fail):
    """Replace verify_degree: degree 40 calls ``fail`` after 0.05 s, once every
    degree is queued; every other degree notes that it started and takes
    0.2 s.  Returns the started degrees."""
    started = []

    def fake(r, *args):
        if r == 40:
            time.sleep(0.05)
            fail()
        started.append(r)
        time.sleep(0.2)
        return {"r": r, "checks": {}, "violations": []}

    monkeypatch.setattr(verify, "verify_degree", fake)
    return started


def test_an_error_in_one_degree_comes_out_unchanged_and_cancels_the_rest(monkeypatch):
    def fail():
        raise ZeroDivisionError("degree 40 broke")

    started = _failing_degree(monkeypatch, fail)
    threads = threading.active_count()
    with pytest.raises(ZeroDivisionError, match=r"^degree 40 broke$"):
        run_verification(range(7, 41))
    # degree 40 is submitted first; of the 33 queued behind it only the few
    # already taken by a worker run, and they finish before the error is raised
    assert len(started) < 10
    assert threading.active_count() == threads


def test_ctrl_c_cancels_the_degrees_not_yet_started(monkeypatch):
    started = _failing_degree(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGINT))
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run_verification(range(7, 41))
    assert len(started) < 10
    assert threading.active_count() == threads


def test_argument_errors_come_before_any_thread_starts(monkeypatch, capsys):
    def no_threads(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    for kwargs in (
        {"degrees": [6, 7]},
        {"degrees": range(7, 2_000_000)},
        {"degrees": []},
        {"degrees": [7], "layers": -1},
        {"degrees": [7], "trials": -1},
        {"degrees": [7], "fault": "euler"},
    ):
        with pytest.raises(ValueError):
            run_verification(**kwargs)
    for argv in (["-r", "7:1001"], ["-r", "7", "-n", "-1"], ["-r", "7", "--trials", "-3"]):
        assert main(["verify", *argv]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs on any host, so that the helper thread starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _timed_degrees(monkeypatch, seconds):
    """Replace verify_degree with a sleep of ``seconds(r)``; returns the lists
    of degrees started and finished."""
    started, finished = [], []

    def fake(r, *args):
        started.append(r)
        time.sleep(seconds(r))
        finished.append(r)
        return {"r": r, "checks": {}, "violations": []}

    monkeypatch.setattr(verify, "verify_degree", fake)
    return started, finished


def test_ctrl_c_inside_thread_start_leaves_no_degree_running(monkeypatch, two_cpus):
    started, finished = _timed_degrees(monkeypatch, lambda r: 0.2)
    real_start = threading.Thread.start

    def start_then_interrupt(thread):
        real_start(thread)
        raise KeyboardInterrupt

    monkeypatch.setattr(threading.Thread, "start", start_then_interrupt)
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run_verification(range(7, 41))
    assert sorted(finished) == sorted(started)
    taken = list(started)
    time.sleep(0.3)
    assert started == taken
    assert threading.active_count() == threads


def test_ctrl_c_while_the_caller_waits_leaves_no_degree_running(monkeypatch, two_cpus):
    helper_busy = threading.Event()

    def seconds(r):
        # the caller's degree ends as soon as the other thread's 1 s degree
        # has begun, so the signal finds the caller waiting for it
        if threading.current_thread() is threading.main_thread():
            helper_busy.wait(5)
            return 0
        helper_busy.set()
        return 1

    started, finished = _timed_degrees(monkeypatch, seconds)
    timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT))
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_verification([7, 8])
    finally:
        timer.cancel()
        timer.join(5)
    assert sorted(finished) == sorted(started) == [7, 8]


def test_every_degree_runs_once_under_frequent_thread_switches(monkeypatch, two_cpus):
    started, _ = _timed_degrees(monkeypatch, lambda r: 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = run_verification(range(7, 1001))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(started) == list(range(7, 1001))
    assert [res["r"] for res in report["per_degree"]] == list(range(7, 1001))


def test_no_thread_starts_for_one_degree_or_one_cpu(monkeypatch):
    def no_threads(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    assert run_verification([7], layers=1, trials=1) == reference_run_verification(
        [7], layers=1, trials=1
    )
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_verification([7, 8, 9], layers=1, trials=1) == reference_run_verification(
        [7, 8, 9], layers=1, trials=1
    )


def test_the_largest_failing_degree_s_error_comes_out(monkeypatch, two_cpus):
    def fake(r, *args):
        if r == 39:
            raise ValueError("degree 39 broke")
        if r == 40:
            time.sleep(0.1)  # so that degree 39 fails first
            raise ZeroDivisionError("degree 40 broke")
        return {"r": r, "checks": {}, "violations": []}

    monkeypatch.setattr(verify, "verify_degree", fake)
    with pytest.raises(ZeroDivisionError, match=r"^degree 40 broke$"):
        run_verification([38, 39, 40])
