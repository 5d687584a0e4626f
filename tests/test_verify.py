from __future__ import annotations

import os
import signal
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
