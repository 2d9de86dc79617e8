"""Lanes: tasks run side by side in forked children, outcomes as in process."""

import os
import re
import subprocess
import sys

import pytest

from conftest import assert_no_children, lanes
from selfsync import lanes as lanes_module


def tasks(log):
    def task(k):
        def call():
            log.append((k, os.getpid()))
            if k % 3 == 1:
                raise ValueError(f"task {k} failed")
            return {"task": k, "pid": os.getpid()}

        return call

    return [task(k) for k in range(7)]


@pytest.mark.parametrize("count", [1, 2, 3, 9])
def test_every_task_runs_and_its_outcome_comes_back_in_list_order(count):
    log = []
    with lanes(cpus=count) as forks:
        got = lanes_module.run(tasks(log), count)
    assert_no_children()
    assert len(forks) == min(count, 7) - 1
    for k, (result, error) in enumerate(got):
        if k % 3 == 1:
            assert result is None and str(error) == f"task {k} failed"
        else:
            assert error is None and result["task"] == k
            # lane 0, which holds the first task, runs in this process
            assert (result["pid"] == os.getpid()) == (k % min(count, 7) == 0)
    # the tasks of this process's lane ran here, those of the others in children
    assert [k for k, pid in log] == list(range(0, 7, min(count, 7)))


def test_a_lost_lane_gives_its_tasks_an_error(monkeypatch):
    monkeypatch.setattr(lanes_module, "_lane_child", lambda *args: os._exit(3))
    got = lanes_module.run([lambda: 1, lambda: 2, lambda: 3], 2)
    assert_no_children()
    assert got[0] == (1, None) and got[2] == (3, None)
    assert got[1][0] is None
    assert re.fullmatch(r"lane process \d+ ended with wait status 768 before sending its "
                        r"results", str(got[1][1]))


def test_lane_count_is_at_most_the_idle_cpus_and_at_least_one(monkeypatch):
    # the other conditions (os.fork, one thread) are checked through
    # simulate_batch in test_dde_sim
    monkeypatch.setattr(lanes_module, "_lane_cpus", lambda: 3)
    assert [lanes_module.lane_count(w) for w in (1, 2, 5)] == [1, 2, 3]
    monkeypatch.setattr(lanes_module, "_lane_cpus", lambda: -1)
    assert lanes_module.lane_count(2) == 1


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blas_threads_reads_the_openblas_pool(threads):
    code = "import numpy; from selfsync import lanes; print(lanes.blas_threads())"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout.strip()
    # None where numpy's BLAS is not OpenBLAS
    assert got in (threads, "None")
