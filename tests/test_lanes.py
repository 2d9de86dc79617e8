"""Lanes: tasks run side by side in forked children, outcomes as in process."""

import os

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
    # heaviest first is list order here
    with lanes(cpus=count) as forks:
        got = lanes_module.run(tasks(log), [7 - k for k in range(7)])
    assert_no_children()
    assert len(forks) == min(count, 7) - 1
    for k, (result, error) in enumerate(got):
        if k % 3 == 1:
            assert result is None and str(error) == f"task {k} failed"
        else:
            assert error is None and result["task"] == k
            # this process's lane, which holds the heaviest task, runs here
            assert (result["pid"] == os.getpid()) == (k % min(count, 7) == 0)
    # the tasks of this process's lane ran here, those of the others in children
    assert [k for k, pid in log] == list(range(0, 7, min(count, 7)))


@pytest.mark.parametrize("cpus, forked", [(1, 0), (2, 1), (3, 2), (9, 2)])
def test_the_heaviest_task_runs_here_and_only_tasks_of_lane_work_open_lanes(cpus, forked):
    log = []
    # heaviest first: task 4, 1, 2, 3, 0; tasks 1 and 2 may open lanes
    with lanes(cpus=cpus, work=10) as forks:
        got = lanes_module.run(tasks(log)[:5], [5, 20, 10, 9, 30])
    assert_no_children()
    assert len(forks) == forked
    assert [error is None for _, error in got] == [True, False, True, True, False]
    own = [[4, 1, 2, 3, 0], [4, 2, 0], [4, 3]][forked]
    assert [k for k, pid in log] == own


def test_a_lost_lane_runs_its_tasks_in_process(monkeypatch):
    log = []
    monkeypatch.setattr(lanes_module, "_lane_child", lambda *args: os._exit(3))
    # this process's lane holds tasks 0 and 1, the lost child's task 2
    with lanes() as forks:
        got = lanes_module.run(tasks(log)[:3], [3, 1, 2])
    assert_no_children()
    assert len(forks) == 1
    assert got[0] == ({"task": 0, "pid": os.getpid()}, None)
    assert got[1][0] is None and str(got[1][1]) == "task 1 failed"
    assert got[2] == ({"task": 2, "pid": os.getpid()}, None)
    assert [k for k, pid in log] == [0, 1, 2]


def test_lane_count_is_at_most_the_idle_cpus_and_at_least_one(monkeypatch):
    # the other conditions (os.fork, one thread) are checked through
    # simulate_batch in test_dde_sim
    monkeypatch.setattr(lanes_module, "_lane_cpus", lambda: 3)
    assert [lanes_module._lane_count(w) for w in (1, 2, 5)] == [1, 2, 3]
    monkeypatch.setattr(lanes_module, "_lane_cpus", lambda: -1)
    assert lanes_module._lane_count(2) == 1
