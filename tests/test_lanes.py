"""Lanes: tasks run side by side in forked children, outcomes as in process."""

import ctypes
import errno
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


def test_a_lane_that_cannot_fork_runs_in_process_and_closes_its_pipe(monkeypatch):
    def outcomes(got):
        return [(result, type(error), str(error)) for result, error in got]

    serial = lanes_module.run(tasks([]), [7 - k for k in range(7)])
    pipes, closed = [], []
    pipe, close = os.pipe, os.close

    def refused():
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(lanes_module, "_lane_cpus", lambda: 3)
    monkeypatch.setattr(lanes_module, "LANE_WORK", 0)
    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    monkeypatch.setattr(os, "close", lambda fd: closed.append(fd) or close(fd))
    log = []
    got = lanes_module.run(tasks(log), [7 - k for k in range(7)])
    assert outcomes(got) == outcomes(serial)
    # both lanes that could not fork ran here, after this process's own
    assert [k for k, pid in log] == [0, 3, 6, 1, 4, 2, 5]
    assert {pid for k, pid in log} == {os.getpid()}
    assert len(pipes) == 2 and sorted(closed) == sorted(fd for ends in pipes for fd in ends)


def test_lane_count_is_at_most_the_idle_cpus_and_at_least_one(monkeypatch):
    # the other conditions (os.fork, one thread) are checked through
    # simulate_batch in test_dde_sim
    monkeypatch.setattr(lanes_module, "_lane_cpus", lambda: 3)
    assert [lanes_module._lane_count(w) for w in (1, 2, 5)] == [1, 2, 3]
    monkeypatch.setattr(lanes_module, "_lane_cpus", lambda: -1)
    assert lanes_module._lane_count(2) == 1


def unreadable(*args, **kwargs):
    raise OSError(errno.ENOENT, "no such file")


def test_without_a_readable_proc_file_there_is_one_lane_and_no_known_cpu(monkeypatch):
    monkeypatch.setattr(lanes_module, "open", unreadable, raising=False)
    assert lanes_module._lane_cpus() == 1
    assert lanes_module._current_cpu() is None


def test_without_the_openblas_function_blas_is_left_alone(monkeypatch):
    assert lanes_module._openblas("no_such_function", ctypes.c_int) is None
    get_threads = lanes_module._openblas("get_num_threads", ctypes.c_int)
    before = get_threads() if get_threads else None
    monkeypatch.setattr(lanes_module, "_openblas", lambda name, *types: None)
    with lanes_module.one_blas_thread():
        assert (get_threads() if get_threads else None) == before
