"""Lanes: independent tasks run side by side, the heaviest in this process and
others in forked children that pickle their outcomes back through a pipe."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import threading

# work (`dde_sim.run_work` units) from which a task but the heaviest may get a
# lane: at n = 300 `selfsync run` lost with a lane at simulation work 1.1e6 and
# won at 4.5e6; the mc-n40 warm-up (groups of 3.3e5 and 6.5e5) lost, its op won
LANE_WORK = 2_000_000


def _lane_cpus() -> int:
    """How many lanes may run now: the CPUs this process may run on, less the
    tasks of the whole system that are runnable besides this one (the fourth
    field of /proc/loadavg counts this one too); 1 without os.fork,
    os.sched_getaffinity or /proc/loadavg."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    try:
        with open("/proc/loadavg") as fh:
            runnable = int(fh.read().split()[3].split("/")[0])
    except (OSError, ValueError, IndexError):
        return 1
    return len(os.sched_getaffinity(0)) - (runnable - 1)


def _lane_count(wanted: int) -> int:
    """How many of `wanted` lanes may open now: 1 while another Python thread
    is alive (a fork copies no thread but the caller's), else at most one per
    usable CPU that is idle now plus this one (`_lane_cpus`)."""
    if wanted < 2 or threading.active_count() != 1:
        return 1
    return max(1, min(wanted, _lane_cpus()))


@functools.cache
def _openblas(name: str, restype, *argtypes):
    """The function openblas_<name>, declared with restype and argtypes, of the
    OpenBLAS mapped into this process (numpy's BLAS), in plain, 64-bit-integer
    or numpy's own (scipy-openblas) builds; None where none is found (another
    BLAS, or no /proc/self/maps)."""
    paths = []
    with contextlib.suppress(OSError), open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    names = [f"{prefix}openblas_{name}{suffix}" for prefix in ("", "scipy_")
             for suffix in ("", "64_")]
    for path in paths:
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path)
            for function in (getattr(lib, symbol, None) for symbol in names):
                if function is not None:
                    function.restype, function.argtypes = restype, list(argtypes)
                    return function
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """numpy's OpenBLAS capped at one thread in the block, and its thread count
    restored after; another BLAS is left alone."""
    get_threads = _openblas("get_num_threads", ctypes.c_int)
    set_threads = _openblas("set_num_threads", None, ctypes.c_int)
    threads = get_threads() if get_threads and set_threads else 1
    if threads == 1:
        yield
        return
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def _current_cpu() -> int | None:
    """The CPU this thread last ran on (field 39 of its stat), or None."""
    try:
        with open("/proc/thread-self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _outcomes(tasks: list, lane: list[int]) -> dict:
    """{k: (result, None)} or {k: (None, error)} for each task k of a lane."""
    out = {}
    for k in lane:
        try:
            out[k] = (tasks[k](), None)
        except Exception as exc:  # handed to the caller, who decides when to raise it
            out[k] = (None, exc)
    return out


def _lane_child(tasks: list, lane: list[int], cpus: set[int], w: int) -> None:
    """Body of a forked lane on `cpus`: pickle the lane's outcomes into the
    pipe w and leave by os._exit, without returning into the caller's stack."""
    code = 1
    try:
        # a kernel that does not balance load (a cpuset with sched_load_balance
        # 0) would keep the child on its parent's CPU
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)
        data = pickle.dumps(_outcomes(tasks, lane), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def run(tasks: list, work: list) -> list[tuple]:
    """Each task's (result, None), or (None, error) for a task that raised.

    work[k] is task k's estimated work (`dde_sim.run_work` units). Heaviest
    first (ties in list order), the tasks are dealt in turn to the lanes: this
    process's, which holds the heaviest, and one per other task of at least
    LANE_WORK, as far as `_lane_count` allows. Each lane runs its tasks in that
    order; every task runs, whether or not another one failed. Another lane
    runs in a forked child, kept off this process's CPU, that pickles its
    outcomes back through a pipe; every child is reaped before this returns or
    raises. A lane whose fork fails, or whose child ends without sending its
    outcomes (killed, or a result that does not pickle), runs here.

    Every task runs with numpy's OpenBLAS capped at one thread, here and in a
    child, which inherits the cap: a larger pool would oversubscribe the CPUs
    left to a child (eigvals at n = 300 took 1.9 s there with 2 threads, 42 ms
    with one), and a task's round-off must not depend on where it runs."""
    order = sorted(range(len(tasks)), key=lambda k: -work[k])
    count = _lane_count(1 + sum(work[k] >= LANE_WORK for k in order[1:]))
    own, *others = [order[i::count] for i in range(count)]
    cpus = set(os.sched_getaffinity(0)) - {_current_cpu()} if others else set()
    with _one_blas_thread():
        children, sent, outcomes = [], [], {}
        try:
            for lane in others:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(r)
                    os.close(w)
                    own = own + lane
                    continue
                if pid == 0:
                    _lane_child(tasks, lane, cpus, w)
                os.close(w)
                children.append((lane, r, pid))
            outcomes.update(_outcomes(tasks, own))
        finally:
            for lane, r, pid in children:
                with os.fdopen(r, "rb") as fh:
                    sent.append((lane, fh.read()))
                os.waitpid(pid, 0)
        for lane, data in sent:
            outcomes.update(pickle.loads(data) if data else _outcomes(tasks, lane))
        return [outcomes[k] for k in range(len(tasks))]
