"""Lanes: independent callables run side by side, the caller's share in this
process and every other share in a forked child that pickles its outcomes
back through a pipe."""

from __future__ import annotations

import contextlib
import os
import pickle
import threading


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


def lane_count(wanted: int) -> int:
    """How many of `wanted` lanes may open now: 1 while another Python thread
    is alive (a fork copies no thread but the caller's), else at most one per
    usable CPU that is idle now plus this one (`_lane_cpus`)."""
    if wanted < 2 or threading.active_count() != 1:
        return 1
    return max(1, min(wanted, _lane_cpus()))


# OpenBLAS's thread-count getter, in plain, 64-bit-integer and numpy's own
# (scipy-openblas) builds
_OPENBLAS_THREADS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def blas_threads() -> int | None:
    """Threads of the OpenBLAS mapped into this process (numpy's BLAS), as
    OpenBLAS counts them; None where none is found (another BLAS, or no
    /proc/self/maps)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_THREADS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


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


def run(tasks: list, count: int) -> list[tuple]:
    """Each task's (result, None), or (None, error) for a task that raised.

    The tasks are dealt in list order to `count` (at least 1) lanes, task k
    to lane k % count, and each lane runs its tasks in list order; every task
    runs, whether or not another one failed. This process runs lane 0, which holds
    the first task, and each other lane runs in a forked child, kept off this
    process's CPU, that pickles its outcomes back through a pipe. Every child
    is reaped before this returns or raises. A lane whose fork fails runs
    here; a child that ends without sending its outcomes (killed, or a result
    that does not pickle) gives each of its tasks a RuntimeError."""
    own, *others = [list(range(i, len(tasks), count))
                    for i in range(min(count, len(tasks)) or 1)]
    cpus = set(os.sched_getaffinity(0)) - {_current_cpu()} if others else set()
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
            children.append((pid, lane, r))
        outcomes.update(_outcomes(tasks, own))
    finally:
        for pid, lane, r in children:
            with os.fdopen(r, "rb") as fh:
                data = fh.read()
            sent.append((pid, lane, data, os.waitpid(pid, 0)[1]))
    for pid, lane, data, status in sent:
        if data:
            outcomes.update(pickle.loads(data))
        else:
            lost = RuntimeError(
                f"lane process {pid} ended with wait status {status} "
                "before sending its results"
            )
            outcomes.update({k: (None, lost) for k in lane})
    return [outcomes[k] for k in range(len(tasks))]
