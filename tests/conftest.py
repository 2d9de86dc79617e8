"""Shared fixtures and independent brute-force oracles for the test suite."""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest

from selfsync import lanes as lanes_module
from selfsync.digraph import Connectivity


def reachable(w: np.ndarray, src: int) -> set[int]:
    """Brute-force reachability along the data flow (j -> i when w[i, j] > 0)."""
    seen = {src}
    frontier = [src]
    while frontier:
        j = frontier.pop()
        for i in np.flatnonzero(w[:, j] > 0.0):
            i = int(i)
            if i not in seen:
                seen.add(i)
                frontier.append(i)
    return seen


def scc_partition_bruteforce(w: np.ndarray) -> list[frozenset[int]]:
    """Mutual-reachability partition computed from pairwise closures."""
    n = w.shape[0]
    reach = [reachable(w, v) for v in range(n)]
    comps: list[frozenset[int]] = []
    assigned = set()
    for v in range(n):
        if v in assigned:
            continue
        comp = {u for u in reach[v] if v in reach[u]}
        comps.append(frozenset(comp))
        assigned |= comp
    return comps


def classify_bruteforce(w: np.ndarray) -> Connectivity:
    n = w.shape[0]
    reach = [reachable(w, v) for v in range(n)]
    if all(len(r) == n for r in reach):
        return Connectivity.SC
    if any(len(r) == n for r in reach):
        return Connectivity.QSC
    sym = (w > 0.0) | (w.T > 0.0)
    if len(reachable(sym.astype(float), 0)) == n:
        return Connectivity.WC
    return Connectivity.DISCONNECTED


def left_null_space_oracle(mat: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Dense-SVD basis of the left null space, rows orthonormal."""
    u, s, vt = np.linalg.svd(mat.T)
    scale = max(s.max(), 1.0)
    null_count = int(np.sum(s <= tol * scale))
    if null_count == 0:
        return np.empty((0, mat.shape[0]))
    return vt[-null_count:]


@contextlib.contextmanager
def lanes(cpus: int = 2, work: int = 0):
    """Lanes as on a host with `cpus` usable idle CPUs, where a task of at
    least `work` may get a lane of its own; yields the list of os.fork calls."""
    forks: list[int] = []
    fork = os.fork
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lanes_module, "_lane_cpus", lambda: cpus)
        mp.setattr(lanes_module, "LANE_WORK", work)
        mp.setattr(os, "fork", lambda: forks.append(1) or fork())
        yield forks


def refuse_fork():
    raise AssertionError("os.fork called")


def assert_no_children() -> None:
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    status = "PASS" if report.passed else "FAIL"
    name = report.nodeid.split("::")[-1]
    print(f"\n[{status}] acceptance: {name}")
