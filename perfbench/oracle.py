"""Reference values computed without calling selfsync: root components by
brute-force reachability, gamma as the SVD left null space of each root block,
and the closed-form synchronized derivative omega* with quantized delays."""

from __future__ import annotations

import numpy as np


def root_components(w: np.ndarray) -> list[list[int]]:
    """Strongly connected components that no outside node feeds (data flows
    j -> i when w[i, j] > 0)."""
    n = w.shape[0]
    reach = (w > 0).T | np.eye(n, dtype=bool)  # reach[j, i]: j reaches i
    while True:
        nxt = (reach.astype(np.float64) @ reach.astype(np.float64)) > 0
        if (nxt == reach).all():
            break
        reach = nxt
    mutual = reach & reach.T
    roots, seen = [], set()
    for v in range(n):
        if v in seen:
            continue
        comp = [int(u) for u in np.flatnonzero(mutual[v])]
        seen.update(comp)
        outside = np.setdiff1d(np.arange(n), comp)
        if not reach[np.ix_(outside, comp)].any():
            roots.append(comp)
    return roots


def left_null_vector(block: np.ndarray) -> np.ndarray:
    """The one-dimensional left null space of an SC Laplacian block, scaled to sum one."""
    if block.shape[0] == 1:
        return np.ones(1)
    _, s, vt = np.linalg.svd(block.T)
    vec = vt[-1]
    return vec / vec.sum()


def gamma(w: np.ndarray, root: list[int]) -> np.ndarray:
    """Left zero-eigenvector of L = diag(rowsum) - W, supported on one root component."""
    lap = np.diag(w.sum(axis=1)) - w
    out = np.zeros(w.shape[0])
    out[root] = left_null_vector(lap[np.ix_(root, root)])
    return out


def omega_star(w, tau, t_step, k_gain, c, g) -> list[tuple[list[int], float]]:
    """(root nodes, synchronized derivative) for every root component, with the
    delays rounded to the sampling grid as the integrator applies them."""
    tau_q = np.rint(np.asarray(tau) / t_step) * t_step
    c = np.broadcast_to(np.asarray(c, dtype=float), (w.shape[0],))
    out = []
    for root in root_components(w):
        gam = gamma(w, root)
        den = np.sum(gam * c) + k_gain * np.sum(gam[:, None] * w * tau_q)
        out.append((root, float(np.sum(gam * c * g) / den)))
    return out


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)
