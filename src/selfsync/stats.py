"""Local decision statistics and centralized reference computations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class LinearObsModel:
    """y = A xi + w with Gaussian noise covariance R, per node."""

    a_mat: np.ndarray  # (M, L), full column rank
    r_cov: np.ndarray  # (M, M) symmetric positive definite
    y: np.ndarray  # (M,)


@dataclass(frozen=True)
class GlrtModel:
    samples: np.ndarray  # (K,) observations at one node
    sigma_w2: float  # known noise variance


def _chol_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    chol = np.linalg.cholesky(mat)
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def blue_local(m: LinearObsModel) -> tuple[np.ndarray, np.ndarray]:
    """(g_i, C_i) with C_i = A^T R^{-1} A and g_i = C_i^{-1} A^T R^{-1} y."""
    a = np.asarray(m.a_mat, dtype=float)
    r = np.asarray(m.r_cov, dtype=float)
    y = np.asarray(m.y, dtype=float)
    if a.shape[0] < a.shape[1] or np.linalg.matrix_rank(a) < a.shape[1]:
        raise ModelError("mixing matrix is not full column rank")
    try:
        rinv_a = _chol_solve(r, a)
        rinv_y = _chol_solve(r, y)
    except LinAlgError as exc:
        raise ModelError(f"noise covariance is not positive definite: {exc}") from exc
    c_mat = a.T @ rinv_a
    g_vec = _chol_solve(c_mat, a.T @ rinv_y)
    return g_vec, c_mat


def centralized_blue(models: list[LinearObsModel]) -> np.ndarray:
    """Fusion-center reference: (sum C_i)^{-1} (sum C_i g_i)."""
    pairs = [blue_local(m) for m in models]
    c_sum = sum(c for _, c in pairs)
    rhs = sum(c @ g for g, c in pairs)
    try:
        return _chol_solve(c_sum, rhs)
    except LinAlgError as exc:
        raise ModelError(f"singular combined information matrix: {exc}") from exc


def glrt_local(m: GlrtModel) -> float:
    """Per-node generalized likelihood-ratio statistic with clamped power
    estimate; natural logarithm throughout."""
    if m.sigma_w2 <= 0:
        raise ModelError("noise variance must be positive")
    y = np.asarray(m.samples, dtype=float)
    energy = float(np.mean(y**2))
    p_hat = max(0.0, energy - m.sigma_w2)
    total = p_hat + m.sigma_w2
    return energy * (1.0 / m.sigma_w2 - 1.0 / total) - np.log(total / m.sigma_w2)


def glrt_network(models: list[GlrtModel]) -> float:
    """Network detection statistic: plain sum of the local statistics (c = 1)."""
    return float(sum(glrt_local(m) for m in models))


def consensus_function(h, g_values, c) -> float:
    """f = h( sum c_i g_i / sum c_i ) for positive weights c."""
    c = np.asarray(c, dtype=float)
    g = np.asarray(g_values, dtype=float)
    if np.any(c <= 0):
        raise ModelError("weights c_i must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # a run reports the overflow
        mean = float(np.sum(c * g) / np.sum(c))
    return h(mean)


def consensus_function_vector(h, g_vecs, c_mats) -> np.ndarray:
    """Vector counterpart: h( (sum C_i)^{-1} sum C_i g_i )."""
    c = np.asarray(c_mats, dtype=float)
    g = np.asarray(g_vecs, dtype=float)
    lhs = c.sum(axis=0)
    rhs = np.einsum("ilm,im->l", c, g)
    return h(np.linalg.solve(lhs, rhs))
