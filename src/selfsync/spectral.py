"""Laplacian eigenstructure, convergence-rate bounds, and the delayed
characteristic-function evaluator."""

from __future__ import annotations

import numpy as np

from .digraph import Connectivity, SccDecomposition, SensorDigraph
from .netgen import check_delays


FIT_START = 0.05  # share of an `empirical_rate` record left out of the fit as transient


class SpectralError(ValueError):
    pass


def _left_null_positive(block: np.ndarray, residual_tol: float) -> np.ndarray:
    """Solve g^T block = 0 with sum(g) = 1 for a root SCC's Laplacian block.

    No link enters a root SCC, so the rows of its block sum to zero and one
    of the r equations g^T block = 0 is redundant; the last is swapped for
    sum(g) = 1, which leaves a square system of full rank."""
    r = block.shape[0]
    if r == 1:
        return np.ones(1)
    a = block.T.copy()
    a[-1] = 1.0
    b = np.zeros(r)
    b[-1] = 1.0
    try:
        g = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"left null-space solve failed: {exc}") from None
    resid = np.linalg.norm(g @ block, np.inf)
    scale = max(np.linalg.norm(block, np.inf), 1.0)
    if resid > residual_tol * scale:
        raise SpectralError(f"left null-space residual {resid:.3e} exceeds tolerance")
    if np.any(g <= 0.0):
        raise SpectralError(
            f"non-positive entry in root-block eigenvector (min {g.min():.3e})"
        )
    return g


def gamma_left_eigenvector(lap: np.ndarray, scc: SccDecomposition) -> np.ndarray:
    """Left zero-eigenvector of the Laplacian, summing to one and positive
    exactly on the root SCC (read-only).

    Computed block-structurally: solve the root-SCC block's left null space
    and pad exact zeros elsewhere.  Requires a single root component.
    """
    if len(scc.root_components) != 1:
        raise SpectralError("no single root component: digraph is not QSC")
    return _gamma_for_component(lap, scc, scc.root_components[0])


def _gamma_for_component(
    lap: np.ndarray,
    scc: SccDecomposition,
    comp_index: int,
    residual_tol: float = 1e-10,
) -> np.ndarray:
    """Gamma for one root SCC's own Laplacian block (per-cluster variant)."""
    idx = np.asarray(sorted(scc.components[comp_index]), dtype=int)
    block = lap[np.ix_(idx, idx)]
    g_block = _left_null_positive(block, residual_tol)
    gamma = np.zeros(len(lap))
    gamma[idx] = g_block
    gamma /= gamma.sum()
    gamma.setflags(write=False)
    return gamma


def gamma_per_cluster(lap: np.ndarray, scc: SccDecomposition) -> dict[int, np.ndarray]:
    """One gamma per root component, each from its own block."""
    return {k: _gamma_for_component(lap, scc, k) for k in scc.root_components}


def rate_no_delay(lap: np.ndarray, scc: SccDecomposition) -> float:
    """Zero-delay rate: minus the smallest nonzero real part of spectrum(L)."""
    if scc.connectivity_class not in (Connectivity.SC, Connectivity.QSC):
        raise SpectralError("rate undefined as a global rate: digraph is not QSC")
    eig = np.linalg.eigvals(lap)
    scale = max(np.linalg.norm(lap, np.inf), 1.0)
    nonzero = eig[np.abs(eig) > 1e-9 * scale]
    return -float(np.min(nonzero.real))


def rate_kappa_bound(
    lap: np.ndarray,
    scc: SccDecomposition,
    gamma: np.ndarray,
    no_delay_rate: float | None = None,
) -> float:
    """kappa = -lambda_2( (D_g L + L^T D_g)/2 ), gamma at inf-norm one; SC only.

    The bound is checked against rate_no_delay(lap, scc), which a caller that
    already has it passes as no_delay_rate."""
    if scc.connectivity_class is not Connectivity.SC:
        raise SpectralError("kappa bound is stated for SC digraphs only")
    g = gamma / np.abs(gamma).max()
    # D_g L and L^T D_g as row and column scalings; adding +0.0 turns -0.0
    # into +0.0, as the dense products give it
    sym = 0.5 * (g[:, None] * lap + lap.T * g[None, :])
    sym += 0.0
    lam = np.linalg.eigvalsh(sym)
    kappa = -float(lam[1])
    r = rate_no_delay(lap, scc) if no_delay_rate is None else no_delay_rate
    if r > kappa + 1e-8 * max(abs(kappa), 1.0):
        raise SpectralError(f"rate bound violated: r={r} > kappa={kappa}")
    return kappa


def characteristic_function(s: complex, g: SensorDigraph, delays, k) -> complex:
    """p(s) = det(sI + Delta - H(s)) for per-node gains k_i = K/c_i.

    Delta = diag(k_i * in_degree(i)); H(s)_ij = k_i a_ij exp(-s tau_ij) on
    the links, zero elsewhere.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0.0):
        raise ValueError("per-node gains k_i must be positive")
    mat = np.diag(s + k * g.in_degrees).astype(complex)
    mat[g.links] -= k[g.dst] * g.link_weights * np.exp(-s * check_delays(g, delays))
    return complex(np.linalg.det(mat))


def characteristic_scale(g: SensorDigraph, k) -> float:
    """Hadamard-style magnitude bound for |p(0)|, for relative zero tests."""
    k = np.asarray(k, dtype=float)
    # the diagonal plus the off-diagonal absolute row sum: the weights are nonnegative
    row = k * (g.in_degrees + g.in_degrees)
    return float(np.prod(np.maximum(1.0, row)))


def _running_max(cols) -> np.ndarray:
    """The elementwise maximum of the arrays cols[0], cols[1], ..."""
    out = cols[0].copy()
    for col in cols[1:]:
        np.maximum(out, col, out=out)
    return out


def _max_deviation(d: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """max |d[t] - omega| over the entries of each sample t, omega paired with
    the last axis, bit for bit as that formula gives it.

    The largest and smallest value of each coordinate over the nodes (axis
    1) give err = max(hi - omega, omega - lo): rounding is monotone and
    negation exact, so max_i fl(d_i - omega) = fl(hi - omega), and likewise
    for omega - lo. Running maxima over the node columns cost less than a
    reduction of each sample over its short node axis, and no |d - omega|
    temporary of d's size is made."""
    nodes = d.swapaxes(0, 1)  # node i's samples are nodes[i]
    lo = nodes[0].copy()
    for col in nodes[1:]:
        np.minimum(lo, col, out=lo)
    dev = np.maximum(_running_max(nodes) - omega, omega - lo)
    # np.maximum(+0.0, -0.0) is -0.0; adding +0.0 makes it the +0.0 of |x|
    # and changes no other value
    return _running_max(dev.reshape(len(d), -1).T) + 0.0


def empirical_rate(traj, omega_star) -> tuple[float, float]:
    """(slope, rms residual) of the least-squares fit of log ||xdot(t) -
    omega*||_inf after the transient; (0.0, 0.0) when there is nothing to fit.

    The fit window runs from where the error has dropped below half of its
    post-transient peak down to where it nears the numerical floor.
    """
    if traj.clusters is None or not traj.clusters.global_sync:
        raise SpectralError("trajectory has not synchronized (run detect_sync first)")
    omega = np.atleast_1d(np.asarray(omega_star, dtype=float))
    err = _max_deviation(traj.derivatives, omega)
    t = traj.times
    scale = max(np.abs(omega).max(), 1.0)
    if err.max() < 1e-12 * scale:
        return 0.0, 0.0
    start = max(int(FIT_START * len(err)), 1)
    e0 = err[start:].max()
    floor = max(1e-9 * e0, 1e-13 * scale)
    mask = np.zeros(len(err), dtype=bool)
    mask[start:] = (err[start:] > floor) & (err[start:] < 0.5 * e0)
    if mask.sum() < 10:
        mask[start:] = err[start:] > floor
    if mask.sum() < 2:
        return 0.0, 0.0
    x = t[mask]
    y = np.log(err[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), resid
