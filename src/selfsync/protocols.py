"""Closed-form consensus prediction and the bias-removal protocols."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dde_sim import SimConfig, detect_sync_auto, simulate
from .digraph import SensorDigraph, laplacian
from .netgen import DelayMatrix, check_delays


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class ClusterPrediction:
    """Synchronized derivative of one root SCC, with q_i = c_i (or Q_i for
    vector states): omega = (gamma_q_sum + delay_term)^-1 sum_i gamma_i q_i g_i."""

    component: int  # index into the SCC decomposition's components
    nodes: frozenset[int]
    gamma: np.ndarray  # read-only, sums to one, positive exactly on nodes
    omega: float | np.ndarray  # float for g of shape (n,), else shape (L,)
    gamma_q_sum: float | np.ndarray  # sum_i gamma_i c_i, or sum_i gamma_i Q_i (L, L)
    delay_term: float  # K sum_ij gamma_i a_ij tau_ij


@dataclass(frozen=True)
class ConsensusPrediction:
    clusters: tuple[ClusterPrediction, ...]  # one per root SCC, by component index
    unpredicted: frozenset[int]  # nodes outside every root SCC

    @property
    def omega_star(self) -> float | np.ndarray:
        """The global value; defined only when there is a single root SCC."""
        if len(self.clusters) != 1:
            raise ProtocolError("global consensus not guaranteed: digraph is not QSC")
        return self.clusters[0].omega


@dataclass(frozen=True)
class UnbiasReport:
    omega_y: float
    omega_one: float
    ratio: float
    mode: str
    gamma_tilde: np.ndarray | None = None
    compensated_c: np.ndarray | None = None


def _effective_tau(
    g: SensorDigraph, delays: DelayMatrix, cfg: SimConfig, quantize: bool
) -> np.ndarray:
    """g's checked link delays, in `SensorDigraph.links` order, grid-rounded with quantize."""
    link_tau = check_delays(g, delays)
    return np.rint(link_tau / cfg.t_step) * cfg.t_step if quantize else link_tau


def _delay_term(
    g: SensorDigraph, link_tau: np.ndarray, gamma: np.ndarray, k_gain: float
) -> float:
    """K sum_ij gamma_i a_ij tau_ij, bit for bit as K * np.sum(gamma[:, None]
    * weights * tau): np.sum adds each link's product at its place in a zero
    n x n array, in the order in which it adds the dense entries."""
    terms = np.zeros((g.n, g.n))
    terms[g.links] = gamma[g.dst] * g.link_weights * link_tau
    return float(k_gain * np.sum(terms))


def predict_consensus(
    g: SensorDigraph,
    delays: DelayMatrix,
    cfg: SimConfig,
    g_values,
    q_mats=None,
    quantize_delays: bool = False,
) -> ConsensusPrediction:
    """Closed-form synchronized derivative of every root SCC.

    g_values of shape (n,) gives each cluster a float; shape (n, L) holds L
    forcing columns, and column l of each omega equals, bit for bit, the call
    with g_values[:, l]. With q_mats of shape (n, L, L) the states are vectors
    and omega solves
    (sum_i gamma_i Q_i + I_L * delay term) omega = sum_i gamma_i Q_i g_i.
    With quantize_delays the link delays are rounded to the sampling grid,
    matching what the discrete-time integrator actually honors. Each gamma
    is g's own (`SensorDigraph.root_gammas`): it depends on g alone, not on
    c, K or the forcing.
    """
    return _predict(g, _effective_tau(g, delays, cfg, quantize_delays), cfg, g_values, q_mats)


def _predict(g: SensorDigraph, link_tau: np.ndarray, cfg: SimConfig, g_values, q_mats=None):
    """`predict_consensus` with the effective link delays (`_effective_tau`)."""
    gv = np.asarray(g_values, dtype=float)
    columns = gv.ndim == 2
    if q_mats is None:
        c = cfg.c_array(g.n)
        # one contiguous row per column, so each sums exactly as a 1-D call does
        rows = np.ascontiguousarray(gv.T) if columns else np.broadcast_to(gv, (1, g.n))
    else:
        q = np.asarray(q_mats, dtype=float)
    clusters = []
    for k, gam in g.root_gammas.items():
        delay = _delay_term(g, link_tau, gam, cfg.k_gain)
        if q_mats is None:
            gq = float(np.sum(gam * c))
            omega = np.sum(gam * c * rows, axis=1) / (gq + delay)
            if not columns:
                omega = float(omega[0])
        else:
            gq = np.einsum("i,ilm->lm", gam, q)
            rhs = np.einsum("i,ilm,im->l", gam, q, gv)
            try:
                omega = np.linalg.solve(gq + delay * np.eye(q.shape[1]), rhs)
            except np.linalg.LinAlgError as exc:
                raise ProtocolError(f"singular combined matrix: {exc}") from exc
        clusters.append(ClusterPrediction(k, g.scc.components[k], gam, omega, gq, delay))
    covered = frozenset().union(*(cl.nodes for cl in clusters))
    return ConsensusPrediction(tuple(clusters), frozenset(range(g.n)) - covered)


def _consensus_values(
    g: SensorDigraph,
    delays: DelayMatrix,
    cfg: SimConfig,
    columns: np.ndarray,
    mode: str,
) -> list[float]:
    """One protocol pass per forcing column (n, L): exact predictions, or
    measurements from one simulated run that carries every column. Each
    column is detected against its own predicted omega*."""
    quantize = mode == "simulate"
    pred = predict_consensus(g, delays, cfg, columns, quantize_delays=quantize)
    preds = [float(omega) for omega in pred.omega_star]
    if mode == "predict":
        return preds
    if mode != "simulate":
        raise ValueError(f"unknown protocol mode {mode!r}")
    traj = simulate(g, delays, cfg, columns, record="window")
    values = []
    for col, omega in enumerate(preds):
        view = traj.column(col)
        sync = detect_sync_auto(view, cfg, omega_scale=omega)
        if not sync.global_sync:
            d = view.derivatives[-sync.window :]
            deviation = float(np.abs(d - d.mean(axis=0)).max())
            raise ProtocolError(
                "simulation pass did not reach global synchronization in column "
                f"{col} of {len(preds)}: largest node deviation from its window mean "
                f"{deviation:.3g} against tol {sync.tol:.3g} at horizon {cfg.horizon}"
            )
        values.append(float(next(c.value for c in sync.clusters if len(c.nodes) == g.n)))
    return values


def two_step_unbias(
    g: SensorDigraph,
    delays: DelayMatrix,
    cfg: SimConfig,
    g_values,
    mode: str = "predict",
) -> UnbiasReport:
    """Run with true forcings and with g = 1 and take the ratio; the delay and
    channel denominator cancels. In simulate mode both passes are columns of
    one run."""
    gvals = np.broadcast_to(np.asarray(g_values, dtype=float), (g.n,))
    omega_y, omega_one = _consensus_values(
        g, delays, cfg, np.column_stack([gvals, np.ones(g.n)]), mode
    )
    if abs(omega_one) < 1e-300:
        raise ProtocolError("unit-forcing consensus is numerically zero")
    return UnbiasReport(
        omega_y=omega_y, omega_one=omega_one, ratio=omega_y / omega_one, mode=mode
    )


def gamma_estimation_protocol(
    g: SensorDigraph,
    delays: DelayMatrix,
    cfg: SimConfig,
    g_values,
    mode: str = "predict",
) -> UnbiasReport:
    """(N_r + 1)-pass estimation of the normalized left eigenvector, followed
    by c-compensation and a final two-step ratio.

    All estimation passes run with c = 1 as the columns [1, e_i for each root
    node i] of one run; nodes outside the root SCC keep gamma_tilde = 0 and
    their original c.
    """
    scc = g.scc
    if len(scc.root_components) != 1:
        raise ProtocolError("protocol requires a QSC digraph")
    root_nodes = sorted(scc.components[scc.root_components[0]])
    cfg_unit = replace(cfg, c_weights=1.0)
    columns = np.zeros((g.n, 1 + len(root_nodes)))
    columns[:, 0] = 1.0
    columns[root_nodes, 1 + np.arange(len(root_nodes))] = 1.0
    omega_one, *omega_root = _consensus_values(g, delays, cfg_unit, columns, mode)
    gamma_tilde = np.zeros(g.n)
    gamma_tilde[root_nodes] = np.array(omega_root) / omega_one
    c = cfg.c_array(g.n)
    compensated = c.copy()
    pos = gamma_tilde > 0
    compensated[pos] = c[pos] / gamma_tilde[pos]
    # uniform rescaling leaves the final ratio invariant; restore the original
    # geometric mean so per-node gains K/c_i stay in a workable range
    scale = np.exp(np.log(c[pos]).mean() - np.log(compensated[pos]).mean())
    compensated[pos] *= scale
    cfg_comp = replace(cfg, c_weights=compensated)
    final = two_step_unbias(g, delays, cfg_comp, g_values, mode=mode)
    return UnbiasReport(
        omega_y=final.omega_y,
        omega_one=final.omega_one,
        ratio=final.ratio,
        mode=mode,
        gamma_tilde=gamma_tilde,
        compensated_c=compensated,
    )


def predict_intercepts(
    g: SensorDigraph,
    delays: DelayMatrix,
    cfg: SimConfig,
    g_values,
    quantize_delays: bool = False,
) -> np.ndarray:
    """Minimum-norm intercepts of the straight-line solution x*(t) = w* t + x0,
    via the generalized inverse of the Laplacian; QSC digraphs only."""
    link_tau = _effective_tau(g, delays, cfg, quantize_delays)
    omega = float(_predict(g, link_tau, cfg, g_values).omega_star)
    c = cfg.c_array(g.n)
    gvals = np.broadcast_to(np.asarray(g_values, dtype=float), (g.n,))
    delay_load = np.bincount(g.dst, g.link_weights * link_tau, minlength=g.n)  # sum_j a_ij tau_ij
    delta_omega = gvals - omega * (1.0 + cfg.k_gain / c * delay_load)
    return (1.0 / cfg.k_gain) * np.linalg.pinv(laplacian(g)) @ (c * delta_omega)
