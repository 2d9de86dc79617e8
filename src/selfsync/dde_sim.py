"""Discrete-time integration of the delayed coupled integrators, plus
synchronization detection on the derivative trajectories."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .digraph import SensorDigraph
from .netgen import DelayMatrix


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class InitialCondition:
    """Initial state history phi_i on [-tau, 0].

    kind "constant": phi_i(t) = values_i; "linear": phi_i(t) = slopes_i * t +
    intercepts_i; "sampled": linear interpolation of a (times, table) record.
    """

    kind: str = "constant"
    values: np.ndarray | float = 0.0
    slopes: np.ndarray | float = 0.0
    intercepts: np.ndarray | float = 0.0
    sample_times: np.ndarray | None = None
    sample_table: np.ndarray | None = None  # (len(times), n) or (len(times), n, L)

    @staticmethod
    def _expand(arr, n: int, dim: int) -> np.ndarray:
        a = np.asarray(arr, dtype=float)
        if a.ndim == 1 and a.shape[0] == n:
            a = a[:, None]  # per-node values, common across coordinates
        return np.broadcast_to(a, (n, dim))

    def evaluate(self, t: float, n: int, dim: int) -> np.ndarray:
        out = np.zeros((n, dim))
        if self.kind == "constant":
            out[:] = self._expand(self.values, n, dim)
        elif self.kind == "linear":
            a = self._expand(self.slopes, n, dim)
            b = self._expand(self.intercepts, n, dim)
            out[:] = a * t + b
        elif self.kind == "sampled":
            ts = np.asarray(self.sample_times, dtype=float)
            table = np.asarray(self.sample_table, dtype=float)
            if table.ndim == 2:
                table = table[:, :, None]
            for q in range(dim):
                for i in range(n):
                    out[i, q] = np.interp(t, ts, table[:, i, q])
        else:
            raise ValueError(f"unknown initial-condition kind {self.kind!r}")
        return out


@dataclass(frozen=True)
class SimConfig:
    t_step: float = 1e-3
    k_gain: float = 1.0
    c_weights: np.ndarray | float = 1.0
    horizon: int = 5000
    init: InitialCondition = field(default_factory=InitialCondition)
    noise_std: float = 0.0
    rng_seed: int = 0
    sync_tol_rel: float = 1e-4  # tolerance as a fraction of |omega*| scale
    sync_window_frac: float = 0.1

    def __post_init__(self):
        if self.t_step <= 0:
            raise ValueError("t_step must be positive")
        if self.k_gain <= 0:
            raise ValueError("coupling gain K must be positive")
        if np.any(np.asarray(self.c_weights) <= 0):
            raise ValueError("coefficients c_i must be positive")
        if self.noise_std < 0:
            raise ValueError("noise std must be nonnegative")

    def c_array(self, n: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.c_weights, dtype=float), (n,)).copy()

    def sync_window(self, samples: int) -> int:
        """Samples in the final sync window of a run of `samples` samples."""
        return max(int(self.sync_window_frac * samples), 2)


@dataclass(frozen=True)
class SyncCluster:
    nodes: frozenset[int]
    value: np.ndarray  # scalar stored as shape (), vector as (L,)
    detection_time: float


@dataclass
class SyncResult:
    clusters: list[SyncCluster]
    unclustered: frozenset[int]
    global_sync: bool
    tol: float
    window: int


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (samples, n) scalar or (samples, n, L)
    derivatives: np.ndarray  # RHS values at each sample, same shape as states
    t_step: float
    clusters: SyncResult | None = None
    first_step: int = 0  # step of the first sample; > 0 for a window-only record

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def is_vector(self) -> bool:
        return self.states.ndim == 3

    def column(self, col: int) -> Trajectory:
        """Scalar view of one forcing column of a multi-column run."""
        return Trajectory(
            times=self.times,
            states=self.states[:, :, col],
            derivatives=self.derivatives[:, :, col],
            t_step=self.t_step,
            first_step=self.first_step,
        )


def _lag_matrix(g: SensorDigraph, delays: DelayMatrix, t_step: float) -> np.ndarray:
    m = np.rint(delays.tau / t_step).astype(int)
    m[g.weights <= 0.0] = 0
    np.fill_diagonal(m, 0)
    return m


# steps between two compactions of a window-only record's history buffer
_CHUNK = 1024


def _simulate_core(
    g: SensorDigraph,
    delays: DelayMatrix,
    cfg: SimConfig,
    kq: np.ndarray,  # (n, 1) per-node K / c_i, or (n, L, L) per-node K * Q_i^{-1}
    g_vals: np.ndarray,  # (n, L)
    window: int | None = None,
) -> Trajectory:
    """Euler run of L state columns, recorded with shape (samples, n, L).

    A (n, 1) gain drives L independent scalar columns, with coupling noise
    drawn as (n, 1) per step and shared by every column; a (n, L, L) gain
    couples the L coordinates of a vector state, with noise drawn as (n, L).
    With a window only the last `window` samples are recorded, and the
    history keeps mmax + 1 rows plus a chunk, compacted when full.
    """
    n = g.n
    dim = g_vals.shape[1]
    w = g.weights
    indeg = w.sum(axis=1)
    # explicit-Euler stability heuristic
    if kq.ndim == 2:
        gain = kq[:, 0]
    else:
        gain = np.linalg.eigvalsh(0.5 * (kq + kq.transpose(0, 2, 1))).max(axis=1)
    bad = np.flatnonzero(cfg.t_step * gain * indeg >= 2.0)
    if bad.size:
        i = int(bad[0])
        raise SimulationError(
            f"step-size instability: T_s * k_{i} * in_degree({i}) = "
            f"{cfg.t_step * gain[i] * indeg[i]:.3f} >= 2"
        )
    m = _lag_matrix(g, delays, cfg.t_step)
    mmax = int(m.max()) if m.size else 0
    horizon = cfg.horizon
    if window is None:
        first, rows = 0, mmax + horizon + 1
    else:
        first = max(horizon + 1 - window, 0)
        rows = mmax + 1 + min(horizon, max(_CHUNK, mmax + 1))
    x = np.empty((rows, n, dim))
    for h in range(mmax + 1):
        x[h] = cfg.init.evaluate((h - mmax) * cfg.t_step, n, dim)
    deriv = np.empty((horizon + 1 - first, n, dim))
    states = x[mmax:] if window is None else np.empty_like(deriv)
    skipped = np.empty((n, dim))  # derivative of a step before the window
    # The coupling sum_j a_ij (x_j(t - tau_ij) - x_i(t)) equals sum_j b_ij
    # x_j(t - tau_ij) with b = A - diag(in_degree) and tau_ii = 0. One entry
    # list holds every nonzero b_ij and every diagonal entry, grouped by
    # (node i, coordinate l) with sources ascending, so each (i, l) owns a
    # non-empty run that np.add.reduceat sums. Entry e reads x.reshape(-1)
    # at idx[e], which advances by one history row per step.
    b = w.copy()
    np.fill_diagonal(b, -indeg)
    dst, src = np.nonzero((b != 0.0) | np.eye(n, dtype=bool))
    coord = np.arange(dim)
    entry_bin = (dst[:, None] * dim + coord).ravel()
    order = np.argsort(entry_bin, kind="stable")
    starts = np.searchsorted(entry_bin[order], np.arange(n * dim))
    weight = np.repeat(b[dst, src], dim)[order]
    lagged_src = src + (mmax - m[dst, src]) * n
    idx = (lagged_src[:, None] * dim + coord).ravel()[order]
    xf = x.reshape(-1)
    k_over_c = kq if kq.ndim == 2 else None
    rng = np.random.default_rng(cfg.rng_seed) if cfg.noise_std > 0 else None
    noise_shape = (n, kq.shape[1])
    cur = mmax
    for step in range(horizon + 1):
        coup = np.add.reduceat(weight * xf[idx], starts).reshape(n, dim)
        rhs = deriv[step - first] if step >= first else skipped
        if k_over_c is not None:
            np.multiply(k_over_c, coup, out=rhs)
        else:
            np.einsum("ilm,im->il", kq, coup, out=rhs)
        rhs += g_vals
        if rng is not None:
            rhs += rng.normal(0.0, cfg.noise_std, size=noise_shape)
        if window is not None and step >= first:
            states[step - first] = x[cur]
        if step < horizon:
            if cur + 1 == rows:  # only in a window-only record
                x[: mmax + 1] = x[cur - mmax : cur + 1]
                idx -= (cur - mmax) * n * dim
                cur = mmax
            nxt = x[cur + 1]
            np.multiply(cfg.t_step, rhs, out=nxt)
            nxt += x[cur]
            if not np.isfinite(nxt).all():
                raise SimulationError(f"non-finite state at step {step + 1}")
            idx += n * dim
            cur += 1
    return Trajectory(
        times=np.arange(first, horizon + 1) * cfg.t_step,
        states=states,
        derivatives=deriv,
        t_step=cfg.t_step,
        first_step=first,
    )


def simulate(
    g: SensorDigraph,
    delays: DelayMatrix,
    cfg: SimConfig,
    g_values,
    window_only: bool = False,
) -> Trajectory:
    """Forward-Euler run of the scalar coupled system with per-link lags
    m_ij = round(tau_ij / T_s).

    g_values of shape (n, L) runs L independent forcing columns in one pass;
    states and derivatives then have shape (samples, n, L), and
    ``column(l)`` equals, bit for bit, the run with forcing g_values[:, l].
    Coupling noise is drawn once per step for each node and added to every
    column: each column sees the stream that its own run seeded with
    cfg.rng_seed would see.

    window_only records only the final sync window, the last
    cfg.sync_window(horizon + 1) samples, for callers that read nothing else.
    """
    gv = np.asarray(g_values, dtype=float)
    columns = gv.ndim == 2
    if columns and gv.shape[0] != g.n:
        raise ValueError(f"g_values shape {gv.shape} does not match (n, L)")
    if not columns:
        gv = np.broadcast_to(gv, (g.n,))[:, None]
    q = cfg.c_array(g.n).reshape(g.n, 1, 1)
    kq = cfg.k_gain * np.linalg.inv(q)
    window = cfg.sync_window(cfg.horizon + 1) if window_only else None
    traj = _simulate_core(g, delays, cfg, kq[:, :, 0], gv, window)
    return traj if columns else traj.column(0)


def simulate_vector(
    g: SensorDigraph, delays: DelayMatrix, cfg: SimConfig, q_mats, g_vecs
) -> Trajectory:
    """Vector-state run: xdot_i = g_i + K Q_i^{-1} sum_j a_ij (x_j(t-tau_ij) - x_i)."""
    q = np.asarray(q_mats, dtype=float)
    gv = np.asarray(g_vecs, dtype=float)
    if q.ndim != 3 or q.shape[0] != g.n or q.shape[1] != q.shape[2]:
        raise ValueError(f"q_mats must have shape (n, L, L), got {q.shape}")
    if gv.shape != (g.n, q.shape[1]):
        raise ValueError(f"g_vecs shape {gv.shape} does not match (n, L)")
    for i in range(g.n):
        sym = 0.5 * (q[i] + q[i].T)
        if not np.allclose(q[i], q[i].T) or np.linalg.eigvalsh(sym).min() <= 0:
            raise ValueError(f"Q matrix of node {i} is not symmetric positive definite")
    kq = cfg.k_gain * np.linalg.inv(q)
    return _simulate_core(g, delays, cfg, kq, gv)


def detect_sync(
    traj: Trajectory, tol: float, window: int, min_cluster_size: int = 2
) -> SyncResult:
    """Partition nodes into groups whose derivatives over the final window are
    pairwise within tol and individually stationary.

    Singleton groups count as clusters only for a one-node system; a cluster
    containing every node sets the global flag.
    """
    if window > len(traj.times):
        raise ValueError("window longer than trajectory")
    if window < 1:
        raise ValueError("window must hold at least one sample")
    d = traj.derivatives[-window:]
    if d.ndim == 2:
        d = d[:, :, None]
    n = d.shape[1]
    means = d.mean(axis=0)  # (n, L)
    stationary = np.abs(d - means[None]).max(axis=(0, 2)) <= tol
    idx = np.flatnonzero(stationary)
    t_detect = float(traj.times[-window])
    clusters = []
    clustered: set[int] = set()
    # connected components of the "within tol" relation among stationary
    # nodes; each grows from its lowest node, so clusters come out ordered by
    # their smallest member with their nodes ascending
    mu = means[idx]
    close = np.abs(mu[:, None, :] - mu[None, :, :]).max(axis=2) <= tol
    unseen = np.ones(len(idx), dtype=bool)
    for root in range(len(idx)):
        if not unseen[root]:
            continue
        member = frontier = np.arange(len(idx)) == root
        while frontier.any():
            frontier = close[frontier].any(axis=0) & ~member
            member = member | frontier
        unseen &= ~member
        nodes = idx[member]
        if len(nodes) >= min_cluster_size or n == 1:
            value = means[nodes].mean(axis=0)
            if traj.derivatives.ndim == 2:
                value = value[0]
            clusters.append(
                SyncCluster(
                    nodes=frozenset(nodes.tolist()),
                    value=np.asarray(value),
                    detection_time=t_detect,
                )
            )
            clustered.update(nodes.tolist())
    result = SyncResult(
        clusters=clusters,
        unclustered=frozenset(range(n)) - frozenset(clustered),
        global_sync=any(len(c.nodes) == n for c in clusters),
        tol=tol,
        window=window,
    )
    traj.clusters = result
    return result


def detect_sync_auto(
    traj: Trajectory, cfg: SimConfig, omega_scale: float
) -> SyncResult:
    """detect_sync with config-derived tolerance and window."""
    tol = cfg.sync_tol_rel * max(abs(omega_scale), 1e-12)
    window = cfg.sync_window(traj.first_step + len(traj.times))
    return detect_sync(traj, tol=tol, window=window)


def trajectory_to_csv(traj: Trajectory, path, downsample: int = 1) -> None:
    """CSV trace with header (t, x_1..x_n, dx_1..dx_n); vector states flatten
    coordinate-major."""
    states = traj.states.reshape(len(traj.times), -1)
    deriv = traj.derivatives.reshape(len(traj.times), -1)
    cols = states.shape[1]
    header = ",".join(
        ["t"] + [f"x_{k + 1}" for k in range(cols)] + [f"dx_{k + 1}" for k in range(cols)]
    )
    data = np.column_stack([traj.times, states, deriv])[::downsample]
    np.savetxt(path, data, delimiter=",", header=header, comments="")
