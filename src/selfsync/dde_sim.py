"""Discrete-time integration of the delayed coupled integrators, plus
synchronization detection on the derivative trajectories."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import lanes
from .digraph import SensorDigraph
from .netgen import DelayMatrix, check_delays


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class InitialCondition:
    """Initial state history phi_i(t) = slopes_i * t + intercepts_i on [-tau, 0];
    a per-node value of shape (n,) is common across coordinates."""

    slopes: np.ndarray | float = 0.0
    intercepts: np.ndarray | float = 0.0

    @staticmethod
    def _expand(arr, n: int, dim: int) -> np.ndarray:
        a = np.asarray(arr, dtype=float)
        if a.ndim == 1 and a.shape[0] == n:
            a = a[:, None]  # per-node values, common across coordinates
        return np.broadcast_to(a, (n, dim))

    def evaluate(self, t, n: int, dim: int) -> np.ndarray:
        """phi at time t, shape (n, dim); at times t of shape (H,), (H, n, dim)."""
        t = np.asarray(t, dtype=float)[..., None, None]
        return self._expand(self.slopes, n, dim) * t + self._expand(self.intercepts, n, dim)


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
        # written so that NaN fails every check
        if not (self.t_step > 0 and np.isfinite(self.t_step)):
            raise ValueError("t_step must be positive and finite")
        if not (self.k_gain > 0 and np.isfinite(self.k_gain)):
            raise ValueError("coupling gain K must be positive and finite")
        c = np.asarray(self.c_weights, dtype=float)
        if not (np.all(c > 0) and np.isfinite(c).all()):
            raise ValueError("coefficients c_i must be positive and finite")
        if not (self.noise_std >= 0 and np.isfinite(self.noise_std)):
            raise ValueError("noise std must be nonnegative and finite")
        h = self.horizon
        if not (isinstance(h, (int, np.integer)) and not isinstance(h, bool) and h >= 1):
            raise ValueError(f"horizon must be a whole number of at least one step, got {h}")
        if not (self.sync_tol_rel > 0 and np.isfinite(self.sync_tol_rel)):
            raise ValueError(f"sync_tol_rel must be positive and finite, got {self.sync_tol_rel}")
        if not 0 < self.sync_window_frac <= 1:
            raise ValueError(f"sync_window_frac must lie in (0, 1], got {self.sync_window_frac}")

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
    first_step: int = 0  # step of the first sample; > 0 for a "window" record

    def column(self, col: int) -> Trajectory:
        """Scalar view of one forcing column of a multi-column run."""
        return Trajectory(
            times=self.times,
            states=self.states[:, :, col],
            derivatives=self.derivatives[:, :, col],
            t_step=self.t_step,
            first_step=self.first_step,
        )


@dataclass
class NodeMean:
    """A "node_mean" record: the per-step mean over the nodes of one run's
    derivatives, shape (samples, L), or (samples,) for g_values of shape (n,).
    Column l equals ``column(l).derivatives.mean(axis=1)`` of the run's full
    record bit for bit. It holds no per-node values, so `detect_sync` and the
    trace writers reject it."""

    times: np.ndarray
    mean: np.ndarray
    t_step: float

    def column(self, col: int) -> NodeMean:
        return NodeMean(times=self.times, mean=self.mean[:, col], t_step=self.t_step)


def _per_node(traj, what: str) -> None:
    if isinstance(traj, NodeMean):
        raise TypeError(
            f"{what} needs a per-node Trajectory, got a node-mean record "
            "(record='node_mean'); simulate with record='full' or 'window'"
        )


# steps between two compactions of a bounded record's history buffer
_CHUNK = 256
# gathered entries per block, which bounds the block length and its buffers
_BLOCK_ENTRIES = 1 << 16
# unchecked states that trigger the non-finite check
_CHECK_EVERY = 64
# longest run of entries whose coupling sum np.bincount forms as np.add.reduceat
# does (below 8 terms numpy's pairwise sum adds in order), and faster (BENCH_30)
_BINCOUNT_RUN = 8
# steps of coupling noise drawn per generator call
_NOISE_STEPS = 64
# shortest block length s whose self term is solved by the cumulative-sum scan
_SCAN_SPAN = 8
# smallest |a|^s (for a vector gain, the smallest singular value of a^s),
# a = I - T k_i d_in(i), over the nodes of a member that scans: the scan
# multiplies by the inverse powers of a up to a^(1-s), so a^s must be
# invertible, and at or above this floor a product a^s v stays a normal float
# for every |v| above 1e-157, so that no block input loses digits to underflow.
# A member below it (T k_i d_in(i) at or near 1, or a long s) is stepped.
_SCAN_FLOOR = 1e-150
# largest ratio of the largest to the smallest singular value of a vector
# gain's a^s in a member that scans: the inverse powers scale the rounding of
# the cumulative sum by up to this ratio, which 2x2 runs read as about 2e-15
# times it in relative error (a scalar gain's ratio is 1)
_SCAN_SPREAD = 16.0


def run_work(horizon: int, entries: int, nodes: int, columns: int = 1) -> int:
    """Estimated serial work of an Euler run over steps 0..horizon: the
    gathered entries and the node updates of every step and column."""
    return (horizon + 1) * (entries + nodes) * columns


# what a run records: every sample, the final sync window, or the node means
RECORDS = ("full", "window", "node_mean")


class SimRun(NamedTuple):
    """One member of a `simulate_batch` call; a plain tuple
    (g, delays, cfg, g_values[, q_mats[, record]]) works too."""

    g: SensorDigraph
    delays: DelayMatrix
    cfg: SimConfig
    g_values: object
    q_mats: object = None
    record: str = "full"


@dataclass
class _Member:
    """One run's own arrays, built as its solo run builds them. Its coupling
    b = A - diag(in_degree) is the entry list (dst, src, lag, weight), sorted
    by (dst, src): every link of `g.links`, plus own entries (i, i) of weight
    -in_degree(i). With s = 1 every node has one, at lag 0; with s > 1 the
    self term is left out, and only a node without in-links has one (weight
    -0.0) at lag mmax, so that its run of entries is not empty."""

    label: str  # prefix of the member's error messages
    cfg: SimConfig
    kq: np.ndarray  # (n, 1) per-node K / c_i, or (n, L, L) per-node K * Q_i^{-1}
    g_vals: np.ndarray  # (n, L)
    columns: bool  # g_values came as (n, L)
    indeg: np.ndarray
    mmax: int
    span: int  # s = shortest link lag + 1, before the caps
    scans: bool  # whether the self term is solved by the cumulative-sum scan
    first: int  # first recorded step
    dst: np.ndarray
    src: np.ndarray
    lag: np.ndarray
    weight: np.ndarray


def _scan_holds(kq: np.ndarray, indeg: np.ndarray, t_step: float, span: int) -> bool:
    """Whether a^s, with a = I - T k_i d_in(i) formed as the scan forms it,
    keeps its singular values on every node at or above _SCAN_FLOOR and within
    a ratio of _SCAN_SPREAD; a scalar gain's a is taken as a 1x1 matrix, so
    that it decides as its vector twin."""
    gain = kq.reshape(len(kq), kq.shape[-1], -1) * indeg[:, None, None]
    a = np.eye(gain.shape[1]) - t_step * gain
    sv = np.linalg.svd(np.linalg.matrix_power(a, span), compute_uv=False)
    low = sv[:, -1]
    return bool((low >= _SCAN_FLOOR).all() and (sv[:, 0] <= _SCAN_SPREAD * low).all())


def _member(run: SimRun, label: str) -> _Member:
    g, cfg = run.g, run.cfg
    n = g.n
    gv = np.asarray(run.g_values, dtype=float)
    columns = gv.ndim == 2
    if columns and gv.shape[0] != n:
        raise ValueError(f"{label}g_values shape {gv.shape} does not match (n, L)")
    if run.q_mats is None:
        if not columns:
            gv = np.broadcast_to(gv, (n,))[:, None]
        q = cfg.c_array(n).reshape(n, 1, 1)
    else:
        q = np.asarray(run.q_mats, dtype=float)
        if q.ndim != 3 or q.shape[0] != n or q.shape[1] != q.shape[2]:
            raise ValueError(f"{label}q_mats must have shape (n, L, L), got {q.shape}")
        if gv.shape != (n, q.shape[1]):
            raise ValueError(f"{label}g_values shape {gv.shape} does not match (n, L)")
        qt = q.transpose(0, 2, 1)
        spd = np.isclose(q, qt).all(axis=(1, 2)) & (
            np.linalg.eigvalsh(0.5 * (q + qt)).min(axis=1) > 0
        )
        if not spd.all():
            bad = int(np.argmin(spd))
            raise ValueError(f"{label}Q matrix of node {bad} is not symmetric positive definite")
    kq = cfg.k_gain * np.linalg.inv(q)
    if run.q_mats is None:
        kq = kq[:, :, 0]
    indeg = g.in_degrees
    # explicit-Euler stability heuristic
    if kq.ndim == 2:
        gain = kq[:, 0]
    else:
        gain = np.linalg.eigvalsh(0.5 * (kq + kq.transpose(0, 2, 1))).max(axis=1)
    bad = np.flatnonzero(cfg.t_step * gain * indeg >= 2.0)
    if bad.size:
        i = int(bad[0])
        raise SimulationError(
            f"{label}step-size instability: T_s * k_{i} * in_degree({i}) = "
            f"{cfg.t_step * gain[i] * indeg[i]:.3f} >= 2"
        )
    dst, src = g.links
    lag = np.rint(check_delays(g, run.delays, label) / cfg.t_step).astype(int)
    mmax = int(lag.max(initial=0))
    span = int(lag.min()) + 1 if lag.size else 1
    scans = span >= _SCAN_SPAN and _scan_holds(kq, indeg, cfg.t_step, span)
    own = np.arange(n) if span == 1 else np.flatnonzero(np.bincount(dst, minlength=n) == 0)
    order = np.argsort(np.r_[dst * n + src, own * (n + 1)])
    dst, src = np.r_[dst, own][order], np.r_[src, own][order]
    lag = np.r_[lag, np.full(own.size, 0 if span == 1 else mmax)][order]
    weight = np.r_[g.link_weights, -indeg[own]][order]
    horizon = cfg.horizon
    first = max(horizon + 1 - cfg.sync_window(horizon + 1), 0) if run.record == "window" else 0
    return _Member(
        label, cfg, kq, gv, columns, indeg, mmax, span, scans, first, dst, src, lag, weight
    )


def _label(members, offsets, node: int) -> str:
    """The error prefix of the member that owns union node `node`."""
    return members[int(np.searchsorted(offsets, node, side="right")) - 1].label


def _check_finite(x: np.ndarray, last_step: int, members, offsets) -> None:
    """Raise at the first non-finite state among the rows of x, whose last
    row holds the state of step last_step, naming its member."""
    ok = np.isfinite(x)
    if not ok.all():
        bad = int(np.argmin(ok.reshape(len(x), -1).all(axis=1)))
        node = int(np.argmin(ok[bad].all(axis=1)))
        raise SimulationError(
            f"{_label(members, offsets, node)}non-finite state at step "
            f"{last_step - (len(x) - 1) + bad}"
        )


def _simulate_core(
    members: list[_Member], t_step: float, horizon: int, record: str
) -> list[Trajectory] | list[NodeMean]:
    """Euler run of the disjoint union of members that share L, the gain kind
    and the step arithmetic (see `simulate_batch`); each member's record has
    shape (samples, n_b, L) and equals its solo run bit for bit.

    A (n, 1) gain drives L independent scalar columns, with coupling noise
    drawn as (n, 1) per step and shared by every column; a (n, L, L) gain
    couples the L coordinates of a vector state, with noise drawn as (n, L).
    A "window" record keeps each member's last samples and a "node_mean"
    record each member's per-step node means; both keep mmax + 1 history
    rows plus a chunk of at least _CHUNK steps, a whole number of blocks,
    compacted when full. A "node_mean" record holds at most a chunk (plus
    one) of derivative rows, reduced per member and per column at each
    compaction and at the end, on the slices ``deriv[:, lo:hi, col]`` that a
    full record's columns are.

    Every link lags at least m_min steps, so the delayed inputs of the
    s = m_min + 1 steps from t on are all in the history at t. The run
    advances in blocks of s steps: gathers of at most _BLOCK_ENTRIES entries
    sum the delayed coupling d of the whole block, and only the lag-0 self
    term -k_i d_in(i) x_i(t) is left. A lag-0 link gives s = 1, where the
    self term stays in the gather. Below _SCAN_SPAN, or where some node's
    a^s falls below _SCAN_FLOOR or spreads past _SCAN_SPREAD, the self term
    runs step by step, and a block shorter than s computes the same numbers,
    so such a union runs in blocks of its shortest s, or of the fewer steps
    that one gather holds. Otherwise every member scans and
    has the same s: within a block the self term is the recurrence
    x_{k+1} = a x_k + T d_k, with a = I - T k_i d_in(i), solved in closed form,

        x_{t+j} = a^(j-s) (a^s x_t + sum_{i<j} T a^(s-1-i) d_i),

    by four calls whatever s is: a^s x_t as row 0 of the block's d times the
    tabulated T a^(s-1-i), one cumulative sum along the block and a product
    with the tabulated a^(j-s). Only powers a^k with k >= 0 scale the
    summands, so no partial sum outgrows the states it makes. The tables are
    built once per call. The scan's rounding depends on where blocks start,
    so its blocks start at multiples of s from step 0 whatever the record or
    block size; only the horizon cuts one short.

    States are checked for non-finite values once _CHECK_EVERY unchecked ones
    have piled up, before each compaction, before the window's first block
    and at the end. A scanned block leaves its derivative rows pending; each
    check first forms d - k_i d_in(i) x over every pending row and checks
    them, since they overflow a step before the state does. A failure is
    reported at the first step a per-step run finds it.
    """
    offsets = np.cumsum([0] + [len(mb.indeg) for mb in members])
    n = int(offsets[-1])
    dim = members[0].g_vals.shape[1]
    mmax = max(mb.mmax for mb in members)
    span = min(mb.span for mb in members)
    scan = members[0].scans
    first = min(mb.first for mb in members)
    g_vals = np.concatenate([mb.g_vals for mb in members])
    # The coupling sum_j a_ij (x_j(t - tau_ij) - x_i(t)) equals sum_j b_ij
    # x_j(t - tau_ij). The members' entry lists, shifted to the union's node
    # numbers, are grouped by (node i, coordinate l) with sources ascending,
    # so that np.add.reduceat sums each (i, l) run over the member's own
    # entries. Entry e of step k of a gather reads x.reshape(-1) at idx[e] + k
    # rows past the gather's base.
    dst = np.concatenate([mb.dst + lo for mb, lo in zip(members, offsets)])
    src = np.concatenate([mb.src + lo for mb, lo in zip(members, offsets)])
    lag = np.concatenate([mb.lag for mb in members])
    coord = np.arange(dim)
    entry_bin = (dst[:, None] * dim + coord).ravel()
    order = np.argsort(entry_bin, kind="stable")
    starts = np.searchsorted(entry_bin[order], np.arange(n * dim))
    weight = np.repeat(np.concatenate([mb.weight for mb in members]), dim)[order]
    lagged_src = src + (mmax - lag) * n
    idx = (lagged_src[:, None] * dim + coord).ravel()[order]
    per_step, row = idx.size, n * dim
    # Runs p0..pk of at most _BINCOUNT_RUN entries sum by one np.bincount:
    # listed as p1..pk, p0 (rank-major, so that no neighbours share a bin),
    # it adds reduceat's p0 + (((p1 + p2) + ...) + pk) but from +0.0, which
    # moves only an all -0.0 sum, seen only through k c + g with g = -0.0.
    length = np.diff(np.r_[starts, per_step])
    short = length.max() <= _BINCOUNT_RUN and not np.signbit(g_vals[g_vals == 0]).any()
    key, key_step = starts, per_step
    if short:
        run = np.repeat(np.arange(row), length)
        order = np.lexsort((run, (np.arange(per_step) - starts[run] - 1) % length[run]))
        idx, weight, key, key_step = idx[order], weight[order], run[order], row
    # the entry list tiled once for the longest gather
    smax = max(min(span, _BLOCK_ENTRIES // per_step), 1)
    block = span if scan else smax
    shift = np.arange(smax)[:, None]
    idx = (idx + shift * row).ravel()
    weight = np.tile(weight, smax)
    key = key + shift * key_step  # one row per step
    if record == "full":
        rows = mmax + horizon + 1
    else:
        rows = mmax + 1 + min(horizon, -(-max(_CHUNK, mmax + 1) // block) * block)
    # one spare row takes the state after the horizon, which is never read
    x = np.empty((rows + 1, n, dim))
    past = np.arange(-mmax, 1) * t_step
    for mb, lo, hi in zip(members, offsets, offsets[1:]):
        x[: mmax + 1, lo:hi] = mb.cfg.init.evaluate(past, hi - lo, dim)
    start = first - first % block  # step of the block that holds `first`
    base = start  # step of deriv's first row
    if record == "node_mean":
        # the derivatives of the steps since the last compaction: at most
        # a chunk, plus the last step's
        deriv = np.empty((rows - mmax, n, dim))
        means = [np.empty((horizon + 1, dim)) for _ in members]
    else:
        deriv = np.empty((horizon + 1 - start, n, dim))
    states = np.empty_like(deriv) if record == "window" else x[mmax:rows]
    # the most derivative rows a check finds pending; `skipped` holds them before `start`
    pending = -(-_CHECK_EVERY // block) * block
    skipped = np.empty((pending, n, dim)) if start else None

    def reduce_means(stop: int) -> None:
        for mean, lo, hi in zip(means, offsets, offsets[1:]):
            for col in range(dim):
                mean[base:stop, col] = deriv[: stop - base, lo:hi, col].mean(axis=1)

    def gathers(s: int) -> list[tuple]:
        """(entries, weights, sum keys, first step, steps) of each gather of
        a block of s steps: one, unless a scanned block exceeds smax steps."""
        cuts = [(p, min(smax, s - p)) for p in range(0, s, smax)]
        return [(idx[: k * per_step], weight[: k * per_step], key[:k].ravel(), p, k)
                for p, k in cuts]

    def derivatives(lo: int, hi: int) -> np.ndarray:
        """The derivative rows of steps lo..hi-1, which never span `start`."""
        return skipped[lo - done : hi - done] if lo < start else deriv[lo - base : hi - base]

    def settle() -> None:
        """Form and check a scan's pending derivative rows, of steps
        done..step-1, then check the states up to row cur. A non-finite row
        of step t fails at its state, or else at the state of step t + 1."""
        nonlocal checked, done
        last = min(step, horizon)  # the step of row cur
        if scan and done < step:
            d, product = derivatives(done, step), settled[: step - done]
            apply(self_gain, x[cur - last + done : cur - last + step], out=product)
            d -= product
            bad = np.flatnonzero(~np.isfinite(d).reshape(len(d), -1).all(axis=1))
            if bad.size:
                t = done + int(bad[0])
                _check_finite(x[checked + 1 : cur - last + t + 1], t, members, offsets)
                if t < horizon:
                    _check_finite(d[bad[0] : bad[0] + 1], t + 1, members, offsets)
        done = step
        _check_finite(x[checked + 1 : cur + 1], last, members, offsets)
        checked = cur

    whole = gathers(block)  # the gathers of a whole block
    xf = x.reshape(-1)
    kq = np.concatenate([mb.kq for mb in members])
    self_gain = np.concatenate(
        [mb.kq * mb.indeg.reshape((-1,) + (1,) * (kq.ndim - 1)) for mb in members]
    )
    noise_cols = kq.shape[1]
    k_over_c = None
    if kq.ndim == 2:
        # spread over the L columns once: a product that broadcasts (n, 1)
        # over (n, L) costs about 2.5x one that does not
        k_over_c = np.ascontiguousarray(np.broadcast_to(kq, (n, dim)))
        self_gain = np.ascontiguousarray(np.broadcast_to(self_gain, (n, dim)))
    if scan:
        # power[j - 1] = a^j for j = 1..s, per node: elementwise for a scalar
        # gain and matrix powers for a vector one; lead[i] = T a^(s-1-i) and
        # back[j] = a^(j+1-s) for i, j = 0..s-1, whose inverse powers come
        # from 1 / a^j, or from np.linalg.inv, which is that on a 1x1 matrix
        if k_over_c is not None:
            power = np.multiply.accumulate(
                np.broadcast_to(1.0 - t_step * self_gain, (span, n, dim)), axis=0
            )
            one, inverse = 1.0, np.reciprocal
            apply = np.multiply
        else:
            power = np.empty((span, n, dim, dim))
            power[0] = np.eye(dim) - t_step * self_gain
            for j in range(1, span):
                np.einsum("ilm,imk->ilk", power[j - 1], power[0], out=power[j])
            one, inverse = np.eye(dim), np.linalg.inv

            def apply(mat, vec, out):
                return np.einsum("...lm,...m->...l", mat, vec, out=out)

        lead, back = np.empty_like(power), np.empty_like(power)
        lead[-1], lead[:-1] = t_step * one, t_step * power[-2::-1]
        back[-1], back[:-1] = one, inverse(power[-2::-1])
        z, zbuf = np.empty((span + 1, n, dim)), np.empty((span + 1, n, dim))
        settled = np.empty((pending, n, dim))
    else:
        tmp = np.empty((n, dim))
    # Each noisy member's stream is drawn _NOISE_STEPS steps ahead, spread
    # over its columns. Consecutive draws split one stream, so block k reads
    # the values its own (s, n_b, cols) draw would give.
    noisy = [
        (lo, hi, np.random.default_rng(mb.cfg.rng_seed), mb.cfg.noise_std)
        for mb, lo, hi in zip(members, offsets, offsets[1:])
        if mb.cfg.noise_std > 0
    ]
    spans: list[list[int]] = []  # node ranges of consecutive noisy members
    for lo, hi, _, _ in noisy:
        if spans and spans[-1][1] == lo:
            spans[-1][1] = hi
        else:
            spans.append([lo, hi])
    noise, used = np.empty((0, n, dim)), 0
    cur = checked = mmax
    step = done = 0  # derivative rows from step `done` on are pending
    with np.errstate(over="ignore", invalid="ignore"):
        while step <= horizon:
            if step < horizon and cur + 1 == rows:  # only in a bounded record
                settle()
                x[: mmax + 1] = x[cur - mmax : cur + 1]
                cur = checked = mmax
                if record == "node_mean":
                    reduce_means(step)
                    base = step
            s = block if step + block <= horizon else horizon + 1 - step
            new = s if step + s <= horizon else s - 1  # states this block writes
            d = derivatives(step, step + s)
            for gi, gw, gk, p, k in whole if s == block else gathers(s):
                gathered = xf[(cur - mmax + p) * row :][gi]
                np.multiply(gathered, gw, out=gathered)
                c = (np.bincount(gk, gathered, k * row) if short
                     else np.add.reduceat(gathered, gk)).reshape(k, n, dim)
                dk = d if k == s else d[p : p + k]
                if k_over_c is not None:
                    np.multiply(k_over_c, c, out=dk)
                else:
                    np.einsum("ilm,sim->sil", kq, c, out=dk)
            d += g_vals
            if noisy:
                if used + s > len(noise):
                    ahead = max(_NOISE_STEPS, s)
                    fresh = np.empty((ahead, n, dim))
                    keep = len(noise) - used
                    fresh[:keep] = noise[used:]
                    for lo, hi, rng, std in noisy:
                        fresh[keep:, lo:hi] = rng.normal(
                            0.0, std, size=(ahead - keep, hi - lo, noise_cols)
                        )
                    noise, used = fresh, 0
                for lo, hi in spans:
                    d[:, lo:hi] += noise[used : used + s, lo:hi]
                used += s
            if span == 1:
                nxt = x[cur + 1]
                np.multiply(t_step, d[0], out=nxt)
                nxt += x[cur]
            elif not scan:
                xs = x[cur : cur + s + 1]
                for rhs, xk, nxt in zip(d, xs, xs[1:]):
                    if k_over_c is not None:
                        np.multiply(self_gain, xk, out=tmp)
                    else:
                        np.einsum("ilm,im->il", self_gain, xk, out=tmp)
                    rhs -= tmp
                    np.multiply(t_step, rhs, out=nxt)
                    nxt += xk
            else:
                # x_{t+j} = a^(j-s) (a^s x_t + sum_{i<j} T a^(s-1-i) d_i),
                # with the tables' last s rows for a block cut short; the
                # derivative rows d - k_i d_in(i) x wait for `settle`
                xs, zs, buf = x[cur : cur + s + 1], z[: s + 1], zbuf[: s + 1]
                apply(power[s - 1], xs[0], out=zs[0])
                apply(lead[span - s :], d, out=zs[1:])
                np.add.accumulate(zs, axis=0, out=buf)  # np.cumsum without its wrapper
                apply(back[span - s :], buf[1:], out=xs[1:])
            if record == "window" and step >= start:
                states[step - start : step + s - start] = x[cur : cur + s]
            cur += new
            step += s
            if cur - checked >= _CHECK_EVERY or step > horizon or step == start:
                settle()
    if record == "node_mean":
        reduce_means(horizon + 1)
        return [
            NodeMean(times=np.arange(horizon + 1) * t_step, mean=mean, t_step=t_step)
            for mean in means
        ]
    return [
        Trajectory(
            times=np.arange(mb.first, horizon + 1) * t_step,
            states=states[mb.first - start :, lo:hi],
            derivatives=deriv[mb.first - start :, lo:hi],
            t_step=t_step,
            first_step=mb.first,
        )
        for mb, lo, hi in zip(members, offsets, offsets[1:])
    ]


def simulate_batch(runs) -> list[Trajectory] | list[NodeMean]:
    """Independent runs, each result equal bit for bit to its `simulate` call.

    Each run is a `SimRun` or a tuple (g, delays, cfg, g_values[, q_mats[,
    record]]). Members must share cfg.t_step, cfg.horizon and record; each
    keeps its own c, K, init, noise_std and rng_seed. Members that share the
    column count L, the gain kind and the step arithmetic (s = 1, s > 1
    stepped step by step, or one exact s of a member that scans, whose
    blocks round by where they start; see `_simulate_core`) run as one
    disjoint union, a step group. Every member passes the step-size guard
    before any step; in a batch of more than one, an error names the member
    by its index in `runs`.

    Step groups run side by side in lanes by the rule of `lanes.run`, each
    with its estimated work (`run_work` summed over its members). The results,
    the errors and their order are those of the in-process run: on failure the
    error of the first failing group in serial order is raised, after every
    group has run and every child has been reaped. A child's memory is not in
    this process's RSS, nor seen by tracemalloc; ``taskset`` restricts the
    lanes to the CPUs it allows.
    """
    runs = [SimRun(*run) for run in runs]
    if not runs:
        return []
    for name, value in (
        ("t_step", lambda r: r.cfg.t_step),
        ("horizon", lambda r: r.cfg.horizon),
        ("record", lambda r: r.record),
    ):
        if len({value(r) for r in runs}) > 1:
            raise ValueError(f"batch members disagree on {name}")
    record = runs[0].record
    if record not in RECORDS:
        raise ValueError(f"record must be one of {RECORDS}, got {record!r}")
    labels = [f"member {b}: " if len(runs) > 1 else "" for b in range(len(runs))]
    members = [_member(run, label) for run, label in zip(runs, labels)]
    keyed: dict[tuple, list[int]] = {}
    for b, mb in enumerate(members):
        arithmetic = mb.span if mb.scans else min(mb.span, 2)
        keyed.setdefault((arithmetic, mb.kq.ndim, mb.g_vals.shape[1]), []).append(b)
    groups = list(keyed.values())
    cfg = runs[0].cfg

    def run(group: list[int]) -> list:
        return _simulate_core([members[b] for b in group], cfg.t_step, cfg.horizon, record)

    work = [
        sum(run_work(cfg.horizon, mb.dst.size, len(mb.indeg), mb.g_vals.shape[1])
            for mb in (members[b] for b in group))
        for group in groups
    ]
    outcomes = lanes.run([partial(run, group) for group in groups], work)
    out: list = [None] * len(runs)
    for group, (results, error) in zip(groups, outcomes):
        if error is not None:
            raise error
        for b, result in zip(group, results):
            out[b] = result if members[b].columns else result.column(0)
    return out


def simulate(
    g: SensorDigraph,
    delays: DelayMatrix,
    cfg: SimConfig,
    g_values,
    q_mats=None,
    record: str = "full",
) -> Trajectory | NodeMean:
    """Forward-Euler run of the coupled system with per-link lags
    m_ij = round(tau_ij / T_s); the one-member `simulate_batch`.

    g_values of shape (n, L) runs L independent forcing columns in one pass;
    states and derivatives then have shape (samples, n, L), and
    ``column(l)`` equals, bit for bit, the run with forcing g_values[:, l].
    Coupling noise is drawn once per step for each node and added to every
    column: each column sees the stream that its own run seeded with
    cfg.rng_seed would see.

    With q_mats of shape (n, L, L), symmetric positive definite, the state is
    a vector: xdot_i = g_i + K Q_i^{-1} sum_j a_ij (x_j(t - tau_ij) - x_i),
    with g_values of shape (n, L) and noise drawn as (n, L) per step.

    record="full" keeps every sample. record="window" keeps only the final
    sync window, the last cfg.sync_window(horizon + 1) samples, and
    record="node_mean" returns a `NodeMean` of the per-step node means of the
    derivatives; both keep a history whose size does not grow with the
    horizon, for callers that read nothing else.
    """
    return simulate_batch([SimRun(g, delays, cfg, g_values, q_mats, record)])[0]


def detect_sync(
    traj: Trajectory, tol: float, window: int, min_cluster_size: int = 2
) -> SyncResult:
    """Partition nodes into groups whose derivatives over the final window are
    pairwise within tol and individually stationary.

    Singleton groups count as clusters only for a one-node system; a cluster
    containing every node sets the global flag.
    """
    _per_node(traj, "detect_sync")
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError(f"sync tolerance must be positive and finite, got {tol}")
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
    _per_node(traj, "detect_sync")
    tol = cfg.sync_tol_rel * max(abs(omega_scale), 1e-12)
    window = cfg.sync_window(traj.first_step + len(traj.times))
    return detect_sync(traj, tol=tol, window=window)


def trajectory_to_npz(traj: Trajectory, path, downsample: int = 1) -> None:
    """Uncompressed npz trace at exactly `path`, holding every downsample-th
    sample as the arrays t (samples,), x and dx (samples, n), or (samples, n,
    L) for vector states or forcing columns; the samples are exact, with no
    decimal rounding."""
    _per_node(traj, "a trace writer")
    if downsample < 1:
        raise ValueError(f"downsample must be at least 1, got {downsample}")
    with open(path, "wb") as fh:
        np.savez(fh, t=traj.times[::downsample], x=traj.states[::downsample],
                 dx=traj.derivatives[::downsample])
