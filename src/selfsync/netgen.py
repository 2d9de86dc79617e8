"""Scenario generation: node geometry, fading channels, delays, thresholding."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .digraph import SensorDigraph, keep_links, new_digraph
from .substreams import rayleigh_matrix


@dataclass(frozen=True)
class NodeGeometry:
    positions: np.ndarray  # (n, 2), inside [0, d_side]^2
    distances: np.ndarray  # (n, n) Euclidean, symmetric, zero diagonal
    powers: np.ndarray  # (n,) transmit powers P_j > 0
    path_loss_exponent: float = 2.0
    speed: float = 1.0  # propagation speed (length/time)
    offsets: np.ndarray | None = None  # (n, n) time offsets T_ij >= 0

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class DelayMatrix:
    """tau[i, j] delays the link from node j to node i. Every function reads
    tau through `check_delays`, on the links only: no entry off them is read."""

    tau: np.ndarray  # (n, n) nonnegative link delays

    @classmethod
    def uniform(cls, n: int, tau: float) -> "DelayMatrix":
        t = np.full((n, n), float(tau))
        np.fill_diagonal(t, 0.0)
        return cls(tau=t)

    @classmethod
    def zero(cls, n: int) -> "DelayMatrix":
        return cls(tau=np.zeros((n, n)))


def check_delays(g: SensorDigraph, delays: DelayMatrix, label: str = "") -> np.ndarray:
    """The delays of g's links, in `g.links` order; raise ValueError unless
    tau is (n, n) and finite and nonnegative on every link."""
    tau = np.asarray(delays.tau)
    if tau.shape != (g.n, g.n):
        raise ValueError(f"{label}delay matrix shape {tau.shape} does not match n = {g.n}")
    dst, src = g.links
    link_tau = tau[dst, src]
    bad = np.flatnonzero(~((link_tau >= 0.0) & (link_tau < np.inf)))
    if bad.size:
        i, j, value = dst[bad[0]], src[bad[0]], link_tau[bad[0]]
        raise ValueError(f"{label}link delay tau[{i},{j}] = {value} is not finite and nonnegative")
    return link_tau


def place_nodes(
    n: int,
    d_side: float,
    rng_seed: int,
    powers=1.0,
    path_loss_exponent: float = 2.0,
    speed: float = 1.0,
) -> NodeGeometry:
    """n i.i.d. uniform positions on [0, d_side]^2, deterministic under seed."""
    if n < 1:
        raise ValueError("need at least one node")
    if d_side <= 0:
        raise ValueError("square side must be positive")
    rng = np.random.default_rng(rng_seed)
    pos = rng.uniform(0.0, d_side, size=(n, 2))
    dx = pos[:, None, 0] - pos[None, :, 0]
    dy = pos[:, None, 1] - pos[None, :, 1]
    # bit for bit the sum of squares over a length-2 axis, without its temporaries
    dist = np.sqrt(dx * dx + dy * dy)
    p = np.broadcast_to(np.asarray(powers, dtype=float), (n,)).copy()
    if np.any(p <= 0):
        raise ValueError("transmit powers must be positive")
    return NodeGeometry(
        positions=pos,
        distances=dist,
        powers=p,
        path_loss_exponent=path_loss_exponent,
        speed=speed,
    )


def speed_for_max_delay(geom: NodeGeometry, tau_max: float) -> NodeGeometry:
    """Rescale the propagation speed so the most distant node pair is tau_max apart."""
    dmax = geom.distances.max()
    if dmax <= 0 or tau_max <= 0:
        raise ValueError("need distinct nodes and tau_max > 0")
    return replace(geom, speed=dmax / tau_max)


def channel_rayleigh(geom: NodeGeometry, rng_seed: int) -> SensorDigraph:
    """a_ij i.i.d. Rayleigh with second moment P_j / (1 + d_ij^2).

    Rayleigh scale chosen as E[a^2] = 2 s^2 = P_j/(1+d^2); the amplitude
    second moment matches the fading "variance" convention.

    Each link draws from its own substream: a_ij equals
    ``default_rng(SeedSequence([rng_seed, i, j])).rayleigh(s_ij)`` bit for bit
    (checked on numpy 2.4 over n up to 300 and seeds up to 2^64 + 3), so
    pruning or reordering one link leaves the others intact. All links are
    drawn in one array pass by ``substreams.rayleigh_matrix``.
    """
    n, d = geom.n, geom.distances
    # libm pow, as the scalar d_ij ** 2 of the per-link draw took it: the array
    # square differs from it by one ulp in about 0.08% of links
    if np.array_equal(d, d.T):  # as `place_nodes` makes it: one pow per pair, mirrored
        upper = np.triu(np.ones((n, n), dtype=bool))
        d2 = np.empty((n, n))
        d2.T[upper] = d2[upper] = np.fromiter(map(math.pow, d[upper], repeat(2.0)),
                                              dtype=float, count=n * (n + 1) // 2)
    else:
        d2 = np.fromiter(map(math.pow, d.ravel(), repeat(2.0)), dtype=float,
                         count=n * n).reshape(n, n)
    sigma2 = geom.powers[None, :] / (1.0 + d2)
    return new_digraph(rayleigh_matrix(rng_seed, np.sqrt(sigma2 / 2.0)))


def channel_pathloss(geom: NodeGeometry, fading) -> SensorDigraph:
    """Deterministic amplitudes a_ij = sqrt(P_j |h_ij|^2 / d_ij^eta)."""
    n = geom.n
    h = np.broadcast_to(np.asarray(fading, dtype=float), (n, n))
    off = ~np.eye(n, dtype=bool)
    if np.any(geom.distances[off] == 0.0):
        raise ValueError(
            "zero distance between distinct nodes: path-loss formula is singular"
        )
    w = np.zeros((n, n))
    d = np.where(off, geom.distances, 1.0)
    w[off] = np.sqrt(
        geom.powers[None, :].repeat(n, axis=0)[off]
        * h[off] ** 2
        / d[off] ** geom.path_loss_exponent
    )
    return new_digraph(w)


def threshold_prune(g: SensorDigraph, min_amplitude: float) -> SensorDigraph:
    """g without its links of weight below min_amplitude."""
    if min_amplitude < 0:
        raise ValueError("threshold must be nonnegative")
    return keep_links(g, g.link_weights >= min_amplitude)


def delays_from_geometry(geom: NodeGeometry) -> DelayMatrix:
    """tau_ij = T_ij + d_ij / speed."""
    tau = geom.distances / geom.speed
    if geom.offsets is not None:
        off = np.asarray(geom.offsets, dtype=float)
        if np.any(off < 0):
            raise ValueError("time offsets must be nonnegative")
        tau = tau + off
    np.fill_diagonal(tau, 0.0)
    return DelayMatrix(tau=tau)
