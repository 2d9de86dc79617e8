"""The paper's experiments: the closed-form analysis of one scenario, random
sensor networks and the Monte-Carlo comparison of the delay-free, delayed and
two-step estimates."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import lanes, netgen, spectral
from .dde_sim import SimConfig, simulate_batch
from .digraph import Connectivity, SensorDigraph, laplacian
from .netgen import DelayMatrix, NodeGeometry
from .protocols import ConsensusPrediction, predict_consensus
from .stats import consensus_function

DOWNSAMPLE = 10  # iterations per aggregated Monte-Carlo sample
# Monte-Carlo trials per simulate_batch call. A trial records node means only,
# so a batch holds its members' set-up and bounded histories; at n = 40, 100
# trials took as long in batches of 6 as of 16, with 6 MB less peak RSS
BATCH_TRIALS = 6


def config_int(cfg: dict, key: str, default: int | None = None, minimum: int = 1) -> int:
    """cfg[key], or the default, as an int; ValueError naming the key unless
    it is a whole number of at least `minimum`."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        float(value).is_integer() and value >= minimum
    ):
        raise ValueError(
            f"{key} must be a whole number of at least {minimum}, got {value!r}"
        )
    return int(value)


def config_seed(cfg: dict) -> int:
    """cfg["seed"], 0 by default; ValueError unless a whole number of at least 0."""
    return config_int(cfg, "seed", 0, minimum=0)


class ScenarioAnalysis(NamedTuple):
    """The closed-form view of a scenario: the predicted consensus and the
    spectral rates (`spectral_rates`); its SCCs are the digraph's `scc`."""

    prediction: ConsensusPrediction
    rates: dict[str, float]


def spectral_rates(g: SensorDigraph, cfg: SimConfig) -> dict[str, float]:
    """On a digraph with one root SCC, the zero-delay rate of K D_c^-1 L
    (`no_delay_spectrum`) and, on an SC digraph, its kappa bound
    (`kappa_bound`); empty otherwise."""
    rates: dict[str, float] = {}
    scc = g.scc
    if len(scc.root_components) == 1:
        # spectrum of the gain-scaled system K D_c^{-1} L
        kdl = (cfg.k_gain / cfg.c_array(g.n))[:, None] * laplacian(g)
        no_delay = spectral.rate_no_delay(kdl, scc)
        rates["no_delay_spectrum"] = no_delay
        if scc.connectivity_class is Connectivity.SC:
            # the left null vector of K D_c^{-1} L is gamma * c, gamma that of L
            gamma_c = g.root_gammas[scc.root_components[0]] * cfg.c_array(g.n)
            rates["kappa_bound"] = spectral.rate_kappa_bound(kdl, scc, gamma_c, no_delay)
    return rates


def analyse_scenario(
    g: SensorDigraph, delays: DelayMatrix, cfg: SimConfig, g_values
) -> ScenarioAnalysis:
    """The consensus predicted with the link delays rounded to the sampling
    grid, as the integrator honors them, and the spectral rates, on one BLAS thread."""
    with lanes.one_blas_thread():
        prediction = predict_consensus(g, delays, cfg, g_values, quantize_delays=True)
        return ScenarioAnalysis(prediction, spectral_rates(g, cfg))


def random_network(
    cfg: dict, seed: int
) -> tuple[NodeGeometry, SensorDigraph, DelayMatrix]:
    """Nodes placed uniformly on a square, with uniform or geometry-induced
    delays (tau_max, when given, is the delay of the most distant node pair)
    and Rayleigh or path-loss links, pruned below the threshold."""
    n = config_int(cfg, "n")
    geom = netgen.place_nodes(
        n,
        float(cfg.get("d_side", 1.0)),
        seed,
        powers=cfg.get("powers", 1.0),
        path_loss_exponent=float(cfg.get("eta", 2.0)),
    )
    delay_mode = cfg.get("delay_mode", {"mode": "geometry"})
    if delay_mode.get("mode") == "uniform":
        delays = DelayMatrix.uniform(n, float(delay_mode["tau"]))
    else:
        tau_max = cfg.get("tau_max", delay_mode.get("tau_max"))
        if tau_max is not None and n > 1:
            geom = netgen.speed_for_max_delay(geom, float(tau_max))
        delays = netgen.delays_from_geometry(geom)
    channel_mode = cfg.get("channel_mode", {"mode": "rayleigh"})
    if channel_mode.get("mode") == "pathloss":
        g = netgen.channel_pathloss(geom, channel_mode.get("fading", 1.0))
    else:
        g = netgen.channel_rayleigh(geom, seed + 1)
    g = netgen.threshold_prune(g, float(cfg.get("threshold", 0.0)))
    return geom, g, delays


def estimation_forcing(
    cfg: dict, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(a, y / a) for observations y_i = a_i xi + w_i, with gains a_i uniform
    on [0.5, 1.5] and noise w_i of variance sigma2."""
    xi = float(cfg.get("xi", 1.0))
    sigma2 = float(cfg.get("sigma2", 1.0))
    a = rng.uniform(0.5, 1.5, size=n)
    y = a * xi + rng.normal(0.0, np.sqrt(sigma2), size=n)
    return a, y / a


def _trial_inputs(cfg: dict, trial_seed: int):
    """(digraph, delays, config, forcing, centralized estimate) of one trial."""
    t_step = float(cfg.get("t_step", 1e-3))
    _, g, delays = random_network(
        {"n": 40, "d_side": 5.0, "tau_max": 100 * t_step, **cfg}, trial_seed
    )
    n = g.n
    a, gvals = estimation_forcing(cfg, n, np.random.default_rng(trial_seed))
    c = a**2 / float(cfg.get("sigma2", 1.0))
    sim = SimConfig(
        t_step=t_step,
        k_gain=float(cfg.get("k_gain", 30.0)),
        c_weights=c,
        horizon=config_int(cfg, "horizon", 2000),
        noise_std=float(cfg.get("noise_std", 0.0)),
        rng_seed=trial_seed + 3,
    )
    return g, delays, sim, gvals, consensus_function(lambda v: v, gvals, c)


def _estimation_trials(cfg: dict, trial_seeds: list[int]) -> list[tuple]:
    """The trials' per-iteration traces from one batch call: every zero-delay
    pass, then every delayed (g, 1) pass, each recording only its node means.
    The two kinds fall into separate step groups, which run side by side in
    lanes when `simulate_batch`'s conditions hold."""
    inputs = [_trial_inputs(cfg, seed) for seed in trial_seeds]
    records = simulate_batch(
        [(g, DelayMatrix.zero(g.n), sim, gvals, None, "node_mean")
         for g, _, sim, gvals, _ in inputs]
        + [(g, delays, sim, np.column_stack([gvals, np.ones(g.n)]), None, "node_mean")
           for g, delays, sim, gvals, _ in inputs]
    )
    d_nodelay = [rec.mean for rec in records[: len(inputs)]]
    d_delayed = [(rec.mean[:, 0], rec.mean[:, 1]) for rec in records[len(inputs) :]]
    out = []
    for (*_, centralized), nodelay, (delayed, unit) in zip(inputs, d_nodelay, d_delayed):
        with np.errstate(divide="ignore", invalid="ignore"):
            twostep = np.where(np.abs(unit) > 1e-12, delayed / unit, 0.0)
        out.append((centralized, nodelay, delayed, twostep))
    return out


def run_estimation_trial(cfg: dict, trial_seed: int):
    """One Fig-2-style estimation realization; returns per-iteration traces."""
    return _estimation_trials(cfg, [trial_seed])[0]


def run_estimation_montecarlo(cfg: dict, trials: int):
    """Aggregate mean/std across trials of the per-iteration estimates; the
    trials run in batches of BATCH_TRIALS."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    seed = config_seed(cfg)
    cents, series = [], {"nodelay": [], "delayed": [], "twostep": []}
    for lo in range(0, trials, BATCH_TRIALS):
        seeds = [seed + 1000 * t for t in range(lo, min(lo + BATCH_TRIALS, trials))]
        for cent, *estimates in _estimation_trials(cfg, seeds):
            cents.append(cent)
            for rows, estimate in zip(series.values(), estimates):
                rows.append(estimate[::DOWNSAMPLE])
    t_step = float(cfg.get("t_step", 1e-3))
    steps = np.arange(len(series["nodelay"][0])) * DOWNSAMPLE
    agg = {"step": steps, "t": steps * t_step}
    final = {
        "xi": float(cfg.get("xi", 1.0)),
        "centralized_mean": float(np.mean(cents)),
        "centralized_std": float(np.std(cents)),
    }
    for name, rows in series.items():
        agg[f"{name}_mean"] = np.mean(rows, axis=0)
        agg[f"{name}_std"] = np.std(rows, axis=0)
        final[f"final_{name}_mean"] = float(np.mean([r[-1] for r in rows]))
        final[f"final_{name}_std"] = float(np.std([r[-1] for r in rows]))
    agg["centralized_mean"] = np.full(len(steps), np.mean(cents))
    final["trials"] = trials
    return agg, final
