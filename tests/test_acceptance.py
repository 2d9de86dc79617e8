"""Acceptance suite: one test per top-level criterion.

Each test prints a single PASS/FAIL line via the logreport hook in conftest.
"""

import time

import numpy as np
import pytest

from selfsync import topologies
from selfsync.dde_sim import (
    DelayMatrix,
    SimConfig,
    detect_sync_auto,
    simulate,
)
from selfsync.digraph import is_balanced, laplacian, new_digraph, scc_decompose
from selfsync.experiments import run_estimation_montecarlo
from selfsync.netgen import (
    channel_rayleigh,
    delays_from_geometry,
    place_nodes,
    speed_for_max_delay,
)
from selfsync.protocols import (
    ProtocolError,
    gamma_estimation_protocol,
    predict_consensus,
    predict_intercepts,
    two_step_unbias,
)
from selfsync.spectral import (
    characteristic_function,
    characteristic_scale,
    empirical_rate,
    gamma_left_eigenvector,
    gamma_per_cluster,
    rate_kappa_bound,
    rate_no_delay,
)

T_STEP = 1e-3


def run_until_sync(g, delays, cfg, gv, scale, horizons=(4000, 20000, 80000)):
    """Simulate with an escalating horizon until global sync is detected."""
    from dataclasses import replace

    for horizon in horizons:
        traj = simulate(g, delays, replace(cfg, horizon=horizon), gv)
        sync = detect_sync_auto(traj, cfg, omega_scale=scale)
        if sync.global_sync:
            return traj, sync
    return traj, sync


def global_value(sync, n):
    return float(next(c.value for c in sync.clusters if len(c.nodes) == n))


# ---------------------------------------------------------------- 1


def test_three_topology_replication_14_nodes():
    rng = np.random.default_rng(42)
    gv = rng.normal(1.0, 0.3, 14)
    delays = DelayMatrix.uniform(14, 50 * T_STEP)
    cfg = SimConfig(t_step=T_STEP, k_gain=30.0, horizon=8000)

    for g in (topologies.sc_14(), topologies.qsc_three_scc_14()):
        start = time.monotonic()
        pred = predict_consensus(g, delays, cfg, gv, quantize_delays=True)
        traj = simulate(g, delays, cfg, gv)
        sync = detect_sync_auto(traj, cfg, omega_scale=pred.omega_star)
        assert time.monotonic() - start < 10.0
        assert sync.global_sync and len(sync.clusters) == 1
        measured = global_value(sync, 14)
        assert abs(measured - pred.omega_star) <= 1e-3 * abs(pred.omega_star)

    g = topologies.wc_two_root_14()
    start = time.monotonic()
    pred = predict_consensus(g, delays, cfg, gv, quantize_delays=True)
    traj = simulate(g, delays, cfg, gv)
    scale = max(abs(cl.omega) for cl in pred.clusters)
    sync = detect_sync_auto(traj, cfg, omega_scale=scale)
    assert time.monotonic() - start < 10.0
    assert not sync.global_sync
    assert len(sync.clusters) == 2
    by_nodes = {c.nodes: float(c.value) for c in sync.clusters}
    for nodes, expected in ((cl.nodes, cl.omega) for cl in pred.clusters):
        assert nodes in by_nodes
        assert abs(by_nodes[nodes] - expected) <= 1e-3 * abs(expected)


# ---------------------------------------------------------------- 2


def test_sync_iff_single_root_sufficiency_and_necessity():
    rng = np.random.default_rng(1000)
    cfg = SimConfig(t_step=T_STEP, k_gain=20.0, sync_tol_rel=2e-4)
    for _ in range(100):
        n = int(rng.integers(3, 13))
        g = topologies.random_qsc(n, rng)
        gv = rng.normal(1.0, 0.3, n)
        for tau in (0.0, 10 * T_STEP, 50 * T_STEP, 200 * T_STEP):
            delays = DelayMatrix.uniform(n, tau)
            pred = predict_consensus(g, delays, cfg, gv, quantize_delays=True)
            _, sync = run_until_sync(g, delays, cfg, gv, pred.omega_star)
            assert sync.global_sync, (n, tau)
            measured = global_value(sync, n)
            assert abs(measured - pred.omega_star) <= 1e-3 * abs(pred.omega_star)

    cfg = SimConfig(t_step=T_STEP, k_gain=20.0, horizon=5000, sync_tol_rel=1e-4)
    for _ in range(50):
        n = int(rng.integers(6, 13))
        g = topologies.random_wc_multiroot(n, rng)
        scc = scc_decompose(g)
        assert len(scc.root_components) >= 2
        delays = DelayMatrix.uniform(n, 30 * T_STEP)
        # generic forcings: resample until the per-root targets are separated
        while True:
            gv = rng.normal(1.0, 0.5, n)
            pred = predict_consensus(g, delays, cfg, gv, quantize_delays=True)
            values = [cl.omega for cl in pred.clusters]
            scale = max(abs(v) for v in values)
            if max(values) - min(values) > 10 * cfg.sync_tol_rel * scale:
                break
        traj = simulate(g, delays, cfg, gv)
        sync = detect_sync_auto(traj, cfg, omega_scale=scale)
        assert not sync.global_sync, n


# ---------------------------------------------------------------- 3


def random_tree(rng, n):
    w = np.zeros((n, n))
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        w[v, parent] = rng.uniform(0.5, 2.0)
    return new_digraph(w)


def test_special_cases_tree_and_balanced():
    rng = np.random.default_rng(7)
    # single-root trees: the root's forcing wins, regardless of delays/weights
    for _ in range(10):
        n = int(rng.integers(3, 11))
        g = random_tree(rng, n)
        gv = rng.normal(1.0, 0.5, n)
        cfg = SimConfig(
            t_step=T_STEP,
            k_gain=10.0,
            c_weights=rng.uniform(0.5, 2.0, n),
            sync_tol_rel=1e-8,
        )
        delays = DelayMatrix(tau=rng.uniform(0.0, 0.2, (n, n)))
        pred = predict_consensus(g, delays, cfg, gv)
        assert pred.omega_star == pytest.approx(gv[0], rel=1e-14)
        _, sync = run_until_sync(g, delays, cfg, gv, gv[0])
        assert sync.global_sync
        assert abs(global_value(sync, n) - gv[0]) <= 1e-6 * abs(gv[0])

    # balanced digraphs: gamma is uniform and the prediction collapses to the
    # c-weighted mean over the delay-augmented denominator
    for n, extra in ((6, False), (8, True)):
        w = np.zeros((n, n))
        for v in range(n):
            w[(v + 1) % n, v] = 0.9
        if extra:
            for v in range(n):
                w[(v + 2) % n, v] = 0.4
        g = new_digraph(w)
        assert is_balanced(g)
        assert scc_decompose(g).connectivity_class.value == "SC"
        gamma = gamma_left_eigenvector(laplacian(g), scc_decompose(g))
        np.testing.assert_allclose(gamma, np.full(n, 1.0 / n), atol=1e-12)
        c = rng.uniform(0.5, 2.0, n)
        gv = rng.normal(1.0, 0.5, n)
        tau = 40 * T_STEP
        cfg = SimConfig(t_step=T_STEP, k_gain=10.0, c_weights=c)
        pred = predict_consensus(g, DelayMatrix.uniform(n, tau), cfg, gv)
        expected = np.sum(c * gv) / (np.sum(c) + cfg.k_gain * g.weights.sum() * tau)
        assert pred.omega_star == pytest.approx(float(expected), rel=1e-12)


# ---------------------------------------------------------------- 4


def rayleigh_network(seed, n=40, d_side=5.0, tau_max=100 * T_STEP):
    geom = place_nodes(n, d_side, seed)
    geom = speed_for_max_delay(geom, tau_max)
    g = channel_rayleigh(geom, seed + 1)
    return g, delays_from_geometry(geom)


def test_two_step_ratio_unbiased_and_invariant():
    rng = np.random.default_rng(77)
    n = 40
    g, delays = rayleigh_network(77, n=n)
    c = rng.uniform(0.5, 2.0, n)
    gv = rng.normal(1.0, 0.3, n)
    cfg = SimConfig(
        t_step=T_STEP, k_gain=30.0, c_weights=c, horizon=4000, sync_tol_rel=1e-5
    )
    gamma = gamma_left_eigenvector(laplacian(g), scc_decompose(g))
    target = float(np.sum(gamma * c * gv) / np.sum(gamma * c))

    pred = two_step_unbias(g, delays, cfg, gv, mode="predict")
    assert abs(pred.ratio - target) <= 1e-6

    sim = two_step_unbias(g, delays, cfg, gv, mode="simulate")
    assert abs(sim.ratio - target) <= 1e-3 * abs(target)

    # invariance under uniform delay scaling and uniform weight scaling
    scaled_tau = DelayMatrix(tau=3.0 * delays.tau)
    assert two_step_unbias(g, scaled_tau, cfg, gv, mode="predict").ratio == pytest.approx(
        pred.ratio, rel=1e-12
    )
    scaled_w = new_digraph(2.5 * g.weights)
    assert two_step_unbias(scaled_w, delays, cfg, gv, mode="predict").ratio == pytest.approx(
        pred.ratio, rel=1e-12
    )


# ---------------------------------------------------------------- 5


def test_gamma_protocol_sweep_sc_digraphs():
    rng = np.random.default_rng(55)
    for _ in range(50):
        n = int(rng.integers(4, 9))
        g = topologies.random_sc(n, rng)
        delays = DelayMatrix.uniform(n, 0.02)
        c = rng.uniform(0.5, 2.0, n)
        gv = rng.normal(1.0, 0.4, n)
        rep = None
        for horizon in (8000, 30000, 120000):
            cfg = SimConfig(
                t_step=2e-3,
                k_gain=20.0,
                c_weights=c,
                horizon=horizon,
                sync_tol_rel=1e-7,
            )
            try:
                rep = gamma_estimation_protocol(g, delays, cfg, gv, mode="simulate")
                break
            except ProtocolError:
                continue
        assert rep is not None
        gamma = gamma_left_eigenvector(laplacian(g), scc_decompose(g))
        assert np.abs(rep.gamma_tilde - gamma).max() <= 1e-6
        target = float(np.sum(c * gv) / np.sum(c))
        assert abs(rep.ratio - target) <= 1e-6


# ---------------------------------------------------------------- 6


def test_estimation_montecarlo_bias_and_variance():
    start = time.monotonic()
    base = {
        "seed": 9,
        "n": 40,
        "d_side": 5.0,
        "t_step": T_STEP,
        "k_gain": 30.0,
        "tau_max": 100 * T_STEP,
        "xi": 1.0,
        "sigma2": 0.25,
        "horizon": 2000,
    }
    trials = 100
    _, clean = run_estimation_montecarlo(base, trials=trials)
    # 20 dB signal-to-noise ratio on the coupling noise
    _, noisy = run_estimation_montecarlo({**base, "noise_std": 0.1}, trials=trials)

    xi = base["xi"]
    bias = abs(clean["final_twostep_mean"] - clean["centralized_mean"])
    assert bias < 0.02 * abs(xi)

    delayed_bias = abs(clean["final_delayed_mean"] - clean["centralized_mean"])
    standard_error = clean["final_delayed_std"] / np.sqrt(trials)
    assert delayed_bias > 5.0 * standard_error

    assert noisy["final_twostep_std"] >= clean["final_twostep_std"]
    assert time.monotonic() - start < 300.0


# ---------------------------------------------------------------- 7


def test_spectral_oracles_over_random_digraphs():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        w = rng.uniform(0.5, 1.5, size=(n, n))
        w[rng.random((n, n)) >= 0.35] = 0.0
        np.fill_diagonal(w, 0.0)
        g = new_digraph(w)
        lap = laplacian(g)
        scc = scc_decompose(g)

        eig = np.linalg.eigvals(lap)
        scale = max(np.abs(eig).max(), 1.0)
        numeric = int(np.sum(np.abs(eig) <= 1e-8 * scale))
        assert len(scc.root_components) == numeric

        for k, gam in gamma_per_cluster(lap, scc).items():
            support = np.flatnonzero(gam)
            assert frozenset(support.tolist()) == scc.components[k]
            assert np.all(gam[support] > 0)

        delays = DelayMatrix(tau=rng.uniform(0.0, 0.3, (n, n)))
        k_gains = rng.uniform(0.5, 2.0, n)
        p0 = characteristic_function(0.0, g, delays, k_gains)
        assert abs(p0) <= 1e-9 * characteristic_scale(g, k_gains)

        # row-sum gain of the delayed coupling: 1 at omega = 0, < 1 elsewhere
        delta = k_gains * g.weights.sum(axis=1)
        active = delta > 0
        if active.any():
            rho0 = delta[active] / np.abs(delta[active])
            assert np.allclose(rho0, 1.0)
            for omega in rng.uniform(1e-3, 30.0, size=20):
                rho = delta[active] / np.abs(1j * omega + delta[active])
                assert rho.max() < 1.0


# ---------------------------------------------------------------- 8


def test_rate_estimates_and_delay_robustness():
    rng = np.random.default_rng(7)
    # zero-delay runs reach the spectral rate within 10%
    for _ in range(5):
        n = int(rng.integers(4, 9))
        g = random_tree(rng, n)
        cfg = SimConfig(t_step=T_STEP, horizon=40_000)
        gv = rng.normal(1.0, 0.5, n)
        traj = simulate(g, DelayMatrix.zero(n), cfg, gv)
        sync = detect_sync_auto(traj, cfg, omega_scale=gv[0])
        assert sync.global_sync
        slope, _ = empirical_rate(traj, gv[0])
        spectral = rate_no_delay(laplacian(g), scc_decompose(g))
        assert slope == pytest.approx(spectral, rel=0.1)

    # SC digraphs: spectral rate below the symmetrized bound, both negative
    for _ in range(10):
        g = topologies.random_sc(int(rng.integers(3, 9)), rng)
        lap = laplacian(g)
        scc = scc_decompose(g)
        gamma = gamma_left_eigenvector(lap, scc)
        kappa = rate_kappa_bound(lap, scc, gamma)
        assert rate_no_delay(lap, scc) <= kappa < 0.0

    # undirected 4-cycle with a common delay well beyond pi / (2 lambda_max):
    # the derivative consensus still synchronizes
    w = np.zeros((4, 4))
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        w[a, b] = w[b, a] = 1.0
    g = new_digraph(w)
    lam_max = np.linalg.eigvalsh(laplacian(g))[-1]
    tau = 0.5
    assert tau > np.pi / (2.0 * lam_max)
    cfg = SimConfig(t_step=T_STEP, k_gain=1.0, horizon=60_000)
    gv = np.array([1.0, 0.2, 1.5, 0.7])
    delays = DelayMatrix.uniform(4, tau)
    pred = predict_consensus(g, delays, cfg, gv, quantize_delays=True)
    traj = simulate(g, delays, cfg, gv)
    sync = detect_sync_auto(traj, cfg, omega_scale=pred.omega_star)
    assert sync.global_sync
    assert global_value(sync, 4) == pytest.approx(pred.omega_star, rel=1e-3)


# ---------------------------------------------------------------- 9


def test_intercept_gaps_on_delayed_cycle():
    w = np.zeros((3, 3))
    w[1, 0] = w[2, 1] = w[0, 2] = 1.0
    g = new_digraph(w)
    delays = DelayMatrix.uniform(3, 50 * T_STEP)
    cfg = SimConfig(t_step=T_STEP, k_gain=30.0, horizon=12_000)
    gv = np.array([1.4, 0.6, 1.1])
    x0 = predict_intercepts(g, delays, cfg, gv, quantize_delays=True)
    pred = predict_consensus(g, delays, cfg, gv, quantize_delays=True)
    traj = simulate(g, delays, cfg, gv)
    final = traj.states[-1]
    for i in range(3):
        for j in range(i + 1, 3):
            predicted_gap = x0[i] - x0[j]
            simulated_gap = final[i] - final[j]
            assert abs(predicted_gap - simulated_gap) <= 1e-4
    assert pred.omega_star > 0
