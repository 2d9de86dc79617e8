"""Discrete-time integrator and synchronization detection."""

import functools
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfsync import dde_sim
from selfsync import lanes as lanes_module
from selfsync.dde_sim import (
    DelayMatrix,
    InitialCondition,
    NodeMean,
    SimConfig,
    SimulationError,
    Trajectory,
    detect_sync,
    detect_sync_auto,
    simulate,
    simulate_batch,
    trajectory_to_npz,
)
from selfsync.digraph import new_digraph
from selfsync.protocols import (
    gamma_estimation_protocol,
    predict_consensus,
    predict_intercepts,
    two_step_unbias,
)
from selfsync.spectral import characteristic_function
from conftest import assert_no_children, lanes, refuse_fork


def two_node():
    return new_digraph(np.array([[0.0, 1.0], [1.0, 0.0]]))


# the record of a run parametrized by a window-only flag
RECORD = {False: "full", True: "window"}


def ring3(weight=1.0):
    w = np.zeros((3, 3))
    w[1, 0] = w[2, 1] = w[0, 2] = weight
    return new_digraph(w)


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(t_step=0.0)
    with pytest.raises(ValueError):
        SimConfig(k_gain=-1.0)
    with pytest.raises(ValueError):
        SimConfig(c_weights=np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "field, value",
    [
        ("t_step", np.nan),
        ("t_step", np.inf),
        ("k_gain", np.nan),
        ("k_gain", np.inf),
        ("noise_std", np.nan),
        ("noise_std", np.inf),
        ("c_weights", np.nan),
        ("c_weights", np.array([1.0, np.inf])),
        ("c_weights", np.array([np.nan, 1.0])),
    ],
)
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        SimConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("horizon", 0),
        ("horizon", -1),
        ("horizon", 2.5),
        ("horizon", 10.0),
        ("horizon", np.inf),
        ("horizon", np.nan),
        ("horizon", True),
        ("horizon", "10"),
        ("sync_tol_rel", np.nan),
        ("sync_tol_rel", -1e-4),
        ("sync_tol_rel", 0.0),
        ("sync_tol_rel", np.inf),
        ("sync_window_frac", np.nan),
        ("sync_window_frac", 0.0),
        ("sync_window_frac", 1.5),
    ],
)
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=f"{field}.* got {value}"):
        SimConfig(**{field: value})


def test_config_takes_a_numpy_integer_horizon():
    traj = simulate(ring3(), DelayMatrix.zero(3), SimConfig(horizon=np.int64(3)), np.ones(3))
    assert traj.times.shape == (4,)


def test_initial_condition_kinds():
    const = InitialCondition(intercepts=2.0)
    np.testing.assert_allclose(const.evaluate(-0.5, 3, 1), np.full((3, 1), 2.0))
    lin = InitialCondition(slopes=2.0, intercepts=1.0)
    np.testing.assert_allclose(lin.evaluate(-0.5, 2, 1), np.full((2, 1), 0.0))


# ---------------------------------------------------------------- integration


def test_two_node_no_delay_matches_scalar_recursion():
    # exact discrete recursion computed independently:
    # x1' = x1 + T (g1 + K (x2 - x1)), and symmetrically for x2
    g = two_node()
    t_step, k = 1e-2, 1.3
    cfg = SimConfig(t_step=t_step, k_gain=k, horizon=400)
    gv = np.array([0.7, -0.2])
    traj = simulate(g, DelayMatrix.zero(2), cfg, gv)
    x = np.zeros(2)
    for step in range(401):
        rhs = gv + k * np.array([x[1] - x[0], x[0] - x[1]])
        np.testing.assert_allclose(traj.states[step], x, atol=1e-12)
        np.testing.assert_allclose(traj.derivatives[step], rhs, atol=1e-12)
        x = x + t_step * rhs


def test_two_node_no_delay_tracks_continuous_solution():
    # difference e = x1 - x2 decays like exp(-2 K t) in continuous time
    g = two_node()
    cfg = SimConfig(
        t_step=1e-4,
        k_gain=1.0,
        horizon=20_000,
        init=InitialCondition(intercepts=np.array([1.0, 0.0])),
    )
    traj = simulate(g, DelayMatrix.zero(2), cfg, np.zeros(2))
    e = traj.states[:, 0] - traj.states[:, 1]
    expected = np.exp(-2.0 * traj.times)
    assert np.abs(e - expected).max() < 5e-4


def test_delayed_ramp_solution_is_exact_fixed_point():
    # straight-line trajectories with the predicted slope stay straight
    g = ring3()
    tau, t_step, k = 0.05, 1e-3, 30.0
    omega = 3.0 / (3.0 + 3.0 * k * tau)  # unit forcings, three unit links
    cfg = SimConfig(
        t_step=t_step,
        k_gain=k,
        horizon=200,
        init=InitialCondition(slopes=omega, intercepts=0.0),
    )
    traj = simulate(g, DelayMatrix.uniform(3, tau), cfg, np.ones(3))
    np.testing.assert_allclose(traj.derivatives, omega, rtol=1e-12)


def test_delay_quantization_to_step_grid():
    # tau = 1.4 T_s and tau = 0.6 T_s both round to a single-step lag
    g = two_node()
    cfg = SimConfig(t_step=1e-3, k_gain=2.0, horizon=300)
    gv = np.array([1.0, 0.0])
    a = simulate(g, DelayMatrix.uniform(2, 1.4e-3), cfg, gv)
    b = simulate(g, DelayMatrix.uniform(2, 0.6e-3), cfg, gv)
    assert np.array_equal(a.states, b.states)


def test_stability_guard_raises():
    g = two_node()
    cfg = SimConfig(t_step=1.0, k_gain=3.0, horizon=10)
    with pytest.raises(SimulationError, match="step-size"):
        simulate(g, DelayMatrix.zero(2), cfg, np.zeros(2))


def test_noise_reproducible_and_zero_noise_identical():
    g = ring3()
    cfg = SimConfig(t_step=1e-3, k_gain=1.0, horizon=200, rng_seed=5)
    gv = np.array([1.0, 2.0, 3.0])
    clean = simulate(g, DelayMatrix.zero(3), cfg, gv)
    a = simulate(g, DelayMatrix.zero(3), replace(cfg, noise_std=0.1), gv)
    b = simulate(g, DelayMatrix.zero(3), replace(cfg, noise_std=0.1), gv)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, clean.states)
    same = simulate(g, DelayMatrix.zero(3), replace(cfg, noise_std=0.0), gv)
    assert np.array_equal(same.states, clean.states)
    with pytest.raises(ValueError, match="noise std"):
        replace(cfg, noise_std=-1.0)
    with pytest.raises(ValueError, match="noise std"):
        SimConfig(noise_std=-0.1)


def test_scalar_path_equals_unit_dim_vector_path():
    g = ring3()
    cfg = SimConfig(t_step=1e-3, k_gain=2.0, c_weights=np.array([1.0, 2.0, 0.5]), horizon=150)
    gv = np.array([0.3, 1.0, -0.4])
    scalar = simulate(g, DelayMatrix.uniform(3, 0.01), cfg, gv)
    q = cfg.c_array(3).reshape(3, 1, 1)
    vector = simulate(g, DelayMatrix.uniform(3, 0.01), cfg, gv[:, None], q_mats=q)
    assert np.array_equal(scalar.states, vector.states[:, :, 0])
    assert np.array_equal(scalar.derivatives, vector.derivatives[:, :, 0])


def test_vector_sim_validates_q_matrices():
    g = two_node()
    cfg = SimConfig(horizon=10)
    bad_shape = np.ones((2, 2))
    with pytest.raises(ValueError):
        simulate(g, DelayMatrix.zero(2), cfg, np.ones((2, 2)), q_mats=bad_shape)
    not_spd = np.array([[[1.0, 2.0], [0.0, 1.0]]] * 2)
    with pytest.raises(ValueError, match="positive definite"):
        simulate(g, DelayMatrix.zero(2), cfg, np.ones((2, 2)), q_mats=not_spd)
    # the first bad node is named: symmetric but indefinite, then asymmetric
    for bad in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[2.0, 0.5], [0.0, 2.0]])):
        q = np.stack([np.eye(2), bad])
        with pytest.raises(ValueError, match="node 1 is not symmetric positive definite"):
            simulate(g, DelayMatrix.zero(2), cfg, np.ones((2, 2)), q_mats=q)
    # g_values must be (n, L) for the Q matrices' L, whatever its own shape
    for gv in (np.ones((2, 3)), np.ones(2)):
        with pytest.raises(ValueError, match=re.escape(f"g_values shape {gv.shape} does not")):
            simulate(g, DelayMatrix.zero(2), cfg, gv, q_mats=np.stack([np.eye(2)] * 2))



def delay_readers(g, delays):
    """Calls of every library function that reads delays, on g: the
    simulator, the predictor (scalar, quantized columns, vector states), the
    intercepts, the two protocols in predict mode and the characteristic
    function."""
    cfg, gv, cols = SimConfig(horizon=5), np.ones(g.n), np.ones((g.n, 2))
    q = np.broadcast_to(np.eye(2), (g.n, 2, 2))
    return [
        lambda: simulate(g, delays, cfg, gv),
        lambda: predict_consensus(g, delays, cfg, gv),
        lambda: predict_consensus(g, delays, cfg, cols, quantize_delays=True),
        lambda: predict_consensus(g, delays, cfg, cols, q_mats=q),
        lambda: predict_intercepts(g, delays, cfg, gv),
        lambda: two_step_unbias(g, delays, cfg, gv, mode="predict"),
        lambda: gamma_estimation_protocol(g, delays, cfg, gv, mode="predict"),
        lambda: characteristic_function(0.5j, g, delays, np.ones(g.n)),
    ]


@pytest.mark.parametrize(
    "tau, named",
    [(-0.01, "tau[1,0] = -0.01"), (np.nan, "tau[1,0] = nan"), (np.inf, "tau[1,0] = inf")],
)
def test_sim_rejects_bad_link_delays(tau, named):
    delays = DelayMatrix.uniform(3, 0.01)
    delays.tau[1, 0] = tau
    with pytest.raises(ValueError, match=re.escape(f"link delay {named}")):
        simulate(ring3(), delays, SimConfig(horizon=5), 1.0)
    with pytest.raises(ValueError, match="member 1: link delay"):
        simulate_batch([(ring3(), DelayMatrix.zero(3), SimConfig(horizon=5), 1.0),
                        (ring3(), delays, SimConfig(horizon=5), 1.0)])
    # every reader of delays checks them alike
    for call in delay_readers(ring3(), delays):
        with pytest.raises(ValueError, match=re.escape(f"link delay {named} is not finite")):
            call()


def test_sim_rejects_a_delay_matrix_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"delay matrix shape \(2, 2\) does not match n = 3"):
        simulate(ring3(), DelayMatrix.zero(2), SimConfig(horizon=5), 1.0)
    for call in delay_readers(ring3(), DelayMatrix.zero(2)):
        with pytest.raises(ValueError, match=r"delay matrix shape \(2, 2\) does not match n = 3"):
            call()


def test_sim_reads_delays_on_links_only():
    links = DelayMatrix(tau=np.where(ring3().weights > 0, 0.01, 0.0))
    pairs = DelayMatrix(tau=np.where(ring3().weights > 0, 0.01, np.nan))
    cfg = SimConfig(horizon=50)
    a = simulate(ring3(), links, cfg, np.array([0.3, 1.0, -0.4]))
    b = simulate(ring3(), pairs, cfg, np.array([0.3, 1.0, -0.4]))
    assert a.states.tobytes() == b.states.tobytes()


def dense_member_entries(g, delays, t_step):
    """(mmax, span, (dst, src, lag, weight)) built the dense way: a lag matrix
    and b = A - diag(in_degree), masked and gathered back."""
    w = g.weights
    links = w > 0.0
    np.fill_diagonal(links, False)
    m = np.zeros(links.shape, dtype=int)
    m[links] = np.rint(delays.tau[links] / t_step)
    mmax = int(m.max()) if m.size else 0
    span = int(m[links].min()) + 1 if links.any() else 1
    b = w.copy()
    np.fill_diagonal(b, -w.sum(axis=1))
    if span == 1:
        own = np.ones(len(w), dtype=bool)
    else:
        own = ~links.any(axis=1)
        np.fill_diagonal(m, mmax)
    dst, src = np.nonzero(links | np.diag(own))
    return mmax, span, (dst, src, m[dst, src], b[dst, src])


@st.composite
def member_cases(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    w = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < draw(st.floats(0.0, 1.0)))
    w[rng.random(n) < 0.3] = 0.0  # receivers without in-links
    np.fill_diagonal(w, 0.0)
    shortest = draw(st.sampled_from([0, 1, 4]))  # 0 admits lag-0 links, so s = 1
    t_step = 2.0**-7  # exact in binary, so tau / t_step rounds back to the lag
    tau = rng.integers(shortest, shortest + 6, (n, n)) * t_step
    tau[(w == 0.0) & (rng.random((n, n)) < 0.5)] = np.nan  # never read
    return new_digraph(w), DelayMatrix(tau=tau), t_step


@given(member_cases())
@settings(max_examples=150, deadline=None)
def test_member_entries_equal_the_dense_construction_byte_for_byte(case):
    g, delays, t_step = case
    mb = dde_sim._member(dde_sim.SimRun(g, delays, SimConfig(t_step=t_step), np.ones(g.n)), "")
    mmax, span, want = dense_member_entries(g, delays, t_step)
    assert (mb.mmax, mb.span) == (mmax, span)
    for got, ref in zip((mb.dst, mb.src, mb.lag, mb.weight), want):
        # bytes, so that the -0.0 weight of a node without in-links counts too
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------- detection


def synthetic_trajectory(deriv_rows):
    d = np.asarray(deriv_rows, dtype=float)
    times = np.arange(d.shape[0]) * 1e-3
    states = np.cumsum(d, axis=0) * 1e-3
    return Trajectory(times=times, states=states, derivatives=d, t_step=1e-3)


def test_detect_sync_two_groups():
    d = np.tile([1.0, 1.0, 2.0, 2.0, 5.0], (50, 1))
    traj = synthetic_trajectory(d)
    res = detect_sync(traj, tol=1e-6, window=10)
    assert not res.global_sync
    assert {c.nodes for c in res.clusters} == {frozenset({0, 1}), frozenset({2, 3})}
    assert res.unclustered == frozenset({4})
    assert traj.clusters is res


def test_detect_sync_global_flag_and_value():
    d = np.tile([1.5, 1.5, 1.5], (40, 1))
    res = detect_sync(synthetic_trajectory(d), tol=1e-9, window=8)
    assert res.global_sync
    assert float(res.clusters[0].value) == pytest.approx(1.5)


def test_detect_sync_excludes_nonstationary_nodes():
    d = np.tile([1.0, 1.0, 1.0], (60, 1))
    d[:, 2] += np.linspace(0.0, 1.0, 60)  # drifting node
    res = detect_sync(synthetic_trajectory(d), tol=1e-3, window=30)
    assert res.clusters[0].nodes == frozenset({0, 1})
    assert 2 in res.unclustered


def test_detect_sync_window_validation():
    traj = synthetic_trajectory(np.zeros((10, 2)))
    with pytest.raises(ValueError):
        detect_sync(traj, tol=1e-3, window=100)
    with pytest.raises(ValueError):
        detect_sync(traj, tol=1e-3, window=0)
    for tol in (np.nan, 0.0, -1e-3, np.inf):
        with pytest.raises(ValueError, match=f"tolerance .* got {tol}"):
            detect_sync(traj, tol=tol, window=5)


def test_detect_sync_single_node_system():
    res = detect_sync(synthetic_trajectory(np.ones((20, 1))), tol=1e-6, window=5)
    assert res.global_sync


def test_detect_sync_auto_tolerance_scaling():
    d = np.tile([1.0, 1.0 + 5e-5], (100, 1))
    traj = synthetic_trajectory(d)
    cfg = SimConfig(sync_tol_rel=1e-4, sync_window_frac=0.1)
    res = detect_sync_auto(traj, cfg, omega_scale=1.0)
    assert res.global_sync
    tight = SimConfig(sync_tol_rel=1e-6, sync_window_frac=0.1)
    res2 = detect_sync_auto(traj, tight, omega_scale=1.0)
    assert not res2.global_sync


# ---------------------------------------------------------------- export


def export_trajectories():
    """Scalar, two forcing columns and vector L = 2 runs, all with coupling noise."""
    g = ring3()
    cfg = SimConfig(t_step=1e-3, k_gain=2.0, horizon=31, noise_std=0.1)
    delays = DelayMatrix.uniform(3, 2e-3)
    q = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 3.0]], np.eye(2)])
    return {
        "scalar": simulate(g, delays, cfg, np.array([1.0, 2.0, 3.0])),
        "columns": simulate(g, delays, cfg, np.arange(6.0).reshape(3, 2)),
        "vector": simulate(g, delays, cfg, np.arange(6.0).reshape(3, 2), q_mats=q),
    }


@pytest.mark.parametrize("downsample", [1, 3])
def test_trajectory_npz_holds_the_strided_arrays(tmp_path, downsample):
    for kind, traj in export_trajectories().items():
        path = tmp_path / f"{kind}.npz"
        trajectory_to_npz(traj, path, downsample=downsample)
        with np.load(path) as trace:
            assert sorted(trace.files) == ["dx", "t", "x"]
            for name, full in (("t", traj.times), ("x", traj.states),
                               ("dx", traj.derivatives)):
                assert trace[name].dtype == np.float64
                assert np.array_equal(trace[name], full[::downsample]), (kind, name)


def test_trajectory_npz_rejects_downsample_below_one(tmp_path):
    traj = export_trajectories()["scalar"]
    for downsample in (0, -1):
        with pytest.raises(ValueError, match=f"got {downsample}"):
            trajectory_to_npz(traj, tmp_path / "bad.npz", downsample=downsample)
    assert not (tmp_path / "bad.npz").exists()


# ---------------------------------------------------------------- oracles


def dense_core_reference(w, lags, kq, g_vals, t_step, horizon, init, noise_std, seed):
    """The dense per-step gather x[cur - m, cols] over all n^2 node pairs."""
    n, dim = g_vals.shape
    indeg = w.sum(axis=1)
    mmax = int(lags.max())
    x = np.empty((mmax + horizon + 1, n, dim))
    for h in range(mmax + 1):
        x[h] = init.evaluate((h - mmax) * t_step, n, dim)
    deriv = np.empty((horizon + 1, n, dim))
    cols = np.arange(n)[None, :]
    rng = np.random.default_rng(seed) if noise_std > 0 else None
    for step in range(horizon + 1):
        cur = mmax + step
        delayed = x[cur - lags, cols]
        coup = np.einsum("ij,ijl->il", w, delayed) - indeg[:, None] * x[cur]
        rhs = g_vals + np.einsum("ilm,im->il", kq, coup)
        if rng is not None:
            rhs = rhs + rng.normal(0.0, noise_std, size=(n, dim))
        deriv[step] = rhs
        if step < horizon:
            x[cur + 1] = x[cur] + t_step * rhs
            if not np.all(np.isfinite(x[cur + 1])):
                raise SimulationError(f"non-finite state at step {step + 1}")
    return x[mmax:], deriv


def assert_rel_close(actual, expected, rel):
    scale = max(np.abs(expected).max(), 1e-300)
    assert np.abs(actual - expected).max() <= rel * scale


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    dim = draw(st.sampled_from([1, 2]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < draw(st.floats(0.0, 1.0)))
    w[rng.random(n) < 0.2] = 0.0  # some nodes hear nobody
    np.fill_diagonal(w, 0.0)
    lags = rng.integers(0, 6, (n, n))  # asymmetric, lag 0 included
    return n, dim, w, lags, rng, draw(st.sampled_from([0.0, 0.1]))


def assert_core_matches_dense_reference(w, lags, rng, noise_std, dim, horizon, reach=None):
    """With `reach`, c (or Q) is set so that T_s k_i d_in(i) (the eigenvalues
    of T_s K Q_i^-1 d_in(i)) of every node that hears somebody lies in
    (0, reach], so that a = I - T_s k_i d_in(i) lies in [1 - reach, 1)."""
    n = w.shape[0]
    t_step = 2.0**-7  # exact in binary, so tau / t_step rounds back to the lag
    heard = w.sum(axis=1) > 0.0
    scale = t_step * 1.5 * w.sum(axis=1)[heard]  # T_s K d_in(i)
    cfg = SimConfig(
        t_step=t_step,
        k_gain=1.5,
        horizon=horizon,
        noise_std=noise_std,
        rng_seed=int(rng.integers(1000)),
        init=InitialCondition(slopes=rng.normal(size=n), intercepts=rng.normal(size=n)),
    )
    g = new_digraph(w)
    delays = DelayMatrix(tau=lags * t_step)
    m = np.where(w > 0.0, lags, 0)
    if dim == 1:
        c = rng.uniform(0.5, 2.0, n)
        if reach is not None:
            c[heard] = scale / rng.uniform(0.0, reach, heard.sum())
        gv = rng.normal(size=n)
        traj = simulate(g, delays, replace(cfg, c_weights=c), gv)
        kq = (cfg.k_gain / c).reshape(n, 1, 1)
        states, deriv = traj.states[:, :, None], traj.derivatives[:, :, None]
        gv = gv[:, None]
    else:
        a = rng.normal(size=(n, dim, dim))
        q = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(dim)  # SPD, not diagonal
        if reach is not None:  # T_s K d_in Q^-1 = reach (I + a a^T / 2)^-1
            q[heard] = (scale / reach)[:, None, None] * (q[heard] / 2 + 0.75 * np.eye(dim))
        gv = rng.normal(size=(n, dim))
        traj = simulate(g, delays, cfg, gv, q_mats=q)
        kq = cfg.k_gain * np.linalg.inv(q)
        states, deriv = traj.states, traj.derivatives
    ref_states, ref_deriv = dense_core_reference(
        w, m, kq, gv, t_step, cfg.horizon, cfg.init, noise_std, cfg.rng_seed
    )
    assert_rel_close(states, ref_states, 1e-12)
    assert_rel_close(deriv, ref_deriv, 1e-12)


@given(kernel_cases())
@settings(max_examples=80, deadline=None)
def test_edge_list_core_matches_dense_reference(case):
    n, dim, w, lags, rng, noise_std = case
    assert_core_matches_dense_reference(w, lags, rng, noise_std, dim, horizon=40)


@pytest.mark.parametrize("lag", [0, 1, 5])
def test_divergence_reported_at_same_step_as_dense_reference(lag):
    # T_s * K * in_degree = 1.5 passes the step-size guard but diverges
    g = two_node()
    cfg = SimConfig(t_step=1.0, k_gain=1.5, horizon=5000)
    lags = np.array([[0, lag], [lag, 0]])
    gv = np.array([1.0, 0.0])
    kq = np.full((2, 1, 1), cfg.k_gain)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError) as ref:
            dense_core_reference(
                g.weights, lags, kq, gv[:, None], 1.0, cfg.horizon, cfg.init, 0.0, 0
            )
        with pytest.raises(SimulationError) as got:
            simulate(g, DelayMatrix(tau=lags * 1.0), cfg, gv)
    assert "non-finite state at step" in str(ref.value)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("lags", [(2, 2, 2), (2, 3, 4), (4, 2, 3)])
@pytest.mark.parametrize("window_only", [False, True])
def test_ring_divergence_with_block_steps_reported_at_dense_step(lags, window_only):
    # every link lags >= 2 steps, so the run advances in blocks of >= 3 steps
    g = ring3()
    cfg = SimConfig(t_step=1.0, k_gain=1.5, horizon=20000)
    m = np.zeros((3, 3), dtype=int)
    m[1, 0], m[2, 1], m[0, 2] = lags
    gv = np.array([1.0, 0.0, -0.5])
    kq = np.full((3, 1, 1), cfg.k_gain)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimulationError) as ref:
        dense_core_reference(
            g.weights, m, kq, gv[:, None], 1.0, cfg.horizon, cfg.init, 0.0, 0
        )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dde_sim, "_CHUNK", 50)  # checked only before each compaction
        with pytest.raises(SimulationError) as got:
            simulate(g, DelayMatrix(tau=m * 1.0), cfg, gv, record=RECORD[window_only])
    assert "non-finite state at step" in str(ref.value)
    assert str(got.value) == str(ref.value)


def detect_sync_pairwise(traj, tol, window, min_cluster_size=2):
    """Brute-force pairwise union-find over the stationary nodes."""
    d = traj.derivatives[-window:]
    if d.ndim == 2:
        d = d[:, :, None]
    n = d.shape[1]
    means = d.mean(axis=0)
    stationary = np.abs(d - means[None]).max(axis=(0, 2)) <= tol
    idx = [int(i) for i in np.flatnonzero(stationary)]
    parent = {i: i for i in idx}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for ai, a in enumerate(idx):
        for b in idx[ai + 1 :]:
            if np.abs(means[a] - means[b]).max() <= tol:
                parent[find(a)] = find(b)
    groups = {}
    for i in idx:
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for nodes in groups.values():
        if len(nodes) >= min_cluster_size or n == 1:
            value = means[nodes].mean(axis=0)
            if traj.derivatives.ndim == 2:
                value = value[0]
            clusters.append((frozenset(nodes), np.asarray(value)))
    clusters.sort(key=lambda c: min(c[0]))
    clustered = set().union(*[c[0] for c in clusters]) if clusters else set()
    return clusters, frozenset(range(n)) - clustered, any(len(c[0]) == n for c in clusters)


def assert_same_as_pairwise(traj, tol, window, min_cluster_size=2):
    res = detect_sync(traj, tol=tol, window=window, min_cluster_size=min_cluster_size)
    clusters, unclustered, global_sync = detect_sync_pairwise(
        traj, tol, window, min_cluster_size
    )
    assert [c.nodes for c in res.clusters] == [nodes for nodes, _ in clusters]
    for got, (_, value) in zip(res.clusters, clusters):
        assert got.value.shape == value.shape
        assert got.value.tobytes() == value.tobytes()
    assert res.unclustered == unclustered
    assert res.global_sync == global_sync
    return res


@given(
    st.integers(min_value=1, max_value=15),
    st.sampled_from([1, 2]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1, 2, 3]),
)
@settings(max_examples=150, deadline=None)
def test_detect_sync_matches_pairwise_union_find(n, dim, seed, min_size):
    rng = np.random.default_rng(seed)
    tol = 1e-3
    # levels on a grid of half tolerances: equal, chained and separated means
    levels = rng.integers(0, 8, (n, dim)) * 0.5 * tol + rng.normal(0.0, 0.05 * tol, (n, dim))
    d = np.repeat(levels[None], 30, axis=0) + rng.normal(0.0, 0.1 * tol, (30, n, dim))
    d[:, rng.random(n) < 0.2] += np.linspace(0.0, 10 * tol, 30)[:, None, None]  # drifting
    if dim == 1:
        d = d[:, :, 0]
    assert_same_as_pairwise(synthetic_trajectory(d), tol, 20, min_size)


def test_detect_sync_chain_joins_through_middle_node():
    # |a - b| <= tol and |b - c| <= tol but |a - c| > tol: one cluster by transitivity
    tol = 1e-3
    for dim in (1, 2):
        base = np.array([0.0, 0.9 * tol, 1.8 * tol, 10.0 * tol])
        d = np.tile(base[:, None] * np.ones(dim), (20, 1, 1))
        traj = synthetic_trajectory(d[:, :, 0] if dim == 1 else d)
        res = assert_same_as_pairwise(traj, tol, 10)
        assert [c.nodes for c in res.clusters] == [frozenset({0, 1, 2})]
        assert res.unclustered == frozenset({3})


# ---------------------------------------------------------------- columns


@st.composite
def column_cases(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    cols = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < draw(st.floats(0.0, 1.0)))
    w[rng.random(n) < 0.2] = 0.0  # some nodes hear nobody
    np.fill_diagonal(w, 0.0)
    lags = rng.integers(0, 6, (n, n))  # asymmetric, lag 0 included
    chunk = draw(st.integers(min_value=1, max_value=30))
    return n, cols, w, lags, rng, draw(st.sampled_from([0.0, 0.1])), chunk


def assert_columns_and_tail_bit_exact(n, cols, w, lags, rng, noise_std, chunk, horizon=None):
    """Every column equals its single run and the window-only record, with
    the compaction chunk patched to `chunk`, equals the full record's tail."""
    t_step = 2.0**-7
    cfg = SimConfig(
        t_step=t_step,
        k_gain=1.5,
        c_weights=rng.uniform(0.5, 2.0, n),
        horizon=int(rng.integers(1, 120)) if horizon is None else horizon,
        noise_std=noise_std,
        rng_seed=int(rng.integers(1000)),
        sync_window_frac=float(rng.uniform(0.0, 1.0)),
        init=InitialCondition(slopes=rng.normal(size=n), intercepts=rng.normal(size=n)),
    )
    g = new_digraph(w)
    delays = DelayMatrix(tau=lags * t_step)
    forcing = rng.normal(size=(n, cols))
    full = simulate(g, delays, cfg, forcing)
    assert full.states.shape == (cfg.horizon + 1, n, cols)
    for col in range(cols):
        single = simulate(g, delays, cfg, forcing[:, col])
        view = full.column(col)
        assert view.states.tobytes() == single.states.tobytes()
        assert view.derivatives.tobytes() == single.derivatives.tobytes()
    # a short chunk makes the history buffer compact many times per run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dde_sim, "_CHUNK", chunk)
        tail = simulate(g, delays, cfg, forcing, record="window")
    keep = min(cfg.sync_window(cfg.horizon + 1), cfg.horizon + 1)
    assert tail.first_step == cfg.horizon + 1 - keep
    assert tail.times.tobytes() == full.times[-keep:].tobytes()
    assert tail.states.tobytes() == full.states[-keep:].tobytes()
    assert tail.derivatives.tobytes() == full.derivatives[-keep:].tobytes()
    return g, delays, cfg, forcing, full


@given(column_cases())
@settings(max_examples=60, deadline=None)
def test_columns_equal_single_runs_and_window_equals_tail(case):
    assert_columns_and_tail_bit_exact(*case)


def test_window_only_record_over_several_default_chunks():
    g = ring3()
    cfg = SimConfig(
        t_step=1e-3, k_gain=20.0, horizon=3500, noise_std=0.1, sync_window_frac=0.05
    )
    delays = DelayMatrix(tau=np.array([[0.0, 0.0, 0.03], [0.01, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    forcing = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
    full = simulate(g, delays, cfg, forcing)
    tail = simulate(g, delays, cfg, forcing, record="window")
    assert cfg.horizon > 3 * dde_sim._CHUNK
    assert tail.derivatives.shape == (175, 3, 2)
    assert tail.states.tobytes() == full.states[-175:].tobytes()
    assert tail.derivatives.tobytes() == full.derivatives[-175:].tobytes()
    # detection on the tail uses the window of the full run
    for col in range(2):
        a = detect_sync_auto(full.column(col), cfg, omega_scale=1.0)
        b = detect_sync_auto(tail.column(col), cfg, omega_scale=1.0)
        assert (a.window, a.global_sync) == (b.window, b.global_sync)
        assert [c.value.tobytes() for c in a.clusters] == [c.value.tobytes() for c in b.clusters]
        assert [c.detection_time for c in a.clusters] == [c.detection_time for c in b.clusters]


def test_forcing_columns_must_match_node_count():
    with pytest.raises(ValueError, match="does not match"):
        simulate(ring3(), DelayMatrix.zero(3), SimConfig(horizon=5), np.ones((2, 4)))


# ---------------------------------------------------------------- blocks


@st.composite
def block_cases(draw):
    """Digraphs whose links all lag >= 1 step, so the core advances in blocks
    of (shortest lag + 1) steps; edgeless graphs and n = 1 included."""
    n = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.one_of(st.just(0.0), st.floats(0.05, 1.0)))
    w = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < density)
    w[rng.random(n) < 0.2] = 0.0  # some nodes hear nobody
    np.fill_diagonal(w, 0.0)
    low = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        lags = np.full((n, n), low)
    else:
        lags = rng.integers(low, low + 6, (n, n))
    cols = draw(st.integers(min_value=1, max_value=5))
    chunk = draw(st.integers(min_value=1, max_value=30))
    steps = draw(st.integers(min_value=1, max_value=6))  # per gather, if fewer than s
    return n, cols, w, lags, rng, draw(st.sampled_from([0.0, 0.1])), chunk, steps


@given(block_cases())
@settings(max_examples=80, deadline=None)
def test_block_core_matches_dense_reference(case):
    _, _, w, lags, rng, noise_std, _, _ = case
    for dim in (1, 2):
        horizon = int(rng.integers(1, 80))
        assert_core_matches_dense_reference(w, lags, rng, noise_std, dim, horizon)


def capped_ring_case(noise_std):
    """A 3-node ring whose links all lag 6 steps (s = 7), gathered 3 steps at
    a time over 98 steps, with bounded records that compact at a chunk of at
    least 10 steps, as a `block_cases` case."""
    w = np.roll(np.eye(3), 1, axis=0)
    return 3, 2, w, np.full((3, 3), 6), np.random.default_rng(1), noise_std, 10, 3


@given(block_cases())
@example(capped_ring_case(0.0))
@example(capped_ring_case(0.1))
@settings(max_examples=60, deadline=None)
def test_block_core_columns_windows_and_block_lengths_bit_exact(case):
    g, delays, cfg, forcing, full = assert_columns_and_tail_bit_exact(*case[:-1])
    chunk, steps = case[-2:]
    # shorter blocks split the same steps differently, with the same bits,
    # also in bounded records whose compactions they meet
    entries = dde_sim._member(dde_sim.SimRun(g, delays, cfg, forcing), "").dst.size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dde_sim, "_BLOCK_ENTRIES", steps * entries * forcing.shape[1])
        short = simulate(g, delays, cfg, forcing)
        assert_records_are_slices_of_the_full_record([(g, delays, cfg, forcing, None)], chunk)
    assert short.states.tobytes() == full.states.tobytes()
    assert short.derivatives.tobytes() == full.derivatives.tobytes()


# ---------------------------------------------------------------- batches


@st.composite
def batch_cases(draw, long_lags=False, max_horizon=120):
    """1..6 members with their own graph, lags, gains, forcing, init, noise
    and window; some s = 1, some s > 1, scalar members with 1..3 forcing
    columns and at most one vector group with a shared L. With long_lags,
    some members' links all lag at least 7, 8, 12 or 30 steps, so that they
    scan."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    t_step = 2.0**-7
    horizon = int(rng.integers(1, max_horizon))
    record = draw(st.sampled_from(["full", "window"]))
    vector_dim = int(rng.integers(1, 4))
    runs = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        n = int(rng.integers(1, 11))
        w = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < rng.uniform())
        w[rng.random(n) < 0.2] = 0.0  # some nodes hear nobody
        np.fill_diagonal(w, 0.0)
        low = int(rng.integers(0, 4))  # low 0 gives s = 1 when a link lags 0
        if long_lags and draw(st.booleans()):
            # a few values, so that some scanning members share their s
            low = int(rng.choice([7, 8, 12, 30]))
        lags = rng.integers(low, low + 6, (n, n))
        cfg = SimConfig(
            t_step=t_step,
            k_gain=float(rng.uniform(0.5, 2.0)),
            c_weights=rng.uniform(0.5, 2.0, n),
            horizon=horizon,
            noise_std=float(rng.choice([0.0, 0.1])),
            rng_seed=int(rng.integers(1000)),
            sync_window_frac=float(rng.uniform(0.01, 1.0)),
            init=InitialCondition(slopes=rng.normal(size=n), intercepts=rng.normal(size=n)),
        )
        g, delays = new_digraph(w), DelayMatrix(tau=lags * t_step)
        kind = rng.integers(3)
        if kind == 0:
            a = rng.normal(size=(n, vector_dim, vector_dim))
            q = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(vector_dim)
            runs.append((g, delays, cfg, rng.normal(size=(n, vector_dim)), q, record))
        elif kind == 1:
            runs.append((g, delays, cfg, rng.normal(size=n), None, record))
        else:
            cols = int(rng.integers(1, 4))
            runs.append((g, delays, cfg, rng.normal(size=(n, cols)), None, record))
    return runs


def assert_batch_equals_solo_runs(runs):
    batch = simulate_batch(runs)
    assert len(batch) == len(runs)
    for (g, delays, cfg, gv, q, record), got in zip(runs, batch):
        solo = simulate(g, delays, cfg, gv, q_mats=q, record=record)
        assert got.first_step == solo.first_step
        for name in ("times", "states", "derivatives"):
            a, b = getattr(got, name), getattr(solo, name)
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.ascontiguousarray(a).tobytes() == b.tobytes()


@given(batch_cases())
@settings(max_examples=80, deadline=None)
def test_batch_equals_solo_runs_bit_for_bit(runs):
    assert_batch_equals_solo_runs(runs)


def record_bytes(rec):
    """Every field of a record, as (name, shape, dtype, bytes)."""
    if isinstance(rec, NodeMean):
        fields = {"times": rec.times, "mean": rec.mean}
    else:
        fields = {"times": rec.times, "states": rec.states, "derivatives": rec.derivatives,
                  "first_step": np.asarray(rec.first_step)}
    return [(name, a.shape, a.dtype, a.tobytes()) for name, a in fields.items()]


def assert_records_are_slices_of_the_full_record(runs, chunk):
    """With the compaction chunk patched to `chunk`, a "window" record is the
    full record's tail and a "node_mean" record holds its per-column node
    means, byte for byte; each kind's batch equals its solo runs."""
    runs = [dde_sim.SimRun(*run[:5]) for run in runs]
    full = simulate_batch(runs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dde_sim, "_CHUNK", chunk)
        for record in ("window", "node_mean"):
            members = [run._replace(record=record) for run in runs]
            for run, got, ref in zip(members, simulate_batch(members), full):
                assert record_bytes(got) == record_bytes(simulate(*run))
                if record == "window":
                    keep = min(run.cfg.sync_window(run.cfg.horizon + 1), run.cfg.horizon + 1)
                    assert got.first_step == run.cfg.horizon + 1 - keep
                    for name in ("times", "states", "derivatives"):
                        want = getattr(ref, name)[-keep:]
                        assert getattr(got, name).tobytes() == want.tobytes()
                    continue
                assert got.times.tobytes() == ref.times.tobytes()
                if np.ndim(run.g_values) == 1:
                    assert got.mean.shape == (run.cfg.horizon + 1,)
                    assert got.mean.tobytes() == ref.derivatives.mean(axis=1).tobytes()
                    continue
                assert got.mean.shape == (run.cfg.horizon + 1, ref.derivatives.shape[2])
                for col in range(got.mean.shape[1]):
                    want = ref.column(col).derivatives.mean(axis=1)
                    assert got.column(col).mean.tobytes() == want.tobytes()


@given(batch_cases(), st.integers(min_value=1, max_value=30))
@settings(max_examples=80, deadline=None)
def test_records_equal_slices_of_the_full_record(runs, chunk):
    assert_records_are_slices_of_the_full_record(runs, chunk)


def traced_peak(g, delays, cfg, gv, record):
    tracemalloc.start()
    try:
        simulate(g, delays, cfg, gv, record=record)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_node_mean_memory_does_not_grow_with_the_horizon(monkeypatch):
    # a 200-node ring whose links lag 100 steps: a full record takes
    # 2 * (101 + horizon) * 200 * 8 bytes, 64 MB at horizon 20000;
    # tracemalloc sees no forked lane, so every run must stay in this process
    monkeypatch.setattr(lanes_module, "_lane_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", refuse_fork)
    n = 200
    w = np.zeros((n, n))
    w[np.arange(n), np.arange(n) - 1] = 1.0
    g, delays = new_digraph(w), DelayMatrix.uniform(n, 0.1)
    gv = np.linspace(0.5, 1.5, n)
    cfg = SimConfig(t_step=1e-3, k_gain=20.0, horizon=2000)
    short = traced_peak(g, delays, cfg, gv, "node_mean")
    long = traced_peak(g, delays, replace(cfg, horizon=20000), gv, "node_mean")
    assert long <= 1.25 * short
    full = traced_peak(g, delays, cfg, gv, "full")
    assert full >= 2 * (101 + 2000) * n * 8
    assert traced_peak(g, delays, replace(cfg, horizon=4000), gv, "full") >= 1.5 * full


def test_set_up_memory_follows_the_links_not_n_squared():
    # a 1000-node ring with chords, 2000 links: building the entries through
    # dense n x n lag and coupling matrices peaked at about 17 MiB
    n = 1000
    w = np.zeros((n, n))
    i = np.arange(n)
    w[(i + 1) % n, i] = 1.0
    w[(i + 37) % n, i] = 0.5
    g, delays = new_digraph(w), DelayMatrix.uniform(n, 0.005)
    assert traced_peak(g, delays, SimConfig(horizon=1), np.ones(n), "full") < 2 * 2**20


def test_node_mean_record_is_not_a_trajectory(tmp_path):
    g = ring3()
    cfg = SimConfig(horizon=50)
    rec = simulate(g, DelayMatrix.zero(3), cfg, np.ones(3), record="node_mean")
    assert isinstance(rec, NodeMean) and rec.mean.shape == (51,)
    message = "needs a per-node Trajectory, got a node-mean record"
    with pytest.raises(TypeError, match=message):
        detect_sync(rec, tol=1e-3, window=10)
    with pytest.raises(TypeError, match=message):
        detect_sync_auto(rec, cfg, omega_scale=1.0)
    with pytest.raises(TypeError, match=message):
        trajectory_to_npz(rec, tmp_path / "t.npz")


def test_record_must_be_a_known_kind():
    with pytest.raises(ValueError, match="record must be one of"):
        simulate(ring3(), DelayMatrix.zero(3), SimConfig(horizon=5), np.ones(3), record="tail")


def test_batch_of_nothing_is_empty():
    assert simulate_batch([]) == []


def test_batch_checks_every_step_size_before_any_step(monkeypatch):
    good = (ring3(), DelayMatrix.zero(3), SimConfig(horizon=50), np.ones(3))
    # T_s * K * in_degree(1) = 1e-3 * 3000 * 1 = 3 trips the guard
    bad = (ring3(), DelayMatrix.zero(3), SimConfig(horizon=50, k_gain=3000.0), np.ones(3))
    calls = []
    core = dde_sim._simulate_core
    monkeypatch.setattr(
        dde_sim, "_simulate_core", lambda *a: calls.append(1) or core(*a)
    )
    with pytest.raises(SimulationError, match=r"^member 2: step-size instability: "
                       r"T_s \* k_0 \* in_degree\(0\) = 3\.000 >= 2$"):
        simulate_batch([good, good, bad])
    assert calls == []
    with pytest.raises(SimulationError, match=r"^step-size instability"):
        simulate(*bad)


@pytest.mark.parametrize("lag", [0, 1, 5])
@pytest.mark.parametrize("window_only", [False, True])
def test_batch_reports_a_diverging_member_at_its_solo_step(lag, window_only):
    # T_s * K * in_degree = 1.5 passes the step-size guard but diverges
    diverging = (
        two_node(),
        DelayMatrix(tau=np.array([[0.0, lag], [lag, 0.0]])),
        SimConfig(t_step=1.0, k_gain=1.5, horizon=5000),
        np.array([1.0, 0.0]),
    )
    calm = (ring3(), DelayMatrix.uniform(3, float(lag)),
            SimConfig(t_step=1.0, k_gain=0.2, horizon=5000), np.ones(3))
    with pytest.raises(SimulationError) as solo:
        simulate(*diverging, record=RECORD[window_only])
    assert str(solo.value).startswith("non-finite state at step")
    with pytest.raises(SimulationError) as got:
        simulate_batch([run + (None, RECORD[window_only]) for run in (calm, diverging, calm)])
    assert str(got.value) == f"member 1: {solo.value}"


@pytest.mark.parametrize(
    "field, change",
    [
        ("t_step", lambda run: run._replace(cfg=replace(run.cfg, t_step=2e-3))),
        ("horizon", lambda run: run._replace(cfg=replace(run.cfg, horizon=51))),
        ("record", lambda run: run._replace(record="window")),
    ],
)
def test_batch_members_must_share_step_horizon_and_window(field, change):
    run = dde_sim.SimRun(ring3(), DelayMatrix.zero(3), SimConfig(horizon=50), np.ones(3))
    with pytest.raises(ValueError, match=f"disagree on {field}$"):
        simulate_batch([run, run, change(run)])


# ---------------------------------------------------------------- scan


@st.composite
def scan_cases(draw):
    """Digraphs whose links all lag at least 7 steps, so that the core steps
    the self term of its blocks of s >= 8 steps by the prefix scan; some nodes
    hear nobody, and n = 1 is excluded, as it has no link."""
    n = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < draw(st.floats(0.05, 1.0)))
    w[rng.random(n) < 0.2] = 0.0  # some nodes hear nobody
    w[1, 0] = 0.5  # at least one link
    np.fill_diagonal(w, 0.0)
    low = draw(st.integers(min_value=dde_sim._SCAN_SPAN - 1, max_value=60))
    if draw(st.booleans()):
        lags = np.full((n, n), low)
    else:
        lags = rng.integers(low, low + 18, (n, n))
    cols = draw(st.integers(min_value=1, max_value=4))
    chunk = draw(st.integers(min_value=1, max_value=30))
    entries = draw(st.integers(min_value=1, max_value=200))
    return n, cols, w, lags, rng, draw(st.sampled_from([0.0, 0.1])), chunk, entries


@given(scan_cases(), st.one_of(st.none(), st.floats(0.05, 1.0)))
@settings(max_examples=40, deadline=None)
def test_scan_core_matches_dense_reference(case, reach):
    """With reach, T_s k_i d_in(i) ranges up to 1, where a = 1 - T_s k_i d_in(i)
    nears 0 and a^s may fall below the scan's floor, so that the member is
    stepped."""
    _, _, w, lags, rng, noise_std, _, _ = case
    for dim in (1, 2):
        horizon = int(rng.integers(1, 1500))
        assert_core_matches_dense_reference(w, lags, rng, noise_std, dim, horizon, reach)


@given(scan_cases())
@settings(max_examples=40, deadline=None)
def test_scan_core_columns_windows_and_gathers_bit_exact(case):
    """Columns equal their single runs, a window record with a short chunk
    is the full record's tail, and a block gathered in pieces of at most
    `entries` entries gives the same bits as one gather."""
    *args, rng, noise_std, chunk, entries = case
    horizon = int(rng.integers(1, 400))
    g, delays, cfg, forcing, full = assert_columns_and_tail_bit_exact(
        *args, rng, noise_std, chunk, horizon
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dde_sim, "_BLOCK_ENTRIES", entries)
        pieces = simulate(g, delays, cfg, forcing)
        mp.setattr(dde_sim, "_CHUNK", chunk)
        tail = simulate(g, delays, cfg, forcing, record="window")
    assert pieces.states.tobytes() == full.states.tobytes()
    assert pieces.derivatives.tobytes() == full.derivatives.tobytes()
    assert tail.derivatives.tobytes() == full.derivatives[tail.first_step :].tobytes()


@given(scan_cases())
@settings(max_examples=40, deadline=None)
def test_scan_core_node_means_are_the_full_record_means(case):
    n, cols, w, lags, rng, noise_std, chunk, _ = case
    t_step = 2.0**-7
    cfg = SimConfig(
        t_step=t_step,
        k_gain=1.5,
        c_weights=rng.uniform(0.5, 2.0, n),
        horizon=int(rng.integers(1, 400)),
        noise_std=noise_std,
        rng_seed=int(rng.integers(1000)),
        init=InitialCondition(slopes=rng.normal(size=n), intercepts=rng.normal(size=n)),
    )
    g, delays = new_digraph(w), DelayMatrix(tau=lags * t_step)
    forcing = rng.normal(size=(n, cols))
    full = simulate(g, delays, cfg, forcing)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dde_sim, "_CHUNK", chunk)
        means = simulate(g, delays, cfg, forcing, record="node_mean")
    for col in range(cols):
        want = full.column(col).derivatives.mean(axis=1)
        assert means.column(col).mean.tobytes() == want.tobytes()


@given(batch_cases(long_lags=True, max_horizon=300))
@settings(max_examples=40, deadline=None)
def test_batch_of_spans_below_and_above_the_scan_equals_solo_runs(runs):
    assert_batch_equals_solo_runs(runs)


@given(batch_cases(long_lags=True, max_horizon=300), st.integers(min_value=1, max_value=30))
@settings(max_examples=40, deadline=None)
def test_scanned_records_equal_slices_of_the_full_record(runs, chunk):
    assert_records_are_slices_of_the_full_record(runs, chunk)


SCAN_DIVERGENCES = [("two_node", 7, 1.2), ("two_node", 10, 1.9), ("two_node", 50, 1.9),
                    ("ring3", 8, 1.5), ("ring3", 64, 1.9)]
# where the failing derivative row of a scan waits until it is formed and
# checked: at the periodic check, at the end of a full record, at a compaction
# of a bounded record, or in the buffer of the rows before the window
PENDING = {
    "checked": {},
    "to_the_end": {"_CHECK_EVERY": 1 << 15},
    "compaction": {"_CHECK_EVERY": 1 << 15, "_CHUNK": 100},
    "before_window": {"_CHECK_EVERY": 1 << 15, "_CHUNK": 1 << 15},
}


@functools.cache
def scan_divergence(graph, lag, gain):
    """A run whose scanned state overflows, and the dense reference's error:
    T_s * K * in_degree = gain passes the step-size guard, and the scanned
    state overflows later than the dense step's k_i d_in(i) x_i does."""
    g = two_node() if graph == "two_node" else ring3()
    m = np.where(g.weights > 0.0, lag, 0)
    gv = np.array([1.0, 0.0, -0.5])[: g.n]
    cfg = SimConfig(t_step=1.0, k_gain=gain, horizon=20000)
    kq = np.full((g.n, 1, 1), gain)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimulationError) as ref:
        dense_core_reference(g.weights, m, kq, gv[:, None], 1.0, cfg.horizon, cfg.init, 0.0, 0)
    assert "non-finite state at step" in str(ref.value)
    return (g, DelayMatrix(tau=m * 1.0), cfg, gv), str(ref.value)


SCAN_PENDING = [("full", "checked"), ("window", "checked"), ("node_mean", "checked"),
                ("full", "to_the_end"), ("window", "compaction"), ("node_mean", "compaction"),
                ("window", "before_window")]


@pytest.mark.parametrize("graph, lag, gain", SCAN_DIVERGENCES)
@pytest.mark.parametrize(
    "record, pending", SCAN_PENDING,
    ids=[record if pending == "checked" else f"{record}_{pending}"
         for record, pending in SCAN_PENDING],
)
def test_scan_divergence_reported_at_same_step_as_dense_reference(
    graph, lag, gain, record, pending
):
    (g, delays, cfg, gv), want = scan_divergence(graph, lag, gain)
    if pending == "before_window":
        # the window's first step lies s + 1 steps past the failing one, so
        # the row waits for the check before the window's first block
        fail = int(want.rsplit(" ", 1)[1])
        cfg = replace(cfg, horizon=2 * (fail + lag + 1) + 1, sync_window_frac=0.5)
        assert cfg.horizon + 1 - cfg.sync_window(cfg.horizon + 1) == fail + lag + 2
    with pytest.MonkeyPatch.context() as mp:
        for name, value in PENDING[pending].items():
            mp.setattr(dde_sim, name, value)
        with pytest.raises(SimulationError) as got:
            simulate(g, delays, cfg, gv, record=record)
    assert str(got.value) == want


@st.composite
def run_length_cases(draw):
    """1..4 members whose (node, column) runs hold 1 to 9 entries: every node
    hears 0 to 8 others, plus its own entry at s = 1. Scalar and vector gains,
    clean and noisy members, some that start at zero (products of exact zeros
    of both signs), and nodes that hear nobody forced by -0.0 or +0.0."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    t_step = 2.0**-7
    horizon = int(rng.integers(1, 300))
    record = draw(st.sampled_from(dde_sim.RECORDS))
    vector_dim = int(rng.integers(1, 4))
    runs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        n = int(rng.integers(1, 11))
        w = np.zeros((n, n))
        for i in range(n):
            heard = rng.choice(np.delete(np.arange(n), i), int(rng.integers(min(n, 9))),
                               replace=False)
            w[i, heard] = rng.uniform(0.1, 1.0, heard.size)
        low = int(rng.choice([0, 1, 3, 8, 12]))  # s = 1, stepped and scanned
        lags = rng.integers(low, low + 4, (n, n))
        start = rng.random() < 0.3
        cfg = SimConfig(
            t_step=t_step,
            k_gain=float(rng.uniform(0.5, 2.0)),
            c_weights=rng.uniform(0.5, 2.0, n),
            horizon=horizon,
            noise_std=float(rng.choice([0.0, 0.1])),
            rng_seed=int(rng.integers(1000)),
            sync_window_frac=float(rng.uniform(0.01, 1.0)),
            init=InitialCondition() if start else InitialCondition(
                slopes=rng.normal(size=n), intercepts=rng.normal(size=n)),
        )
        g, delays = new_digraph(w), DelayMatrix(tau=lags * t_step)
        vector = rng.random() < 0.4
        gv = rng.normal(size=(n, vector_dim if vector else int(rng.integers(1, 4))))
        deaf = w.sum(axis=1) == 0.0
        gv[deaf] = rng.choice([0.0, -0.0], gv[deaf].shape)
        q = None
        if vector:
            a = rng.normal(size=(n, vector_dim, vector_dim))
            q = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(vector_dim)
        runs.append((g, delays, cfg, gv, q, record))
    return runs


def longest_run(runs) -> int:
    return max(int(np.bincount(dde_sim._member(dde_sim.SimRun(*run), "").dst).max())
               for run in runs)


def batch_and_solo_records(runs, bound):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dde_sim, "_BINCOUNT_RUN", bound)
        batch = [record_bytes(rec) for rec in simulate_batch(runs)]
        assert batch == [record_bytes(simulate(*run)) for run in runs]
    return batch


@given(run_length_cases())
@settings(max_examples=60, deadline=None)
def test_short_runs_summed_by_bincount_equal_reduceat_byte_for_byte(runs):
    """Every record, batched and solo, is the same with every coupling sum by
    np.add.reduceat (bound 0), by the library's bound, and, where no run
    holds more than 8 entries, with np.bincount wherever the forcing allows."""
    want = batch_and_solo_records(runs, 0)
    assert batch_and_solo_records(runs, dde_sim._BINCOUNT_RUN) == want
    if longest_run(runs) <= 8:
        assert batch_and_solo_records(runs, 1 << 30) == want


def test_bincount_sums_runs_as_reduceat_up_to_eight_entries():
    """Listed as p1..pk, p0, a run's np.bincount sum equals np.add.reduceat's
    bit for bit up to 8 entries and not beyond, where numpy's pairwise sum
    splits: this is why the core's bound is 8."""
    assert dde_sim._BINCOUNT_RUN == 8
    rng = np.random.default_rng(0)
    runs = 2000
    for length in range(1, 12):
        p = rng.normal(size=(runs, length)) * 10.0 ** rng.integers(-8, 8, (runs, length))
        want = np.add.reduceat(p.ravel(), np.arange(0, p.size, length))
        got = np.bincount(np.repeat(np.arange(runs), length), np.roll(p, -1, axis=1).ravel())
        assert (got.tobytes() == want.tobytes()) == (length <= 8)


@pytest.mark.parametrize("forcing", [0.0, -0.0])
@pytest.mark.parametrize("lag", [0, 10])
def test_a_node_that_hears_nobody_keeps_the_sign_of_its_zero_derivative(forcing, lag):
    """Node 2 hears nobody and starts at 0, so its only entry's product is
    -0.0, whose sum np.bincount makes +0.0. Forced by -0.0 its derivatives
    are -0.0 and the union keeps np.add.reduceat; forced by +0.0 they are
    +0.0 either way and the union sums by np.bincount."""
    g = new_digraph(np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    delays = DelayMatrix(tau=np.full((3, 3), lag * 2.0**-7))
    cfg = SimConfig(t_step=2.0**-7, horizon=100)
    gv = np.array([1.0, 0.5, forcing])
    weighted = []  # the core's sums pass weights; its set-up counts links
    bincount = np.bincount
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "bincount",
                   lambda *args, **kw: weighted.append(len(args) > 1) or bincount(*args, **kw))
        got = simulate(g, delays, cfg, gv)
    assert any(weighted) == (not np.signbit(forcing))
    assert (np.signbit(got.derivatives[:, 2]) == np.signbit(forcing)).all()
    assert (got.derivatives[:, 2] == 0.0).all()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dde_sim, "_BINCOUNT_RUN", 0)
        assert record_bytes(simulate(g, delays, cfg, gv)) == record_bytes(got)


# K of a two-node ring at T_s = 1 and c = 1 (or Q = I), where a = 1 - K: 0
# exactly; 2^-47, whose a^11 = 2^-517 lies below the scan's floor; or -0.25
GUARD_GAINS = {"a_zero": 1.0, "below_floor": 1.0 - 2.0**-47, "a_negative": 1.25}


def guarded_run(g, gain, dim, lag=10, horizon=200):
    """A run of g at uniform lag `lag` (s = 11), with scalar gains (dim 0) or
    vector gains of Q = I (dim 1 or 2)."""
    cfg = SimConfig(t_step=1.0, k_gain=gain, horizon=horizon)
    delays = DelayMatrix(tau=np.where(g.weights > 0.0, float(lag), 0.0))
    if dim == 0:
        return (g, delays, cfg, np.linspace(1.0, 0.0, g.n), None, "full")
    gv = np.linspace(1.0, -1.0, g.n * dim).reshape(g.n, dim)
    return (g, delays, cfg, gv, np.broadcast_to(np.eye(dim), (g.n, dim, dim)), "full")


@pytest.mark.parametrize("dim", [0, 1, 2])
@pytest.mark.parametrize("case", GUARD_GAINS)
def test_scan_floor_steps_members_whose_a_power_vanishes(case, dim):
    """A member whose a^s lies below _SCAN_FLOOR is stepped, one with
    -1 < a < 0 scans; each matches the dense reference and, batched after a
    member of its own s that scans, its solo run bit for bit. Unguarded, the
    scan of a = 0 fails."""
    run = guarded_run(two_node(), GUARD_GAINS[case], dim)
    g, delays, cfg, gv = run[:4]
    assert dde_sim._member(dde_sim.SimRun(*run), "").scans == (case == "a_negative")
    traj = simulate(*run[:5])
    cols = max(dim, 1)
    kq = np.broadcast_to(cfg.k_gain * np.eye(cols), (2, cols, cols))
    ref_states, ref_deriv = dense_core_reference(
        g.weights, delays.tau.astype(int), kq, gv.reshape(2, cols), 1.0, cfg.horizon,
        cfg.init, 0.0, 0)
    assert_rel_close(traj.states.reshape(ref_states.shape), ref_states, 1e-12)
    assert_rel_close(traj.derivatives.reshape(ref_deriv.shape), ref_deriv, 1e-12)
    assert_batch_equals_solo_runs([guarded_run(ring3(), 0.3, dim), run])
    if case == "a_zero":
        unguarded = SimulationError if dim == 0 else np.linalg.LinAlgError
        with pytest.MonkeyPatch.context() as mp, np.errstate(divide="ignore"):
            mp.setattr(dde_sim, "_SCAN_FLOOR", 0.0)
            with pytest.raises(unguarded):
                simulate(*run[:5])


# ---------------------------------------------------------------- lanes


def pair(lag, k_gain=1.5, horizon=3000):
    # with K = 1.5, T_s * K * in_degree = 1.5 passes the step-size guard but
    # diverges; lag 0 falls into the s = 1 step group, lag > 0 into s > 1
    return (two_node(), DelayMatrix(tau=np.array([[0.0, lag], [lag, 0.0]])),
            SimConfig(t_step=1.0, k_gain=k_gain, horizon=horizon), np.array([1.0, 0.0]))


def calm_ring(horizon=3000):
    return (ring3(), DelayMatrix.uniform(3, 5.0),
            SimConfig(t_step=1.0, k_gain=0.2, horizon=horizon), np.ones(3))


@given(batch_cases(), st.sampled_from(dde_sim.RECORDS), st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_lanes_equal_the_in_process_run(runs, record, cpus):
    """With lanes forced on, every record kind equals the in-process batch
    byte for byte, one child is forked per lane but the first, and none is
    left behind."""
    runs = [dde_sim.SimRun(*run[:5], record) for run in runs]
    groups = []
    core = dde_sim._simulate_core
    with lanes(cpus=1) as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dde_sim, "_simulate_core", lambda *a: groups.append(1) or core(*a))
        want = simulate_batch(runs)
    assert forks == []
    with lanes(cpus=cpus) as forks:
        got = simulate_batch(runs)
    assert len(forks) == min(len(groups), cpus) - 1
    assert_no_children()
    for a, b in zip(got, want, strict=True):
        assert record_bytes(a) == record_bytes(b)


@pytest.mark.parametrize(
    "batch",
    [
        # the diverging s = 1 group is the lighter one, run in the child
        [pair(0), calm_ring(), calm_ring(), calm_ring()],
        # the diverging s = 1 group is the heavier one, run here
        [calm_ring(), pair(0), pair(0), pair(0)],
        # both groups diverge: the first in serial order is run in the child
        [pair(0), pair(1), pair(1)],
    ],
    ids=["in-child", "in-parent", "both"],
)
def test_lanes_raise_the_in_process_error(batch):
    with pytest.raises(SimulationError) as solo, lanes(cpus=1):
        simulate_batch(batch)
    assert re.fullmatch(r"member \d: non-finite state at step \d+", str(solo.value))
    with pytest.raises(SimulationError) as got, lanes() as forks:
        simulate_batch(batch)
    assert len(forks) == 1
    assert str(got.value) == str(solo.value)
    assert_no_children()


def test_step_size_guard_fails_before_any_fork():
    # T_s * K * in_degree(0) = 1 * 3 * 1 = 3 trips the guard
    bad = (ring3(), DelayMatrix.zero(3), SimConfig(t_step=1.0, k_gain=3.0, horizon=3000),
           np.ones(3))
    with lanes() as forks, pytest.raises(
        SimulationError, match=r"^member 2: step-size instability"
    ):
        simulate_batch([pair(0, k_gain=0.2), calm_ring(), bad])
    assert forks == []


def test_lanes_need_a_second_cpu_fork_and_no_other_thread(monkeypatch):
    batch = [pair(0, k_gain=0.2, horizon=300), calm_ring(horizon=300)]
    want = [record_bytes(rec) for rec in simulate_batch(batch)]
    monkeypatch.setattr(os, "fork", refuse_fork)
    monkeypatch.setattr(lanes_module, "LANE_WORK", 0)
    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert [record_bytes(rec) for rec in simulate_batch(batch)] == want
    with monkeypatch.context() as mp:
        mp.delattr(os, "fork")
        assert [record_bytes(rec) for rec in simulate_batch(batch)] == want
    monkeypatch.setattr(lanes_module, "_lane_cpus", lambda: 2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(10.0,))
    other.start()
    try:
        assert [record_bytes(rec) for rec in simulate_batch(batch)] == want
    finally:
        stop.set()
        other.join(timeout=10.0)
    assert not other.is_alive()


def test_lanes_stay_closed_while_another_task_is_runnable(monkeypatch):
    # a busy loop in another process is runnable all the time, so neither of
    # two usable CPUs is idle
    batch = [pair(0, k_gain=0.2, horizon=300), calm_ring(horizon=300)]
    want = [record_bytes(rec) for rec in simulate_batch(batch)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(lanes_module, "LANE_WORK", 0)
    spin = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        deadline = time.monotonic() + 10.0
        while lanes_module._lane_cpus() > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert lanes_module._lane_cpus() <= 1
        monkeypatch.setattr(os, "fork", refuse_fork)
        assert [record_bytes(rec) for rec in simulate_batch(batch)] == want
    finally:
        spin.kill()
        spin.wait()
