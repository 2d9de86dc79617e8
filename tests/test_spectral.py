"""Eigenstructure, rate estimates, and the delayed characteristic function."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsync import experiments, spectral, topologies
from selfsync.dde_sim import (DelayMatrix, SimConfig, SyncResult, Trajectory, detect_sync_auto,
                              simulate)
from selfsync.digraph import laplacian, new_digraph, scc_decompose
from selfsync.protocols import predict_consensus
from selfsync.spectral import (
    SpectralError,
    characteristic_function,
    characteristic_scale,
    empirical_rate,
    gamma_left_eigenvector,
    gamma_per_cluster,
    rate_kappa_bound,
    rate_no_delay,
)
from conftest import left_null_space_oracle


def ring3(weight=1.0):
    w = np.zeros((3, 3))
    w[1, 0] = w[2, 1] = w[0, 2] = weight
    return new_digraph(w)


def random_sparse(rng, n, p=0.4):
    w = rng.uniform(0.5, 1.5, size=(n, n))
    w[rng.random((n, n)) >= p] = 0.0
    np.fill_diagonal(w, 0.0)
    return new_digraph(w)


# ---------------------------------------------------------------- multiplicity


def test_zero_multiplicity_examples():
    for g, expected in [
        (topologies.sc_14(), 1),
        (topologies.qsc_three_scc_14(), 1),
        (topologies.wc_two_root_14(), 2),
    ]:
        assert len(scc_decompose(g).root_components) == expected


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_zero_multiplicity_matches_eigensolver(seed):
    rng = np.random.default_rng(seed)
    g = random_sparse(rng, int(rng.integers(2, 9)))
    lap = laplacian(g)
    scc = scc_decompose(g)
    eig = np.linalg.eigvals(lap)
    scale = max(np.abs(eig).max(), 1.0)
    numeric = int(np.sum(np.abs(eig) <= 1e-8 * scale))
    assert len(scc.root_components) == numeric


# ---------------------------------------------------------------- gamma


def test_gamma_uniform_on_balanced_ring():
    g = ring3(0.8)
    gamma = gamma_left_eigenvector(laplacian(g), scc_decompose(g))
    np.testing.assert_allclose(gamma, np.full(3, 1 / 3), atol=1e-12)
    assert frozenset(np.flatnonzero(gamma).tolist()) == frozenset({0, 1, 2})


def test_gamma_matches_dense_left_null_space():
    rng = np.random.default_rng(42)
    for _ in range(20):
        g = topologies.random_sc(int(rng.integers(3, 9)), rng)
        lap = laplacian(g)
        gamma = gamma_left_eigenvector(lap, scc_decompose(g))
        basis = left_null_space_oracle(lap)
        assert basis.shape[0] == 1
        oracle = basis[0] / basis[0].sum()
        np.testing.assert_allclose(gamma, oracle, atol=1e-9)
        assert np.abs(gamma @ lap).max() < 1e-10


def test_gamma_support_is_root_scc_on_qsc():
    g = topologies.qsc_three_scc_14()
    gamma = gamma_left_eigenvector(laplacian(g), scc_decompose(g))
    assert frozenset(np.flatnonzero(gamma).tolist()) == frozenset(range(6))
    assert np.all(gamma[:6] > 0)
    assert np.all(gamma[6:] == 0.0)


def test_gamma_requires_single_root():
    g = topologies.wc_two_root_14()
    with pytest.raises(SpectralError, match="root"):
        gamma_left_eigenvector(laplacian(g), scc_decompose(g))


def test_gamma_per_cluster_covers_each_root():
    g = topologies.wc_two_root_14()
    lap = laplacian(g)
    scc = scc_decompose(g)
    gammas = gamma_per_cluster(lap, scc)
    assert set(gammas) == set(scc.root_components)
    for k, gam in gammas.items():
        assert frozenset(np.flatnonzero(gam).tolist()) == scc.components[k]
        # each gamma annihilates the Laplacian from the left
        assert np.abs(gam @ lap).max() < 1e-10
        assert gam.sum() == pytest.approx(1.0)


def gamma_lstsq_reference(lap, scc, comp):
    """Gamma of one root SCC by least squares on the stacked (r + 1) x r
    system [block^T; 1^T] g = e_{r+1}, padded with zeros and summing to one."""
    idx = np.asarray(sorted(scc.components[comp]))
    block = lap[np.ix_(idx, idx)]
    a = np.vstack([block.T, np.ones((1, len(idx)))])
    b = np.zeros(len(idx) + 1)
    b[-1] = 1.0
    gamma = np.zeros(len(lap))
    gamma[idx] = np.linalg.lstsq(a, b, rcond=None)[0]
    return gamma / gamma.sum()


@given(
    st.integers(min_value=2, max_value=60),
    st.sampled_from(["sc", "qsc"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_gamma_square_solve_matches_least_squares(n, kind, seed):
    rng = np.random.default_rng(seed)
    make = topologies.random_sc if kind == "sc" else topologies.random_qsc
    w = np.asarray(make(n, rng).weights)
    # in-link weights spread over two decades, so the graph is far from balanced
    g = new_digraph(w * 10.0 ** rng.uniform(-1.0, 1.0, size=(n, 1)))
    lap = laplacian(g)
    scc = scc_decompose(g)
    (root,) = scc.root_components
    ref = gamma_lstsq_reference(lap, scc, root)
    gamma = gamma_left_eigenvector(lap, scc)
    assert np.array_equal(gamma != 0.0, ref != 0.0)
    assert np.abs(gamma - ref).max() <= 1e-12 * np.abs(ref).max()


def test_gamma_solve_reports_a_singular_block():
    # a block with no links is not strongly connected: every equation is 0 = 0
    with pytest.raises(SpectralError, match="left null-space solve failed"):
        spectral._left_null_positive(np.zeros((3, 3)), residual_tol=1e-10)


# ---------------------------------------------------------------- rates


def test_rate_no_delay_ring_value():
    # spectrum of the ring Laplacian: {0, 1.5 +/- j sqrt(3)/2}
    g = ring3()
    est = rate_no_delay(laplacian(g), scc_decompose(g))
    assert est == pytest.approx(-1.5, abs=1e-12)


def test_rate_no_delay_rejects_multi_root():
    g = topologies.wc_two_root_14()
    with pytest.raises(SpectralError):
        rate_no_delay(laplacian(g), scc_decompose(g))


def test_kappa_bound_ordering_on_random_sc(rng):
    for _ in range(15):
        g = topologies.random_sc(int(rng.integers(3, 9)), rng)
        lap = laplacian(g)
        scc = scc_decompose(g)
        gamma = gamma_left_eigenvector(lap, scc)
        kappa = rate_kappa_bound(lap, scc, gamma)
        r = rate_no_delay(lap, scc)
        assert r <= kappa < 0.0
        assert rate_kappa_bound(lap, scc, gamma, r) == kappa
        with pytest.raises(SpectralError, match="rate bound violated"):
            rate_kappa_bound(lap, scc, gamma, no_delay_rate=0.5 * kappa)


def test_kappa_matrix_equals_the_dense_products_byte_for_byte(rng, monkeypatch):
    # the scaled Laplacians of the demo, of random SC graphs with non-uniform
    # c and of a run-n300-style netgen graph, with the gamma * c that run uses
    cases = [(topologies.sc_14(), np.ones(14))]
    cases += [(g, rng.uniform(0.5, 2.0, g.n))
              for g in (topologies.random_sc(int(rng.integers(3, 30)), rng) for _ in range(10))]
    _, g300, _ = experiments.random_network(
        {"n": 300, "d_side": 7.75, "tau_max": 0.05, "threshold": 0.5}, 301)
    cases.append((g300, rng.uniform(0.5, 1.5, 300)))
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.copy()) or eigvalsh(a))
    for g, c in cases:
        lap = (5.0 / c)[:, None] * laplacian(g)
        scc = scc_decompose(g)
        gamma = gamma_left_eigenvector(laplacian(g), scc) * c
        kappa = rate_kappa_bound(lap, scc, gamma)
        dg = np.diag(gamma / np.abs(gamma).max())
        dense = 0.5 * (dg @ lap + lap.T @ dg)
        assert seen.pop().tobytes() == dense.tobytes()
        assert kappa == -float(eigvalsh(dense)[1])


def test_kappa_bound_sc_only():
    g = topologies.qsc_three_scc_14()
    lap = laplacian(g)
    scc = scc_decompose(g)
    with pytest.raises(SpectralError, match="SC"):
        rate_kappa_bound(lap, scc, gamma_left_eigenvector(lap, scc))


# ------------------------------------------------------- characteristic func


def test_characteristic_function_two_node_oracle():
    # mutual unit link, zero delay, unit gains: p(s) = s (s + 2)
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = new_digraph(w)
    delays = DelayMatrix.zero(2)
    k = np.ones(2)
    for s in (0.0, 1.0, -2.0, 0.5 + 1.0j):
        expected = s * (s + 2.0)
        assert characteristic_function(s, g, delays, k) == pytest.approx(expected)


def test_characteristic_function_root_at_zero_with_delays(rng):
    for _ in range(20):
        g = random_sparse(rng, int(rng.integers(2, 8)))
        n = g.n
        delays = DelayMatrix(tau=rng.uniform(0.0, 0.3, size=(n, n)))
        k = rng.uniform(0.5, 2.0, size=n)
        p0 = characteristic_function(0.0, g, delays, k)
        assert abs(p0) <= 1e-10 * characteristic_scale(g, k)


def test_characteristic_function_rejects_bad_gains():
    g = ring3()
    with pytest.raises(ValueError):
        characteristic_function(0.0, g, DelayMatrix.zero(3), np.array([1.0, -1.0, 1.0]))


def test_row_sum_bound_below_one_off_zero(rng):
    # max_i sum_j |H_ij(jw)| / |jw + Delta_i| is 1 at w = 0, < 1 elsewhere
    for _ in range(10):
        g = random_sparse(rng, 6, p=0.6)
        k = rng.uniform(0.5, 2.0, size=6)
        delta = k * g.weights.sum(axis=1)
        active = delta > 0
        for omega in rng.uniform(0.05, 20.0, size=10):
            rho = (k * g.weights.sum(axis=1))[active] / np.abs(
                1j * omega + delta[active]
            )
            assert rho.max() < 1.0
        rho0 = delta[active] / np.abs(delta[active])
        assert np.allclose(rho0, 1.0)


# ---------------------------------------------------------------- empirical


def test_empirical_rate_requires_synchronized_trajectory():
    g = ring3()
    cfg = SimConfig(t_step=1e-3, horizon=50)
    traj = simulate(g, DelayMatrix.zero(3), cfg, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(SpectralError, match="synchroni"):
        empirical_rate(traj, 2.0)


def chain4():
    """Tree digraph: triangular Laplacian, real spectrum {0, 0.8, 1.7, 2.5}."""
    w = np.zeros((4, 4))
    w[1, 0], w[2, 1], w[3, 2] = 0.8, 1.7, 2.5
    return new_digraph(w)


def test_empirical_rate_matches_spectrum_on_chain():
    g = chain4()
    cfg = SimConfig(t_step=1e-3, horizon=30_000)
    gv = np.array([1.0, 1.5, 0.7, 1.2])
    traj = simulate(g, DelayMatrix.zero(4), cfg, gv)
    detect_sync_auto(traj, cfg, omega_scale=1.0)
    slope, _ = empirical_rate(traj, 1.0)
    assert slope == pytest.approx(-0.8, rel=0.1)


def test_empirical_rate_of_identical_columns_is_the_single_run_rate():
    g, gv = chain4(), np.array([1.0, 1.5, 0.7, 1.2])
    cfg = SimConfig(t_step=1e-3, horizon=12_000)
    delays = DelayMatrix.uniform(4, 5e-3)
    single = simulate(g, delays, cfg, gv)
    detect_sync_auto(single, cfg, omega_scale=1.0)
    columns = simulate(g, delays, cfg, np.column_stack([gv, gv]))
    detect_sync_auto(columns, cfg, omega_scale=1.0)
    rate = empirical_rate(single, 1.0)
    assert rate[0] < 0.0
    assert empirical_rate(columns, [1.0, 1.0]) == rate
    assert empirical_rate(columns, 1.0) == rate


def test_empirical_rate_of_a_vector_run_is_finite():
    g = chain4()
    q = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 3.0]], np.eye(2),
                  [[1.5, -0.2], [-0.2, 0.8]]])
    gv = np.array([[1.0, -0.5], [1.5, 0.2], [0.7, 0.0], [1.2, 2.0]])
    cfg = SimConfig(t_step=1e-3, k_gain=5.0, horizon=12_000)
    delays = DelayMatrix.uniform(4, 5e-3)
    pred = predict_consensus(g, delays, cfg, gv, q_mats=q, quantize_delays=True)
    traj = simulate(g, delays, cfg, gv, q_mats=q)
    detect_sync_auto(traj, cfg, omega_scale=float(np.abs(pred.omega_star).max()))
    slope, resid = empirical_rate(traj, pred.omega_star)
    assert np.isfinite(slope) and np.isfinite(resid)
    assert slope < 0.0


RECORD_SHAPES = {"scalar": lambda n, L: (n,), "column": lambda n, L: (n, L),
                 "vector": lambda n, L: (n, L, L)}


@given(st.sampled_from(sorted(RECORD_SHAPES)), st.integers(1, 6), st.integers(1, 3),
       st.integers(1, 12), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_max_deviation_equals_the_plain_formula_bit_for_bit(kind, n, L, samples, scalar, data):
    """err(t) from running node maxima and minima equals max |d - omega|
    over each sample's entries, omega paired with the last axis."""
    shape = (samples, *RECORD_SHAPES[kind](n, L))
    size = 1 if scalar or kind == "scalar" else L  # one omega, or one per coordinate
    omega = np.asarray(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=size,
                                          max_size=size)))
    # values far off, and values a few ulps from omega, where rounding decides
    near = st.tuples(st.sampled_from(omega.tolist()), st.integers(-4, 4)).map(
        lambda p: p[0] + p[1] * np.spacing(p[0]))
    value = st.one_of(st.floats(-1e300, 1e300), near, st.sampled_from([0.0, -0.0]))
    d = np.array(data.draw(st.lists(value, min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape))))).reshape(shape)
    want = np.abs(d - omega).reshape(samples, -1).max(axis=1)
    assert spectral._max_deviation(d, omega).tobytes() == want.tobytes()


def synchronized_record(t, err):
    """A two-node record, marked as globally synchronized, whose derivatives
    lie err(t) off omega* = 0."""
    d = np.column_stack([err, -err])
    sync = SyncResult(clusters=[], unclustered=frozenset(), global_sync=True, tol=1.0, window=2)
    return Trajectory(times=t, states=np.zeros_like(d), derivatives=d, t_step=t[1], clusters=sync)


def test_empirical_rate_fits_every_point_above_the_floor_when_the_band_is_short():
    # the error falls below half its post-transient peak only in its last
    # 6 samples, so the fit takes every sample after the transient (from 2)
    t = np.arange(40) * 0.025
    err = np.exp(-t**2)
    assert (err[2:] < 0.5 * err[2:].max()).sum() == 6
    x, y = t[2:], np.log(err[2:])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    assert empirical_rate(synchronized_record(t, err), 0.0) == (slope, resid)
    assert slope != np.polyfit(x[-6:], y[-6:], 1)[0]  # the band's own fit


def test_empirical_rate_is_zero_with_fewer_than_two_points_above_the_floor():
    # after the transient (from sample 2) only sample 2 lies above the floor
    err = np.zeros(40)
    err[:3] = 0.5
    assert empirical_rate(synchronized_record(np.arange(40) * 0.025, err), 0.0) == (0.0, 0.0)


def test_empirical_rate_degenerate_on_flat_start():
    g = ring3()
    cfg = SimConfig(t_step=1e-3, horizon=500)
    gv = np.ones(3)
    traj = simulate(g, DelayMatrix.zero(3), cfg, gv)
    detect_sync_auto(traj, cfg, omega_scale=1.0)
    assert empirical_rate(traj, 1.0) == (0.0, 0.0)
