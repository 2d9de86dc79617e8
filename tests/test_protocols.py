"""Consensus prediction, bias-removal protocols, and intercepts."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsync import digraph, experiments, protocols, spectral, topologies
from selfsync.dde_sim import DelayMatrix, SimConfig, detect_sync_auto, simulate
from selfsync.digraph import laplacian, new_digraph, scc_decompose
from selfsync.protocols import (
    ProtocolError,
    gamma_estimation_protocol,
    predict_consensus,
    predict_intercepts,
    two_step_unbias,
)
from selfsync.spectral import gamma_left_eigenvector, gamma_per_cluster
from selfsync.stats import LinearObsModel, blue_local, centralized_blue


def ring3(weight=1.0):
    w = np.zeros((3, 3))
    w[1, 0] = w[2, 1] = w[0, 2] = weight
    return new_digraph(w)


# ---------------------------------------------------------------- prediction


def test_predict_ring_hand_value():
    # unit weights and c, K = 30, tau = 0.05: denominator 3 + 30*0.15 = 7.5
    g = ring3()
    cfg = SimConfig(t_step=1e-3, k_gain=30.0)
    gv = np.array([0.9, 1.1, 1.3])
    pred = predict_consensus(g, DelayMatrix.uniform(3, 0.05), cfg, gv)
    assert pred.omega_star == pytest.approx(gv.sum() / 7.5)
    assert pred.clusters[0].gamma_q_sum == pytest.approx(1.0)
    # sum-normalized gamma: K * sum_i gamma_i a_ij tau_ij = 30 * 0.05
    assert pred.clusters[0].delay_term == pytest.approx(1.5)


def test_predict_zero_delay_reduces_to_weighted_mean():
    g = ring3()
    cfg = SimConfig(k_gain=5.0, c_weights=np.array([1.0, 2.0, 3.0]))
    gv = np.array([2.0, 1.0, 4.0])
    pred = predict_consensus(g, DelayMatrix.zero(3), cfg, gv)
    # gamma is uniform on a balanced ring, so this is the c-weighted mean
    assert pred.omega_star == pytest.approx((2.0 + 2.0 + 12.0) / 6.0)


def test_predict_rejects_non_qsc():
    g = topologies.wc_two_root_14()
    cfg = SimConfig()
    with pytest.raises(ProtocolError, match="QSC"):
        predict_consensus(g, DelayMatrix.zero(14), cfg, np.ones(14)).omega_star


def test_predict_clusters_on_two_root_digraph():
    g = topologies.wc_two_root_14()
    cfg = SimConfig(k_gain=2.0)
    gv = np.arange(14, dtype=float)
    pred = predict_consensus(g, DelayMatrix.uniform(14, 0.01), cfg, gv)
    assert len(pred.clusters) == 2
    node_sets = {cl.nodes for cl in pred.clusters}
    assert node_sets == {frozenset(range(5)), frozenset(range(5, 10))}
    assert pred.unpredicted == frozenset(range(10, 14))
    with pytest.raises(ProtocolError, match="not QSC"):
        pred.omega_star


def test_prediction_matches_long_simulation():
    g = topologies.sc_14()
    cfg = SimConfig(t_step=1e-3, k_gain=30.0, horizon=8000)
    rng = np.random.default_rng(0)
    gv = rng.normal(1.0, 0.2, 14)
    delays = DelayMatrix.uniform(14, 0.05)
    pred = predict_consensus(g, delays, cfg, gv, quantize_delays=True)
    traj = simulate(g, delays, cfg, gv)
    sync = detect_sync_auto(traj, cfg, omega_scale=pred.omega_star)
    assert sync.global_sync
    measured = float(sync.clusters[0].value)
    assert measured == pytest.approx(pred.omega_star, rel=1e-4)


def test_quantized_prediction_uses_grid_delays():
    g = ring3()
    cfg = SimConfig(t_step=1e-3, k_gain=30.0)
    gv = np.ones(3)
    raw = predict_consensus(g, DelayMatrix.uniform(3, 0.0506), cfg, gv)
    quant = predict_consensus(
        g, DelayMatrix.uniform(3, 0.0506), cfg, gv, quantize_delays=True
    )
    exact = predict_consensus(g, DelayMatrix.uniform(3, 0.051), cfg, gv)
    assert quant.omega_star == pytest.approx(exact.omega_star, rel=1e-14)
    assert raw.omega_star != quant.omega_star


def test_vector_prediction_matches_vector_simulation():
    rng = np.random.default_rng(5)
    n = 6
    g = topologies.random_sc(n, rng)
    delays = DelayMatrix.uniform(n, 0.02)
    cfg = SimConfig(t_step=1e-3, k_gain=40.0, horizon=12_000)
    models = []
    xi = np.array([1.0, -0.5])
    for _ in range(n):
        a = rng.uniform(0.5, 1.5, size=(4, 2))
        r = np.diag(rng.uniform(0.1, 0.3, 4))
        y = a @ xi + rng.multivariate_normal(np.zeros(4), r)
        models.append(LinearObsModel(a_mat=a, r_cov=r, y=y))
    pairs = [blue_local(m) for m in models]
    gv = np.array([p[0] for p in pairs])
    qm = np.array([p[1] for p in pairs])
    pred = predict_consensus(g, delays, cfg, gv, q_mats=qm, quantize_delays=True)
    traj = simulate_vector_converged(g, delays, cfg, qm, gv)
    np.testing.assert_allclose(
        traj.derivatives[-1], np.broadcast_to(pred.omega_star, (n, 2)), atol=2e-4
    )
    # zero delays: fused value equals the centralized reference
    nod = predict_consensus(g, DelayMatrix.zero(n), cfg, gv, q_mats=qm)
    gamma = gamma_left_eigenvector(laplacian(g), scc_decompose(g))
    lhs = np.einsum("i,ilm->lm", gamma, qm)
    rhs = np.einsum("i,ilm,im->l", gamma, qm, gv)
    np.testing.assert_allclose(nod.omega_star, np.linalg.solve(lhs, rhs), atol=1e-12)
    assert centralized_blue(models).shape == (2,)


# ---------------------------------------------------------------- predictor oracle


def reference_tau(delays, cfg, quantize):
    tau = np.asarray(delays.tau, dtype=float)
    return np.rint(tau / cfg.t_step) * cfg.t_step if quantize else tau


def reference_consensus(g, delays, cfg, g_values, quantize):
    """The single-root scalar formula: (omega*, sum gamma c, delay term)."""
    scc = scc_decompose(g)
    if len(scc.root_components) != 1:
        raise ProtocolError("global consensus not guaranteed: digraph is not QSC")
    gamma = gamma_left_eigenvector(laplacian(g), scc)
    c = cfg.c_array(g.n)
    gvals = np.broadcast_to(np.asarray(g_values, dtype=float), (g.n,))
    tau = reference_tau(delays, cfg, quantize)
    num = float(np.sum(gamma * c * gvals))
    den1 = float(np.sum(gamma * c))
    den2 = float(cfg.k_gain * np.sum(gamma[:, None] * g.weights * tau))
    return num / (den1 + den2), den1, den2


def reference_clusters(g, delays, cfg, g_values, quantize):
    """Per-root-SCC scalar values {component: (nodes, omega)} and the
    unpredicted nodes."""
    scc = scc_decompose(g)
    gammas = gamma_per_cluster(laplacian(g), scc)
    c = cfg.c_array(g.n)
    gvals = np.broadcast_to(np.asarray(g_values, dtype=float), (g.n,))
    tau = reference_tau(delays, cfg, quantize)
    per_cluster = {}
    for k, gam in gammas.items():
        num = float(np.sum(gam * c * gvals))
        den = float(np.sum(gam * c)) + float(
            cfg.k_gain * np.sum(gam[:, None] * g.weights * tau)
        )
        per_cluster[k] = (scc.components[k], num / den)
    covered = set().union(*(nodes for nodes, _ in per_cluster.values()))
    return per_cluster, frozenset(range(g.n)) - frozenset(covered)


def reference_vector(g, delays, cfg, q, gv, quantize):
    """Single-root vector value (sum gamma Q + I delay term)^-1 sum gamma Q g."""
    scc = scc_decompose(g)
    gamma = gamma_left_eigenvector(laplacian(g), scc)
    tau = reference_tau(delays, cfg, quantize)
    den2 = float(cfg.k_gain * np.sum(gamma[:, None] * g.weights * tau))
    lhs = np.einsum("i,ilm->lm", gamma, q) + den2 * np.eye(q.shape[1])
    rhs = np.einsum("i,ilm,im->l", gamma, q, gv)
    return np.linalg.solve(lhs, rhs)


def oracle_digraph(kind, n, rng):
    if n == 1:
        return new_digraph(np.zeros((1, 1)))
    if kind == "sc":
        return topologies.random_sc(n, rng)
    if kind == "qsc":
        return topologies.random_qsc(n, rng)
    if n >= 6:
        return topologies.random_wc_multiroot(n, rng, n_roots=int(rng.integers(2, n // 3 + 1)))
    return topologies.random_digraph(n, rng, edge_prob=0.2)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=12),
    kind=st.sampled_from(["sc", "qsc", "multi"]),
    quantize=st.booleans(),
    n_cols=st.integers(min_value=1, max_value=4),
    dim=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_unified_predictor_matches_reference_formulas(seed, n, kind, quantize, n_cols, dim):
    rng = np.random.default_rng(seed)
    g = oracle_digraph(kind, n, rng)
    tau = rng.uniform(0.0, 0.05, (n, n)) * (rng.random((n, n)) < 0.8)
    np.fill_diagonal(tau, 0.0)
    delays = DelayMatrix(tau=tau)
    cfg = SimConfig(t_step=1e-3, k_gain=float(rng.uniform(1.0, 30.0)),
                    c_weights=rng.uniform(0.5, 2.0, n))
    gv = rng.normal(1.0, 0.5, n)
    columns = rng.normal(1.0, 0.5, (n, n_cols))

    pred = predict_consensus(g, delays, cfg, gv, quantize_delays=quantize)
    ref_clusters, ref_unpredicted = reference_clusters(g, delays, cfg, gv, quantize)
    assert [cl.component for cl in pred.clusters] == sorted(ref_clusters)
    for cl in pred.clusters:
        nodes, omega = ref_clusters[cl.component]
        assert cl.nodes == nodes
        assert isinstance(cl.omega, float) and cl.omega == omega
    assert pred.unpredicted == ref_unpredicted
    cols = predict_consensus(g, delays, cfg, columns, quantize_delays=quantize)
    for l in range(n_cols):
        one = predict_consensus(g, delays, cfg, columns[:, l], quantize_delays=quantize)
        ref_l, _ = reference_clusters(g, delays, cfg, columns[:, l], quantize)
        for cl_cols, cl_one in zip(cols.clusters, one.clusters, strict=True):
            assert cl_cols.omega.shape == (n_cols,)
            assert cl_cols.omega[l] == cl_one.omega == ref_l[cl_one.component][1]

    if len(ref_clusters) != 1:
        with pytest.raises(ProtocolError, match="not QSC"):
            pred.omega_star
        with pytest.raises(ProtocolError):
            reference_consensus(g, delays, cfg, gv, quantize)
        return
    omega, gamma_c_sum, delay_term = reference_consensus(g, delays, cfg, gv, quantize)
    assert pred.omega_star == omega
    assert pred.clusters[0].gamma_q_sum == gamma_c_sum
    assert pred.clusters[0].delay_term == delay_term
    a = rng.normal(size=(n, dim, dim))
    q = a @ a.transpose(0, 2, 1) + dim * np.eye(dim)
    gvec = rng.normal(1.0, 0.5, (n, dim))
    vec = predict_consensus(g, delays, cfg, gvec, q_mats=q, quantize_delays=quantize)
    np.testing.assert_allclose(
        vec.omega_star, reference_vector(g, delays, cfg, q, gvec, quantize), rtol=1e-12, atol=0
    )


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=13, max_value=200),
    kind=st.sampled_from(["sc", "qsc", "multi"]),
    quantize=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_delay_terms_equal_the_dense_formula_bit_for_bit_past_one_pairwise_block(
    seed, n, kind, quantize
):
    # n * n > 128 entries: numpy's pairwise sum splits the dense array, so
    # the per-link products must sit where the dense formula has them
    rng = np.random.default_rng(seed)
    shape = oracle_digraph(kind, n, rng)
    g = new_digraph(shape.weights * 10.0 ** rng.uniform(-1.5, 1.5, (n, n)))  # three decades
    delays = DelayMatrix(tau=rng.uniform(0.0, 0.05, (n, n)))
    cfg = SimConfig(t_step=1e-3, k_gain=float(rng.uniform(1.0, 30.0)),
                    c_weights=rng.uniform(0.5, 2.0, n))
    gv = rng.normal(1.0, 0.5, n)
    pred = predict_consensus(g, delays, cfg, gv, quantize_delays=quantize)
    ref_clusters, _ = reference_clusters(g, delays, cfg, gv, quantize)
    tau = reference_tau(delays, cfg, quantize)
    for cl in pred.clusters:
        assert cl.omega == ref_clusters[cl.component][1]
        assert cl.delay_term == float(cfg.k_gain * np.sum(cl.gamma[:, None] * g.weights * tau))


def run_n300_network():
    """A digraph and delays made as run-n300's: 300 nodes, about 11k links."""
    cfg = {"n": 300, "d_side": 7.75, "tau_max": 0.05, "threshold": 0.5}
    return experiments.random_network(cfg, 3)[1:]


def test_a_prediction_on_cached_root_gammas_builds_no_weights_and_no_dense_tau():
    g, delays = run_n300_network()
    # g's own gammas, computed on a copy of its links, whose Laplacian builds the weights
    vars(g)["root_gammas"] = digraph.keep_links(g, np.ones(g.dst.size, dtype=bool)).root_gammas
    rng = np.random.default_rng(0)
    cfg = SimConfig(t_step=1e-3, k_gain=5.0, c_weights=rng.uniform(0.5, 2.0, g.n))
    a = rng.normal(size=(g.n, 2, 2))
    q = a @ a.transpose(0, 2, 1) + 2.0 * np.eye(2)
    for g_values, q_mats in ((np.ones(g.n), None), (rng.normal(1.0, 0.5, (g.n, 3)), None),
                             (rng.normal(1.0, 0.5, (g.n, 2)), q)):
        for quantize in (False, True):
            predict_consensus(g, delays, cfg, g_values, q_mats, quantize_delays=quantize)
            assert protocols._effective_tau(g, delays, cfg, quantize).shape == g.dst.shape
    assert "weights" not in vars(g)


def test_a_prediction_holds_about_one_n_by_n_array_above_its_inputs():
    """At n = 300, the sum's zero n x n array (0.72 MB) and a few arrays of
    one value per link; a dense tau and its product with the weights took
    three times that array."""
    g, delays = run_n300_network()
    assert g.root_gammas  # cached, as after a first prediction
    cfg = SimConfig(t_step=1e-3, k_gain=5.0)
    tracemalloc.start()
    try:
        predict_consensus(g, delays, cfg, np.ones(g.n), quantize_delays=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * g.n * g.n * 8


@pytest.mark.parametrize("mode", ["predict", "simulate"])
def test_gamma_protocol_op_solves_gamma_once(monkeypatch, mode):
    calls = {"gamma": 0, "scc": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        spectral, "_gamma_for_component", counting(spectral._gamma_for_component, "gamma")
    )
    monkeypatch.setattr(digraph, "scc_decompose", counting(digraph.scc_decompose, "scc"))
    rng = np.random.default_rng(12)
    g = topologies.random_sc(8, rng)
    cfg = SimConfig(t_step=1e-3, k_gain=15.0, c_weights=rng.uniform(0.5, 2.0, 8))
    gv = rng.normal(1.0, 0.5, 8)
    rep = gamma_estimation_protocol(g, DelayMatrix.uniform(8, 0.02), cfg, gv, mode=mode)
    assert rep.mode == mode
    assert calls["gamma"] == 1
    assert calls["scc"] <= 2
    # a second protocol on the same graph reuses its gamma
    gamma_estimation_protocol(g, DelayMatrix.uniform(8, 0.05), cfg, gv, mode=mode)
    assert calls["gamma"] == 1


def simulate_vector_converged(g, delays, cfg, qm, gv):
    return simulate(g, delays, cfg, gv, q_mats=qm)


# ---------------------------------------------------------------- two-step


def test_two_step_ratio_on_balanced_ring_is_mean():
    g = ring3(0.9)
    cfg = SimConfig(t_step=1e-3, k_gain=12.0)
    gv = np.array([0.4, 1.9, 1.0])
    rep = two_step_unbias(g, DelayMatrix.uniform(3, 0.07), cfg, gv, mode="predict")
    assert rep.ratio == pytest.approx(gv.mean(), rel=1e-12)


def test_two_step_ratio_cancels_delay_denominator():
    rng = np.random.default_rng(8)
    g = topologies.random_sc(7, rng)
    cfg = SimConfig(t_step=1e-3, k_gain=10.0, c_weights=rng.uniform(0.5, 2.0, 7))
    gv = rng.normal(1.0, 0.4, 7)
    gamma = gamma_left_eigenvector(laplacian(g), scc_decompose(g))
    c = cfg.c_array(7)
    target = float(np.sum(gamma * c * gv) / np.sum(gamma * c))
    for tau in (0.0, 0.03, 0.3):
        rep = two_step_unbias(g, DelayMatrix.uniform(7, tau), cfg, gv, mode="predict")
        assert rep.ratio == pytest.approx(target, rel=1e-12)


def test_two_step_simulation_mode_matches_prediction():
    rng = np.random.default_rng(2)
    g = topologies.random_sc(6, rng)
    delays = DelayMatrix.uniform(6, 0.02)
    cfg = SimConfig(t_step=1e-3, k_gain=20.0, horizon=10_000)
    gv = rng.normal(1.0, 0.3, 6)
    sim = two_step_unbias(g, delays, cfg, gv, mode="simulate")
    pred = two_step_unbias(g, delays, cfg, gv, mode="predict")
    assert sim.ratio == pytest.approx(pred.ratio, rel=1e-6)
    assert sim.mode == "simulate"


def test_two_step_rejects_a_unit_forcing_consensus_that_is_numerically_zero():
    # omega_one = sum gamma c / (sum gamma c + K * delay term), about 1e-306 at K = 1e305
    g = topologies.sc_14()
    cfg = SimConfig(t_step=1e-3, k_gain=1e305)
    with pytest.raises(ProtocolError, match="unit-forcing consensus is numerically zero"):
        two_step_unbias(g, DelayMatrix.uniform(14, 0.05), cfg, np.ones(14), mode="predict")


def test_two_step_unknown_mode_rejected():
    g = ring3()
    with pytest.raises(ValueError):
        two_step_unbias(g, DelayMatrix.zero(3), SimConfig(), np.ones(3), mode="wat")


# ---------------------------------------------------------------- protocol


def test_gamma_protocol_recovers_eigenvector_and_target():
    rng = np.random.default_rng(3)
    g = topologies.random_sc(8, rng)
    delays = DelayMatrix.uniform(8, 0.04)
    cfg = SimConfig(t_step=1e-3, k_gain=15.0, c_weights=rng.uniform(0.5, 2.0, 8))
    gv = rng.normal(1.0, 0.5, 8)
    rep = gamma_estimation_protocol(g, delays, cfg, gv, mode="predict")
    gamma = gamma_left_eigenvector(laplacian(g), scc_decompose(g))
    np.testing.assert_allclose(rep.gamma_tilde, gamma, atol=1e-12)
    c = cfg.c_array(8)
    assert rep.ratio == pytest.approx(float(np.sum(c * gv) / np.sum(c)), rel=1e-12)


def test_gamma_protocol_requires_qsc():
    g = topologies.wc_two_root_14()
    with pytest.raises(ProtocolError):
        gamma_estimation_protocol(
            g, DelayMatrix.zero(14), SimConfig(), np.ones(14), mode="predict"
        )


def test_gamma_protocol_leaves_non_root_weights_untouched():
    g = topologies.qsc_three_scc_14()
    cfg = SimConfig(k_gain=5.0, c_weights=np.linspace(1.0, 2.0, 14))
    rep = gamma_estimation_protocol(
        g, DelayMatrix.uniform(14, 0.01), cfg, np.ones(14), mode="predict"
    )
    c = cfg.c_array(14)
    assert np.all(rep.gamma_tilde[6:] == 0.0)
    np.testing.assert_allclose(rep.compensated_c[6:], c[6:])
    assert np.all(rep.compensated_c[:6] != c[:6])


# ---------------------------------------------------------------- delays on links only


def as_bytes(*values) -> bytes:
    return b"".join(np.asarray(v).tobytes() for v in values if v is not None)


def delay_reader_bits(g, delays, quantize):
    """The bytes of what every library reader of delays makes of them on g:
    the predictor (scalar, columns, vector states), the characteristic
    function, a short simulation and, on a QSC digraph, the intercepts and
    the two protocols in predict mode."""
    rng = np.random.default_rng(g.n)
    cfg = SimConfig(t_step=1e-3, k_gain=5.0, c_weights=rng.uniform(0.5, 2.0, g.n), horizon=60)
    gv, columns = rng.normal(1.0, 0.5, g.n), rng.normal(1.0, 0.5, (g.n, 3))
    a = rng.normal(size=(g.n, 2, 2))
    q, gvec = a @ a.transpose(0, 2, 1) + 2.0 * np.eye(2), rng.normal(1.0, 0.5, (g.n, 2))
    bits = [as_bytes(spectral.characteristic_function(0.3 + 1.2j, g, delays,
                                                      cfg.k_gain / cfg.c_array(g.n))),
            as_bytes(simulate(g, delays, cfg, gv).states)]
    for g_values, q_mats in ((gv, None), (columns, None), (gvec, q)):
        pred = predict_consensus(g, delays, cfg, g_values, q_mats, quantize_delays=quantize)
        bits += [as_bytes(cl.omega, cl.gamma_q_sum, cl.delay_term) for cl in pred.clusters]
    if len(g.scc.root_components) == 1:
        bits.append(as_bytes(predict_intercepts(g, delays, cfg, gv, quantize_delays=quantize)))
        for protocol in (two_step_unbias, gamma_estimation_protocol):
            rep = protocol(g, delays, cfg, gv, mode="predict")
            bits.append(as_bytes(rep.omega_y, rep.omega_one, rep.ratio, rep.gamma_tilde,
                                 rep.compensated_c))
    return bits


@pytest.mark.parametrize("junk", [7.5, np.inf, np.nan])
@pytest.mark.parametrize("graph", ["sc", "qsc", "wc", "random_qsc0", "random_qsc1", "random_qsc2"])
def test_delays_off_the_links_are_never_read(graph, junk):
    if graph.startswith("random_qsc"):
        g = topologies.random_qsc(9, np.random.default_rng(int(graph[-1])))
    else:
        g = {"sc": topologies.sc_14, "qsc": topologies.qsc_three_scc_14,
             "wc": topologies.wc_two_root_14}[graph]()
    on_links = np.zeros((g.n, g.n))
    on_links[g.links] = np.random.default_rng(7).uniform(0.0, 0.05, len(g.links[0]))
    # junk everywhere off the links, the diagonal included
    everywhere = np.where(g.weights > 0.0, on_links, junk)
    for quantize in (False, True):
        assert (delay_reader_bits(g, DelayMatrix(tau=everywhere), quantize)
                == delay_reader_bits(g, DelayMatrix(tau=on_links), quantize))


# ---------------------------------------------------------------- intercepts


def test_intercept_differences_match_trajectory_gaps():
    g = ring3()
    delays = DelayMatrix.uniform(3, 0.05)
    cfg = SimConfig(t_step=1e-3, k_gain=30.0, horizon=12_000)
    gv = np.array([1.4, 0.6, 1.1])
    x0 = predict_intercepts(g, delays, cfg, gv, quantize_delays=True)
    pred = predict_consensus(g, delays, cfg, gv, quantize_delays=True)
    traj = simulate(g, delays, cfg, gv)
    gaps = traj.states[-1] - traj.states[-1].mean()
    line = pred.omega_star * traj.times[-1] + x0
    line_gaps = line - line.mean()
    np.testing.assert_allclose(gaps, line_gaps, atol=1e-6)


def test_intercepts_equal_the_dense_formula_with_heterogeneous_delays():
    rng = np.random.default_rng(4)
    g = topologies.random_qsc(30, rng)
    delays = DelayMatrix(tau=rng.uniform(0.0, 0.05, (30, 30)))
    cfg = SimConfig(t_step=1e-3, k_gain=8.0, c_weights=rng.uniform(0.5, 2.0, 30))
    gv, c = rng.normal(1.0, 0.5, 30), cfg.c_array(30)
    omega = predict_consensus(g, delays, cfg, gv).omega_star
    load = (g.weights * delays.tau).sum(axis=1)
    want = np.linalg.pinv(laplacian(g)) @ (c * (gv - omega * (1.0 + cfg.k_gain / c * load)))
    np.testing.assert_allclose(predict_intercepts(g, delays, cfg, gv), want / cfg.k_gain,
                               rtol=1e-12, atol=1e-12 * np.abs(want).max() / cfg.k_gain)


def test_intercepts_require_qsc():
    g = topologies.wc_two_root_14()
    with pytest.raises(ProtocolError):
        predict_intercepts(g, DelayMatrix.zero(14), SimConfig(), np.ones(14))


# ---------------------------------------------------------------- one run per pass


def consensus_value_reference(g, delays, cfg, g_values, mode):
    """One protocol pass as its own simulation, as before passes became columns."""
    pred = predict_consensus(g, delays, cfg, g_values, quantize_delays=(mode == "simulate"))
    if mode == "predict":
        return float(pred.omega_star)
    traj = simulate(g, delays, cfg, g_values)
    sync = detect_sync_auto(traj, cfg, omega_scale=float(pred.omega_star))
    if not sync.global_sync:
        raise ProtocolError("simulation pass did not reach global synchronization")
    return float(next(c.value for c in sync.clusters if len(c.nodes) == g.n))


def two_step_reference(g, delays, cfg, g_values, mode):
    omega_y = consensus_value_reference(g, delays, cfg, g_values, mode)
    omega_one = consensus_value_reference(g, delays, cfg, np.ones(g.n), mode)
    return omega_y, omega_one, omega_y / omega_one


def gamma_protocol_reference(g, delays, cfg, g_values, mode):
    scc = scc_decompose(g)
    root_nodes = sorted(scc.components[scc.root_components[0]])
    cfg_unit = replace(cfg, c_weights=1.0)
    omega_one = consensus_value_reference(g, delays, cfg_unit, np.ones(g.n), mode)
    gamma_tilde = np.zeros(g.n)
    for i in root_nodes:
        e_i = np.zeros(g.n)
        e_i[i] = 1.0
        gamma_tilde[i] = consensus_value_reference(g, delays, cfg_unit, e_i, mode) / omega_one
    c = cfg.c_array(g.n)
    compensated = c.copy()
    pos = gamma_tilde > 0
    compensated[pos] = c[pos] / gamma_tilde[pos]
    scale = np.exp(np.log(c[pos]).mean() - np.log(compensated[pos]).mean())
    compensated[pos] *= scale
    final = two_step_reference(g, delays, replace(cfg, c_weights=compensated), g_values, mode)
    return final, gamma_tilde, compensated


@pytest.mark.parametrize("noise_std, tol_rel", [(0.0, 1e-6), (1e-3, 0.5)])
def test_protocol_columns_equal_one_run_per_pass(noise_std, tol_rel):
    rng = np.random.default_rng(11)
    g = topologies.qsc_three_scc_14()
    delays = DelayMatrix.uniform(14, 0.02)
    cfg = SimConfig(
        t_step=1e-3,
        k_gain=20.0,
        c_weights=rng.uniform(0.5, 2.0, 14),
        horizon=8000,
        noise_std=noise_std,
        rng_seed=9,
        sync_tol_rel=tol_rel,
    )
    gv = rng.normal(1.0, 0.3, 14)
    rep = two_step_unbias(g, delays, cfg, gv, mode="simulate")
    assert (rep.omega_y, rep.omega_one, rep.ratio) == two_step_reference(
        g, delays, cfg, gv, "simulate"
    )
    rep = gamma_estimation_protocol(g, delays, cfg, gv, mode="simulate")
    (omega_y, omega_one, ratio), gamma_tilde, compensated = gamma_protocol_reference(
        g, delays, cfg, gv, "simulate"
    )
    assert (rep.omega_y, rep.omega_one, rep.ratio) == (omega_y, omega_one, ratio)
    assert rep.gamma_tilde.tobytes() == gamma_tilde.tobytes()
    assert rep.compensated_c.tobytes() == compensated.tobytes()
    pred = gamma_estimation_protocol(g, delays, cfg, gv, mode="predict")
    (omega_y, omega_one, ratio), gamma_tilde, _ = gamma_protocol_reference(
        g, delays, cfg, gv, "predict"
    )
    assert (pred.omega_y, pred.omega_one, pred.ratio) == (omega_y, omega_one, ratio)
    assert pred.gamma_tilde.tobytes() == gamma_tilde.tobytes()


def test_protocol_failure_names_column_deviation_tol_and_horizon():
    # the c = 1 estimation pass of the gamma protocol on the QSC demo graph:
    # columns (1, e_i for the 6 root nodes), far from synchronized at 500 steps
    g = topologies.qsc_three_scc_14()
    delays = DelayMatrix.uniform(14, 0.05)
    cfg = SimConfig(t_step=1e-3, k_gain=30.0, horizon=500)
    with pytest.raises(ProtocolError) as err:
        gamma_estimation_protocol(g, delays, cfg, np.linspace(0.8, 1.2, 14), mode="simulate")
    message = str(err.value)
    assert message.startswith("simulation pass did not reach global synchronization in column ")
    col, cols = map(int, re.search(r"in column (\d+) of (\d+):", message).groups())
    assert cols == 7
    # the failing column's own full run, detected as the protocol detects it
    columns = np.zeros((14, 7))
    columns[:, 0] = 1.0
    columns[range(6), range(1, 7)] = 1.0
    omega = predict_consensus(g, delays, cfg, columns[:, col], quantize_delays=True).omega_star
    traj = simulate(g, delays, cfg, columns[:, col])
    sync = detect_sync_auto(traj, cfg, omega_scale=omega)
    assert not sync.global_sync
    d = traj.derivatives[-sync.window :]
    deviation = np.abs(d - d.mean(axis=0)).max()
    assert deviation > sync.tol
    assert message.endswith(
        f": largest node deviation from its window mean {deviation:.3g} "
        f"against tol {sync.tol:.3g} at horizon 500"
    )


def test_protocol_column_without_sync_raises():
    rng = np.random.default_rng(4)
    g = topologies.random_sc(5, rng)
    cfg = SimConfig(t_step=1e-3, k_gain=20.0, horizon=50, sync_tol_rel=1e-9)
    delays = DelayMatrix.uniform(5, 0.02)
    gv = rng.normal(1.0, 0.3, 5)
    with pytest.raises(ProtocolError, match="did not reach global synchronization"):
        two_step_reference(g, delays, cfg, gv, "simulate")
    with pytest.raises(ProtocolError, match="did not reach global synchronization"):
        two_step_unbias(g, delays, cfg, gv, mode="simulate")
    with pytest.raises(ProtocolError, match="did not reach global synchronization"):
        gamma_estimation_protocol(g, delays, cfg, gv, mode="simulate")
