"""Local estimators, detection statistics, and the fusion reference."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsync.stats import (
    GlrtModel,
    LinearObsModel,
    ModelError,
    blue_local,
    centralized_blue,
    consensus_function,
    consensus_function_vector,
    glrt_local,
    glrt_network,
)


def scalar_model(a, sigma2, y):
    return LinearObsModel(
        a_mat=np.array([[float(a)]]),
        r_cov=np.array([[float(sigma2)]]),
        y=np.array([float(y)]),
    )


# ---------------------------------------------------------------- blue


def test_blue_local_scalar_hand_values():
    g, c = blue_local(scalar_model(a=2.0, sigma2=1.0, y=2.0))
    assert g[0] == pytest.approx(1.0)  # y / a
    assert c[0, 0] == pytest.approx(4.0)  # a^2 / sigma^2


def test_centralized_blue_two_node_hand_value():
    # node weights 1 and 4, local estimates 2 and 1 -> (1*2 + 4*1)/5 = 1.2
    models = [scalar_model(1.0, 1.0, 2.0), scalar_model(2.0, 1.0, 2.0)]
    assert centralized_blue(models)[0] == pytest.approx(1.2)


def test_blue_local_matches_weighted_least_squares_oracle():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(6, 2))
    r = np.diag(rng.uniform(0.5, 2.0, size=6))
    y = rng.normal(size=6)
    g, c = blue_local(LinearObsModel(a_mat=a, r_cov=r, y=y))
    rinv = np.linalg.inv(r)
    oracle = np.linalg.solve(a.T @ rinv @ a, a.T @ rinv @ y)
    np.testing.assert_allclose(g, oracle, atol=1e-10)
    np.testing.assert_allclose(c, a.T @ rinv @ a, atol=1e-10)


def test_blue_local_rejects_rank_deficient_mixing():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    m = LinearObsModel(a_mat=a, r_cov=np.eye(3), y=np.ones(3))
    with pytest.raises(ModelError, match="rank"):
        blue_local(m)


def test_blue_local_rejects_indefinite_covariance():
    m = LinearObsModel(
        a_mat=np.array([[1.0], [1.0]]),
        r_cov=np.array([[1.0, 2.0], [2.0, 1.0]]),
        y=np.ones(2),
    )
    with pytest.raises(ModelError, match="positive definite"):
        blue_local(m)


def test_centralized_equals_vector_consensus_function():
    rng = np.random.default_rng(4)
    models = []
    for _ in range(5):
        a = rng.normal(size=(4, 2))
        r = np.diag(rng.uniform(0.5, 1.5, 4))
        models.append(LinearObsModel(a_mat=a, r_cov=r, y=rng.normal(size=4)))
    pairs = [blue_local(m) for m in models]
    gv = np.array([p[0] for p in pairs])
    cm = np.array([p[1] for p in pairs])
    fused = consensus_function_vector(lambda v: v, gv, cm)
    np.testing.assert_allclose(fused, centralized_blue(models), atol=1e-10)


# ---------------------------------------------------------------- glrt


def test_glrt_statistic_at_twice_noise_floor():
    # mean energy 2 sigma^2 gives statistic 1 - ln 2
    m = GlrtModel(samples=np.array([np.sqrt(2.0), -np.sqrt(2.0)]), sigma_w2=1.0)
    assert glrt_local(m) == pytest.approx(1.0 - np.log(2.0))


def test_glrt_zero_when_energy_below_noise_floor():
    m = GlrtModel(samples=np.array([0.5, -0.5]), sigma_w2=1.0)
    assert glrt_local(m) == pytest.approx(0.0)


def test_glrt_requires_positive_noise_variance():
    with pytest.raises(ModelError):
        glrt_local(GlrtModel(samples=np.ones(3), sigma_w2=0.0))


@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=8))
@settings(max_examples=60, deadline=None)
def test_glrt_monotone_in_energy(energies):
    # statistic is nondecreasing in the mean sample energy
    sigma2 = 0.7
    stats = []
    for e in sorted(energies):
        samples = np.array([np.sqrt(e), -np.sqrt(e)])
        stats.append(glrt_local(GlrtModel(samples=samples, sigma_w2=sigma2)))
    assert all(b >= a - 1e-12 for a, b in zip(stats, stats[1:]))
    assert all(s >= -1e-12 for s in stats)


def test_glrt_network_is_sum_of_locals():
    ms = [GlrtModel(samples=np.full(4, v), sigma_w2=0.5) for v in (0.2, 1.0, 2.5)]
    assert glrt_network(ms) == pytest.approx(sum(glrt_local(m) for m in ms))


# ---------------------------------------------------------------- fusion hook


def test_consensus_function_weighted_mean_and_hook():
    g = np.array([1.0, 2.0, 3.0])
    c = np.array([1.0, 1.0, 2.0])
    assert consensus_function(lambda v: v, g, c) == pytest.approx(2.25)
    assert consensus_function(lambda v: v**2, g, c) == pytest.approx(2.25**2)


def test_consensus_function_overflows_to_inf_without_a_warning():
    # forcing near the float limit: the run that follows reports the
    # overflow as a numerical error, so nothing is printed here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert consensus_function(lambda v: v, np.full(3, 1e308), np.ones(3)) == np.inf
        assert np.isnan(consensus_function(lambda v: v, [1e308, -1e308, 1e308], [2.0, 2.0, 1.0]))


def test_consensus_function_rejects_nonpositive_weights():
    with pytest.raises(ModelError):
        consensus_function(lambda v: v, np.ones(2), np.array([1.0, 0.0]))
