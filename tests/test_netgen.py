"""Geometry, fading channels, and propagation delays."""

import math
from dataclasses import replace

import numpy as np
import pytest

from selfsync import substreams
from selfsync.digraph import new_digraph
from selfsync.netgen import (
    DelayMatrix,
    NodeGeometry,
    channel_pathloss,
    check_delays,
    channel_rayleigh,
    delays_from_geometry,
    place_nodes,
    speed_for_max_delay,
    threshold_prune,
)


def longest_delay(delays):
    """The largest delay between two distinct nodes: the longest link delay
    of the complete digraph."""
    n = len(delays.tau)
    return check_delays(new_digraph(np.ones((n, n)) - np.eye(n)), delays).max()


def two_node_geometry(d=2.0, powers=(1.0, 4.0)):
    pos = np.array([[0.0, 0.0], [d, 0.0]])
    dist = np.array([[0.0, d], [d, 0.0]])
    return NodeGeometry(positions=pos, distances=dist, powers=np.asarray(powers, float))


# ---------------------------------------------------------------- placement


def test_place_nodes_deterministic_and_in_square():
    a = place_nodes(25, 3.0, rng_seed=9)
    b = place_nodes(25, 3.0, rng_seed=9)
    assert np.array_equal(a.positions, b.positions)
    assert a.positions.min() >= 0.0 and a.positions.max() <= 3.0
    assert np.array_equal(a.distances, a.distances.T)
    assert np.all(np.diag(a.distances) == 0.0)


def test_place_nodes_distances_euclidean():
    geom = place_nodes(6, 2.0, rng_seed=1)
    i, j = 2, 5
    expected = np.linalg.norm(geom.positions[i] - geom.positions[j])
    assert geom.distances[i, j] == pytest.approx(expected)


def test_place_nodes_rejects_bad_input():
    with pytest.raises(ValueError):
        place_nodes(0, 1.0, rng_seed=0)
    with pytest.raises(ValueError):
        place_nodes(3, -1.0, rng_seed=0)
    with pytest.raises(ValueError):
        place_nodes(3, 1.0, rng_seed=0, powers=0.0)


def test_speed_for_max_delay_hits_target():
    geom = place_nodes(10, 4.0, rng_seed=2)
    scaled = speed_for_max_delay(geom, tau_max=0.1)
    assert longest_delay(delays_from_geometry(scaled)) == pytest.approx(0.1)


@pytest.mark.parametrize("nodes, tau_max", [(10, 0.0), (10, -0.1), (1, 0.1)])
def test_speed_for_max_delay_needs_distinct_nodes_and_a_positive_delay(nodes, tau_max):
    # a single node has no distinct pair: its largest distance is 0
    with pytest.raises(ValueError, match="need distinct nodes and tau_max > 0"):
        speed_for_max_delay(place_nodes(nodes, 4.0, rng_seed=2), tau_max)


# ---------------------------------------------------------------- channels


def test_channel_rayleigh_deterministic_positive():
    geom = place_nodes(8, 2.0, rng_seed=4)
    a = channel_rayleigh(geom, rng_seed=7)
    b = channel_rayleigh(geom, rng_seed=7)
    assert np.array_equal(a.weights, b.weights)
    off = ~np.eye(8, dtype=bool)
    assert np.all(a.weights[off] > 0.0)
    assert np.all(np.diag(a.weights) == 0.0)
    c = channel_rayleigh(geom, rng_seed=8)
    assert not np.array_equal(a.weights, c.weights)


def test_channel_rayleigh_asymmetric():
    geom = place_nodes(6, 2.0, rng_seed=4)
    w = channel_rayleigh(geom, rng_seed=7).weights
    assert not np.allclose(w, w.T)


def test_channel_rayleigh_second_moment():
    # E[a_ij^2] = P_j / (1 + d_ij^2), checked by Monte Carlo over seeds
    geom = two_node_geometry(d=2.0, powers=(1.0, 4.0))
    draws = np.array(
        [channel_rayleigh(geom, rng_seed=s).weights[0, 1] for s in range(4000)]
    )
    expected = 4.0 / (1.0 + 4.0)
    assert np.mean(draws**2) == pytest.approx(expected, rel=0.05)


def test_channel_rayleigh_per_link_substreams():
    # adding a node leaves the weight of an existing link unchanged
    pos3 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    d3 = np.sqrt(((pos3[:, None] - pos3[None]) ** 2).sum(-1))
    g3 = NodeGeometry(positions=pos3, distances=d3, powers=np.ones(3))
    pos4 = np.vstack([pos3, [2.0, 2.0]])
    d4 = np.sqrt(((pos4[:, None] - pos4[None]) ** 2).sum(-1))
    g4 = NodeGeometry(positions=pos4, distances=d4, powers=np.ones(4))
    w3 = channel_rayleigh(g3, rng_seed=5).weights
    w4 = channel_rayleigh(g4, rng_seed=5).weights
    assert np.array_equal(w3, w4[:3, :3])


def per_link_rayleigh(geom, seed):
    """The reference draw: one SeedSequence and one Generator per link."""
    n = geom.n
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            sigma2 = geom.powers[j] / (1.0 + geom.distances[i, j] ** 2)
            rng = np.random.default_rng(np.random.SeedSequence([seed, i, j]))
            w[i, j] = rng.rayleigh(np.sqrt(sigma2 / 2.0))
    return w


def redrawn_links(geom, seed):
    """Links whose exponential leaves the ziggurat's fast path."""
    i, j = np.nonzero(~np.eye(geom.n, dtype=bool))
    tables = substreams._exponential_tables()
    return int((~substreams._fast_draws(seed, i, j, 1.0, tables)[1]).sum())


def assert_per_link_equal(geom, seed):
    w = channel_rayleigh(geom, rng_seed=seed).weights
    assert w.tobytes() == per_link_rayleigh(geom, seed).tobytes()


def test_channel_rayleigh_fast_path_active_on_installed_numpy():
    assert substreams._exponential_tables() is not None


ORACLE_SEEDS = {1: range(3), 2: range(200), 3: range(200), 40: range(6), 300: [1]}


@pytest.mark.parametrize("n", ORACLE_SEEDS)
def test_channel_rayleigh_equals_per_link_substreams(n):
    redrawn = 0
    for seed in ORACLE_SEEDS[n]:
        geom = place_nodes(n, float(np.sqrt(n / 5.0)), rng_seed=seed)
        assert_per_link_equal(geom, seed + 1)
        redrawn += redrawn_links(geom, seed + 1)
    if n >= 40:
        assert redrawn > 0  # the sample exercises the per-link redraw


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
def test_channel_rayleigh_equals_per_link_at_seed_word_edges(seed):
    geom = place_nodes(12, 2.0, rng_seed=5, powers=np.linspace(0.2, 4.0, 12))
    assert_per_link_equal(geom, seed)


def test_channel_rayleigh_per_link_everywhere_when_fast_path_disabled(monkeypatch):
    monkeypatch.setattr(substreams, "_exponential_tables", lambda: None)
    geom = place_nodes(9, 2.0, rng_seed=2, powers=np.linspace(0.5, 2.0, 9))
    assert_per_link_equal(geom, 77)


def test_channel_rayleigh_negative_seed_raises_as_numpy():
    geom = place_nodes(3, 2.0, rng_seed=0)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        channel_rayleigh(geom, rng_seed=-1)
    # with no link there is no draw, so nothing raises, as before
    assert channel_rayleigh(place_nodes(1, 2.0, rng_seed=0), rng_seed=-1).n == 1


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
def test_channel_rayleigh_takes_one_pow_per_pair_of_symmetric_distances(monkeypatch, symmetric):
    geom = place_nodes(9, 2.0, rng_seed=6, powers=np.linspace(0.5, 2.0, 9))
    if not symmetric:
        # a hand-built geometry whose receivers hear their senders farther off, row by row
        geom = replace(geom, distances=geom.distances * np.linspace(1.0, 1.3, 9)[:, None])
    want = per_link_rayleigh(geom, 11)
    calls, power = [], math.pow
    monkeypatch.setattr(math, "pow", lambda x, y: calls.append(x) or power(x, y))
    w = channel_rayleigh(geom, rng_seed=11).weights
    assert len(calls) == (9 * 10 // 2 if symmetric else 9 * 9)
    assert w.tobytes() == want.tobytes()


def test_channel_rayleigh_pinned_weights():
    # drawn by the per-link SeedSequence loop; a stream change must not pass silently
    geom = place_nodes(4, 2.0, rng_seed=3, powers=[1.0, 2.0, 0.5, 3.0])
    w = channel_rayleigh(geom, rng_seed=2024).weights
    assert w[0, 1] == 0.8123181625986464
    assert w[1, 0] == 0.25846889400373074
    assert w[2, 3] == 1.0584637473053415
    assert w[3, 2] == 0.28177311029135343


def test_channel_pathloss_formula():
    geom = two_node_geometry(d=2.0, powers=(1.0, 4.0))
    g = channel_pathloss(geom, fading=0.5)
    # a_01 = sqrt(P_1 h^2 / d^2) = sqrt(4 * 0.25 / 4) = 0.5
    assert g.weights[0, 1] == pytest.approx(0.5)
    # a_10 = sqrt(P_0 h^2 / d^2) = sqrt(1 * 0.25 / 4) = 0.25
    assert g.weights[1, 0] == pytest.approx(0.25)


def test_channel_pathloss_zero_distance_error():
    pos = np.zeros((2, 2))
    geom = NodeGeometry(positions=pos, distances=np.zeros((2, 2)), powers=np.ones(2))
    with pytest.raises(ValueError, match="distance"):
        channel_pathloss(geom, fading=1.0)


def test_threshold_prune():
    w = np.array([[0.0, 0.2, 0.9], [0.5, 0.0, 0.1], [0.3, 0.7, 0.0]])
    pruned = threshold_prune(new_digraph(w), 0.3)
    expected = np.array([[0.0, 0.0, 0.9], [0.5, 0.0, 0.0], [0.3, 0.7, 0.0]])
    assert np.array_equal(pruned.weights, expected)
    with pytest.raises(ValueError):
        threshold_prune(new_digraph(w), -0.1)


# ---------------------------------------------------------------- delays


def test_delays_from_geometry_distance_over_speed():
    geom = two_node_geometry(d=3.0)
    geom = NodeGeometry(
        positions=geom.positions, distances=geom.distances, powers=geom.powers, speed=1.5
    )
    d = delays_from_geometry(geom)
    assert d.tau[0, 1] == pytest.approx(2.0)
    assert np.array_equal(d.tau, d.tau.T)
    assert np.all(np.diag(d.tau) == 0.0)


def test_delays_with_offsets():
    geom = two_node_geometry(d=1.0)
    off = np.array([[0.0, 0.5], [0.25, 0.0]])
    geom = NodeGeometry(
        positions=geom.positions,
        distances=geom.distances,
        powers=geom.powers,
        offsets=off,
    )
    d = delays_from_geometry(geom)
    assert d.tau[0, 1] == pytest.approx(1.5)
    assert d.tau[1, 0] == pytest.approx(1.25)


def test_delays_reject_negative_offsets():
    geom = two_node_geometry(d=1.0)
    geom = NodeGeometry(
        positions=geom.positions,
        distances=geom.distances,
        powers=geom.powers,
        offsets=np.array([[0.0, -0.1], [0.0, 0.0]]),
    )
    with pytest.raises(ValueError):
        delays_from_geometry(geom)


def test_delay_matrix_constructors():
    u = DelayMatrix.uniform(3, 0.2)
    assert longest_delay(u) == pytest.approx(0.2)
    assert np.all(np.diag(u.tau) == 0.0)
    z = DelayMatrix.zero(4)
    assert longest_delay(z) == 0.0
