"""Structure layer: validation, degrees, Laplacian, SCC decomposition."""

import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsync import digraph, spectral, topologies
from selfsync.digraph import (
    Connectivity,
    GraphValidationError,
    degrees,
    from_document,
    from_links,
    is_balanced,
    laplacian,
    new_digraph,
    scc_decompose,
    to_document,
)
from selfsync.spectral import gamma_per_cluster
from conftest import classify_bruteforce, scc_partition_bruteforce, tarjan_scc_reference


def ring3(weight=1.0):
    # 0 -> 1 -> 2 -> 0 in data-flow direction
    w = np.zeros((3, 3))
    w[1, 0] = w[2, 1] = w[0, 2] = weight
    return w


# ---------------------------------------------------------------- validation


def test_new_digraph_rejects_non_square():
    with pytest.raises(GraphValidationError, match="square"):
        new_digraph(np.zeros((2, 3)))


def test_new_digraph_rejects_negative_weight_with_location():
    w = np.zeros((3, 3))
    w[2, 1] = -0.5
    with pytest.raises(GraphValidationError, match=r"a\[2,1\]"):
        new_digraph(w)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_new_digraph_rejects_non_finite_weight(value):
    w = np.zeros((3, 3))
    w[0, 1] = value
    with pytest.raises(GraphValidationError, match=rf"a\[0,1\] = {value} is not finite"):
        new_digraph(w)


def test_new_digraph_rejects_self_loop():
    w = np.zeros((2, 2))
    w[1, 1] = 1.0
    with pytest.raises(GraphValidationError, match=r"a\[1,1\]"):
        new_digraph(w)


def test_digraph_weights_are_immutable():
    g = new_digraph(ring3())
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0


def test_new_digraph_keeps_a_copy_of_the_callers_weights():
    w = ring3()
    g = new_digraph(w)
    w[0, 1] = 5.0
    assert "weights" not in vars(g)  # the graph holds links, not w
    assert np.array_equal(g.weights, ring3())


@pytest.mark.parametrize("weight", [[0.5, 7.0], [], np.ones((1, 1))])
def test_from_links_rejects_a_weight_per_edge_mismatch(weight):
    with pytest.raises(GraphValidationError, match="weights for 1 edges"):
        from_links(3, [0], [1], weight)


def test_from_links_puts_a_scalar_weight_on_every_edge():
    g = from_links(3, [0, 1, 2], [2, 0, 1], 0.5)
    assert g.link_weights.tolist() == [0.5, 0.5, 0.5]
    assert np.array_equal(g.weights, ring3(0.5))


def test_from_links_holds_no_n_by_n_array():
    """A sparse ring at n = 1000, whose matrix would take 8 MB: from_links and
    the in-degrees stay under a quarter of that, and the matrix is built
    read-only on first use, once."""
    n = 1000
    dst = np.arange(n)
    tracemalloc.start()
    try:
        g = from_links(n, dst, (dst + 1) % n, np.full(n, 0.5))
        din = g.in_degrees
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * n * n * 8
    assert "weights" not in vars(g) and np.array_equal(din, np.full(n, 0.5))
    assert not g.weights.flags.writeable and g.weights is g.weights
    assert g.weights[0, 1] == 0.5 and g.weights.sum() == 0.5 * n


@given(st.integers(1, 90), st.floats(0.0, 1.0), st.integers(-200, 200), st.integers(1, 9),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_in_and_out_degrees_are_the_sums_of_the_matrix_bit_for_bit(n, density, scale, block, seed):
    """Weights spread over six decades around 10^scale, so that the order of
    a sum shows in its last bits; the links come shuffled."""
    rng = np.random.default_rng(seed)
    w = rng.random((n, n)) * 10.0 ** (scale + rng.uniform(-3.0, 3.0, (n, n)))
    w[rng.random((n, n)) >= density] = 0.0
    np.fill_diagonal(w, 0.0)
    dst, src = np.nonzero(w)
    perm = rng.permutation(dst.size)
    with mock.patch.object(digraph, "_ROW_BLOCK", block):
        g = from_links(n, dst[perm], src[perm], w[dst, src][perm])
        din, dout = degrees(g)
    assert "weights" not in vars(g)
    assert din.tobytes() == w.sum(axis=1).tobytes() and g.in_degrees is din
    assert not din.flags.writeable
    assert dout.tobytes() == w.sum(axis=0).tobytes()
    assert np.array_equal(g.weights, w)
    assert np.array_equal(laplacian(g), laplacian(new_digraph(w)))


def first_bad_entry(w):
    """The message of the dense contract: the first entry, row-major, that is
    not finite and nonnegative, else the first nonzero diagonal entry; None
    for a valid matrix."""
    bad = np.argwhere(~((w >= 0.0) & (w < np.inf)))
    if bad.size:
        i, j = bad[0]
        return f"weight a[{i},{j}] = {w[i, j]} is not finite and nonnegative"
    diag = np.flatnonzero(np.diag(w) != 0.0)
    if diag.size:
        k = diag[0]
        return f"nonzero diagonal entry a[{k},{k}] = {w[k, k]}"
    return None


@given(st.integers(1, 5), st.lists(st.sampled_from([0.0, -0.0, 0.5, 2.0, -1.0, np.nan, np.inf]),
                                   min_size=25, max_size=25), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_from_links_checks_as_new_digraph_does(n, values, seed):
    """The message of the dense contract, naming its first bad entry, from
    the matrix and from its nonzero entries in any order; the same links
    from both otherwise."""
    w = np.array(values[: n * n]).reshape(n, n)
    i, j = np.nonzero(w)
    perm = np.random.default_rng(seed).permutation(i.size)

    def outcome(build):
        try:
            g = build()
        except GraphValidationError as exc:
            return str(exc)
        return g.n, g.dst.tolist(), g.src.tolist(), g.link_weights.tolist()

    want = first_bad_entry(w)
    if want is None:
        dst, src = np.nonzero(w > 0.0)
        want = n, dst.tolist(), src.tolist(), w[dst, src].tolist()
    assert outcome(lambda: new_digraph(w)) == want
    assert outcome(lambda: from_links(n, i[perm], j[perm], w[i, j][perm])) == want


# ---------------------------------------------------------------- degrees


def test_degrees_row_and_column_sums():
    w = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 0.5], [0.0, 3.0, 0.0]])
    din, dout = degrees(new_digraph(w))
    np.testing.assert_allclose(din, [2.0, 1.5, 3.0])
    np.testing.assert_allclose(dout, [1.0, 5.0, 0.5])


def test_is_balanced_on_uniform_ring():
    assert is_balanced(new_digraph(ring3(0.7)))


def test_is_balanced_false_with_chord():
    w = ring3()
    w[2, 0] = 0.3
    assert not is_balanced(new_digraph(w))


# ---------------------------------------------------------------- laplacian


def test_laplacian_annihilates_ones():
    rng = np.random.default_rng(3)
    w = rng.uniform(0.0, 2.0, size=(6, 6))
    np.fill_diagonal(w, 0.0)
    lap = laplacian(new_digraph(w))
    resid = np.abs(lap @ np.ones(6)).max()
    assert resid <= 1e-14 * np.diag(lap).max()


def test_laplacian_diagonal_is_in_degree():
    g = new_digraph(ring3(2.0))
    lap = laplacian(g)
    np.testing.assert_allclose(np.diag(lap), degrees(g)[0])


# ---------------------------------------------------------------- scc


def test_scc_three_component_chain():
    g = topologies.qsc_three_scc_14()
    scc = scc_decompose(g)
    comps = {frozenset(c) for c in scc.components}
    assert frozenset(range(6)) in comps
    assert frozenset(range(6, 10)) in comps
    assert frozenset(range(10, 14)) in comps
    assert scc.connectivity_class is Connectivity.QSC
    assert len(scc.root_components) == 1
    assert scc.components[scc.root_components[0]] == frozenset(range(6))


def test_scc_topo_order_runs_upstream_first():
    g = topologies.qsc_three_scc_14()
    scc = scc_decompose(g)
    pos = {k: p for p, k in enumerate(scc.topo_order)}
    for a, b in scc.condensation_edges:
        # data flows b -> a, so b must appear before a
        assert pos[b] < pos[a]


def test_sc_topology_is_single_component():
    scc = scc_decompose(topologies.sc_14())
    assert len(scc.components) == 1
    assert scc.connectivity_class is Connectivity.SC


@pytest.mark.parametrize("n, n_roots", [(5, 2), (8, 3)])
def test_random_wc_multiroot_needs_three_nodes_per_root(n, n_roots):
    with pytest.raises(ValueError, match="at least three nodes per root"):
        topologies.random_wc_multiroot(n, np.random.default_rng(0), n_roots=n_roots)


def test_wc_topology_has_two_roots():
    scc = scc_decompose(topologies.wc_two_root_14())
    assert scc.connectivity_class is Connectivity.WC
    roots = {scc.components[k] for k in scc.root_components}
    assert roots == {frozenset(range(5)), frozenset(range(5, 10))}


def test_disconnected_class():
    w = np.zeros((4, 4))
    w[1, 0] = w[0, 1] = 1.0
    w[3, 2] = w[2, 3] = 1.0
    scc = scc_decompose(new_digraph(w))
    assert scc.connectivity_class is Connectivity.DISCONNECTED
    assert len(scc.root_components) == 2


def test_single_node_graph_is_sc():
    scc = scc_decompose(new_digraph(np.zeros((1, 1))))
    assert scc.connectivity_class is Connectivity.SC
    assert scc.root_components == [0]


@st.composite
def weight_matrices(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bits = draw(
        st.lists(
            st.integers(min_value=0, max_value=1), min_size=n * n, max_size=n * n
        )
    )
    w = np.array(bits, dtype=float).reshape(n, n)
    np.fill_diagonal(w, 0.0)
    return w


@given(weight_matrices())
@settings(max_examples=120, deadline=None)
def test_connectivity_class_matches_bruteforce(w):
    assert scc_decompose(new_digraph(w)).connectivity_class == classify_bruteforce(w)


@given(weight_matrices())
@settings(max_examples=120, deadline=None)
def test_components_match_bruteforce_partition(w):
    got = {frozenset(c) for c in scc_decompose(new_digraph(w)).components}
    assert got == set(scc_partition_bruteforce(w))


@given(weight_matrices())
@settings(max_examples=60, deadline=None)
def test_root_components_have_no_incoming_condensation_edge(w):
    scc = scc_decompose(new_digraph(w))
    targets = {a for a, _ in scc.condensation_edges}
    for k in scc.root_components:
        assert k not in targets
    # non-root components all receive data from somewhere
    for k in range(len(scc.components)):
        if k not in scc.root_components:
            assert k in targets


@given(weight_matrices())
@settings(max_examples=120, deadline=None)
def test_topo_order_and_condensation_match_bruteforce(w):
    scc = scc_decompose(new_digraph(w))
    assert sorted(scc.topo_order) == list(range(len(scc.components)))
    pos = {k: p for p, k in enumerate(scc.topo_order)}
    # data flows b -> a, so every upstream component b comes first
    assert all(pos[b] < pos[a] for a, b in scc.condensation_edges)
    part = {v: comp for comp in scc_partition_bruteforce(w) for v in comp}
    rows, cols = np.nonzero(w > 0.0)
    want = {(part[i], part[j]) for i, j in zip(rows, cols) if part[i] != part[j]}
    got = {(scc.components[a], scc.components[b]) for a, b in scc.condensation_edges}
    assert got == want


def assert_tarjan_as_reference(adj: list[list[int]]) -> None:
    comps, comp_of = digraph._tarjan_scc(adj)
    ref_comps, ref_comp_of = tarjan_scc_reference(adj)
    assert comps == ref_comps
    assert np.array_equal(comp_of, ref_comp_of)


@st.composite
def sparse_digraphs(draw, max_n=40):
    """Digraphs of 1 to max_n nodes with up to 2n links, so that many have
    several components and nodes with successors in different ones."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    w = np.zeros((n, n))
    for i, j in pairs:
        w[i, j] = float(i != j)
    return w


@given(st.one_of(weight_matrices(max_n=16), sparse_digraphs()), st.booleans())
@settings(max_examples=300, deadline=None)
def test_tarjan_emits_the_reference_components_in_its_order(w, symmetrize):
    g = new_digraph(w)
    dst, src = g.links
    if symmetrize:  # the weak-connectivity pass of scc_decompose
        dst, src = np.r_[dst, src], np.r_[src, dst]
    assert_tarjan_as_reference(digraph._successors(dst, src, g.n))


def test_tarjan_as_reference_on_seeded_sparse_digraphs():
    # about 1.7 links per node: many components, and nodes whose successors
    # lie in different ones, where the order of the search shows
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(2, 41))
        w = (rng.random((n, n)) < rng.uniform(0.5, 3.0) / n).astype(float)
        np.fill_diagonal(w, 0.0)
        g = new_digraph(w)
        assert_tarjan_as_reference(digraph._successors(*g.links, n))


def test_tarjan_as_reference_on_a_long_path_and_a_chain_of_two_cycles():
    n = 5000
    path = [[u + 1] for u in range(n - 1)] + [[]]
    assert_tarjan_as_reference(path)
    assert_tarjan_as_reference(path[::-1])  # emitted root by root
    # 2-cycles {2k, 2k + 1}, each feeding the next one
    chain = [[u ^ 1] + ([u + 1] if u % 2 and u + 1 < n else []) for u in range(n)]
    assert_tarjan_as_reference(chain)
    assert len(digraph._tarjan_scc(chain)[0]) == n // 2


@given(weight_matrices())
@settings(max_examples=60, deadline=None)
def test_links_are_the_positive_weights_row_major_read_only_and_computed_once(w):
    g = new_digraph(w)
    want = np.nonzero(g.weights > 0)
    assert len(g.links) == 2
    for got, ref in zip(g.links, want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 0
    assert g.links is g.links


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_scc_and_root_gammas_are_computed_once_per_graph(seed, multiroot):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 13))
    g = topologies.random_wc_multiroot(n, rng) if multiroot else topologies.random_qsc(n, rng)
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    with mock.patch.object(digraph, "scc_decompose", counting(scc_decompose)), \
            mock.patch.object(spectral, "gamma_per_cluster", counting(gamma_per_cluster)):
        scc, gammas = g.scc, g.root_gammas
        assert g.scc is scc and g.root_gammas is gammas
    assert calls == ["scc_decompose", "gamma_per_cluster"]
    want = scc_decompose(g)
    assert scc == want
    want_gammas = gamma_per_cluster(laplacian(g), want)
    assert gammas.keys() == want_gammas.keys() == set(want.root_components)
    for k, gamma in gammas.items():
        assert np.array_equal(gamma, want_gammas[k])
        with pytest.raises(ValueError, match="read-only"):
            gamma[0] = 1.0


# ---------------------------------------------------------------- documents


def test_document_roundtrip_exact():
    rng = np.random.default_rng(11)
    w = rng.uniform(0.0, 1.0, size=(7, 7))
    w[w < 0.5] = 0.0
    np.fill_diagonal(w, 0.0)
    g = new_digraph(w)
    back = from_document(to_document(g))
    assert np.array_equal(back.weights, g.weights)


@st.composite
def weighted_digraphs(draw, max_n=12):
    """Digraphs of 1 to max_n nodes, n = 1 without links, with weights from
    subnormal to the largest double."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    mask = mask.reshape(n, n) & ~np.eye(n, dtype=bool)
    count = int(mask.sum())
    weight = st.one_of(st.floats(min_value=5e-324, max_value=2.2e-308),
                       st.floats(min_value=1e307, max_value=1.7976931348623157e308),
                       st.floats(min_value=5e-324, max_value=1e3))
    w = np.zeros((n, n))
    w[mask] = draw(st.lists(weight, min_size=count, max_size=count))
    return new_digraph(w)


@given(weighted_digraphs())
@settings(max_examples=150, deadline=None)
def test_document_is_the_json_dumps_text(g):
    dst, src = g.links
    edges = [[i, j, a] for i, j, a in zip(dst.tolist(), src.tolist(),
                                          g.weights[dst, src].tolist())]
    assert to_document(g) == json.dumps({"n": g.n, "edges": edges}, indent=1)


def test_document_rejects_invalid_payload():
    with pytest.raises(GraphValidationError):
        from_document('{"n": 2, "edges": [[0, 0, 1.0]]}')


@pytest.mark.parametrize(
    "edges, named",
    [
        ("[[-3, 2, 1.0]]", "indices must be integers in [0, 3)"),
        ("[[0, 3, 1.0]]", "indices must be integers in [0, 3)"),
        ("[[0.5, 1, 1.0]]", "indices must be integers in [0, 3)"),
        ('[[NaN, 1, 1.0]]', "indices must be integers in [0, 3)"),
        ("[[0, 1, 1.0], [2, 0, 1.0], [0, 1, 0.5]]", "duplicate edge (0, 1)"),
        ("[[0, 1]]", "triples"),
        ("[[0, 1, 1.0], [2, 0]]", "triples"),
        ('[["a", 1, 1.0]]', "triples"),
    ],
)
def test_document_rejects_bad_edges(edges, named):
    with pytest.raises(GraphValidationError, match=re.escape(named)):
        from_document(f'{{"n": 3, "edges": {edges}}}')


def test_document_without_edges_is_the_empty_digraph():
    assert np.array_equal(from_document('{"n": 3, "edges": []}').weights, np.zeros((3, 3)))
