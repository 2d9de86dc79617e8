"""Weighted directed sensor graphs and their structural decomposition.

Edge convention: ``weights[i, j]`` is the amplitude on the link carrying data
from transmitter j to receiver i.  Reachability ("node r reaches node i")
therefore follows the data flow, i.e. along nonzero entries of column j into
row i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class GraphValidationError(ValueError):
    """Raised when a weight matrix violates the sensor-digraph contract."""


class Connectivity(str, Enum):
    SC = "SC"
    QSC = "QSC"
    WC = "WC"
    DISCONNECTED = "Disconnected"


@dataclass(frozen=True)
class SensorDigraph:
    """Immutable weighted digraph; row i = receiver, column j = transmitter."""

    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """(dst, src) of every link, a positive off-diagonal weight: receivers
        ascending, then transmitters ascending; read-only, computed once."""
        mask = self.weights > 0.0
        np.fill_diagonal(mask, False)
        dst, src = np.nonzero(mask)
        dst.setflags(write=False)
        src.setflags(write=False)
        return dst, src

    # the weights are read-only (`new_digraph`), so the structure below,
    # which depends on them alone, is computed once per graph
    @cached_property
    def scc(self) -> SccDecomposition:
        """`scc_decompose` of this graph."""
        return scc_decompose(self)

    @cached_property
    def root_gammas(self) -> dict[int, np.ndarray]:
        """`spectral.gamma_per_cluster` of the Laplacian: {root component:
        gamma}, each read-only, summing to one, positive exactly on its SCC."""
        from . import spectral  # spectral imports this module

        return spectral.gamma_per_cluster(laplacian(self), self.scc)


@dataclass(frozen=True)
class SccDecomposition:
    components: list[frozenset[int]]
    condensation_edges: set[tuple[int, int]]
    topo_order: list[int]
    root_components: list[int]
    connectivity_class: Connectivity


def new_digraph(weights) -> SensorDigraph:
    """Validate a square, finite, nonnegative weight matrix and wrap a copy of
    it, so that the caller's array stays its own."""
    return _own_digraph(np.array(weights, dtype=float))


def _own_digraph(w: np.ndarray) -> SensorDigraph:
    """`new_digraph` of a float array that no caller keeps: validated, made
    read-only and wrapped without a copy."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise GraphValidationError(f"weights must be square, got shape {w.shape}")
    bad = np.argwhere(~((w >= 0.0) & (w < np.inf)))
    if bad.size:
        i, j = bad[0]
        raise GraphValidationError(f"weight a[{i},{j}] = {w[i, j]} is not finite and nonnegative")
    diag = np.argwhere(np.diag(w) != 0.0)
    if diag.size:
        i = int(diag[0][0])
        raise GraphValidationError(f"nonzero diagonal entry a[{i},{i}] = {w[i, i]}")
    w.setflags(write=False)
    return SensorDigraph(weights=w)


def degrees(g: SensorDigraph) -> tuple[np.ndarray, np.ndarray]:
    """(in_degrees, out_degrees): row sums and column sums of the weights."""
    return g.weights.sum(axis=1), g.weights.sum(axis=0)


def is_balanced(g: SensorDigraph, tol: float = 1e-12) -> bool:
    din, dout = degrees(g)
    return bool(np.all(np.abs(din - dout) <= tol))


def laplacian(g: SensorDigraph) -> np.ndarray:
    """L = Delta - A with in-degree diagonal; rows sum to zero to machine precision."""
    lap = -g.weights
    # diagonal set to the row sum of the off-diagonals so L @ 1 vanishes
    np.fill_diagonal(lap, g.weights.sum(axis=1))
    return lap


def _successors(dst: np.ndarray, src: np.ndarray, n: int) -> list[list[int]]:
    """Adjacency lists along the data flow: j -> i for each link (i, j), i in link order."""
    heads = dst[np.argsort(src, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    return [heads[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _tarjan_scc(adj: list[list[int]]) -> tuple[list[list[int]], np.ndarray]:
    """Iterative Tarjan on adjacency lists adj[u] = successors of u: the
    components in emission order, and the index of each node's component."""
    n = len(adj)
    index = [-1] * n
    lowlink = [0] * n
    comp_of = [-1] * n  # -1 until emitted: a visited node with -1 is on the stack
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        # (node, its successors not yet looked at, its place on the stack)
        work = [(root, iter(adj[root]), len(stack))]
        stack.append(root)
        while work:
            u, succ, at = work[-1]
            for v in succ:
                if index[v] == -1:
                    index[v] = lowlink[v] = counter
                    counter += 1
                    work.append((v, iter(adj[v]), len(stack)))
                    stack.append(v)
                    break
                if comp_of[v] == -1 and index[v] < lowlink[u]:
                    lowlink[u] = index[v]
            else:
                work.pop()
                low = lowlink[u]
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
                if low == index[u]:
                    comp = stack[at:]
                    del stack[at:]
                    for v in comp:
                        comp_of[v] = len(sccs)
                    sccs.append(sorted(comp))
    return sccs, np.array(comp_of, dtype=int)


def scc_decompose(g: SensorDigraph) -> SccDecomposition:
    """SCC partition, condensation digraph, topological order, connectivity class.

    A condensation edge (a, b) means data flows from component b into
    component a; root components have zero in-degree (no data from outside).
    Component k is the k-th that Tarjan's pass emits, and Tarjan emits a
    component only after every component downstream of it, so the reversed
    emission order runs upstream first.
    """
    dst, src = g.links
    comps, comp_of = _tarjan_scc(_successors(dst, src, g.n))
    a, b = comp_of[dst], comp_of[src]
    cross = a != b
    edges = set(zip(a[cross].tolist(), b[cross].tolist()))  # data flows b -> a
    roots = np.setdiff1d(np.arange(len(comps)), a[cross]).tolist()
    if len(comps) == 1:
        cls = Connectivity.SC
    elif len(roots) == 1:
        cls = Connectivity.QSC
    elif len(_tarjan_scc(_successors(np.r_[dst, src], np.r_[src, dst], g.n))[0]) == 1:
        # the SCCs of the symmetrized digraph are its connected components; a
        # link present both ways is listed twice, which changes no component
        cls = Connectivity.WC
    else:
        cls = Connectivity.DISCONNECTED
    return SccDecomposition(
        components=[frozenset(c) for c in comps],
        condensation_edges=edges,
        topo_order=list(range(len(comps) - 1, -1, -1)),
        root_components=roots,
        connectivity_class=cls,
    )


# one link of `to_document`, laid out as json.dumps(..., indent=1) lays it out;
# %r of a finite float is its JSON number
_EDGE = "  [\n   %d,\n   %d,\n   %r\n  ]"


def to_document(g: SensorDigraph) -> str:
    """Serialize as JSON {n, edges: [[i, j, a_ij]]}, in the order of `links`:
    the text of ``json.dumps(doc, indent=1)``, built one link at a time."""
    dst, src = g.links
    edges = ",\n".join(map(_EDGE.__mod__, zip(dst.tolist(), src.tolist(),
                                               g.weights[dst, src].tolist())))
    body = "[\n" + edges + "\n ]" if edges else "[]"
    return '{\n "n": %d,\n "edges": %s\n}' % (g.n, body)


def from_document(text: str) -> SensorDigraph:
    """Parse a ``to_document`` payload, checked as `from_links` checks it."""
    doc = json.loads(text)
    n = int(doc["n"])
    try:
        edges = np.asarray(doc["edges"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise GraphValidationError(f"edges must be [i, j, a_ij] triples: {exc}") from exc
    if edges.size == 0:
        edges = edges.reshape(0, 3)
    if edges.ndim != 2 or edges.shape[1] != 3:
        raise GraphValidationError(f"edges must be [i, j, a_ij] triples, got shape {edges.shape}")
    return from_links(n, *edges.T)


def from_links(n: int, dst, src, weight) -> SensorDigraph:
    """The digraph of n nodes with weight[k] on the link from src[k] to
    dst[k]. Indices must be integers in [0, n), each (dst, src) pair at most
    once, and the weights pass `new_digraph`."""
    dst, src, weight = np.asarray(dst), np.asarray(src), np.asarray(weight)
    idx = np.column_stack([dst, src])
    bad = np.flatnonzero(~((idx >= 0) & (idx < n) & (idx == np.floor(idx))).all(axis=1))
    if bad.size:
        k = bad[0]
        e = [dst[k].item(), src[k].item(), weight[k].item()]
        raise GraphValidationError(f"edge {e}: indices must be integers in [0, {n})")
    i, j = idx.astype(np.int64).T
    pairs, counts = np.unique(i * n + j, return_counts=True)
    if (counts > 1).any():
        raise GraphValidationError(f"duplicate edge {divmod(int(pairs[counts > 1][0]), n)}")
    w = np.zeros((n, n))
    w[i, j] = weight
    return _own_digraph(w)
