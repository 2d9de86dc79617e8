"""Weighted directed sensor graphs and their structural decomposition.

Edge convention: link (i, j), entry ``weights[i, j]`` of the dense matrix,
carries data from transmitter j to receiver i. Reachability ("node r reaches
node i") therefore follows the data flow, from j to i along each link.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class GraphValidationError(ValueError):
    """Raised when a weight matrix violates the sensor-digraph contract."""


_ROW_BLOCK = 64  # rows per block of `SensorDigraph.in_degrees`: 0.5 MB at n = 1000


class Connectivity(str, Enum):
    SC = "SC"
    QSC = "QSC"
    WC = "WC"
    DISCONNECTED = "Disconnected"


@dataclass(frozen=True)
class SensorDigraph:
    """Immutable weighted digraph held as its links, each a positive
    off-diagonal weight: link k carries data from src[k] to dst[k] with weight
    link_weights[k], receivers ascending, then transmitters ascending; read-only."""

    n: int
    dst: np.ndarray
    src: np.ndarray
    link_weights: np.ndarray

    def __post_init__(self):
        for x in (self.dst, self.src, self.link_weights):
            x.setflags(write=False)

    @cached_property
    def links(self) -> tuple[np.ndarray, np.ndarray]:
        return self.dst, self.src

    @cached_property
    def weights(self) -> np.ndarray:
        """The read-only (n, n) matrix, the links scattered into zeros on
        first use."""
        w = np.zeros((self.n, self.n))
        w[self.links] = self.link_weights
        w.setflags(write=False)
        return w

    @cached_property
    def in_degrees(self) -> np.ndarray:
        """The row sums of `weights` bit for bit, read-only, summed as its
        rows are but scattered _ROW_BLOCK rows at a time, without the matrix."""
        out = np.empty(self.n)
        for lo in range(0, self.n, _ROW_BLOCK):
            a, b = np.searchsorted(self.dst, [lo, lo + _ROW_BLOCK])
            block = np.zeros((min(_ROW_BLOCK, self.n - lo), self.n))
            block[self.dst[a:b] - lo, self.src[a:b]] = self.link_weights[a:b]
            out[lo:lo + _ROW_BLOCK] = block.sum(axis=1)
        out.setflags(write=False)
        return out

    # the links are read-only, so the structure below, which depends on
    # them alone, is computed once per graph
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
    """Validate a square, finite, nonnegative weight matrix and hold its
    nonzero entries as links; the graph keeps no reference to the array."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise GraphValidationError(f"weights must be square, got shape {w.shape}")
    i, j = np.nonzero(w)  # every entry that can fail a check, row-major
    return _checked_links(len(w), i, j, w[i, j])


def _checked_links(n: int, i: np.ndarray, j: np.ndarray, a: np.ndarray) -> SensorDigraph:
    """The digraph whose links are the nonzero entries a at (i, j), pairs
    unique and row-major: raise at the first that is not finite and
    nonnegative, then at the first on the diagonal."""
    bad = np.flatnonzero(~((a >= 0.0) & (a < np.inf)))
    if bad.size:
        k = bad[0]
        raise GraphValidationError(f"weight a[{i[k]},{j[k]}] = {a[k]} is not finite and nonnegative")
    diag = np.flatnonzero(i == j)
    if diag.size:
        k = diag[0]
        raise GraphValidationError(f"nonzero diagonal entry a[{i[k]},{i[k]}] = {a[k]}")
    return SensorDigraph(int(n), i, j, a)


def keep_links(g: SensorDigraph, keep: np.ndarray) -> SensorDigraph:
    """g with only its links k where keep[k], which need no second check."""
    return SensorDigraph(g.n, g.dst[keep], g.src[keep], g.link_weights[keep])


def degrees(g: SensorDigraph) -> tuple[np.ndarray, np.ndarray]:
    """(in_degrees, out_degrees): row sums and column sums of the weights,
    each bit for bit as the matrix gives it (a column adds its rows in order)."""
    return g.in_degrees, np.bincount(g.src, g.link_weights, minlength=g.n)


def is_balanced(g: SensorDigraph, tol: float = 1e-12) -> bool:
    din, dout = degrees(g)
    return bool(np.all(np.abs(din - dout) <= tol))


def laplacian(g: SensorDigraph) -> np.ndarray:
    """L = Delta - A with in-degree diagonal; rows sum to zero to machine precision."""
    lap = -g.weights
    # diagonal set to the row sum of the off-diagonals so L @ 1 vanishes
    np.fill_diagonal(lap, g.in_degrees)
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
    edges = ",\n".join(map(_EDGE.__mod__, zip(g.dst.tolist(), g.src.tolist(),
                                               g.link_weights.tolist())))
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
    once, and the weights pass `new_digraph`'s checks, which name the same
    first bad entry, without an (n, n) array."""
    dst, src, weight = np.asarray(dst), np.asarray(src), np.asarray(weight)
    if weight.shape not in ((), dst.shape):
        raise GraphValidationError(f"{weight.size} weights for {dst.size} edges")
    weight = np.broadcast_to(weight, dst.shape)  # a scalar weighs every edge
    idx = np.column_stack([dst, src])
    bad = np.flatnonzero(~((idx >= 0) & (idx < n) & (idx == np.floor(idx))).all(axis=1))
    if bad.size:
        k = bad[0]
        e = [dst[k].item(), src[k].item(), weight[k].item()]
        raise GraphValidationError(f"edge {e}: indices must be integers in [0, {n})")
    i, j = idx.astype(np.int64).T
    pairs, first, counts = np.unique(i * n + j, return_index=True, return_counts=True)
    if (counts > 1).any():
        raise GraphValidationError(f"duplicate edge {divmod(int(pairs[counts > 1][0]), n)}")
    weight = weight.astype(float)
    first = first[weight[first] != 0.0]  # a zero weight is no link
    return _checked_links(n, i[first], j[first], weight[first])
