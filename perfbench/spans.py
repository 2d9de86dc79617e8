"""In-memory span recorder that wraps the public functions of each selfsync layer.

A span is ``[layer, name, start, end, parent, op, raised, counts]``: ``parent``
is the index of the enclosing span (-1 at top level), ``op`` the id of the timed
operation it belongs to (None during set-up) and ``counts`` the work measured
at the call boundary from the call's arguments and result.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

FIELDS = ("layer", "name", "start", "end", "parent", "op", "raised", "counts")
LAYER, NAME, START, END, PARENT, OP, RAISED, COUNTS = range(len(FIELDS))

# layer -> (module, public functions); a name the module lacks is skipped and
# its layer reports 0 calls
LAYERS = {
    "netgen": ("selfsync.netgen", (
        "place_nodes", "speed_for_max_delay", "channel_rayleigh", "channel_pathloss",
        "threshold_prune", "delays_from_geometry")),
    "digraph": ("selfsync.digraph", (
        "new_digraph", "degrees", "is_balanced", "laplacian", "scc_decompose",
        "to_document", "from_document")),
    "spectral": ("selfsync.spectral", (
        "zero_eigen_multiplicity", "gamma_left_eigenvector", "gamma_per_cluster",
        "rate_no_delay", "rate_kappa_bound", "characteristic_function",
        "characteristic_scale", "empirical_rate")),
    "dde_sim.sim": ("selfsync.dde_sim", ("simulate", "simulate_noisy", "simulate_vector")),
    "dde_sim.detect": ("selfsync.dde_sim", ("detect_sync", "detect_sync_auto")),
    "dde_sim.csv": ("selfsync.dde_sim", ("trajectory_to_csv",)),
    "protocols": ("selfsync.protocols", (
        "predict_consensus", "predict_clusters", "predict_consensus_vector",
        "two_step_unbias", "gamma_estimation_protocol", "predict_intercepts")),
    "stats": ("selfsync.stats", (
        "blue_local", "centralized_blue", "consensus_function",
        "consensus_function_vector", "glrt_local", "glrt_network")),
    "topologies": ("selfsync.topologies", (
        "sc_14", "qsc_three_scc_14", "wc_two_root_14", "random_qsc", "random_sc",
        "random_wc_multiroot", "random_digraph")),
    "cli": ("selfsync.cli", (
        "main", "cmd_gen", "cmd_run", "cmd_montecarlo", "cmd_inspect",
        "run_estimation_trial", "run_estimation_montecarlo")),
}


def _sim_counts(args, kwargs, result) -> dict:
    g = args[0] if args else kwargs["g"]
    steps = len(result.times)
    return {
        "steps": steps,
        "node_steps": g.n * steps,
        "edge_steps": int((g.weights > 0).sum()) * steps,
        "result_bytes": result.times.nbytes + result.states.nbytes
        + result.derivatives.nbytes,
    }


def _csv_counts(args, kwargs, result) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _channel_counts(args, kwargs, result) -> dict:
    n = result.n
    return {"links": n * (n - 1)}


COUNT_HOOKS = {
    "simulate": _sim_counts,
    "simulate_noisy": _sim_counts,
    "simulate_vector": _sim_counts,
    "trajectory_to_csv": _csv_counts,
    "channel_rayleigh": _channel_counts,
    "channel_pathloss": _channel_counts,
}


class Tracer:
    """Records spans around the wrapped selfsync functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, layer: str, name: str) -> list:
        span = [layer, name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, self.op, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn):
        hook = COUNT_HOOKS.get(fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                self._close(span)
            if hook is not None:
                span[COUNTS] = hook(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def op_span(self, op_id: int):
        """The benchmark's own span around one timed operation."""
        self.op = op_id
        span = self._open("bench", "op")
        try:
            yield
        finally:
            self._close(span)
            self.op = None

    def install(self) -> None:
        """Replace every attribute of every loaded selfsync module that is bound
        to a listed function, so ``from .x import f`` aliases are caught too."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "selfsync" or name.startswith("selfsync."))]
        for layer, (modname, names) in LAYERS.items():
            home = sys.modules.get(modname)
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    continue
                wrapper = self.wrap(layer, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - _covered(children[i], s[START], s[END])
            for i, s in enumerate(spans)]


def _entries(spans: list, layer: str) -> list[int]:
    """Spans of the layer entered from outside it (nested re-entries excluded)."""
    return [i for i, s in enumerate(spans)
            if s[LAYER] == layer and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != layer)]


def _ancestors(spans: list, i: int):
    p = spans[i][PARENT]
    while p >= 0:
        yield p
        p = spans[p][PARENT]


def layer_metrics(spans: list, ops: int) -> dict[str, float]:
    """Per-layer calls, self time and work counts over the spans of timed ops;
    set-up spans (op None) count only towards ``netgen.setup_calls``."""
    own = self_times(spans)
    timed = {i for i, s in enumerate(spans) if s[OP] is not None}

    def entries(layer):
        return [i for i in _entries(spans, layer) if i in timed]

    def total(idx, key):
        return sum((spans[i][COUNTS] or {}).get(key, 0) for i in idx)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = len(entries(layer))
        out[f"{layer}.self_s"] = sum(own[i] for i in timed if spans[i][LAYER] == layer)

    links = total(entries("netgen"), "links")
    out["netgen.links"] = links
    out["netgen.us_per_link"] = 1e6 * out["netgen.self_s"] / links if links else 0.0
    out["netgen.setup_calls"] = len([i for i in _entries(spans, "netgen") if i not in timed])

    sims = entries("dde_sim.sim")
    steps = total(sims, "steps")
    node_steps = total(sims, "node_steps")
    sim_s = out["dde_sim.sim.self_s"]
    out["dde_sim.sim.node_steps"] = node_steps
    out["dde_sim.sim.edge_steps"] = total(sims, "edge_steps")
    out["dde_sim.sim.result_bytes"] = total(sims, "result_bytes")
    out["dde_sim.sim.us_per_step"] = 1e6 * sim_s / steps if steps else 0.0
    out["dde_sim.sim.ns_per_node_step"] = 1e9 * sim_s / node_steps if node_steps else 0.0

    csv_bytes = total(entries("dde_sim.csv"), "bytes")
    csv_s = out["dde_sim.csv.self_s"]
    out["dde_sim.csv.bytes"] = csv_bytes
    out["dde_sim.csv.mb_per_s"] = csv_bytes / 1e6 / csv_s if csv_s > 0 else 0.0

    # an attempt is an entry into the protocols layer; it is retried when it raised
    attempts = entries("protocols")
    failed = {i for i in attempts if spans[i][RAISED]}
    passes = [i for i in sims if any(spans[p][LAYER] == "protocols" for p in _ancestors(spans, i))]
    wasted = [i for i in passes if failed.intersection(_ancestors(spans, i))]
    out["protocols.sim_passes"] = len(passes)
    out["protocols.attempts"] = len(attempts)
    out["protocols.retries"] = len(failed)
    out["protocols.useful_ratio"] = ops / len(attempts) if attempts else 0.0
    out["protocols.wasted_steps"] = total(wasted, "steps")

    op_spans = [i for i in timed if spans[i][LAYER] == "bench"]
    op_s = sum(spans[i][END] - spans[i][START] for i in op_spans)
    unattributed = sum(own[i] for i in op_spans)
    out["trace.op_s"] = op_s
    out["trace.unattributed_s"] = unattributed
    out["trace.unattributed_share"] = unattributed / op_s if op_s > 0 else 0.0
    out["trace.spans"] = len(timed)
    return out


_UNITS = (
    ("mb_per_s", "MB/s"), ("_per_s", "1/s"), ("us_per_link", "us"), ("us_per_step", "us"),
    ("ns_per_node_step", "ns"), ("bytes", "B"), ("_ratio", "ratio"), ("_share", "ratio"),
    ("overhead", "ratio"), ("_s", "s"),
)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name; counts are the default."""
    for suffix, name in _UNITS:
        if metric.endswith(suffix):
            return name
    return "count"
