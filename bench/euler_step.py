#!/usr/bin/env python3
"""Layer microbenchmark: microseconds per Euler step of ``selfsync.simulate``.

    python3 bench/euler_step.py --quick
    python3 bench/euler_step.py --quick --src path/to/other/src --label parent --out BENCH.json

Every row is timed by ``timed``, in reference units, and prints as one
``section key=value ...`` line. A row records n, the link count nnz, the
longest link lag mmax in steps and the block length s = 1 + the shortest link
lag (the core advances s steps per gather; s = 1 when some link has lag 0).

``sizes``: µs per step of ``simulate`` and ms of one ``detect_sync`` at n in
{14, 40, 200, 1000}, each on a seeded netgen graph (uniform placement at a
fixed node density, path-loss amplitudes pruned below 0.5, geometry delays
with the longest link lagging 50 steps), over 1000 steps, or 200 with
``--quick``, which keeps the whole run near a minute. ``demo14``: µs per step of
the ``selfsync run`` demo, the 14-node SC reference digraph with a uniform
50-step lag (s = 51), K = 30, one forcing column, horizon 8000. ``columns``:
µs per step of L forcing columns, L in {1, n + 1} at n in {4, 8} (seeded
``random_sc`` graphs) and L in {1, 2} at n = 40 (the netgen graph).
``span``: µs per step of ``simulate`` with every link lagging s - 1 steps,
over ``SPAN_HORIZON`` steps, ``SPAN_REPEATS`` rounds: at n in {14, 200}
(``graph=sc14``, ``sc_14`` with K = 30, and ``graph=netgen``, the ``sizes``
graph) for s in {2, 4, 6, 7, 8, 11, 16, 51}; at n = 1000 on the directed
ring of unit weights (``graph=ring``, one link per node, T K d_in = 0.5) for
s = 51; and one ``simulate_batch`` of the delayed passes of ``BATCH_TRIALS``
mc-n40 trials (``record="node_mean"``, spans 1 to 4, pinned to one CPU).
Where the library has ``dde_sim._SCAN_SPAN``, each row is also timed with
every block of s > 1 solving its self term by the scan
(``scan_us_per_step``, ``_SCAN_SPAN`` 2) and with none
(``step_us_per_step``); ``us_per_step`` is the library as it is. These rows
set ``_SCAN_SPAN``. ``protocol``: seconds
of one ``gamma_estimation_protocol(mode="simulate")`` on the same ``random_sc`` graphs, with the horizon escalation of the gamma
sweep. ``trace``: ms and bytes of the npz trace writer on the demo14 full
trace (8001 samples) and on the n = 300 netgen graph over horizon 1200 at
downsample 10, as ``selfsync run`` on run-n300 writes it. ``setup``:
``setup_peak_mb``, the ``tracemalloc`` peak in MB (1e6 bytes) of a 1-step
``simulate`` on a freshly built netgen graph (seed 7, whatever ``--seed``) at
n in {300, 1000, 2000}: the set-up of the core, which dominates so short a
run. ``channel``: µs per drawn link (n(n - 1) of them) of
``channel_rayleigh`` at n = 40 and 300. ``structure``: ms of
``scc_decompose`` alone (``scc_ms``) and of ``scc_decompose`` plus
``gamma_per_cluster`` of the Laplacian (``scc_gamma_ms``) on the n = 300,
1000 and 2000 netgen graphs. ``load``: ms of one ``selfsync gen`` (``gen_ms``)
and of reading its scenario (Rayleigh links pruned below 0.5, geometry
delays, as run-n300 makes it) into a ``SensorDigraph`` and a
``DelayMatrix`` (``load_ms``), the set-up of ``selfsync run`` and
``inspect``, at n in {14, 300, 1000, 2000}: ``layout=table`` reads ``links.npy``,
and ``layout=json`` the JSON files, after the table is deleted (a library
whose ``gen`` writes no table gives only ``json`` rows). ``peak_mb`` is the
``tracemalloc`` peak in MB of one load, and ``bytes`` the size of the
scenario directory. ``cold``: ms of a fresh interpreter that runs one
``selfsync gen`` of the ``load`` scenario (``cold_gen_ms``) and of one that
only imports selfsync (``import_ms``), at n in {40, 300}: ``gen`` as a
process pays what a warm ``gen_ms`` does not, such as the first
``channel_rayleigh`` call's read-back of numpy's ziggurat tables.
``montecarlo``: seconds of one
``experiments.run_estimation_montecarlo`` with the mc-n40 configuration (n =
40, horizon 2000, clean and with coupling noise 0.1) over 2 and 10 trials,
each timed twice: with the script's process pinned to one CPU (``cpus=1``,
where ``simulate_batch`` runs every step group in process) and on every usable
CPU (where its step groups run in forked lanes while no other task is
runnable); the affinity is restored after each row. ``clean_forked`` and
``noisy_forked`` count the timed calls (of ``REPEATS``) that forked a lane,
by counting ``os.fork`` in this process. ``peak_mb`` is the ``tracemalloc`` peak in MB of one clean
call, taken after and outside the timed calls; it does not see the memory of
a forked lane, so ``child_maxrss_mb`` gives the largest RSS in MB of any
child the script has reaped so far (``RUSAGE_CHILDREN``; 0 when none forked).
``analysis``: ms of ``experiments.analyse_scenario`` (SCCs, prediction and
spectral rates) on scenarios made as the run-n300 workload makes them, at n
in {100, 200, 300, 500, 800, 1000} and its node density; each call gets a fresh
copy of the graph (``new_digraph``), made before the call, since a graph
caches its SCCs and gammas. ``peak_mb`` is the ``tracemalloc`` peak in MB of
one more such call, after the timed ones. ``run``: ms of one ``selfsync gen``
(``gen_ms``) and of one ``selfsync run`` of its scenario (``run_ms``, trace
at downsample 10), both in process, on scenarios made as the run-n300
workload makes them (Rayleigh links pruned below 0.5, horizon 1200) at n in
{300, 1000}, and 2000 without ``--quick``; a library whose ``gen`` stores
the analysis pays it there, and one without pays it in every ``run``. A run
that detects no sync within the horizon (exit 3, as at n = 1000) is timed
all the same. ``run_forked`` counts the timed runs (of ``REPEATS``) that
forked a lane. ``gather``: µs of each call of one block of the Euler core, on
arrays built as ``_simulate_core`` builds them for one run, at the
gamma-sweep shape (a ``random_sc`` graph at n = 8 with L = 9 forcing columns,
s = 11), at that shape on the complete digraphs of 6 to 10 nodes (runs of 5
to 9 entries), the demo14 shape (n = 14, s = 51) and the run-n300 shape (its
scenario, s = 1): the take of the block's delayed states (``take_us``), the
weight multiply (``multiply_us``), the ``np.add.reduceat`` sums
(``reduceat_us``), the same sums by one ``np.bincount`` over the entries
listed rank-major with each run's first entry last (``bincount_us``; the
core takes it only where ``longest_run``, the most entries of one (receiver,
column) run, is at most ``_BINCOUNT_RUN``) and, for a run that scans, the
``np.add.accumulate`` along the block (``accumulate_us``); each timed call
repeats the call ``GATHER_LOOPS`` times. ``entries`` counts the entries of
one gather, which holds ``gather_steps`` steps.

selfsync is imported from ``--src`` (default: this checkout's ``src/``), so one
copy of the script can time two versions of the library on the same machine.
With ``--out`` the result is stored under ``--label`` in that JSON file, keeping
the other labels already there; it also records the CPU count and the numpy
and python versions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from speed import Speedometer, to_reference  # noqa: E402

SIZES = (14, 40, 200, 1000)
DENSITY = 5.0  # nodes per unit area: about 60 in-links per node at threshold 0.5
THRESHOLD = 0.5
T_STEP = 1e-3
TAU_MAX = 0.05  # longest link lag: 50 steps
REPEATS = 5
# protocol rows: the gamma sweep's configuration
SC_SIZES = (4, 8)
SC_T_STEP = 2e-3
SC_K_GAIN = 20.0
SC_TAU = 0.02
SC_HORIZONS = (8000, 30000, 120000)
# demo14 row: the ``selfsync run`` demo scenario
DEMO_TAU = 0.05
DEMO_K_GAIN = 30.0
DEMO_HORIZON = 8000
# trace rows: the n = 300 record of run-n300, written at its downsample
TRACE_N = 300
TRACE_HORIZON = 1200
TRACE_DOWNSAMPLE = 10
# setup rows: 1-step runs on the netgen graphs of these sizes and seed
SETUP_SIZES = (300, 1000, 2000)
SETUP_SEED = 7
# montecarlo rows: the mc-n40 workload's configuration
MC_N = 40
MC_HORIZON = 2000
MC_TRIALS = (2, 10)
MC_NOISE = 0.1
MC_CONFIG = {"d_side": 5.0, "t_step": 1e-3, "k_gain": 30.0, "tau_max": 0.1, "xi": 1.0,
             "sigma2": 0.25}
# run rows: the run-n300 workload's scenario
RUN_CONFIG = {"n": 300, "d_side": 7.75, "tau_max": 0.05, "threshold": 0.5, "t_step": 1e-3,
              "k_gain": 5.0, "horizon": 1200}
# span rows: uniform lags of s - 1 steps at these n and s, and one sparse
# directed ring
SPAN_NETGEN_N = 200
SPAN_BLOCKS = (2, 4, 6, 7, 8, 11, 16, 51)
SPAN_RING_N = 1000
SPAN_RING_BLOCK = 51
SPAN_HORIZON = 2000
SPAN_REPEATS = 15
# load rows: gen scenarios at these sizes
LOAD_SIZES = (14, 300, 1000, 2000)
# structure rows: netgen graphs at these sizes
STRUCTURE_SIZES = (300, 1000, 2000)
# cold rows: gen in a fresh interpreter at these sizes
COLD_SIZES = (40, 300)
# analysis rows: scenarios made as run-n300's, at these sizes
ANALYSIS_SIZES = (100, 200, 300, 500, 800, 1000)
# run rows: gen and run of scenarios made as run-n300's, at these sizes, and
# at RUN_LARGE without --quick
RUN_SIZES = (300, 1000)
RUN_LARGE = 2000
# gather rows: calls per timed call
GATHER_LOOPS = 2000


def timed(*calls, repeats: int = REPEATS) -> dict:
    """Time ``(key, scale, call)`` entries: one warm-up call each, then
    ``repeats`` rounds of one call each, in reversed order every other round so
    that a drift of the host's speed hits them alike. The reference chunk of
    ``perfbench/speed.py`` is timed after each call, and every call's wall
    time is converted with the row's mean chunk time to reference seconds:
    the time it would take on a host where the chunk takes ``REF_S``. Returns
    the row fields ``key`` (the median converted call, times ``scale``),
    ``chunk_s`` (the row's mean chunk time), and ``key_min`` and ``key_max``
    (the fastest and the slowest converted call), so the median lies between
    them."""
    speed = Speedometer()
    walls = {key: [] for key, _, _ in calls}
    for _, _, call in calls:
        call()
    for rep in range(repeats):
        for key, scale, call in calls if rep % 2 == 0 else calls[::-1]:
            t0 = time.perf_counter()
            call()
            wall = time.perf_counter() - t0
            walls[key].append(wall * scale)
            speed.sample(wall)
    chunk = speed.mean_s()
    fields = {"chunk_s": chunk}
    for key, ws in walls.items():
        fields.update({key: to_reference(float(np.median(ws)), chunk),
                       f"{key}_min": to_reference(min(ws), chunk),
                       f"{key}_max": to_reference(max(ws), chunk)})
    return fields


def counting_forks(call, tally: list):
    """call, wrapped so that each run appends to tally how many children it
    forked (calls of ``os.fork`` in this process)."""
    def run():
        fork, forks = os.fork, []

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        os.fork = counted
        try:
            return call()
        finally:
            os.fork = fork
            tally.append(len(forks))
    return run


def forked(tally: list) -> int:
    """Timed calls of a ``timed`` row that forked: all but the warm-up."""
    return sum(1 for forks in tally[1:] if forks)


def traced_peak_mb(call) -> float:
    """MB of the ``tracemalloc`` peak of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def graph_fields(g, delays, t_step: float) -> dict:
    lags = np.rint(delays.tau[g.weights > 0] / t_step)
    return {"n": g.n, "nnz": lags.size, "mmax": int(lags.max(initial=0)),
            "block": int(lags.min()) + 1 if lags.size else 1}


def build_case(selfsync, n: int, seed: int, horizon: int):
    geom = selfsync.place_nodes(n, float(np.sqrt(n / DENSITY)), seed)
    g = selfsync.threshold_prune(selfsync.channel_pathloss(geom, 1.0), THRESHOLD)
    # speed such that the longest surviving link is delayed by TAU_MAX
    longest = float(geom.distances[g.weights > 0].max(initial=0.0))
    geom = replace(geom, speed=longest / TAU_MAX if longest > 0 else 1.0)
    # gain well inside the step-size guard T * K * in_degree < 2
    k_gain = 0.5 / (T_STEP * max(float(g.weights.sum(axis=1).max()), 1.0))
    cfg = selfsync.SimConfig(t_step=T_STEP, k_gain=k_gain, horizon=horizon)
    gvals = np.random.default_rng(seed + 1).uniform(0.5, 1.5, n)
    return g, selfsync.delays_from_geometry(geom), cfg, gvals


def demo_case(selfsync, seed: int):
    g = selfsync.topologies.sc_14()
    cfg = selfsync.SimConfig(t_step=T_STEP, k_gain=DEMO_K_GAIN, horizon=DEMO_HORIZON)
    gvals = np.random.default_rng(seed).uniform(0.5, 1.5, g.n)
    return g, selfsync.DelayMatrix.uniform(g.n, DEMO_TAU), cfg, gvals


def sc_case(selfsync, n: int, seed: int, horizon: int):
    rng = np.random.default_rng(seed + n)
    g = selfsync.topologies.random_sc(n, rng)
    cfg = selfsync.SimConfig(t_step=SC_T_STEP, k_gain=SC_K_GAIN, c_weights=rng.uniform(0.5, 2.0, n),
                             horizon=horizon, sync_tol_rel=1e-7)
    return g, selfsync.DelayMatrix.uniform(n, SC_TAU), cfg, rng.normal(1.0, 0.4, n)


def size_row(selfsync, n: int, horizon: int, seed: int) -> dict:
    g, delays, cfg, gvals = build_case(selfsync, n, seed, horizon)
    traj = selfsync.simulate(g, delays, cfg, gvals)
    return {**graph_fields(g, delays, T_STEP), "horizon": horizon,
            **timed(("us_per_step", 1e6 / (horizon + 1),
                     lambda: selfsync.simulate(g, delays, cfg, gvals)),
                    ("detect_ms", 1e3,
                     lambda: selfsync.detect_sync_auto(traj, cfg, omega_scale=1.0)))}


def columns_row(selfsync, g, delays, cfg, cols: int, seed: int) -> dict:
    forcing = np.random.default_rng(seed).uniform(0.5, 1.5, (g.n, cols))
    return {**graph_fields(g, delays, cfg.t_step), "columns": cols, "horizon": cfg.horizon,
            **timed(("us_per_step", 1e6 / (cfg.horizon + 1),
                     lambda: selfsync.simulate(g, delays, cfg, forcing)))}


def column_rows(selfsync, horizon: int, seed: int) -> list[dict]:
    cases = [(sc_case(selfsync, n, seed, horizon)[:3], (1, n + 1)) for n in SC_SIZES]
    cases.append((build_case(selfsync, 40, seed, horizon)[:3], (1, 2)))
    return [columns_row(selfsync, *case, cols, seed) for case, widths in cases for cols in widths]


def at_scan(selfsync, scan: bool, call):
    """call, run with every block of s > 1 scanned, or with none."""
    def run():
        dde_sim = selfsync.dde_sim
        old = dde_sim._SCAN_SPAN
        dde_sim._SCAN_SPAN = 2 if scan else 2**62
        try:
            return call()
        finally:
            dde_sim._SCAN_SPAN = old
    return run


def span_timed(selfsync, steps: int, call) -> dict:
    """``us_per_step`` of call, and where the library scans, the same with
    every s > 1 scanned and with none scanned."""
    calls = [("us_per_step", 1e6 / steps, call)]
    if hasattr(selfsync.dde_sim, "_SCAN_SPAN"):
        calls += [("scan_us_per_step", 1e6 / steps, at_scan(selfsync, True, call)),
                  ("step_us_per_step", 1e6 / steps, at_scan(selfsync, False, call))]
    return timed(*calls, repeats=SPAN_REPEATS)


def span_row(selfsync, graph: str, g, cfg, gvals, block: int) -> dict:
    delays = selfsync.DelayMatrix.uniform(g.n, (block - 1) * T_STEP)
    cfg = replace(cfg, horizon=SPAN_HORIZON)
    return {"graph": graph, **graph_fields(g, delays, T_STEP), "horizon": SPAN_HORIZON,
            **span_timed(selfsync, SPAN_HORIZON + 1,
                         lambda: selfsync.simulate(g, delays, cfg, gvals))}


def ring_case(selfsync, n: int, seed: int):
    """The directed n-cycle of unit weights, at T K d_in = 0.5."""
    w = np.zeros((n, n))
    w[np.arange(n), np.arange(n) - 1] = 1.0
    cfg = selfsync.SimConfig(t_step=T_STEP, k_gain=0.5 / T_STEP, horizon=SPAN_HORIZON)
    return selfsync.new_digraph(w), cfg, np.random.default_rng(seed).uniform(0.5, 1.5, n)


def span_rows(selfsync, seed: int) -> list[dict]:
    cases = [("sc14", demo_case(selfsync, seed)),
             ("netgen", build_case(selfsync, SPAN_NETGEN_N, seed, SPAN_HORIZON))]
    rows = [span_row(selfsync, graph, g, cfg, gvals, block)
            for graph, (g, _, cfg, gvals) in cases for block in SPAN_BLOCKS]
    return rows + [span_row(selfsync, "ring", *ring_case(selfsync, SPAN_RING_N, seed),
                            SPAN_RING_BLOCK)]


def mixed_span_row(selfsync, seed: int) -> dict:
    """The delayed passes of one mc-n40 batch, as ``_estimation_trials``
    builds them."""
    from selfsync import experiments

    cfg = {"n": MC_N, "horizon": MC_HORIZON, "seed": seed, **MC_CONFIG}
    seeds = [seed + 1000 * t for t in range(experiments.BATCH_TRIALS)]
    runs = [(g, delays, sim, np.column_stack([gvals, np.ones(g.n)]), None, "node_mean")
            for g, delays, sim, gvals, _ in (experiments._trial_inputs(cfg, s) for s in seeds)]
    spans = sorted(graph_fields(g, delays, T_STEP)["block"] for g, delays, *_ in runs)
    with pinned(1):
        return {"n": MC_N, "horizon": MC_HORIZON, "members": len(runs),
                "blocks": " ".join(map(str, spans)),
                **span_timed(selfsync, MC_HORIZON + 1,
                             lambda: selfsync.simulate_batch(runs))}


def protocol_op(selfsync, g, delays, cfg, gv) -> int:
    for horizon in SC_HORIZONS:
        try:
            selfsync.gamma_estimation_protocol(g, delays, replace(cfg, horizon=horizon), gv,
                                               mode="simulate")
            return horizon
        except selfsync.ProtocolError:
            continue
    raise RuntimeError(f"no synchronization up to horizon {SC_HORIZONS[-1]}")


def protocol_row(selfsync, n: int, seed: int) -> dict:
    case = sc_case(selfsync, n, seed, SC_HORIZONS[0])
    return {**graph_fields(case[0], case[1], SC_T_STEP), "horizon": protocol_op(selfsync, *case),
            **timed(("op_s", 1.0, lambda: protocol_op(selfsync, *case)))}


def trace_row(selfsync, record: str, g, delays, cfg, gvals, downsample: int) -> dict:
    traj = selfsync.simulate(g, delays, cfg, gvals)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.npz"
        fields = timed(("npz_ms", 1e3, lambda: selfsync.trajectory_to_npz(
            traj, path, downsample=downsample)))
        return {"record": record, **graph_fields(g, delays, T_STEP), "horizon": cfg.horizon,
                "rows": len(traj.times[::downsample]), "downsample": downsample, **fields,
                "npz_bytes": path.stat().st_size}


def setup_row(selfsync, n: int) -> dict:
    g, delays, cfg, gvals = build_case(selfsync, n, SETUP_SEED, horizon=1)
    # measured first, so that nothing has touched the new graph before
    peak = traced_peak_mb(lambda: selfsync.simulate(g, delays, cfg, gvals))
    return {**graph_fields(g, delays, T_STEP), "setup_peak_mb": peak}


def channel_row(selfsync, n: int, seed: int) -> dict:
    geom = selfsync.place_nodes(n, float(np.sqrt(n / DENSITY)), seed)
    return {"n": n, "links": n * (n - 1),
            **timed(("us_per_link", 1e6 / (n * (n - 1)),
                     lambda: selfsync.channel_rayleigh(geom, seed + 1)))}


def structure_row(selfsync, n: int, seed: int) -> dict:
    g, delays, _, _ = build_case(selfsync, n, seed, horizon=1)
    scc = selfsync.scc_decompose(g)
    return {**graph_fields(g, delays, T_STEP), "components": len(scc.components),
            "roots": len(scc.root_components),
            **timed(("scc_ms", 1e3, lambda: selfsync.scc_decompose(g)),
                    ("scc_gamma_ms", 1e3, lambda: selfsync.gamma_per_cluster(
                        selfsync.laplacian(g), selfsync.scc_decompose(g))))}


def load_config(n: int, seed: int) -> dict:
    """The gen config of the ``load`` and ``cold`` rows."""
    return {"n": n, "d_side": float(np.sqrt(n / DENSITY)), "tau_max": TAU_MAX,
            "threshold": THRESHOLD, "seed": seed}


def load_rows(selfsync, n: int, seed: int) -> list[dict]:
    from selfsync import cli

    with tempfile.TemporaryDirectory() as tmp:
        config, scen = Path(tmp) / "config.json", Path(tmp) / "scen"
        config.write_text(json.dumps(load_config(n, seed)))
        gen = timed(("gen_ms", 1e3, lambda: cli_main(cli, ["gen", str(config), "--out-dir",
                                                            str(scen)])))
        del gen["chunk_s"]
        rows = []
        for layout in ("table", "json"):
            table = scen / "links.npy"
            if layout == "json":
                table.unlink(missing_ok=True)  # the JSON files are read without it
            elif not table.exists():
                continue
            g, delays = cli._load_scenario(scen)[:2]
            rows.append({"layout": layout, **graph_fields(g, delays, T_STEP),
                         "bytes": sum(f.stat().st_size for f in scen.iterdir()), **gen,
                         **timed(("load_ms", 1e3, lambda: cli._load_scenario(scen))),
                         "peak_mb": traced_peak_mb(lambda: cli._load_scenario(scen))})
        return rows


def cold_row(src: str, n: int, seed: int) -> dict:
    env = {**os.environ, "PYTHONPATH": src}

    def fresh(*code: str):
        return lambda: subprocess.run([sys.executable, "-c", *code], env=env, check=True,
                                      stdout=subprocess.DEVNULL)

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(load_config(n, seed)))
        gen = ("import sys; from selfsync.cli import main; sys.exit(main(sys.argv[1:]))", "gen",
               str(config), "--out-dir", str(Path(tmp) / "scen"))
        return {"n": n, **timed(("cold_gen_ms", 1e3, fresh(*gen)),
                                ("import_ms", 1e3, fresh("import selfsync")))}


@contextlib.contextmanager
def pinned(cpus: int):
    """This process restricted to the first ``cpus`` of its usable CPUs."""
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(usable)[:cpus])
    try:
        yield
    finally:
        os.sched_setaffinity(0, usable)


def montecarlo_row(selfsync, trials: int, seed: int, cpus: int) -> dict:
    from selfsync import experiments

    cfg = {"n": MC_N, "horizon": MC_HORIZON, "seed": seed, **MC_CONFIG}
    noisy = {**cfg, "noise_std": MC_NOISE}
    clean_forks, noisy_forks = [], []
    with pinned(cpus):
        row = {"n": MC_N, "horizon": MC_HORIZON, "trials": trials, "cpus": cpus,
               **timed(("clean_s", 1.0, counting_forks(
                           lambda: experiments.run_estimation_montecarlo(cfg, trials),
                           clean_forks)),
                       ("noisy_s", 1.0, counting_forks(
                           lambda: experiments.run_estimation_montecarlo(noisy, trials),
                           noisy_forks))),
               "clean_forked": forked(clean_forks), "noisy_forked": forked(noisy_forks),
               "peak_mb": traced_peak_mb(lambda: experiments.run_estimation_montecarlo(cfg,
                                                                                       trials))}
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {**row, "child_maxrss_mb": child_kb / 1024}


def cli_main(cli, args: list[str], no_sync: bool = False) -> None:
    """cli.main(args), its stdout dropped; RuntimeError unless it exits 0, or
    3 (no sync within the horizon) where no_sync allows it."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    if code != cli.EXIT_OK and not (no_sync and code == cli.EXIT_NO_SYNC):
        raise RuntimeError(f"selfsync {' '.join(args)} failed")


def run_scenario(cli, n: int, seed: int, tmp: Path) -> Path:
    """A scenario made as the run-n300 workload makes it, at n nodes and the
    same node density."""
    cfg = {**RUN_CONFIG, "n": n, "d_side": RUN_CONFIG["d_side"] * (n / RUN_CONFIG["n"]) ** 0.5,
           "seed": seed, "g_values": np.random.default_rng(seed).uniform(0.5, 1.5, n).tolist()}
    config, scen = tmp / "config.json", tmp / "scen"
    config.write_text(json.dumps(cfg))
    cli_main(cli, ["gen", str(config), "--out-dir", str(scen)])
    return scen


def analysis_row(selfsync, n: int, seed: int) -> dict:
    from selfsync import cli, experiments

    with tempfile.TemporaryDirectory() as tmp:
        g, delays, sc = cli._load_scenario(run_scenario(cli, n, seed, Path(tmp)))[:3]
    gv = np.asarray(sc["g_values"])
    cfg = selfsync.SimConfig(t_step=T_STEP, k_gain=RUN_CONFIG["k_gain"],
                             horizon=RUN_CONFIG["horizon"])
    fresh = iter([selfsync.new_digraph(g.weights) for _ in range(REPEATS + 2)])

    def analyse():
        return experiments.analyse_scenario(next(fresh), delays, cfg, gv)

    return {**graph_fields(g, delays, T_STEP), **timed(("analysis_ms", 1e3, analyse)),
            "peak_mb": traced_peak_mb(analyse)}


def run_row(selfsync, n: int, seed: int) -> dict:
    from selfsync import cli

    with tempfile.TemporaryDirectory() as tmp:
        scen = run_scenario(cli, n, seed, Path(tmp))
        gen = ["gen", str(Path(tmp) / "config.json"), "--out-dir", str(scen)]
        run = ["run", str(scen), "--out-dir", str(Path(tmp) / "out"), "--downsample",
               str(TRACE_DOWNSAMPLE)]
        g, delays = cli._load_scenario(scen)[:2]
        forks = []
        return {**graph_fields(g, delays, T_STEP), "horizon": RUN_CONFIG["horizon"],
                **timed(("gen_ms", 1e3, lambda: cli_main(cli, gen)),
                        ("run_ms", 1e3, counting_forks(lambda: cli_main(cli, run, True),
                                                       forks))),
                "run_forked": forked(forks)}


def gather_row(selfsync, shape: str, g, delays, cfg, cols: int) -> dict:
    """The ``gather`` row of g with ``cols`` forcing columns: its entries
    grouped by (receiver, column) with sources ascending, tiled for one
    gather, over a random history; for ``np.bincount`` they are listed
    rank-major, each run's first entry last, with their bins."""
    dde_sim = selfsync.dde_sim
    mb = dde_sim._member(dde_sim.SimRun(g, delays, cfg, np.ones((g.n, cols))), "")
    n, coord = g.n, np.arange(cols)
    entry_bin = (mb.dst[:, None] * cols + coord).ravel()
    order = np.argsort(entry_bin, kind="stable")
    per_step = order.size
    steps = max(min(mb.span, dde_sim._BLOCK_ENTRIES // per_step), 1)
    shift = np.arange(steps)[:, None]
    lagged = ((mb.src + (mb.mmax - mb.lag) * n)[:, None] * cols + coord).ravel()[order]
    idx = (lagged + shift * n * cols).ravel()
    weight = np.tile(np.repeat(mb.weight, cols)[order], steps)
    first = np.searchsorted(entry_bin[order], np.arange(n * cols))
    starts = (first + shift * per_step).ravel()
    length = np.diff(np.r_[first, per_step])
    run = np.repeat(np.arange(n * cols), length)
    rank = (np.arange(per_step) - first[run] - 1) % length[run]
    bins = (run[np.lexsort((run, rank))] + shift * n * cols).ravel()
    xf = np.random.default_rng(0).normal(size=(mb.mmax + steps + 1) * n * cols)
    gathered = xf[idx]
    product = np.empty_like(gathered)  # the core multiplies in place; this stays finite
    z, summed = np.ones((mb.span, n, cols)), np.empty((mb.span, n, cols))

    def loop(call):
        return lambda: [call() for _ in range(GATHER_LOOPS)]

    calls = [("take_us", 1e6 / GATHER_LOOPS, loop(lambda: xf[idx])),
             ("multiply_us", 1e6 / GATHER_LOOPS,
              loop(lambda: np.multiply(gathered, weight, out=product))),
             ("reduceat_us", 1e6 / GATHER_LOOPS, loop(lambda: np.add.reduceat(product, starts))),
             ("bincount_us", 1e6 / GATHER_LOOPS,
              loop(lambda: np.bincount(bins, product, steps * n * cols)))]
    if mb.scans:
        calls.append(("accumulate_us", 1e6 / GATHER_LOOPS,
                      loop(lambda: np.add.accumulate(z, axis=0, out=summed))))
    return {"shape": shape, **graph_fields(g, delays, cfg.t_step), "columns": cols,
            "gather_steps": steps, "entries": idx.size, "longest_run": int(length.max()),
            "scans": bool(mb.scans), **timed(*calls)}


def gather_rows(selfsync, seed: int) -> list[dict]:
    from selfsync import cli

    g, delays, cfg, _ = sc_case(selfsync, 8, seed, SC_HORIZONS[0])
    rows = [gather_row(selfsync, "gamma-sweep", g, delays, cfg, 9)]
    for n in range(6, 11):  # complete digraphs: runs of n - 1 entries at the gamma-sweep shape
        g = selfsync.new_digraph(np.ones((n, n)) - np.eye(n))
        delays = selfsync.DelayMatrix.uniform(n, SC_TAU)
        rows.append(gather_row(selfsync, f"complete{n}", g, delays, replace(cfg, c_weights=1.0), 9))
    rows.append(gather_row(selfsync, "demo14", *demo_case(selfsync, seed)[:3], 1))
    with tempfile.TemporaryDirectory() as tmp:
        g, delays = cli._load_scenario(run_scenario(cli, RUN_CONFIG["n"], seed, Path(tmp)))[:2]
    cfg = selfsync.SimConfig(t_step=T_STEP, k_gain=RUN_CONFIG["k_gain"],
                             horizon=RUN_CONFIG["horizon"])
    return rows + [gather_row(selfsync, "run-n300", g, delays, cfg, 1)]


def show(section: str, rows: list[dict]) -> list[dict]:
    for row in rows:
        print(section, " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                for k, v in row.items()), flush=True)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="horizon 200 instead of 1000")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the selfsync package to time")
    ap.add_argument("--label", default="change", help="key of this result in --out")
    ap.add_argument("--out", default=None, help="JSON file to store the result in")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import selfsync

    horizon, seed = (200 if args.quick else 1000), args.seed
    start = time.perf_counter()
    result = {
        "quick": args.quick,
        "seed": seed,
        "repeats": REPEATS,
        "machine": {"cpu_count": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
                    "numpy": np.__version__,
                    "python": platform.python_version()},
        "sizes": show("sizes", [size_row(selfsync, n, horizon, seed) for n in SIZES]),
        "columns": show("columns", column_rows(selfsync, horizon, seed)),
        "demo14": show("demo14", [columns_row(selfsync, *demo_case(selfsync, seed)[:3], 1,
                                              seed)])[0],
        "span": show("span", span_rows(selfsync, seed) + [mixed_span_row(selfsync, seed)]),
        "protocol": show("protocol", [protocol_row(selfsync, n, seed) for n in SC_SIZES]),
        "trace": show("trace", [
            trace_row(selfsync, "demo14", *demo_case(selfsync, seed), 1),
            trace_row(selfsync, f"n{TRACE_N}", *build_case(selfsync, TRACE_N, seed, TRACE_HORIZON),
                      TRACE_DOWNSAMPLE)]),
        "setup": show("setup", [setup_row(selfsync, n) for n in SETUP_SIZES]),
        "channel": show("channel", [channel_row(selfsync, n, seed) for n in (40, 300)]),
        "structure": show("structure", [structure_row(selfsync, n, seed)
                                        for n in STRUCTURE_SIZES]),
        "load": show("load", [row for n in LOAD_SIZES for row in load_rows(selfsync, n, seed)]),
        "cold": show("cold", [cold_row(args.src, n, seed) for n in COLD_SIZES]),
        "montecarlo": show("montecarlo", [
            montecarlo_row(selfsync, trials, seed, cpus)
            for cpus in sorted({1, len(os.sched_getaffinity(0))}) for trials in MC_TRIALS]),
        "analysis": show("analysis", [analysis_row(selfsync, n, seed) for n in ANALYSIS_SIZES]),
        "run": show("run", [run_row(selfsync, n, seed)
                            for n in RUN_SIZES + (() if args.quick else (RUN_LARGE,))]),
        "gather": show("gather", gather_rows(selfsync, seed)),
    }
    result["wall_s"] = round(time.perf_counter() - start, 2)
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {}
        doc[args.label] = result
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
