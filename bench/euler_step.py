#!/usr/bin/env python3
"""Layer microbenchmark: microseconds per Euler step of ``selfsync.simulate``.

    python3 bench/euler_step.py --quick
    python3 bench/euler_step.py --quick --src path/to/other/src --label parent --out BENCH.json

For each n in {14, 40, 200, 1000} it builds one seeded netgen graph (uniform
placement at a fixed node density, path-loss amplitudes pruned below 0.5,
geometry delays with the longest link lagging 50 steps), warms up, then times
``simulate`` five times and reports the median, min and max microseconds per
step, together with the median time of one ``detect_sync`` call on the last
trajectory. Each row
records n, nnz, mmax, the horizon and the block length s = 1 + the shortest
link lag in steps (the core advances s steps per gather; s = 1 when some link
has lag 0); the run records the CPU count and the
numpy and python versions. ``--quick`` shortens the horizon so the whole run
stays under 30 s even for a dense O(n^2) kernel. The ``demo14`` row times the
``selfsync run`` demo configuration: the 14-node SC reference digraph with a
uniform 50-step lag (s = 51), K = 30, one forcing column, horizon 8000.

Two more kinds of row time the protocol layer. ``columns`` rows give the
microseconds per step of L forcing columns, L in {1, n + 1} at n in {4, 8}
(seeded ``random_sc`` graphs) and L in {1, 2} at n = 40 (the netgen graph
above); a library whose ``simulate`` takes no forcing columns runs the L
forcings one after another, which ``calls`` records. ``protocol`` rows give
the median seconds of one ``gamma_estimation_protocol(mode="simulate")`` on
the same ``random_sc`` graphs, with the horizon escalation of the gamma sweep.

``trace`` rows time the trace writers on two records: the demo14 full trace
(8001 samples) and the n = 300 netgen graph above over horizon 1200, written
at downsample 10 as ``selfsync run`` on run-n300 does. Each record is written
as CSV and as npz, the two formats alternating within one process so that a
drift of the host's speed hits both alike; a row gives the minimum
milliseconds over the repeats and the bytes of each file. A library without
``trajectory_to_npz`` gets no npz figures.

selfsync is imported from ``--src`` (default: this checkout's ``src/``), so one
copy of the script can time two versions of the library on the same machine.
With ``--out`` the result is stored under ``--label`` in that JSON file, keeping
the other labels already there.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

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


def block_length(g, delays, t_step: float) -> int:
    """1 + the shortest link lag in steps: the steps the core advances per gather."""
    lags = np.rint(delays.tau[g.weights > 0] / t_step)
    return int(lags.min()) + 1 if lags.size else 1


def build_case(selfsync, n: int, seed: int):
    geom = selfsync.place_nodes(n, float(np.sqrt(n / DENSITY)), seed)
    g = selfsync.threshold_prune(selfsync.channel_pathloss(geom, 1.0), THRESHOLD)
    # speed such that the longest surviving link is delayed by TAU_MAX
    longest = float(geom.distances[g.weights > 0].max(initial=0.0))
    geom = replace(geom, speed=longest / TAU_MAX if longest > 0 else 1.0)
    delays = selfsync.delays_from_geometry(geom)
    # gain well inside the step-size guard T * K * in_degree < 2
    k_gain = 0.5 / (T_STEP * max(float(g.weights.sum(axis=1).max()), 1.0))
    gvals = np.random.default_rng(seed + 1).uniform(0.5, 1.5, n)
    w = g.weights
    lags = np.rint(delays.tau[w > 0] / T_STEP)
    return g, delays, gvals, k_gain, int((w > 0).sum()), int(lags.max()) if lags.size else 0


def time_size(selfsync, n: int, horizon: int, seed: int) -> dict:
    g, delays, gvals, k_gain, nnz, mmax = build_case(selfsync, n, seed)
    cfg = selfsync.SimConfig(t_step=T_STEP, k_gain=k_gain, horizon=horizon)
    selfsync.simulate(g, delays, replace(cfg, horizon=20), gvals)  # warm-up
    us_per_step = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        traj = selfsync.simulate(g, delays, cfg, gvals)
        us_per_step.append((time.perf_counter() - t0) / (horizon + 1) * 1e6)
    detect_ms = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        selfsync.detect_sync_auto(traj, cfg, omega_scale=1.0)
        detect_ms.append((time.perf_counter() - t0) * 1e3)
    return {
        "n": n,
        "nnz": nnz,
        "mmax": mmax,
        "block": block_length(g, delays, T_STEP),
        "horizon": horizon,
        "us_per_step": float(np.median(us_per_step)),
        "us_per_step_min": min(us_per_step),
        "us_per_step_max": max(us_per_step),
        "detect_ms": float(np.median(detect_ms)),
    }


def sc_case(selfsync, n: int, seed: int):
    rng = np.random.default_rng(seed + n)
    g = selfsync.topologies.random_sc(n, rng)
    return g, selfsync.DelayMatrix.uniform(n, SC_TAU), rng.uniform(0.5, 2.0, n), rng.normal(1.0, 0.4, n)


def run_columns(selfsync, g, delays, cfg, forcing) -> None:
    if hasattr(selfsync.Trajectory, "column"):
        selfsync.simulate(g, delays, cfg, forcing)
    else:  # one run per forcing column
        for col in forcing.T:
            selfsync.simulate(g, delays, cfg, col)


def time_columns(selfsync, g, delays, cfg, cols: int, seed: int) -> dict:
    forcing = np.random.default_rng(seed).uniform(0.5, 1.5, (g.n, cols))
    run_columns(selfsync, g, delays, replace(cfg, horizon=20), forcing)  # warm-up
    us_per_step = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run_columns(selfsync, g, delays, cfg, forcing)
        us_per_step.append((time.perf_counter() - t0) / (cfg.horizon + 1) * 1e6)
    return {
        "n": g.n,
        "columns": cols,
        "calls": 1 if hasattr(selfsync.Trajectory, "column") else cols,
        "nnz": int((g.weights > 0).sum()),
        "block": block_length(g, delays, cfg.t_step),
        "horizon": cfg.horizon,
        "us_per_step": float(np.median(us_per_step)),
        "us_per_step_min": min(us_per_step),
        "us_per_step_max": max(us_per_step),
    }


def column_rows(selfsync, horizon: int, seed: int) -> list[dict]:
    rows = []
    for n in SC_SIZES:
        g, delays, c, _ = sc_case(selfsync, n, seed)
        cfg = selfsync.SimConfig(t_step=SC_T_STEP, k_gain=SC_K_GAIN, c_weights=c,
                                 horizon=horizon)
        rows += [time_columns(selfsync, g, delays, cfg, cols, seed) for cols in (1, n + 1)]
    g, delays, _, k_gain, _, _ = build_case(selfsync, 40, seed)
    cfg = selfsync.SimConfig(t_step=T_STEP, k_gain=k_gain, horizon=horizon)
    rows += [time_columns(selfsync, g, delays, cfg, cols, seed) for cols in (1, 2)]
    return rows


def protocol_op(selfsync, case) -> int:
    g, delays, c, gv = case
    for horizon in SC_HORIZONS:
        cfg = selfsync.SimConfig(t_step=SC_T_STEP, k_gain=SC_K_GAIN, c_weights=c,
                                 horizon=horizon, sync_tol_rel=1e-7)
        try:
            selfsync.gamma_estimation_protocol(g, delays, cfg, gv, mode="simulate")
            return horizon
        except selfsync.ProtocolError:
            continue
    raise RuntimeError(f"no synchronization up to horizon {SC_HORIZONS[-1]}")


def protocol_rows(selfsync, seed: int) -> list[dict]:
    rows = []
    for n in SC_SIZES:
        case = sc_case(selfsync, n, seed)
        horizon = protocol_op(selfsync, case)  # warm-up
        op_s = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            protocol_op(selfsync, case)
            op_s.append(time.perf_counter() - t0)
        rows.append({
            "n": n,
            "nnz": int((case[0].weights > 0).sum()),
            "block": block_length(case[0], case[1], SC_T_STEP),
            "horizon": horizon,
            "op_s": float(np.median(op_s)),
            "op_s_min": min(op_s),
            "op_s_max": max(op_s),
        })
    return rows


def demo14_row(selfsync, seed: int) -> dict:
    g = selfsync.topologies.sc_14()
    delays = selfsync.DelayMatrix.uniform(g.n, DEMO_TAU)
    cfg = selfsync.SimConfig(t_step=T_STEP, k_gain=DEMO_K_GAIN, horizon=DEMO_HORIZON)
    row = time_columns(selfsync, g, delays, cfg, 1, seed)
    return {**row, "mmax": round(DEMO_TAU / T_STEP)}


def time_trace(selfsync, traj, downsample: int, tmp: Path) -> dict:
    writers = {"csv": selfsync.trajectory_to_csv,
               "npz": getattr(selfsync, "trajectory_to_npz", None)}
    formats = [fmt for fmt, write in writers.items() if write is not None]
    ms = {fmt: [] for fmt in formats}
    for rep in range(REPEATS):
        for fmt in formats if rep % 2 == 0 else formats[::-1]:
            path = tmp / f"trace.{fmt}"
            t0 = time.perf_counter()
            writers[fmt](traj, path, downsample=downsample)
            ms[fmt].append((time.perf_counter() - t0) * 1e3)
    row = {"rows": len(traj.times[::downsample]), "downsample": downsample}
    for fmt in writers:
        row[f"{fmt}_ms"] = min(ms[fmt]) if fmt in ms else None
        row[f"{fmt}_bytes"] = (tmp / f"trace.{fmt}").stat().st_size if fmt in ms else None
    return row


def trace_rows(selfsync, seed: int) -> list[dict]:
    demo = selfsync.topologies.sc_14()
    demo_delays = selfsync.DelayMatrix.uniform(demo.n, DEMO_TAU)
    demo_cfg = selfsync.SimConfig(t_step=T_STEP, k_gain=DEMO_K_GAIN, horizon=DEMO_HORIZON)
    demo_g = np.random.default_rng(seed).uniform(0.5, 1.5, demo.n)
    net, net_delays, net_g, k_gain, _, _ = build_case(selfsync, TRACE_N, seed)
    net_cfg = selfsync.SimConfig(t_step=T_STEP, k_gain=k_gain, horizon=TRACE_HORIZON)
    cases = [
        ("demo14", demo, demo_delays, demo_cfg, demo_g, 1),
        (f"n{TRACE_N}", net, net_delays, net_cfg, net_g, TRACE_DOWNSAMPLE),
    ]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for record, g, delays, cfg, gvals, downsample in cases:
            traj = selfsync.simulate(g, delays, cfg, gvals)
            rows.append({"record": record, "n": g.n, "block": block_length(g, delays, T_STEP),
                         "horizon": cfg.horizon,
                         **time_trace(selfsync, traj, downsample, Path(tmp))})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="horizon 200 instead of 1000")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory holding the selfsync package to time")
    ap.add_argument("--label", default="change", help="key of this result in --out")
    ap.add_argument("--out", default=None, help="JSON file to store the result in")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import selfsync

    horizon = 200 if args.quick else 1000
    start = time.perf_counter()
    rows = []
    for n in SIZES:
        row = time_size(selfsync, n, horizon, args.seed)
        rows.append(row)
        print(f"n={row['n']:5d} nnz={row['nnz']:7d} mmax={row['mmax']:3d} s={row['block']:2d} "
              f"{row['us_per_step']:9.1f} us/step (min {row['us_per_step_min']:.1f}, "
              f"max {row['us_per_step_max']:.1f})  detect_sync {row['detect_ms']:.2f} ms",
              flush=True)
    columns = column_rows(selfsync, horizon, args.seed)
    for row in columns:
        print(f"n={row['n']:5d} L={row['columns']:2d} calls={row['calls']:2d} s={row['block']:2d} "
              f"{row['us_per_step']:9.1f} us/step (min {row['us_per_step_min']:.1f}, "
              f"max {row['us_per_step_max']:.1f})", flush=True)
    demo14 = demo14_row(selfsync, args.seed)
    print(f"demo14 sc s={demo14['block']:2d} {demo14['us_per_step']:9.1f} us/step "
          f"(min {demo14['us_per_step_min']:.1f}, max {demo14['us_per_step_max']:.1f})",
          flush=True)
    protocol = protocol_rows(selfsync, args.seed)
    for row in protocol:
        print(f"n={row['n']:5d} s={row['block']:2d} gamma protocol (simulate, horizon {row['horizon']}) "
              f"{row['op_s'] * 1e3:8.1f} ms (min {row['op_s_min'] * 1e3:.1f}, "
              f"max {row['op_s_max'] * 1e3:.1f})", flush=True)
    trace = trace_rows(selfsync, args.seed)
    for row in trace:
        npz = ("no npz writer" if row["npz_ms"] is None else
               f"npz {row['npz_ms']:7.1f} ms {row['npz_bytes']:9d} B")
        print(f"trace {row['record']:6s} rows={row['rows']:5d} s={row['block']:2d} "
              f"csv {row['csv_ms']:7.1f} ms {row['csv_bytes']:9d} B  {npz}", flush=True)
    result = {
        "quick": args.quick,
        "seed": args.seed,
        "repeats": REPEATS,
        "wall_s": round(time.perf_counter() - start, 2),
        "machine": {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "sizes": rows,
        "columns": columns,
        "demo14": demo14,
        "protocol": protocol,
        "trace": trace,
    }
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {}
        doc[args.label] = result
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
