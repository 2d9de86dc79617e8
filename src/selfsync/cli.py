"""Command-line surface: argument parsing, scenario and report files, exit codes."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import digraph, experiments, lanes, protocols, spectral, topologies
from .dde_sim import (
    DelayMatrix,
    SimConfig,
    SimulationError,
    check_delays,
    detect_sync,
    detect_sync_auto,
    run_work,
    simulate,
    trajectory_to_npz,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_NO_SYNC = 3
EXIT_NUMERICAL = 4

def _load_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValueError(f"{path}: not found") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dump_json(obj: dict, path: Path) -> None:
    path.write_text(
        json.dumps(obj, indent=1, sort_keys=True, default=_json_default) + "\n"
    )


# ---------------------------------------------------------------- scenarios


def _scenario_record(cfg: dict) -> dict:
    keys = (
        "seed n d_side t_step k_gain eta powers threshold delay_mode channel_mode "
        "horizon noise_std c_weights g_values g_mode xi sigma2 tau tau_max topology"
    ).split()
    return {k: cfg[k] for k in keys if k in cfg}


def _write_scenario(
    out: Path, g: digraph.SensorDigraph, delays: DelayMatrix, cfg: dict, geom=None
) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "digraph.json").write_text(digraph.to_document(g) + "\n")
    # only link delays are ever read: zeros off the links, on one line, keep
    # the n x n matrix short to write and to parse
    link = DelayMatrix(tau=np.zeros((g.n, g.n)))
    link.tau[g.links] = delays.tau[g.links]
    (out / "delays.json").write_text(
        json.dumps({"n": g.n, "tau": link.tau.tolist(), "tau_max": link.tau_max}) + "\n"
    )
    if geom is not None:
        _dump_json(
            {
                "positions": geom.positions.tolist(),
                "powers": geom.powers.tolist(),
                "path_loss_exponent": geom.path_loss_exponent,
                "speed": geom.speed,
            },
            out / "geometry.json",
        )
    _dump_json(_scenario_record(cfg), out / "scenario.json")


def _gen_demo14(cfg: dict, out: Path) -> list[Path]:
    tau = float(cfg.get("tau", 50 * cfg.get("t_step", 1e-3)))
    paths = []
    for name, g in (
        ("sc", topologies.sc_14()),
        ("qsc", topologies.qsc_three_scc_14()),
        ("wc", topologies.wc_two_root_14()),
    ):
        sub = out / name
        _write_scenario(sub, g, DelayMatrix.uniform(g.n, tau), cfg)
        paths.append(sub)
    return paths


def cmd_gen(args) -> int:
    cfg = _load_json(Path(args.config))
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = Path(args.out_dir)
    seed = experiments.config_seed(cfg)
    if "horizon" in cfg:  # copied to scenario.json, where run reads it
        experiments.config_int(cfg, "horizon")
    if cfg.get("topology") == "demo14":
        paths = _gen_demo14(cfg, out)
    else:
        geom, g, delays = experiments.random_network(cfg, seed)
        _write_scenario(out, g, delays, cfg, geom=geom)
        paths = [out]
    for p in paths:
        print(f"scenario written: {p}")
    return EXIT_OK


# ---------------------------------------------------------------- run


def _load_scenario(path: Path):
    g = digraph.from_document((path / "digraph.json").read_text())
    ddoc = _load_json(path / "delays.json")
    try:
        link_tau = check_delays(g, DelayMatrix(tau=np.asarray(ddoc["tau"], dtype=float)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path / 'delays.json'}: {exc}") from exc
    # entries off the links meet zero weights; zeroed, as _write_scenario writes
    # them, a non-finite one (JSON takes Infinity and NaN) cannot poison a sum
    delays = DelayMatrix(tau=np.zeros((g.n, g.n)))
    delays.tau[g.links] = link_tau
    sc = _load_json(path / "scenario.json")
    return g, delays, sc


def _sim_config(sc: dict, args) -> SimConfig:
    kwargs = dict(
        t_step=float(sc.get("t_step", 1e-3)),
        k_gain=float(sc.get("k_gain", 1.0)),
        c_weights=np.asarray(sc.get("c_weights", 1.0), dtype=float),
        horizon=(args.horizon if args.horizon is not None
                 else experiments.config_int(sc, "horizon", 5000)),
        noise_std=float(sc.get("noise_std", 0.0)),
        rng_seed=args.seed if args.seed is not None else experiments.config_seed(sc),
    )
    if args.window is not None:
        kwargs["sync_window_frac"] = args.window
    # --tol and --downsample are checked here too, before any prediction or run
    if args.tol is not None and not (args.tol > 0 and np.isfinite(args.tol)):
        raise ValueError(f"sync tolerance must be positive and finite, got {args.tol}")
    if args.downsample < 1:
        raise ValueError(f"downsample must be at least 1, got {args.downsample}")
    return SimConfig(**kwargs)


def _g_values(sc: dict, g: digraph.SensorDigraph) -> np.ndarray:
    if "g_values" in sc:
        return np.broadcast_to(np.asarray(sc["g_values"], dtype=float), (g.n,)).copy()
    if sc.get("g_mode") == "estimation":
        rng = np.random.default_rng(experiments.config_seed(sc) + 2)
        return experiments.estimation_forcing(sc, g.n, rng)[1]
    return np.ones(g.n)


def _finalize_report(report: dict, out: Path) -> None:
    body = json.dumps(report, sort_keys=True, default=_json_default)
    report["digest"] = hashlib.sha256(body.encode()).hexdigest()
    report["created_unix"] = time.time()
    _dump_json(report, out)


def cmd_run(args) -> int:
    path = Path(args.scenario)
    g, delays, sc = _load_scenario(path)
    cfg = _sim_config(sc, args)
    gvals = _g_values(sc, g)
    analysis = None
    if args.mode == "simulate":
        # the analysis runs beside the simulation, in a forked lane when one
        # is open; one that failed is redone below in serial order, so that
        # each error is raised where a serial run raises it
        (traj, sim_error), (analysis, _) = lanes.run(
            [lambda: simulate(g, delays, cfg, gvals),
             lambda: experiments.analyse_scenario(g, delays, cfg, gvals)],
            [run_work(cfg.horizon, g.links[0].size, g.n), experiments.analysis_work(g.n)],
        )
    scc = analysis.scc if analysis else digraph.scc_decompose(g)
    out_dir = Path(args.out_dir or path)
    out_dir.mkdir(parents=True, exist_ok=True)
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "mode": args.mode,
        "scenario": {
            "path": str(path),
            "n": g.n,
            "seed": sc.get("seed"),
            "connectivity": scc.connectivity_class.value,
        },
    }
    pred = analysis.prediction if analysis else protocols.predict_consensus(
        g, delays, cfg, gvals, quantize_delays=True, scc=scc)
    report["predicted"] = {
        "global": len(pred.clusters) == 1,
        "clusters": [
            {"component": cl.component, "nodes": sorted(cl.nodes), "value": cl.omega}
            for cl in pred.clusters
        ],
        "unpredicted_nodes": sorted(pred.unpredicted),
    }

    if args.mode == "predict":
        _finalize_report(report, out_dir / "report.json")
        return EXIT_OK

    if args.mode in ("unbias2", "gamma_protocol"):
        fn = (
            protocols.two_step_unbias
            if args.mode == "unbias2"
            else protocols.gamma_estimation_protocol
        )
        try:
            rep = fn(g, delays, cfg, gvals, mode=args.exec_mode, scc=scc,
                     gammas={cl.component: cl.gamma for cl in pred.clusters})
        except protocols.ProtocolError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NO_SYNC
        report["unbias"] = {
            "omega_y": rep.omega_y,
            "omega_one": rep.omega_one,
            "ratio": rep.ratio,
            "mode": rep.mode,
        }
        if rep.gamma_tilde is not None:
            report["unbias"]["gamma_tilde"] = rep.gamma_tilde.tolist()
            report["unbias"]["compensated_c"] = rep.compensated_c.tolist()
        _finalize_report(report, out_dir / "report.json")
        return EXIT_OK

    # mode: simulate
    if sim_error is not None:
        raise sim_error
    scale = max(abs(cl.omega) for cl in pred.clusters)
    if args.tol is not None:
        window = cfg.sync_window(len(traj.times))
        sync = detect_sync(traj, tol=args.tol, window=window)
    else:
        sync = detect_sync_auto(traj, cfg, omega_scale=scale)
    trace = out_dir / "trace.npz"
    trajectory_to_npz(traj, trace, downsample=args.downsample)
    report["measured"] = {
        "global": sync.global_sync,
        "clusters": [
            {
                "nodes": sorted(c.nodes),
                "value": float(c.value),
                "detection_time": c.detection_time,
            }
            for c in sync.clusters
        ],
        "tol": sync.tol,
        "window": sync.window,
    }
    rates = analysis.rates if analysis else experiments.spectral_rates(g, cfg, scc, pred)
    if sync.global_sync and len(scc.root_components) == 1:
        rates["empirical_fit"], rates["empirical_residual"] = spectral.empirical_rate(
            traj, pred.omega_star
        )
    report["rates"] = rates
    report["trace"] = trace.name
    _finalize_report(report, out_dir / "report.json")
    # success: every predicted cluster actually synchronized
    measured_sets = {c.nodes for c in sync.clusters}
    ok = all(any(cl.nodes <= m for m in measured_sets) for cl in pred.clusters)
    if not ok:
        print("synchronization not detected within horizon", file=sys.stderr)
        return EXIT_NO_SYNC
    print(f"report written: {out_dir / 'report.json'}")
    return EXIT_OK


# ---------------------------------------------------------------- montecarlo


def cmd_montecarlo(args) -> int:
    cfg = _load_json(Path(args.config))
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    agg, final = experiments.run_estimation_montecarlo(cfg, int(args.trials))
    header = ",".join(agg.keys())
    np.savetxt(
        out / "montecarlo.csv",
        np.column_stack(list(agg.values())),
        delimiter=",",
        header=header,
        comments="",
    )
    _dump_json(final, out / "summary.json")
    print(f"wrote {out / 'montecarlo.csv'} and {out / 'summary.json'}")
    return EXIT_OK


# ---------------------------------------------------------------- inspect


def cmd_inspect(args) -> int:
    g, delays, sc = _load_scenario(Path(args.scenario))
    scc = digraph.scc_decompose(g)
    lap = digraph.laplacian(g)
    print(f"nodes: {g.n}")
    print(f"connectivity: {scc.connectivity_class.value}")
    print(f"components: {[sorted(c) for c in scc.components]}")
    print(f"root components: {scc.root_components}")
    print(f"zero eigenvalue multiplicity: {len(scc.root_components)}")
    if len(scc.root_components) == 1:
        gamma = spectral.gamma_left_eigenvector(lap, scc)
        print(f"gamma (sum one): {np.array2string(gamma, precision=6)}")
        rate = spectral.rate_no_delay(lap, scc)
        print(f"rate (no delay, unit gains): {rate:.6g}")
        if scc.connectivity_class is digraph.Connectivity.SC:
            kappa = spectral.rate_kappa_bound(lap, scc, gamma, rate)
            print(f"kappa bound: {kappa:.6g}")
    print(f"max link delay: {delays.tau[g.links].max(initial=0.0):.6g}")
    return EXIT_OK


# ---------------------------------------------------------------- entry


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="selfsync")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate scenario files from a config")
    p.add_argument("config")
    p.add_argument("--out-dir", default="scenario")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="simulate / predict / run protocols on a scenario")
    p.add_argument("scenario")
    p.add_argument(
        "--mode",
        choices=["simulate", "predict", "unbias2", "gamma_protocol"],
        default="simulate",
    )
    p.add_argument("--exec-mode", choices=["predict", "simulate"], default="simulate",
                   help="how protocol passes are executed")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--window", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--downsample", type=int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("montecarlo", help="Monte-Carlo estimation experiment")
    p.add_argument("config")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default="montecarlo")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("inspect", help="print structure and rate bounds")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_inspect)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SimulationError, spectral.SpectralError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (digraph.GraphValidationError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
