"""Command-line surface: argument parsing, scenario and report files, exit codes."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import digraph, experiments, lanes, protocols, spectral, topologies
from .dde_sim import (
    SimConfig,
    SimulationError,
    detect_sync,
    detect_sync_auto,
    simulate,
    trajectory_to_npz,
)
from .netgen import DelayMatrix, check_delays

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_NO_SYNC = 3
EXIT_NUMERICAL = 4

def _read_json(path: Path) -> tuple[dict, bytes]:
    """The JSON document of path and the bytes it was read from."""
    try:
        data = path.read_bytes()
        return json.loads(data), data
    except FileNotFoundError as exc:
        raise ValueError(f"{path}: not found") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def _load_json(path: Path) -> dict:
    return _read_json(path)[0]


def _write_text(path: Path, text: str) -> bytes:
    """Write text and a newline to path; the bytes written."""
    data = (text + "\n").encode()
    path.write_bytes(data)
    return data


def _dump_json(obj: dict, path: Path) -> bytes:
    """Write obj to path as indented JSON; the bytes written."""
    return _write_text(path, json.dumps(obj, indent=1, sort_keys=True))


# ---------------------------------------------------------------- scenarios


def _scenario_record(cfg: dict) -> dict:
    keys = (
        "seed n d_side t_step k_gain eta powers threshold delay_mode channel_mode "
        "horizon noise_std c_weights g_values g_mode xi sigma2 tau tau_max topology"
    ).split()
    return {k: cfg[k] for k in keys if k in cfg}


# a record of links.npy: one link of the scenario, in `SensorDigraph.links` order
LINK_RECORD = np.dtype([("dst", "<i4"), ("src", "<i4"), ("weight", "<f8"), ("tau", "<f8")])
# the files links.npy mirrors, fingerprinted in scenario.json
MIRRORED = ("digraph.json", "delays.json")
# the format of analysis.json; a file of another version is not read
ANALYSIS_VERSION = 2


def _fingerprint(data: bytes) -> dict:
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _analysis_record(g: digraph.SensorDigraph, prediction) -> dict:
    """The connectivity and predicted consensus of g, one cluster per root
    component, as analysis.json holds them and `run` reports them."""
    return {
        "connectivity": g.scc.connectivity_class.value,
        "clusters": [{"component": cl.component, "nodes": sorted(cl.nodes), "value": cl.omega}
                     for cl in prediction.clusters],
    }


def _write_analysis(out: Path, g: digraph.SensorDigraph, delays: DelayMatrix,
                    sc_data: bytes) -> None:
    """analysis.json: `experiments.analyse_scenario` of the scenario in out,
    whose scenario.json holds sc_data, as a `run` without flags computes it,
    keyed by the fingerprint of scenario.json, which holds those of MIRRORED.
    None is written for an analysis that raises: `run` computes it and raises
    in its own order, and `gen` still writes the scenario."""
    file = out / "analysis.json"
    file.unlink(missing_ok=True)
    try:
        sc = json.loads(sc_data)
        cfg = _sim_config(sc, build_parser().parse_args(["run", "scenario"]))  # no flags
        analysis = experiments.analyse_scenario(g, delays, cfg, _g_values(sc, g))
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        print(f"{file} not written: {exc}", file=sys.stderr)
        return
    _dump_json({"version": ANALYSIS_VERSION, "fingerprint": _fingerprint(sc_data),
                **_analysis_record(g, analysis.prediction), "spectral_rates": analysis.rates},
               file)


def _delays_document(n: int, dst: np.ndarray, src: np.ndarray, link_tau: np.ndarray) -> str:
    """delays.json of n nodes whose link from src[k] to dst[k] lags link_tau[k]
    (links in `SensorDigraph.links` order, receivers ascending): the dense
    matrix with zeros off the links, on one line, as json.dumps writes it,
    without building the matrix. Only link delays are ever read, and the
    zeros keep it short to write and to parse."""
    zeros = ["0.0"] * n
    ends = np.cumsum(np.bincount(dst, minlength=n)).tolist()
    cols, taus = src.tolist(), link_tau.tolist()
    rows, lo = [], 0
    for hi in ends:
        row = zeros.copy()
        for j, t in zip(cols[lo:hi], taus[lo:hi]):
            row[j] = repr(t)  # a finite float's JSON number
        rows.append("[" + ", ".join(row) + "]")
        lo = hi
    tau_max = max(0.0, max(taus, default=0.0))  # the zeros off the links count
    return '{"n": %d, "tau": [%s], "tau_max": %r}' % (n, ", ".join(rows), tau_max)


def _write_scenario(
    out: Path, g: digraph.SensorDigraph, delays: DelayMatrix, cfg: dict, geom=None
) -> None:
    link_tau = check_delays(g, delays)  # no directory for a scenario that run rejects
    out.mkdir(parents=True, exist_ok=True)
    # each text is released once written and fingerprinted
    links = {"n": g.n}
    links["digraph.json"] = _fingerprint(_write_text(out / "digraph.json", digraph.to_document(g)))
    links["delays.json"] = _fingerprint(_write_text(
        out / "delays.json", _delays_document(g.n, g.dst, g.src, link_tau)))
    # the same links as one binary table, which run and inspect read while
    # the JSON files still match their fingerprints
    table = np.empty(g.dst.size, LINK_RECORD)
    table["dst"], table["src"] = g.dst, g.src
    table["weight"], table["tau"] = g.link_weights, link_tau
    np.save(out / "links.npy", table, allow_pickle=False)
    del table
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
    sc_data = _dump_json({**_scenario_record(cfg), "links": links}, out / "scenario.json")
    _write_analysis(out, g, delays, sc_data)


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


def _table_is_current(path: Path, links) -> bool:
    """Whether links.npy exists and scenario.json's `links` record matches the
    JSON files it mirrors as they are now; an edited file reads from JSON."""
    if not isinstance(links, dict) or not (path / "links.npy").is_file():
        return False
    for name in MIRRORED:
        file = path / name
        if not file.is_file() or links.get(name) != _fingerprint(file.read_bytes()):
            return False
    return True


def _load_table(path: Path, links: dict):
    """The digraph and delays of links.npy, checked as those of the JSON
    files are; a ValueError names the table."""
    table_path = path / "links.npy"
    try:
        table = np.load(table_path, allow_pickle=False)
        if table.dtype != LINK_RECORD or table.ndim != 1:
            raise ValueError(f"holds {table.dtype} of shape {table.shape}, "
                             f"not a list of {LINK_RECORD} records")
        g = digraph.from_links(experiments.config_int(links, "n"), table["dst"], table["src"],
                               table["weight"])
        delays = DelayMatrix.zero(g.n)
        delays.tau[table["dst"], table["src"]] = table["tau"]
        check_delays(g, delays)
    except (EOFError, ValueError) as exc:
        raise ValueError(f"{table_path}: {exc}") from exc
    return g, delays


def _load_documents(path: Path):
    g = digraph.from_document((path / "digraph.json").read_text())
    ddoc = _load_json(path / "delays.json")
    try:
        delays = DelayMatrix(tau=np.asarray(ddoc["tau"], dtype=float))
        check_delays(g, delays)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path / 'delays.json'}: {exc}") from exc
    return g, delays


def _load_scenario(path: Path):
    """(digraph, delays, scenario.json, fingerprint) of a scenario directory:
    from links.npy while the JSON files match their fingerprints, else from
    them. fingerprint is that of scenario.json when read from the table, and
    None from the JSON files, where no stored analysis is read."""
    sc, data = _read_json(path / "scenario.json")
    links = sc.get("links")
    if not _table_is_current(path, links):
        return (*_load_documents(path), sc, None)
    return (*_load_table(path, links), sc, _fingerprint(data))


def _check_analysis(doc: dict, n: int) -> None:
    """Raise unless doc holds an analysis of n nodes as `gen` writes it."""
    def indices(values, what: str) -> None:
        if not (isinstance(values, list)
                and all(type(v) is int and 0 <= v < n for v in values)):
            raise ValueError(f"{what} must be a list of indices in [0, {n})")

    digraph.Connectivity(doc["connectivity"])
    clusters = doc["clusters"]
    if not isinstance(clusters, list):
        raise ValueError("clusters must be a list of one cluster per root component")
    for cl in clusters:
        if not (isinstance(cl, dict) and cl.keys() == {"component", "nodes", "value"}
                and type(cl["value"]) is float):
            raise ValueError("a cluster must hold a component, its nodes and a float value")
        indices([cl["component"]], "a cluster's component")
        indices(cl["nodes"], "a cluster's nodes")
    if len({cl["component"] for cl in clusters}) != len(clusters):
        raise ValueError("clusters must be a list of one cluster per root component")
    rates = doc["spectral_rates"]
    if not (isinstance(rates, dict) and rates.keys() <= {"no_delay_spectrum", "kappa_bound"}
            and all(type(v) is float for v in rates.values())):
        raise ValueError("spectral_rates must map no_delay_spectrum and kappa_bound to floats")


def _stored_analysis(path: Path, n: int, fingerprint: dict | None) -> dict | None:
    """The analysis `gen` stored in analysis.json while it is current: of
    ANALYSIS_VERSION and computed from the scenario as read (fingerprint, from
    `_load_scenario`); None otherwise. A current file that is malformed, or
    a file that is not a JSON object, raises a ValueError naming it."""
    file = path / "analysis.json"
    if fingerprint is None or not file.is_file():
        return None
    doc = _load_json(file)
    if not isinstance(doc, dict):
        raise ValueError(f"{file}: not a JSON object")
    if doc.get("version") != ANALYSIS_VERSION or doc.get("fingerprint") != fingerprint:
        return None
    try:
        _check_analysis(doc, n)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{file}: {exc}") from exc
    return doc


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
    gvals = np.ones(g.n)
    if "g_values" in sc:
        gvals = np.broadcast_to(np.asarray(sc["g_values"], dtype=float), (g.n,)).copy()
    elif sc.get("g_mode") == "estimation":
        rng = np.random.default_rng(experiments.config_seed(sc) + 2)
        gvals = experiments.estimation_forcing(sc, g.n, rng)[1]
    if not np.isfinite(gvals).all():
        raise ValueError("forcing g_values must be finite")
    return gvals


def _finalize_report(report: dict, out: Path) -> None:
    """Write the report with the SHA-256 digest of its content; the scenario's
    path is left out of the digest, so that a scenario run from another
    directory gets the same one."""
    scenario = {k: v for k, v in report["scenario"].items() if k != "path"}
    body = json.dumps({**report, "scenario": scenario}, sort_keys=True)
    report["digest"] = hashlib.sha256(body.encode()).hexdigest()
    report["created_unix"] = time.time()
    _dump_json(report, out)


def cmd_run(args) -> int:
    path = Path(args.scenario)
    g, delays, sc, fingerprint = _load_scenario(path)
    cfg = _sim_config(sc, args)
    gvals = _g_values(sc, g)
    stored = _stored_analysis(path, g.n, fingerprint)
    out_dir = Path(args.out_dir or path)
    out_dir.mkdir(parents=True, exist_ok=True)
    # without a current stored analysis it is computed here, in the order in
    # which a failing part raises: the prediction before the simulation, the
    # rates after the trace is written
    analysis = stored or _analysis_record(g, protocols.predict_consensus(
        g, delays, cfg, gvals, quantize_delays=True))
    clusters = analysis["clusters"]
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "mode": args.mode,
        "scenario": {
            "path": str(path),
            "n": g.n,
            "seed": sc.get("seed"),
            "connectivity": analysis["connectivity"],
        },
        "predicted": {
            "global": len(clusters) == 1,
            "clusters": clusters,
            "unpredicted_nodes": sorted(
                set(range(g.n)).difference(*(cl["nodes"] for cl in clusters))),
        },
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
            rep = fn(g, delays, cfg, gvals, mode=args.exec_mode)
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
    traj = simulate(g, delays, cfg, gvals)
    scale = max(abs(cl["value"]) for cl in clusters)
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
    rates = dict(stored["spectral_rates"]) if stored else experiments.spectral_rates(g, cfg)
    if sync.global_sync and len(clusters) == 1:
        rates["empirical_fit"], rates["empirical_residual"] = spectral.empirical_rate(
            traj, clusters[0]["value"]
        )
    report["rates"] = rates
    report["trace"] = trace.name
    _finalize_report(report, out_dir / "report.json")
    # success: every predicted cluster actually synchronized
    measured_sets = {c.nodes for c in sync.clusters}
    ok = all(any(set(cl["nodes"]) <= m for m in measured_sets) for cl in clusters)
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
    g, delays, *_ = _load_scenario(Path(args.scenario))
    scc = g.scc
    print(f"nodes: {g.n}")
    print(f"connectivity: {scc.connectivity_class.value}")
    print(f"components: {[sorted(c) for c in scc.components]}")
    print(f"root components: {scc.root_components}")
    print(f"zero eigenvalue multiplicity: {len(scc.root_components)}")
    if len(scc.root_components) == 1:
        gamma = g.root_gammas[scc.root_components[0]]
        print(f"gamma (sum one): {np.array2string(gamma, precision=6)}")
        # with K = c = 1, the rates of K D_c^-1 L are those of L
        rates = experiments.spectral_rates(g, SimConfig())
        print(f"rate (no delay, unit gains): {rates['no_delay_spectrum']:.6g}")
        if "kappa_bound" in rates:
            print(f"kappa bound: {rates['kappa_bound']:.6g}")
    print(f"max link delay: {check_delays(g, delays).max(initial=0.0):.6g}")
    return EXIT_OK


# ---------------------------------------------------------------- entry


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process."""
    ap = argparse.ArgumentParser(prog="selfsync")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate scenario files from a config")
    p.add_argument("config")
    p.add_argument("--out-dir", default="scenario")
    p.add_argument("--seed", type=int, default=None)

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

    p = sub.add_parser("montecarlo", help="Monte-Carlo estimation experiment")
    p.add_argument("config")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default="montecarlo")

    p = sub.add_parser("inspect", help="print structure and rate bounds")
    p.add_argument("scenario")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # one BLAS thread, as in a lane: no output depends on the pool's size
        with lanes.one_blas_thread():
            # looked up per call, so that a wrapped or patched command is the one run
            return globals()[f"cmd_{args.command}"](args)
    except (SimulationError, spectral.SpectralError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (digraph.GraphValidationError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
