"""Command-line driver: generation, runs, Monte-Carlo, exit codes."""

import contextlib
import ctypes
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_children, lanes, refuse_fork
from selfsync import (cli, dde_sim, digraph, experiments, netgen, protocols, spectral, stats,
                     topologies)
from selfsync import lanes as lanes_module
from selfsync.cli import (
    EXIT_BAD_CONFIG,
    EXIT_NO_SYNC,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)
from selfsync.dde_sim import DelayMatrix, SimConfig, simulate
from selfsync.experiments import run_estimation_trial
from selfsync.spectral import SpectralError


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def demo_config(tmp_path):
    return write_json(
        tmp_path / "cfg.json",
        {
            "topology": "demo14",
            "seed": 0,
            "t_step": 1e-3,
            "k_gain": 30.0,
            "tau": 0.05,
            "horizon": 6000,
            "g_values": list(np.linspace(0.8, 1.2, 14)),
        },
    )


@pytest.fixture
def demo_scenarios(tmp_path, demo_config):
    out = tmp_path / "scen"
    assert main(["gen", demo_config, "--out-dir", str(out)]) == EXIT_OK
    return out


# ---------------------------------------------------------------- gen


def test_gen_writes_three_topology_dirs(demo_scenarios):
    for name in ("sc", "qsc", "wc"):
        sub = demo_scenarios / name
        assert (sub / "digraph.json").exists()
        assert (sub / "delays.json").exists()
        assert (sub / "scenario.json").exists()


def test_gen_deterministic_bytes(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"n": 9, "seed": 12, "d_side": 3.0, "tau_max": 0.05, "threshold": 0.1},
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", cfg, "--out-dir", str(a)]) == EXIT_OK
    assert main(["gen", cfg, "--out-dir", str(b)]) == EXIT_OK
    for name in ("digraph.json", "delays.json", "geometry.json", "scenario.json",
                 "analysis.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_and_montecarlo_seed_flags_write_what_the_config_seed_writes(tmp_path):
    def outputs(command, cfg, out, flags=()):
        assert main([command, write_json(tmp_path / f"{out}.json", cfg), "--out-dir",
                     str(tmp_path / out), *flags]) == EXIT_OK
        return {f.name: f.read_bytes() for f in (tmp_path / out).iterdir()}

    network = {"n": 9, "seed": 12, "d_side": 3.0, "tau_max": 0.05, "threshold": 0.1}
    flagged = outputs("gen", {**network, "seed": 0}, "gen-flag", ["--seed", "12"])
    assert flagged == outputs("gen", network, "gen-config")
    assert flagged != outputs("gen", {**network, "seed": 0}, "gen-other")
    trials = ["--trials", "2"]
    estimation = json.loads(Path(mc_config(tmp_path)).read_text())
    flagged = outputs("montecarlo", {**estimation, "seed": 0}, "mc-flag", [*trials, "--seed", "2"])
    assert flagged == outputs("montecarlo", estimation, "mc-config", trials)
    assert flagged != outputs("montecarlo", {**estimation, "seed": 0}, "mc-other", trials)


def rayleigh_geometry_pipeline():
    geom = netgen.speed_for_max_delay(netgen.place_nodes(9, 3.0, 12), 0.05)
    g = netgen.threshold_prune(netgen.channel_rayleigh(geom, 13), 0.1)
    return geom, g, netgen.delays_from_geometry(geom)


def pathloss_uniform_pipeline():
    geom = netgen.place_nodes(8, 2.0, 5, powers=2.0, path_loss_exponent=3.0)
    g = netgen.threshold_prune(netgen.channel_pathloss(geom, 0.7), 0.2)
    return geom, g, DelayMatrix.uniform(8, 0.02)


def rayleigh_pruned_pipeline():
    geom = netgen.speed_for_max_delay(netgen.place_nodes(12, 3.0, 3), 0.05)
    g = netgen.threshold_prune(netgen.channel_rayleigh(geom, 4), 0.6)
    assert (g.weights == 0.0).sum() > 12  # pruning dropped links, not only the diagonal
    return geom, g, netgen.delays_from_geometry(geom)


@pytest.mark.parametrize(
    "cfg, pipeline",
    [
        (
            {"n": 9, "seed": 12, "d_side": 3.0, "tau_max": 0.05, "threshold": 0.1},
            rayleigh_geometry_pipeline,
        ),
        (
            {"n": 8, "seed": 5, "d_side": 2.0, "powers": 2.0, "eta": 3.0, "threshold": 0.2,
             "delay_mode": {"mode": "uniform", "tau": 0.02},
             "channel_mode": {"mode": "pathloss", "fading": 0.7}},
            pathloss_uniform_pipeline,
        ),
        (
            {"n": 12, "seed": 3, "d_side": 3.0, "tau_max": 0.05, "threshold": 0.6},
            rayleigh_pruned_pipeline,
        ),
    ],
    ids=["rayleigh-geometry", "pathloss-uniform", "rayleigh-pruned"],
)
def test_gen_writes_the_netgen_pipeline(tmp_path, cfg, pipeline):
    geom, g, delays = pipeline()
    out = tmp_path / "scen"
    assert main(["gen", write_json(tmp_path / "cfg.json", cfg), "--out-dir", str(out)]) == EXIT_OK
    written = digraph.from_document((out / "digraph.json").read_text())
    assert np.array_equal(written.weights, g.weights)
    doc = json.loads((out / "delays.json").read_text())
    link_tau = np.where(g.weights > 0, delays.tau, 0.0)  # the file keeps link delays only
    assert np.array_equal(doc["tau"], link_tau) and doc["tau_max"] == link_tau.max()
    doc = json.loads((out / "geometry.json").read_text())
    assert np.array_equal(doc["positions"], geom.positions) and doc["speed"] == geom.speed


def test_gen_rejects_zero_nodes(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"n": 0, "seed": 1})
    assert main(["gen", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_BAD_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg",
    [{"topology": "demo14", "tau": -0.05}, {"topology": "demo14", "tau": float("nan")},
     {"n": 6, "seed": 1, "delay_mode": {"mode": "uniform", "tau": -1}}],
    ids=["demo14-negative", "demo14-nan", "uniform-negative"],
)
def test_gen_rejects_delays_that_run_rejects_and_writes_nothing(tmp_path, capsys, cfg):
    out = tmp_path / "o"
    assert main(["gen", write_json(tmp_path / "cfg.json", cfg), "--out-dir", str(out)]) == (
        EXIT_BAD_CONFIG)
    assert "is not finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("n", 2.5), ("horizon", 2.5), ("n", True)])
def test_gen_rejects_a_fractional_count(tmp_path, capsys, key, value):
    cfg = write_json(tmp_path / "cfg.json", {"n": 4, "seed": 1, "horizon": 100, key: value})
    assert main(["gen", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_BAD_CONFIG
    assert f"config error: {key} must be a whole number" in capsys.readouterr().err
    assert not (tmp_path / "o" / "scenario.json").exists()


@pytest.mark.parametrize("value", [2.5, -1])
def test_gen_rejects_a_seed_that_is_not_a_whole_number_of_at_least_0(tmp_path, capsys, value):
    cfg = write_json(tmp_path / "cfg.json", {"n": 4, "seed": value})
    assert main(["gen", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_BAD_CONFIG
    assert f"config error: seed must be a whole number of at least 0, got {value!r}" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["_sim_config", "_g_values"])
def test_run_rejects_a_fractional_scenario_seed(demo_scenarios, tmp_path, capsys, where):
    path = demo_scenarios / "sc" / "scenario.json"
    sc = {**json.loads(path.read_text()), "seed": 2.5}
    argv = ["run", str(demo_scenarios / "sc"), "--out-dir", str(tmp_path / "o")]
    if where == "_g_values":
        # --seed leaves the scenario's seed to the estimation forcing alone
        sc = {**sc, "g_mode": "estimation"}
        del sc["g_values"]
        argv += ["--seed", "3"]
    path.write_text(json.dumps(sc))
    assert main(argv) == EXIT_BAD_CONFIG
    assert "config error: seed must be a whole number of at least 0, got 2.5" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "o").exists()


def test_run_rejects_a_fractional_scenario_horizon(demo_scenarios, tmp_path, capsys):
    path = demo_scenarios / "sc" / "scenario.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "horizon": 2.5}))
    code = main(["run", str(demo_scenarios / "sc"), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_BAD_CONFIG
    assert "config error: horizon must be a whole number" in capsys.readouterr().err


def test_gen_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen", str(bad), "--out-dir", str(tmp_path / "o")]) == EXIT_BAD_CONFIG
    assert "line 1" in capsys.readouterr().err


def test_gen_missing_config(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["gen", missing, "--out-dir", str(tmp_path / "o")]) == EXIT_BAD_CONFIG


# ---------------------------------------------------------------- run


def test_run_simulate_global_sync(demo_scenarios, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["run", str(demo_scenarios / "qsc"), "--mode", "simulate", "--out-dir", str(out)]
    )
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["predicted"]["global"] is True
    assert report["measured"]["global"] is True
    assert (out / "trace.npz").exists()
    measured = report["measured"]["clusters"][0]["value"]
    predicted = report["predicted"]["clusters"][0]["value"]
    assert measured == pytest.approx(predicted, rel=1e-3)


def test_run_predict_on_multi_root_reports_per_cluster(demo_scenarios, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["run", str(demo_scenarios / "wc"), "--mode", "predict", "--out-dir", str(out)]
    )
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["predicted"]["global"] is False
    assert len(report["predicted"]["clusters"]) == 2
    assert sorted(report["predicted"]["unpredicted_nodes"]) == list(range(10, 14))


def test_run_short_horizon_exits_nonzero(demo_scenarios, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            str(demo_scenarios / "sc"),
            "--mode",
            "simulate",
            "--horizon",
            "300",
            "--out-dir",
            str(out),
        ]
    )
    assert code == EXIT_NO_SYNC
    assert "synchronization" in capsys.readouterr().err


def test_run_step_size_failure_exits_numerical(tmp_path, capsys):
    # T_s * K * in_degree(0) = 0.1 * 30 * 1 = 3 trips the step-size guard
    cfg = write_json(
        tmp_path / "cfg.json",
        {"topology": "demo14", "seed": 0, "t_step": 0.1, "k_gain": 30.0, "tau": 0.2},
    )
    scen = tmp_path / "scen"
    assert main(["gen", cfg, "--out-dir", str(scen)]) == EXIT_OK
    code = main(["run", str(scen / "sc"), "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical error: step-size instability" in err
    assert "T_s * k_0 * in_degree(0) = 3.000 >= 2" in err


def test_run_negative_noise_std_exits_bad_config(demo_scenarios, tmp_path, capsys):
    scenario = demo_scenarios / "sc" / "scenario.json"
    write_json(scenario, {**json.loads(scenario.read_text()), "noise_std": -0.1})
    code = main(["run", str(demo_scenarios / "sc"), "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_BAD_CONFIG
    assert "config error: noise std must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("key", ["noise_std", "t_step", "k_gain", "c_weights", "g_values"])
def test_run_nan_literal_exits_bad_config(demo_scenarios, tmp_path, capsys, key):
    scenario = demo_scenarios / "sc" / "scenario.json"
    write_json(scenario, {**json.loads(scenario.read_text()), key: float("nan")})
    assert "NaN" in scenario.read_text()
    # in every mode, before anything is written
    for mode in (["simulate"], ["predict"], ["unbias2", "--exec-mode", "predict"],
                 ["gamma_protocol"]):
        code = main(["run", str(demo_scenarios / "sc"), "--mode", *mode,
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_BAD_CONFIG
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--tol", "nan", "got nan"),
        ("--tol", "0", "got 0.0"),
        ("--window", "nan", "got nan"),
        ("--window", "0", "got 0.0"),
        ("--horizon", "0", "got 0"),
        ("--downsample", "-1", "got -1"),
    ],
)
def test_run_rejects_out_of_range_flags(demo_scenarios, tmp_path, capsys, flag, value, named):
    out = tmp_path / "out"
    code = main(["run", str(demo_scenarios / "sc"), flag, value, "--out-dir", str(out)])
    assert code == EXIT_BAD_CONFIG
    assert named in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert not (out / "trace.npz").exists() and not (out / "trace.csv").exists()


@pytest.mark.parametrize("flag, value, named", [("--tol", "nan", "got nan"),
                                                ("--downsample", "0", "got 0")])
def test_run_checks_flags_before_any_work(
    demo_scenarios, tmp_path, capsys, monkeypatch, flag, value, named
):
    def no_work(*args, **kwargs):
        raise AssertionError("prediction or simulation ran before the flags were checked")

    monkeypatch.setattr(protocols, "predict_consensus", no_work)
    monkeypatch.setattr(cli, "simulate", no_work)
    code = main(["run", str(demo_scenarios / "sc"), flag, value, "--out-dir", str(tmp_path)])
    assert code == EXIT_BAD_CONFIG
    assert named in capsys.readouterr().err


def test_run_writes_the_strided_trajectory_as_trace_npz(demo_scenarios, tmp_path, monkeypatch):
    runs = []

    def recording(*args, **kwargs):
        runs.append(simulate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "simulate", recording)
    out = tmp_path / "out"
    assert main(["run", str(demo_scenarios / "sc"), "--downsample", "3",
                 "--out-dir", str(out)]) == EXIT_OK
    (traj,) = runs
    assert json.loads((out / "report.json").read_text())["trace"] == "trace.npz"
    assert not (out / "trace.csv").exists()
    with np.load(out / "trace.npz") as trace:
        assert np.array_equal(trace["t"], traj.times[::3])
        assert np.array_equal(trace["x"], traj.states[::3])
        assert np.array_equal(trace["dx"], traj.derivatives[::3])


@pytest.mark.parametrize("exec_mode", ["predict", "simulate"])
@pytest.mark.parametrize("mode", ["unbias2", "gamma_protocol"])
def test_protocol_runs_decompose_the_digraph_once(
    demo_scenarios, tmp_path, monkeypatch, mode, exec_mode
):
    calls = []
    decompose = digraph.scc_decompose

    def counting(g):
        calls.append(g.n)
        return decompose(g)

    monkeypatch.setattr(digraph, "scc_decompose", counting)
    argv = ["run", str(demo_scenarios / "sc"), "--mode", mode, "--exec-mode", exec_mode,
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    assert calls == [14]


def test_run_unbias_mode_reports_ratio(demo_scenarios, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            str(demo_scenarios / "sc"),
            "--mode",
            "unbias2",
            "--exec-mode",
            "predict",
            "--out-dir",
            str(out),
        ]
    )
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    ub = report["unbias"]
    assert ub["ratio"] == pytest.approx(ub["omega_y"] / ub["omega_one"])


def test_run_gamma_protocol_mode(demo_scenarios, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            str(demo_scenarios / "qsc"),
            "--mode",
            "gamma_protocol",
            "--exec-mode",
            "predict",
            "--out-dir",
            str(out),
        ]
    )
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert len(report["unbias"]["gamma_tilde"]) == 14


def test_run_gamma_protocol_without_sync_says_why(demo_scenarios, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(demo_scenarios / "qsc"), "--mode", "gamma_protocol",
                 "--horizon", "500", "--out-dir", str(out)])
    assert code == EXIT_NO_SYNC
    err = capsys.readouterr().err
    assert re.search(
        r"^error: simulation pass did not reach global synchronization in column \d+ of 7: "
        r"largest node deviation from its window mean \S+ against tol \S+ at horizon 500$",
        err.strip(),
    )


def test_run_reports_identical_modulo_timestamp(demo_scenarios, tmp_path):
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        main(["run", str(demo_scenarios / "qsc"), "--out-dir", str(out)])
        outs.append(json.loads((out / "report.json").read_text()))
    for rep in outs:
        rep.pop("created_unix")
    assert outs[0] == outs[1]


def test_run_digest_does_not_depend_on_the_scenario_path(demo_scenarios, tmp_path):
    moved = tmp_path / "elsewhere" / "sc"
    shutil.copytree(demo_scenarios / "sc", moved)
    reports = {}
    for name, scen, extra in (("here", demo_scenarios / "sc", []), ("moved", moved, []),
                              ("short", moved, ["--horizon", "5000"])):
        out = tmp_path / name
        assert main(["run", str(scen), "--out-dir", str(out)] + extra) == EXIT_OK
        reports[name] = json.loads((out / "report.json").read_text())
    assert reports["here"]["scenario"]["path"] == str(demo_scenarios / "sc")
    assert reports["moved"]["scenario"]["path"] == str(moved)
    assert reports["here"]["digest"] == reports["moved"]["digest"]
    assert reports["short"]["digest"] != reports["moved"]["digest"]


# ---------------------------------------------------------------- montecarlo


def mc_config(tmp_path, **overrides):
    cfg = {
        "seed": 2,
        "n": 12,
        "d_side": 3.0,
        "t_step": 1e-3,
        "k_gain": 30.0,
        "tau_max": 0.1,
        "xi": 1.0,
        "sigma2": 0.25,
        "horizon": 800,
    }
    cfg.update(overrides)
    return write_json(tmp_path / "mc.json", cfg)


def test_montecarlo_outputs_and_header(tmp_path):
    cfg = mc_config(tmp_path)
    out = tmp_path / "mc"
    assert main(["montecarlo", cfg, "--trials", "3", "--out-dir", str(out)]) == EXIT_OK
    header = (out / "montecarlo.csv").read_text().splitlines()[0]
    assert header.split(",") == [
        "step",
        "t",
        "nodelay_mean",
        "nodelay_std",
        "delayed_mean",
        "delayed_std",
        "twostep_mean",
        "twostep_std",
        "centralized_mean",
    ]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 3


def test_montecarlo_single_trial_has_zero_std(tmp_path):
    cfg = mc_config(tmp_path)
    out = tmp_path / "mc1"
    assert main(["montecarlo", cfg, "--trials", "1", "--out-dir", str(out)]) == EXIT_OK
    data = np.loadtxt(out / "montecarlo.csv", delimiter=",", skiprows=1)
    std_cols = data[:, [3, 5, 7]]
    assert np.all(std_cols == 0.0)


def test_montecarlo_negative_noise_std_exits_bad_config(tmp_path, capsys):
    cfg = mc_config(tmp_path, noise_std=-0.1)
    code = main(["montecarlo", cfg, "--trials", "2", "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_BAD_CONFIG
    assert "config error: noise std must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "x" / "summary.json").exists()


@pytest.mark.parametrize("key", ["noise_std", "k_gain"])
def test_montecarlo_nan_literal_exits_bad_config(tmp_path, capsys, key):
    cfg = mc_config(tmp_path, **{key: float("nan")})
    assert "NaN" in (tmp_path / "mc.json").read_text()
    code = main(["montecarlo", cfg, "--trials", "2", "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_BAD_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x" / "summary.json").exists()


@pytest.mark.parametrize(
    "key, value", [("n", 0), ("horizon", -1), ("horizon", 0), ("n", 2.5), ("horizon", 800.5)]
)
def test_montecarlo_rejects_a_count_below_one_or_fractional(tmp_path, capsys, key, value):
    cfg = mc_config(tmp_path, **{key: value})
    code = main(["montecarlo", cfg, "--trials", "2", "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_BAD_CONFIG
    assert f"config error: {key} must be a whole number of at least 1, got {value!r}" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "x" / "summary.json").exists()


def test_montecarlo_rejects_a_fractional_seed(tmp_path, capsys):
    cfg = mc_config(tmp_path, seed=2.5)
    code = main(["montecarlo", cfg, "--trials", "2", "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_BAD_CONFIG
    assert "config error: seed must be a whole number of at least 0, got 2.5" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "x" / "summary.json").exists()
    cfg = mc_config(tmp_path, seed=0)
    assert main(["montecarlo", cfg, "--trials", "2", "--out-dir", str(tmp_path / "x")]) == EXIT_OK


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_montecarlo_divergence_in_a_child_lane_exits_numerical(tmp_path, capsys):
    # the states overflow: the zero-delay passes, the lighter step group and
    # the first in serial order, fail in the forked lane
    cfg = mc_config(tmp_path, xi=1e308, horizon=1000)
    errs = []
    for cpus in (1, 2):
        with lanes(cpus=cpus) as forks:
            code = main(["montecarlo", cfg, "--trials", "3", "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_NUMERICAL and len(forks) == cpus - 1
        errs.append(capsys.readouterr().err)
    assert errs[0].startswith("numerical error: member 0: non-finite state at step ")
    assert errs[1] == errs[0]
    assert_no_children()


def test_montecarlo_rejects_zero_trials(tmp_path):
    cfg = mc_config(tmp_path)
    code = main(["montecarlo", cfg, "--trials", "0", "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_BAD_CONFIG


# ---------------------------------------------------------------- inspect


def test_inspect_prints_structure(demo_scenarios, capsys):
    assert main(["inspect", str(demo_scenarios / "qsc")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "connectivity: QSC" in out
    assert "gamma" in out


def test_inspect_multi_root_scenario(demo_scenarios, capsys):
    assert main(["inspect", str(demo_scenarios / "wc")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "connectivity: WC" in out
    assert "zero eigenvalue multiplicity: 2" in out


def write_full_delays(scen, delays):
    """Overwrite delays.json in the full pairwise layout, with a delay for every pair."""
    tau = delays.tau
    write_json(scen / "delays.json", {"n": len(tau), "tau": tau.tolist(), "tau_max": tau.max()})


def test_inspect_prints_the_longest_link_delay(tmp_path, capsys):
    cfg = {"n": 12, "seed": 3, "d_side": 3.0, "tau_max": 0.05, "threshold": 0.6}
    out = tmp_path / "scen"
    assert main(["gen", write_json(tmp_path / "cfg.json", cfg), "--out-dir", str(out)]) == EXIT_OK
    write_full_delays(out, experiments.random_network(cfg, cfg["seed"])[2])
    g = digraph.from_document((out / "digraph.json").read_text())
    tau = np.asarray(json.loads((out / "delays.json").read_text())["tau"])
    longest = tau[g.weights > 0.0].max()
    assert longest < tau.max()  # pruning dropped the most distant pair
    capsys.readouterr()
    assert main(["inspect", str(out)]) == EXIT_OK
    assert f"max link delay: {longest:.6g}\n" in capsys.readouterr().out


def test_the_run_path_holds_the_dense_delays_alone_and_never_builds_the_weights(tmp_path):
    """A table of 3000 links at n = 1000, loaded and set up as `run` does it:
    the dense tau, 8 MB, is the one n x n array, and g.weights is never built."""
    n = 1000
    dst = np.repeat(np.arange(n), 3)
    src = (dst + np.tile([1, 7, 100], n)) % n
    order = np.lexsort((src, dst))
    table = np.empty(dst.size, cli.LINK_RECORD)
    table["dst"], table["src"] = dst[order], src[order]
    table["weight"], table["tau"] = 0.5, 0.004
    np.save(tmp_path / "links.npy", table)
    tracemalloc.start()
    try:
        g, delays = cli._load_table(tmp_path, {"n": n})
        member = dde_sim._member(dde_sim.SimRun(g, delays, SimConfig(horizon=10), np.ones(n)), "")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n * n * 8 <= peak < 1.5 * n * n * 8
    assert "weights" not in vars(g)
    assert member.weight.size == dst.size and np.array_equal(member.indeg, np.full(n, 1.5))


def test_gen_holds_no_text_through_the_analysis(tmp_path, monkeypatch):
    """While the analysis runs, gen holds less beyond what it held before
    writing than half the smaller JSON file: each text and its bytes go once
    written."""
    held = []
    for module, name in ((cli, "_write_scenario"), (experiments, "analyse_scenario")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn, **kwargs: held.append(
            tracemalloc.get_traced_memory()[0]) or fn(*args, **kwargs))
    cfg = write_json(tmp_path / "n300.json", N300_CONFIG)
    tracemalloc.start()
    try:
        assert main(["gen", cfg, "--out-dir", str(tmp_path / "scen")]) == EXIT_OK
    finally:
        tracemalloc.stop()
    smaller = min((tmp_path / "scen" / name).stat().st_size for name in cli.MIRRORED)
    assert held[1] - held[0] < smaller / 2


N300_CONFIG = {"n": 300, "seed": 301, "d_side": 7.75, "tau_max": 0.05, "threshold": 0.5,
               "t_step": 1e-3, "k_gain": 5.0, "horizon": 1200}


@pytest.mark.parametrize("case", ["sc", "qsc", "wc", "n300"])
def test_link_only_and_full_matrix_delays_give_the_same_outputs(
    tmp_path, demo_config, capsys, case
):
    """A scenario's report (but its timestamp) and inspect output do not depend
    on whether delays.json holds only link delays or a delay for every pair."""
    modes = [["--mode", "simulate"], ["--mode", "unbias2"], ["--mode", "gamma_protocol"]]
    if case == "n300":
        scen = tmp_path / "scen"
        cfg = write_json(tmp_path / "n300.json", N300_CONFIG)
        assert main(["gen", cfg, "--out-dir", str(scen)]) == EXIT_OK
        full = experiments.random_network(N300_CONFIG, N300_CONFIG["seed"])[2]
        modes[2] += ["--exec-mode", "predict"]  # 301 simulated columns take too long here
    else:
        assert main(["gen", demo_config, "--out-dir", str(tmp_path / "scen")]) == EXIT_OK
        scen = tmp_path / "scen" / case
        full = DelayMatrix.uniform(14, 0.05)

    def outputs(layout):
        runs = []
        for k, argv in enumerate(modes):
            out = tmp_path / layout / str(k)
            code = main(["run", str(scen), *argv, "--out-dir", str(out), "--downsample", "10"])
            report = None
            if (out / "report.json").exists():
                report = json.loads((out / "report.json").read_text())
                del report["created_unix"]
            runs.append((code, report))
        capsys.readouterr()
        assert main(["inspect", str(scen)]) == EXIT_OK
        return runs, capsys.readouterr().out

    link_only = outputs("link-only")
    assert any(report is not None for _, report in link_only[0])
    link_tau = np.asarray(json.loads((scen / "delays.json").read_text())["tau"])
    assert not np.array_equal(link_tau, full.tau)  # the two files differ off the links
    write_full_delays(scen, full)
    assert outputs("full") == link_only


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda doc: doc["tau"][1].__setitem__(0, -0.1), "tau[1,0] = -0.1"),
        (lambda doc: doc["tau"][1].__setitem__(0, float("nan")), "tau[1,0] = nan"),
        (lambda doc: doc.__setitem__("tau", [row[:-1] for row in doc["tau"]]), "shape (14, 13)"),
        (lambda doc: doc.__setitem__("tau", [[0.0], [0.0, 1.0]]), "inhomogeneous"),
        (lambda doc: doc.pop("tau"), "'tau'"),
    ],
    ids=["negative", "nan", "shape", "ragged", "missing"],
)
def test_run_rejects_bad_delays_naming_the_file(demo_scenarios, tmp_path, capsys, edit, named):
    scen = demo_scenarios / "sc"
    assert digraph.from_document((scen / "digraph.json").read_text()).weights[1, 0] > 0
    doc = json.loads((scen / "delays.json").read_text())
    edit(doc)
    write_json(scen / "delays.json", doc)
    out = tmp_path / "out"
    assert main(["run", str(scen), "--out-dir", str(out)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "delays.json" in err and named in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "edge, named",
    [([-3, 2, 1.0], "[-3.0, 2.0, 1.0]"), ([3, 0, 1.0], "[3.0, 0.0, 1.0]"),
     ([1.5, 0, 1.0], "[1.5, 0.0, 1.0]"), ([0, 1, 2.0], "duplicate edge (0, 1)")],
    ids=["negative", "too-large", "non-integer", "duplicate"],
)
def test_run_rejects_bad_edges(tmp_path, capsys, edge, named):
    scen = tmp_path / "scen"
    g = digraph.new_digraph([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    cli._write_scenario(scen, g, DelayMatrix.uniform(3, 0.01), {"horizon": 100})
    doc = json.loads((scen / "digraph.json").read_text())
    write_json(scen / "digraph.json", {"n": 3, "edges": doc["edges"] + [edge]})
    out = tmp_path / "out"
    assert main(["run", str(scen), "--out-dir", str(out)]) == EXIT_BAD_CONFIG
    assert named in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["run", "inspect"])
def test_run_and_inspect_solve_gamma_once(demo_scenarios, tmp_path, monkeypatch, command):
    calls = []
    solve = spectral._gamma_for_component

    def counting(*args, **kwargs):
        calls.append(args[2])
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "_gamma_for_component", counting)
    argv = [command, str(demo_scenarios / "sc")]
    if command == "run":
        argv += ["--out-dir", str(tmp_path / "out")]
        (demo_scenarios / "sc" / "analysis.json").unlink()  # the run computes its analysis
    assert main(argv) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["unbias2", "gamma_protocol"])
def test_run_protocol_modes_solve_gamma_once(demo_scenarios, tmp_path, monkeypatch, mode):
    calls = []
    solve = spectral._gamma_for_component

    def counting(*args, **kwargs):
        calls.append(args[2])
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "_gamma_for_component", counting)
    argv = ["run", str(demo_scenarios / "sc"), "--mode", mode, "--exec-mode", "predict",
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    assert len(calls) == 1


def test_run_kappa_bound_uses_the_gain_scaled_left_null_vector(demo_scenarios, tmp_path):
    """With non-uniform c the bound on K D_c^{-1} L needs that matrix's own
    left null vector, gamma * c, not the Laplacian's gamma."""
    scenario = demo_scenarios / "sc" / "scenario.json"
    sc = json.loads(scenario.read_text())
    c = np.random.default_rng(0).uniform(0.3, 3, 14).round(3)
    write_json(scenario, {**sc, "c_weights": c.tolist()})
    out = tmp_path / "out"
    assert main(["run", str(demo_scenarios / "sc"), "--out-dir", str(out)]) == EXIT_OK
    rates = json.loads((out / "report.json").read_text())["rates"]
    g = digraph.from_document((demo_scenarios / "sc" / "digraph.json").read_text())
    scc = digraph.scc_decompose(g)
    kdl = (sc["k_gain"] / c)[:, None] * digraph.laplacian(g)
    no_delay = spectral.rate_no_delay(kdl, scc)
    want = spectral.rate_kappa_bound(
        kdl, scc, spectral.gamma_left_eigenvector(kdl, scc), no_delay
    )
    assert rates["kappa_bound"] == pytest.approx(want, rel=1e-9)


def estimation_trial_reference(cfg, trial_seed):
    """The Monte-Carlo trial with one simulation per forcing, three in all."""
    n = int(cfg.get("n", 40))
    t_step = float(cfg.get("t_step", 1e-3))
    rng = np.random.default_rng(trial_seed)
    geom = netgen.place_nodes(n, float(cfg.get("d_side", 5.0)), trial_seed)
    geom = netgen.speed_for_max_delay(geom, float(cfg.get("tau_max", 100 * t_step)))
    g = netgen.channel_rayleigh(geom, trial_seed + 1)
    g = netgen.threshold_prune(g, float(cfg.get("threshold", 0.0)))
    delays = netgen.delays_from_geometry(geom)
    sigma2 = float(cfg.get("sigma2", 1.0))
    a = rng.uniform(0.5, 1.5, size=n)
    y = a * float(cfg.get("xi", 1.0)) + rng.normal(0.0, np.sqrt(sigma2), size=n)
    gvals = y / a
    c = a**2 / sigma2
    sim = SimConfig(
        t_step=t_step,
        k_gain=float(cfg.get("k_gain", 30.0)),
        c_weights=c,
        horizon=int(cfg.get("horizon", 2000)),
        noise_std=float(cfg.get("noise_std", 0.0)),
        rng_seed=trial_seed + 3,
    )
    centralized = stats.consensus_function(lambda v: v, gvals, c)
    d_nodelay = simulate(g, DelayMatrix.zero(n), sim, gvals).derivatives.mean(axis=1)
    d_delayed = simulate(g, delays, sim, gvals).derivatives.mean(axis=1)
    d_unit = simulate(g, delays, sim, np.ones(n)).derivatives.mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        twostep = np.where(np.abs(d_unit) > 1e-12, d_delayed / d_unit, 0.0)
    return centralized, d_nodelay, d_delayed, twostep


@pytest.mark.parametrize("noise_std", [0.0, 0.1])
def test_estimation_trial_equals_one_simulation_per_forcing(noise_std):
    cfg = {"n": 12, "d_side": 3.0, "t_step": 1e-3, "k_gain": 30.0, "tau_max": 0.1,
           "xi": 1.0, "sigma2": 0.25, "horizon": 800, "noise_std": noise_std}
    for seed in (2, 1002):
        got = run_estimation_trial(cfg, seed)
        want = estimation_trial_reference(cfg, seed)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


MC_N40 = {"n": 40, "d_side": 5.0, "t_step": 1e-3, "k_gain": 30.0, "tau_max": 0.1,
          "xi": 1.0, "sigma2": 0.25, "seed": 1}


@pytest.mark.parametrize("noise_std", [0.0, 0.1])
def test_batched_trials_equal_their_solo_trials(noise_std):
    # a dense block-diagonal union sums each in-degree over the union's row
    # and moves trials 2, 7, 12 and 17 of this config
    cfg = {**MC_N40, "horizon": 200, "noise_std": noise_std}
    seeds = [1 + 1000 * t for t in range(20)]
    for got, seed in zip(experiments._estimation_trials(cfg, seeds), seeds):
        want = run_estimation_trial(cfg, seed)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_settled_at(trace, value, what):
    """The last value of trace equals value within 1e-12 relative, once it
    has moved by no more than that over its last 100 steps; a trace that has
    not settled fails as one that has not converged by its horizon."""
    last, earlier = trace[-1], trace[-101]
    assert abs(last - earlier) <= 1e-12 * abs(last), (
        f"{what} has not converged by its horizon: {earlier!r} 100 steps before {last!r}")
    assert abs(last - value) <= 1e-12 * abs(value), f"{what} ends at {last!r}, predicted {value!r}"


@pytest.mark.parametrize("overrides", [{}, {"tau_max": 0.05}, {"threshold": 0.3},
                                       {"channel_mode": {"mode": "pathloss"}}])
def test_every_clean_trial_ends_at_its_closed_form_values(overrides):
    """Each trial of the mc-n40 config and its variants ends where
    `predict_consensus` puts it: the delay-free mean at the zero-delay omega*,
    the delayed mean at column 0 of the prediction with quantized delays, and
    the two-step value at the ratio of its two columns."""
    cfg = {**MC_N40, "horizon": 2000, **overrides}
    seeds = [1 + 1000 * t for t in range(4)] + [9]
    for seed, (_, nodelay, delayed, twostep) in zip(seeds, experiments._estimation_trials(cfg, seeds)):
        g, delays, sim, gvals, _ = experiments._trial_inputs(cfg, seed)
        zero = protocols.predict_consensus(g, DelayMatrix.zero(g.n), sim, gvals).omega_star
        omega_y, omega_one = protocols.predict_consensus(
            g, delays, sim, np.column_stack([gvals, np.ones(g.n)]), quantize_delays=True).omega_star
        for what, trace, value in (("delay-free mean", nodelay, zero), ("delayed mean", delayed, omega_y),
                                   ("two-step value", twostep, omega_y / omega_one)):
            assert_settled_at(trace, value, f"trial {seed}: the {what}")


def test_a_trial_still_moving_at_its_horizon_reads_as_not_converged():
    # a 70-step uniform delay on every pair is still settling at step 2000
    cfg = {**MC_N40, "horizon": 2000, "delay_mode": {"mode": "uniform", "tau": 0.07}}
    (_, _, delayed, _), = experiments._estimation_trials(cfg, [1])
    with pytest.raises(AssertionError, match="has not converged by its horizon"):
        assert_settled_at(delayed, delayed[-1], "trial 1: the delayed mean")


def test_montecarlo_batches_by_trial_count(tmp_path, monkeypatch):
    # the mc-n40 workload's 2 trials are one batch
    assert experiments.BATCH_TRIALS >= 6
    cfg = mc_config(tmp_path, n=8, horizon=150, noise_std=0.1)
    trials = experiments._estimation_trials
    batches = {}
    for size in (3, 7):
        monkeypatch.setattr(experiments, "BATCH_TRIALS", size)
        monkeypatch.setattr(experiments, "_estimation_trials", lambda c, seeds: batches.setdefault(
            size, []).append(len(seeds)) or trials(c, seeds))
        out = str(tmp_path / f"batch{size}")
        assert main(["montecarlo", cfg, "--trials", "7", "--out-dir", out]) == EXIT_OK
    assert batches == {3: [3, 3, 1], 7: [7]}
    for name in ("montecarlo.csv", "summary.json"):
        assert (tmp_path / "batch3" / name).read_bytes() == (tmp_path / "batch7" / name).read_bytes()


@pytest.mark.parametrize("noise_std", [0.0, 0.1])
def test_montecarlo_with_lanes_equals_the_in_process_run(noise_std):
    cfg = {**MC_N40, "n": 12, "horizon": 300, "noise_std": noise_std}
    with lanes(cpus=1) as forks:
        want = experiments.run_estimation_montecarlo(cfg, 5)
    assert forks == []
    with lanes() as forks:
        got = experiments.run_estimation_montecarlo(cfg, 5)
    assert len(forks) == 1  # one batch of 5 trials, two step groups
    assert_no_children()
    assert got[1] == want[1]
    assert got[0].keys() == want[0].keys()
    assert all(got[0][key].tobytes() == want[0][key].tobytes() for key in want[0])


def test_single_member_calls_and_the_warm_up_never_fork(monkeypatch, demo_scenarios):
    # lanes are open on this host, but a one-member call has one step group
    # and the lighter step group of the mc-n40 warm-up (1 trial, horizon 200)
    # is below LANE_WORK
    monkeypatch.setattr(lanes_module, "_lane_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", refuse_fork)
    experiments.run_estimation_montecarlo({**MC_N40, "horizon": 200}, 1)
    g, delays, *_ = cli._load_scenario(demo_scenarios / "sc")
    cfg = SimConfig(k_gain=30.0, horizon=6000)
    simulate(g, delays, cfg, np.column_stack([np.ones(g.n), np.arange(g.n)]))
    protocols.gamma_estimation_protocol(g, delays, cfg, np.ones(g.n), mode="simulate")


def test_run_spectral_failure_exits_numerical(demo_scenarios, tmp_path, capsys, monkeypatch):
    def failing_solver(block, residual_tol):
        raise SpectralError("left null-space residual 1.0e-03 exceeds tolerance")

    monkeypatch.setattr(spectral, "_left_null_positive", failing_solver)
    (demo_scenarios / "qsc" / "analysis.json").unlink()  # the run computes its prediction
    out = tmp_path / "out"
    code = main(["run", str(demo_scenarios / "qsc"), "--mode", "predict", "--out-dir", str(out)])
    assert code == EXIT_NUMERICAL
    assert "numerical error: left null-space residual" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_a_non_finite_delay_off_the_links_reads_as_zero(tmp_path, value):
    # JSON takes Infinity and NaN; only the link delays are checked
    cfg = {"n": 8, "seed": 12, "d_side": 3.0, "tau_max": 0.05, "threshold": 0.3,
           "k_gain": 5.0, "horizon": 3000}
    scen = tmp_path / "scen"
    assert main(["gen", write_json(tmp_path / "cfg.json", cfg), "--out-dir", str(scen)]) == 0
    w = np.asarray(digraph.from_document((scen / "digraph.json").read_text()).weights)
    i, j = np.argwhere((w == 0.0) & ~np.eye(8, dtype=bool))[0]
    doc = json.loads((scen / "delays.json").read_text())
    assert doc["tau"][i][j] == 0.0
    reports = []
    for tau in (0.0, value):
        doc["tau"][i][j] = tau
        (scen / "delays.json").write_text(json.dumps(doc))
        out = tmp_path / f"out{len(reports)}"
        assert main(["run", str(scen), "--mode", "predict", "--out-dir", str(out)]) == EXIT_OK
        reports.append({**json.loads((out / "report.json").read_text()), "created_unix": None})
        assert main(["run", str(scen), "--out-dir", str(out / "sim")]) == EXIT_OK
    assert reports[1] == reports[0]


# ---------------------------------------------------------------- the stored analysis


@pytest.fixture(scope="module")
def n300_scenario(tmp_path_factory):
    """A run-n300-style scenario: 300 nodes, about 11k Rayleigh links."""
    tmp = tmp_path_factory.mktemp("n300")
    cfg = {"n": 300, "d_side": 7.75, "tau_max": 0.05, "threshold": 0.5, "t_step": 1e-3,
           "k_gain": 5.0, "horizon": 1200, "seed": 3,
           "g_values": np.random.default_rng(3).uniform(0.5, 1.5, 300).tolist()}
    assert main(["gen", write_json(tmp / "cfg.json", cfg), "--out-dir", str(tmp / "scen")]) == 0
    return tmp / "scen"


def out_files(out):
    """The files left in out, report.json read without its timestamp; None
    when out does not exist."""
    if not out.exists():
        return None
    return {path.name: {**json.loads(path.read_text()), "created_unix": None}
            if path.name == "report.json" else path.read_bytes()
            for path in sorted(out.iterdir())}


def run_outcome(capsys, scen, out, cpus, flags=(), work=0):
    """(exit code, stderr, files left in out, forks) of one `selfsync run`."""
    with lanes(cpus=cpus, work=work) as forks:
        code = main(["run", str(scen), "--out-dir", str(out), *flags])
    assert_no_children()
    return code, capsys.readouterr().err, out_files(out), len(forks)


def analysed_scenarios(demo_scenarios, n300_scenario, tmp_path):
    """{name: scenario directory}: the demo14 three, a random n = 40 scenario
    whose forcing is the estimation experiment's, and the n300 scenario."""
    n40 = tmp_path / "n40"
    cfg = {"n": 40, "seed": 5, "d_side": 5.0, "tau_max": 0.1, "threshold": 0.3, "k_gain": 20.0,
           "g_mode": "estimation", "xi": 1.0, "sigma2": 0.25,
           "c_weights": np.random.default_rng(5).uniform(0.5, 2.0, 40).tolist()}
    assert main(["gen", write_json(tmp_path / "n40.json", cfg), "--out-dir", str(n40)]) == 0
    return {**{name: demo_scenarios / name for name in ("sc", "qsc", "wc")}, "n40": n40,
            "n300": n300_scenario}


@pytest.mark.parametrize("name", ["sc", "qsc", "wc", "n40", "n300"])
def test_gen_stores_the_analysis_of_the_scenario_as_run_loads_it(
    demo_scenarios, n300_scenario, tmp_path, name
):
    scen = analysed_scenarios(demo_scenarios, n300_scenario, tmp_path)[name]
    g, delays, sc, _ = cli._load_scenario(scen)
    cfg = cli._sim_config(sc, cli.build_parser().parse_args(["run", str(scen)]))
    with lanes_module.one_blas_thread():  # as every command runs
        analysis = experiments.analyse_scenario(g, delays, cfg, cli._g_values(sc, g))
    scc, pred = digraph.scc_decompose(g), analysis.prediction
    assert [cl.component for cl in pred.clusters] == scc.root_components
    want = {
        "version": cli.ANALYSIS_VERSION,
        # scenario.json holds the fingerprints of the files links.npy mirrors
        "fingerprint": cli._fingerprint((scen / "scenario.json").read_bytes()),
        "connectivity": scc.connectivity_class.value,
        "clusters": [{"component": cl.component, "nodes": sorted(cl.nodes), "value": cl.omega}
                     for cl in pred.clusters],
        "spectral_rates": analysis.rates,
    }
    assert want["spectral_rates"] or name == "wc"
    # JSON writes each float as its repr, so equal texts hold equal bits
    stored = json.loads((scen / "analysis.json").read_text())
    assert json.dumps(stored, sort_keys=True) == json.dumps(want, sort_keys=True)


def run_outputs(capsys, scen, out, flags):
    """(exit code, stderr, files left in out) of a run with lanes open, which
    forks nothing."""
    *outcome, forks = run_outcome(capsys, scen, out, 2, flags)
    assert forks == 0
    return outcome


@pytest.mark.parametrize("name", ["sc", "qsc", "wc", "n300"])
def test_run_reports_alike_whether_the_analysis_is_current_deleted_stale_or_foreign(
    demo_scenarios, n300_scenario, tmp_path, capsys, name
):
    scen, flags = tmp_path / "copy", ("--downsample", "10") if name == "n300" else ()
    shutil.copytree(n300_scenario if name == "n300" else demo_scenarios / name, scen)
    analysis, scenario = scen / "analysis.json", scen / "scenario.json"
    current = run_outputs(capsys, scen, tmp_path / "current", flags)
    assert current[0] == EXIT_OK and sorted(current[2]) == ["report.json", "trace.npz"]
    doc = json.loads(analysis.read_text())
    # a file of another version is not read, whatever it holds
    write_json(analysis, {**doc, "version": cli.ANALYSIS_VERSION + 1, "spectral_rates": {},
                          "clusters": [{**cl, "value": 0.5} for cl in doc["clusters"]]})
    assert run_outputs(capsys, scen, tmp_path / "foreign", flags) == current
    # nor is one of version 1, which was keyed by three fingerprints and
    # stored the root components and unpredicted nodes beside the clusters
    write_json(analysis, {
        "version": 1, "connectivity": doc["connectivity"], "spectral_rates": {},
        "fingerprints": {name: cli._fingerprint((scen / name).read_bytes())
                         for name in ("scenario.json", "digraph.json", "delays.json")},
        "root_components": [cl["component"] for cl in doc["clusters"]],
        "clusters": [{**cl, "value": 0.5} for cl in doc["clusters"]], "unpredicted_nodes": []})
    assert run_outputs(capsys, scen, tmp_path / "version1", flags) == current
    analysis.unlink()
    assert run_outputs(capsys, scen, tmp_path / "deleted", flags) == current
    # an edited scenario.json leaves the analysis stale: the run reports the
    # edited scenario's numbers, as if none were stored
    write_json(analysis, doc)
    sc = json.loads(scenario.read_text())
    write_json(scenario, {**sc, "k_gain": 0.8 * sc["k_gain"]})
    stale = run_outputs(capsys, scen, tmp_path / "stale", flags)
    assert stale[2]["report.json"]["predicted"] != current[2]["report.json"]["predicted"]
    analysis.unlink()
    assert run_outputs(capsys, scen, tmp_path / "edited", flags) == stale


@pytest.mark.parametrize("mode", ["simulate", "predict", "unbias2"])
def test_a_run_with_a_current_analysis_computes_none_of_it(
    demo_scenarios, tmp_path, monkeypatch, mode
):
    def no_analysis(*args, **kwargs):
        raise AssertionError("the stored analysis was computed again")

    for module, function in ((experiments, "analyse_scenario"), (experiments, "spectral_rates"),
                             (spectral, "rate_no_delay"), (spectral, "rate_kappa_bound")):
        monkeypatch.setattr(module, function, no_analysis)
    argv = ["run", str(demo_scenarios / "qsc"), "--mode", mode, "--exec-mode", "predict",
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["scenario"]["connectivity"] == "QSC"
    assert ("rates" in report) == (mode == "simulate")


def malformed_analyses():
    """Edits of analysis.json that keep its version and fingerprints, and the
    error each names."""
    return {
        "missing": (lambda doc: doc.pop("clusters"), "'clusters'"),
        "connectivity": (lambda doc: doc.__setitem__("connectivity", "SCC"), "'SCC'"),
        "node": (lambda doc: doc["clusters"][0]["nodes"].append(14), "in [0, 14)"),
        "integer-value": (lambda doc: doc["clusters"][0].__setitem__("value", 1),
                          "a float value"),
        "rates": (lambda doc: doc["spectral_rates"].__setitem__("fit", 1.0), "spectral_rates"),
        "cluster-count": (lambda doc: doc["clusters"].append(dict(doc["clusters"][0])),
                          "one cluster per root component"),
    }


@pytest.mark.parametrize("edit", ["unparsable", "not-an-object", *malformed_analyses()])
def test_a_malformed_current_analysis_exits_2_naming_it(demo_scenarios, tmp_path, capsys, edit):
    scen = demo_scenarios / "sc"
    file = scen / "analysis.json"
    if edit == "unparsable":
        file.write_text('{"version": 1,')
        named = "line 1"
    elif edit == "not-an-object":
        write_json(file, [1])
        named = "not a JSON object"
    else:
        doc = json.loads(file.read_text())
        change, named = malformed_analyses()[edit]
        change(doc)
        write_json(file, doc)
    out = tmp_path / "out"
    assert main(["run", str(scen), "--mode", "predict", "--out-dir", str(out)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "analysis.json" in err and named in err
    assert not (out / "report.json").exists()


def fail_the_prediction(monkeypatch, cfg):
    def failing_solver(block, residual_tol):
        raise SpectralError("left null-space residual 1.0e-03 exceeds tolerance")

    monkeypatch.setattr(spectral, "_left_null_positive", failing_solver)
    return EXIT_NUMERICAL, "numerical error: left null-space residual"


def fail_the_config(monkeypatch, cfg):
    cfg["noise_std"] = -0.1
    return EXIT_BAD_CONFIG, "config error: noise std must be nonnegative"


def fail_the_forcing(monkeypatch, cfg):
    cfg["g_values"] = float("nan")
    return EXIT_BAD_CONFIG, "config error: forcing g_values must be finite"


@pytest.mark.parametrize("fault", [fail_the_prediction, fail_the_config, fail_the_forcing],
                         ids=["prediction", "config", "forcing"])
def test_gen_stores_no_analysis_that_raises_and_run_raises_it(
    tmp_path, capsys, monkeypatch, fault
):
    cfg = {"topology": "demo14", "seed": 0, "t_step": 1e-3, "k_gain": 30.0, "tau": 0.05}
    scen = tmp_path / "scen"
    assert main(["gen", write_json(tmp_path / "cfg.json", cfg), "--out-dir", str(scen)]) == 0
    assert (scen / "sc" / "analysis.json").is_file()
    code, err = fault(monkeypatch, cfg)
    # over the scenario of an earlier gen, whose analysis is removed
    assert main(["gen", write_json(tmp_path / "cfg.json", cfg), "--out-dir", str(scen)]) == 0
    assert sorted(p.name for p in scen.glob("*/analysis.json")) == []
    assert capsys.readouterr().err.count("analysis.json not written: ") == 3
    assert main(["run", str(scen / "sc"), "--out-dir", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith(err)


@pytest.mark.parametrize("name", ["sc", "qsc", "wc", "n300"])
def test_run_with_the_analysis_lane_equals_the_serial_run(
    demo_scenarios, n300_scenario, tmp_path, capsys, name
):
    # run opens no lane for its analysis, which gen stores: with a CPU free
    # and any task allowed a lane it forks nothing, even at 300 nodes and
    # horizon 1200, and equals the run with lanes closed
    scen, flags = demo_scenarios / name, ()
    if name == "n300":
        scen, flags = n300_scenario, ("--downsample", "10")
    *closed, forks = run_outcome(capsys, scen, tmp_path / "closed", 1, flags)
    assert forks == 0
    *opened, forks = run_outcome(capsys, scen, tmp_path / "open", 2, flags)
    assert forks == 0
    assert closed[0] == EXIT_OK and sorted(closed[2]) == ["report.json", "trace.npz"]
    assert opened == closed


def bench_ops(demo_scenarios, n300_scenario, tmp_path):
    """The fork decisions of the benchmark's workloads, as {name: (calls, forks)}:
    each runs its calls as the workload does, and forks that often in all."""
    def run(scen, *flags):
        def call():
            assert main(["run", str(scen), "--out-dir", str(tmp_path / "o"), *flags]) == EXIT_OK

        return call

    def gamma_sweep():
        rng = np.random.default_rng(0)
        for n in (4, 8):
            g = topologies.random_sc(n, rng)
            cfg = SimConfig(t_step=2e-3, k_gain=20.0, c_weights=rng.uniform(0.5, 2.0, n),
                            horizon=8000, sync_tol_rel=1e-7)
            with contextlib.suppress(protocols.ProtocolError):
                protocols.gamma_estimation_protocol(g, DelayMatrix.uniform(n, 0.02), cfg,
                                                    rng.normal(1.0, 0.4, n), mode="simulate")

    mc_n40 = {**MC_N40, "horizon": 2000}
    return {
        # a run simulates in process and reads its analysis from the scenario
        "cli-demo14": ([run(demo_scenarios / name, "--horizon", horizon, "--tol", "1e9")
                        for name in ("sc", "qsc", "wc") for horizon in ("200", "8000")], 0),
        # one step group per call
        "gamma-sweep": ([gamma_sweep], 0),
        # its lighter step group is about 3.3e5
        "mc-n40 warm-up": ([lambda: experiments.run_estimation_montecarlo(
            {**mc_n40, "horizon": 200}, 1)], 0),
        # one batch call per op, of 3 step groups of about 6.5e6 on 2 idle CPUs
        "mc-n40 op": ([lambda: experiments.run_estimation_montecarlo(mc_n40, 2),
                       lambda: experiments.run_estimation_montecarlo(
                           {**mc_n40, "noise_std": 0.1}, 2)], 2),
        # as cli-demo14, at any horizon
        "run-n300 warm-up": ([run(n300_scenario, "--horizon", "200", "--tol", "1e9")], 0),
        "run-n300 op": ([run(n300_scenario, "--downsample", "10")], 0),
        "run-n300 at horizon 50": ([run(n300_scenario, "--horizon", "50", "--tol", "1e9")], 0),
    }


@pytest.mark.parametrize("workload", ["cli-demo14", "gamma-sweep", "mc-n40 warm-up",
                                      "mc-n40 op", "run-n300 warm-up", "run-n300 op",
                                      "run-n300 at horizon 50"])
def test_the_bench_workloads_fork_as_the_lane_rule_says(
    demo_scenarios, n300_scenario, tmp_path, capsys, workload
):
    calls, want = bench_ops(demo_scenarios, n300_scenario, tmp_path)[workload]
    with lanes(cpus=2, work=lanes_module.LANE_WORK) as forks:
        for call in calls:
            call()
    assert_no_children()
    assert len(forks) == want


def break_prediction(monkeypatch, scenario):
    def failing_solver(block, residual_tol):
        raise SpectralError("left null-space residual 1.0e-03 exceeds tolerance")

    monkeypatch.setattr(spectral, "_left_null_positive", failing_solver)


def break_simulation(monkeypatch, scenario):
    # T_s * K * in_degree(0) = 1e-3 * 3000 * 1 = 3 trips the step-size guard
    write_json(scenario, {**json.loads(scenario.read_text()), "k_gain": 3000.0})


def break_rates(monkeypatch, scenario):
    def failing_bound(*args):
        raise SpectralError("rate bound violated: r=2 > kappa=1")

    monkeypatch.setattr(spectral, "rate_kappa_bound", failing_bound)


def break_both(monkeypatch, scenario):
    break_simulation(monkeypatch, scenario)
    break_prediction(monkeypatch, scenario)


@pytest.mark.parametrize(
    "fault, code, err, files",
    [
        (break_prediction, EXIT_NUMERICAL, "numerical error: left null-space residual", []),
        (break_simulation, EXIT_NUMERICAL, "numerical error: step-size instability", []),
        # the prediction's error comes first
        (break_both, EXIT_NUMERICAL, "numerical error: left null-space residual", []),
        # a rate error comes after the trace is written
        (break_rates, EXIT_NUMERICAL, "numerical error: rate bound violated", ["trace.npz"]),
    ],
    ids=["prediction", "simulation", "both", "rates"],
)
def test_run_errors_with_the_analysis_lane_are_those_of_the_serial_run(
    demo_scenarios, tmp_path, capsys, monkeypatch, fault, code, err, files
):
    # the errors of a run that computes its analysis, in process whether or
    # not a lane could open
    (demo_scenarios / "sc" / "analysis.json").unlink()
    fault(monkeypatch, demo_scenarios / "sc" / "scenario.json")
    *closed, forks = run_outcome(capsys, demo_scenarios / "sc", tmp_path / "closed", 1)
    assert forks == 0
    *opened, forks = run_outcome(capsys, demo_scenarios / "sc", tmp_path / "open", 2)
    assert forks == 0
    assert closed[0] == code and closed[1].startswith(err) and sorted(closed[2]) == files
    assert opened == closed


def test_demo14_runs_never_fork(demo_scenarios, tmp_path, monkeypatch):
    # a usable CPU is idle, but a run opens no lane
    monkeypatch.setattr(lanes_module, "_lane_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", refuse_fork)
    for name in ("sc", "qsc", "wc"):
        out = str(tmp_path / name)
        assert main(["run", str(demo_scenarios / name), "--out-dir", out]) == EXIT_OK


LANE_BLAS = """
import ctypes, json, os, sys
from selfsync import cli, lanes

lanes._lane_cpus = lambda: 2
get_threads = lanes._openblas("get_num_threads", ctypes.c_int)
threads = get_threads and [get_threads(), *(r for r, _ in lanes.run(
    [get_threads, get_threads], [lanes.LANE_WORK] * 2)), get_threads()]
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
runs = []
for cpus in (1, 2):
    lanes._lane_cpus = lambda: cpus
    code = cli.main(["run", sys.argv[1], "--out-dir", sys.argv[2] + str(cpus),
                     "--downsample", "10"])
    runs.append((code, len(forks)))
print(json.dumps({"threads": threads, "runs": runs}))
"""


def without_stored_analysis(scen, tmp_path):
    """A copy of scen without analysis.json, whose run computes the analysis."""
    copy = tmp_path / "computed"
    shutil.copytree(scen, copy)
    (copy / "analysis.json").unlink()
    return copy


@pytest.mark.skipif(lanes_module._openblas("get_num_threads", ctypes.c_int) is None,
                    reason="numpy's BLAS is not OpenBLAS")
def test_predict_and_simulate_modes_predict_alike_under_a_blas_pool(n300_scenario, tmp_path):
    # neither mode may compute its prediction on the 2-thread pool, whose
    # round-off differs from one thread's
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    scen = without_stored_analysis(n300_scenario, tmp_path)
    predicted = []
    for mode in ("predict", "simulate"):
        out = tmp_path / mode
        subprocess.run([sys.executable, "-m", "selfsync.cli", "run", str(scen),
                        "--mode", mode, "--out-dir", str(out), "--downsample", "10"],
                       env=env, check=True, capture_output=True, timeout=120)
        predicted.append(json.loads((out / "report.json").read_text())["predicted"])
    assert predicted[0] == predicted[1]


ANALYSE = """
import json, sys
from pathlib import Path
from selfsync import cli, experiments

scen = Path(sys.argv[1])
g, delays, sc, _ = cli._load_scenario(scen)
cfg = cli._sim_config(sc, cli.build_parser().parse_args(["run", str(scen)]))
analysis = experiments.analyse_scenario(g, delays, cfg, cli._g_values(sc, g))
print(json.dumps({"values": [cl.omega for cl in analysis.prediction.clusters],
                  "spectral_rates": analysis.rates}))
"""


@pytest.mark.skipif(lanes_module._openblas("get_num_threads", ctypes.c_int) is None,
                    reason="numpy's BLAS is not OpenBLAS")
def test_the_analysis_outside_main_keeps_every_digit_under_a_blas_pool(n300_scenario):
    # called outside `main`, which caps the pool itself, on a 2-thread pool
    # whose round-off differs from one thread's
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", ANALYSE, str(n300_scenario)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    stored = json.loads((n300_scenario / "analysis.json").read_text())
    # JSON writes each float as its repr, so equal values hold equal bits
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "values": [cl["value"] for cl in stored["clusters"]],
        "spectral_rates": stored["spectral_rates"]}


def test_a_lane_runs_one_blas_thread_and_the_run_equals_the_serial_run(n300_scenario, tmp_path):
    # numpy's default pool on a host of 2 CPUs: a 2-thread pool inherited by
    # a child kept off its parent's CPU oversubscribes the CPU left to it, and
    # its round-off differs from one thread's
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", LANE_BLAS, str(n300_scenario),
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    got = json.loads(proc.stdout.splitlines()[-1])
    # both lanes run one thread, and the pool's size is restored after the
    # call (None: no OpenBLAS)
    assert got["threads"] in ([2, 1, 1, 2], None)
    # a run forks nothing, whether or not a lane could open
    assert got["runs"] == [[EXIT_OK, 0], [EXIT_OK, 0]]
    assert out_files(tmp_path / "out1") == out_files(tmp_path / "out2")


# ---------------------------------------------------------------- the links table


def test_main_parses_every_call_afresh_with_one_parser(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_run", lambda args: seen.append(vars(args)) or EXIT_OK)
    assert main(["run", "scen", "--horizon", "50", "--seed", "3"]) == EXIT_OK
    assert main(["run", "scen"]) == EXIT_OK
    assert seen[0]["horizon"] == 50 and seen[0]["seed"] == 3
    fresh = cli.build_parser.__wrapped__().parse_args(["run", "scen"])
    assert seen[1] == vars(fresh) and seen[1]["horizon"] is None and seen[1]["seed"] is None
    assert cli.build_parser() is cli.build_parser()


def counting_table_loads(monkeypatch) -> list:
    """The paths of the links tables np.load reads from here on."""
    loads, load = [], np.load

    def counting(file, *args, **kwargs):
        if str(file).endswith("links.npy"):
            loads.append(file)
        return load(file, *args, **kwargs)

    monkeypatch.setattr(np, "load", counting)
    return loads


def scenario_outputs(capsys, scen, out):
    """(exit code, report without its timestamp, trace.npz bytes, inspect
    output) of a simulate run and an inspect of scen."""
    code = main(["run", str(scen), "--out-dir", str(out), "--downsample", "10"])
    report = {**json.loads((out / "report.json").read_text()), "created_unix": None}
    capsys.readouterr()
    assert main(["inspect", str(scen)]) == EXIT_OK
    return code, report, (out / "trace.npz").read_bytes(), capsys.readouterr().out


@pytest.mark.parametrize("case", ["sc", "qsc", "wc", "n300"])
def test_the_table_and_the_json_files_give_the_same_outputs(
    tmp_path, demo_config, capsys, monkeypatch, case
):
    if case == "n300":
        scen = tmp_path / "scen"
        cfg = write_json(tmp_path / "n300.json", N300_CONFIG)
        assert main(["gen", cfg, "--out-dir", str(scen)]) == EXIT_OK
    else:
        assert main(["gen", demo_config, "--out-dir", str(tmp_path / "scen")]) == EXIT_OK
        scen = tmp_path / "scen" / case
    loads = counting_table_loads(monkeypatch)
    table = scenario_outputs(capsys, scen, tmp_path / "table")
    assert len(loads) == 2  # run and inspect read the table
    (scen / "links.npy").unlink()
    documents = scenario_outputs(capsys, scen, tmp_path / "json")
    assert len(loads) == 2
    assert table[0] == EXIT_OK and table == documents


def reformat(scen, name):
    """Rewrite a scenario JSON file with the same content in other bytes."""
    write_json(scen / name, json.loads((scen / name).read_text()))


@pytest.mark.parametrize("edited", ["delays.json", "digraph.json"])
def test_run_reads_the_json_files_once_one_is_edited(
    demo_scenarios, tmp_path, monkeypatch, edited
):
    scen = demo_scenarios / "qsc"
    loads = counting_table_loads(monkeypatch)
    argv = ["run", str(scen), "--mode", "predict", "--out-dir", str(tmp_path / "o")]
    assert main(argv) == EXIT_OK and len(loads) == 1
    reformat(scen, edited)
    assert main(argv) == EXIT_OK and len(loads) == 1
    # an edit that changes what the file says is seen
    if edited == "delays.json":
        doc = json.loads((scen / "delays.json").read_text())
        doc["tau"][1][0] = -1.0
        write_json(scen / "delays.json", doc)
    else:
        write_json(scen / "digraph.json", {"n": 14, "edges": [[0, 20, 1.0]]})
    assert main(argv) == EXIT_BAD_CONFIG and len(loads) == 1


def test_a_scenario_without_a_links_record_reads_the_json_files(
    demo_scenarios, tmp_path, monkeypatch
):
    scen = demo_scenarios / "sc"
    sc = json.loads((scen / "scenario.json").read_text())
    assert sc["links"]["n"] == 14
    del sc["links"]
    write_json(scen / "scenario.json", sc)
    loads = counting_table_loads(monkeypatch)
    assert main(["inspect", str(scen)]) == EXIT_OK and loads == []


def bad_table(table):
    """links.npy edits that keep the JSON fingerprints, with the error each names."""
    first = table[0]
    return {
        "index-too-large": (lambda t: t["src"].__setitem__(0, 14), "in [0, 14)"),
        "index-negative": (lambda t: t["dst"].__setitem__(0, -1), "in [0, 14)"),
        "duplicate": (lambda t: t[["dst", "src"]].__setitem__(1, first[["dst", "src"]]),
                      f"duplicate edge ({first['dst']}, {first['src']})"),
        "negative-tau": (lambda t: t["tau"].__setitem__(0, -0.1), "= -0.1 is not finite"),
        "nan-tau": (lambda t: t["tau"].__setitem__(0, np.nan), "= nan is not finite"),
        "nan-weight": (lambda t: t["weight"].__setitem__(0, np.nan), "= nan is not finite"),
    }


@pytest.mark.parametrize("edit", list(bad_table(np.zeros(2, cli.LINK_RECORD))))
def test_a_bad_table_with_current_fingerprints_exits_2_naming_it(
    demo_scenarios, tmp_path, capsys, edit
):
    scen = demo_scenarios / "sc"
    table = np.load(scen / "links.npy")
    change, named = bad_table(table)[edit]
    change(table)
    np.save(scen / "links.npy", table)
    for argv in (["run", str(scen), "--out-dir", str(tmp_path / "out")], ["inspect", str(scen)]):
        assert main(argv) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err and "links.npy" in err and named in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("content", [b"", b"\x93NUMPY", np.zeros(3), np.zeros(3, "<i4, <i4, <f8")],
                         ids=["empty", "truncated", "floats", "three-fields"])
def test_an_unreadable_table_exits_2_naming_it(demo_scenarios, capsys, content):
    scen = demo_scenarios / "sc"
    if isinstance(content, bytes):
        (scen / "links.npy").write_bytes(content)
    else:
        np.save(scen / "links.npy", content)
    assert main(["inspect", str(scen)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "links.npy" in err


@pytest.mark.parametrize("cfg", [{"topology": "demo14", "tau": 0.05, "seed": 1},
                                 {"n": 9, "seed": 12, "d_side": 3.0, "tau_max": 0.05,
                                  "threshold": 0.1}], ids=["demo14", "netgen"])
def test_gen_writes_the_same_table_and_fingerprints_every_time(tmp_path, cfg):
    config = write_json(tmp_path / "cfg.json", cfg)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", config, "--out-dir", str(a)]) == EXIT_OK
    assert main(["gen", config, "--out-dir", str(b)]) == EXIT_OK
    written = sorted(p.relative_to(a) for p in a.rglob("*") if p.name in
                     ("links.npy", "scenario.json"))
    assert len(written) == (6 if "topology" in cfg else 2)
    for rel in written:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


@st.composite
def scenario_links(draw, max_n=7):
    """A digraph with weights from subnormal to near the largest double, and
    link delays with full 17-digit mantissas."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    mask = mask.reshape(n, n) & ~np.eye(n, dtype=bool)
    count = int(mask.sum())
    weight = st.one_of(st.floats(min_value=5e-324, max_value=2.2e-308),
                       st.floats(min_value=1e307, max_value=1.7976931348623157e308),
                       st.floats(min_value=5e-324, max_value=1e3))
    tau = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0),
                    st.floats(min_value=0.0, max_value=1e300))
    w = np.zeros((n, n))
    w[mask] = draw(st.lists(weight, min_size=count, max_size=count))
    delays = np.zeros((n, n))
    delays[mask] = draw(st.lists(tau, min_size=count, max_size=count))
    return digraph.new_digraph(w), DelayMatrix(tau=delays)


@given(scenario_links())
@settings(max_examples=60, deadline=None)
def test_the_table_and_the_json_files_hold_the_same_bits(case):
    g, delays = case
    with tempfile.TemporaryDirectory() as tmp:
        scen = Path(tmp)
        with np.errstate(all="ignore"):  # the analysis of weights near the largest double
            cli._write_scenario(scen, g, delays, {})
        sc = json.loads((scen / "scenario.json").read_text())
        assert cli._table_is_current(scen, sc["links"])
        loaded = [cli._load_table(scen, sc["links"]), cli._load_documents(scen)]
    for got, got_delays in loaded:
        assert got.weights.tobytes() == g.weights.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(got.links, g.links))
        assert got_delays.tau.tobytes() == np.where(g.weights > 0, delays.tau, 0.0).tobytes()


@given(scenario_links(max_n=12),
       st.one_of(st.just(0.0), st.floats(allow_nan=True, allow_infinity=True)))
@settings(max_examples=150, deadline=None)
def test_delays_json_is_the_json_dumps_text_of_the_dense_link_matrix(case, off_link):
    g, delays = case
    tau = np.where(g.weights > 0, delays.tau, off_link)  # off the links: never written
    link = np.where(g.weights > 0, delays.tau, 0.0)
    dense = json.dumps({"n": g.n, "tau": link.tolist(), "tau_max": float(link.max())})
    with tempfile.TemporaryDirectory() as tmp:
        with np.errstate(all="ignore"):  # the analysis of weights near the largest double
            cli._write_scenario(Path(tmp), g, DelayMatrix(tau=tau), {})
        assert (Path(tmp) / "delays.json").read_bytes() == (dense + "\n").encode()
        assert (Path(tmp) / "digraph.json").read_text() == digraph.to_document(g) + "\n"
