"""The benchmark's workloads. Each one generates its inputs from the seed, runs
one user-level operation (op) per call and checks the result against
``oracle`` and against earlier results for identical inputs."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import oracle
import selfsync
from selfsync import cli, topologies

# CLI runs detect sync at 1e-4 of |omega*|; 5e-4 passes them and still fails a
# value moved by 1e-3
CLI_REL_TOL = 5e-4
PREDICT_REL_TOL = 1e-9
GAMMA_TOL = 1e-6
MC_IDENTITY_TOL = 1e-6


def run_cli(argv: list[str]) -> tuple[int, str]:
    """selfsync.cli.main in-process, with its console output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _dump(obj, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj))
    return path


def _load_scenario(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Weights and delays read from the scenario files, without selfsync."""
    doc = json.loads((path / "digraph.json").read_text())
    w = np.zeros((doc["n"], doc["n"]))
    for i, j, a in doc["edges"]:
        w[i, j] = a
    tau = np.asarray(json.loads((path / "delays.json").read_text())["tau"], dtype=float)
    return w, tau


def check_cli_report(code: int, report: dict, expected) -> list[str]:
    """Exit code 0, and every oracle root cluster predicted and measured at its omega*."""
    errors = [] if code == 0 else [f"exit code {code}"]
    for root, omega in expected:
        for kind, clusters, tol in (
            ("predicted", report["predicted"]["clusters"], PREDICT_REL_TOL),
            ("measured", report.get("measured", {}).get("clusters", []), CLI_REL_TOL),
        ):
            match = [c for c in clusters if set(root) <= set(c["nodes"])]
            if not match:
                errors.append(f"root {root[:4]}... not {kind}")
            elif oracle.relative_error(match[0]["value"], omega) > tol:
                errors.append(f"{kind} {match[0]['value']!r} vs omega* {omega!r}")
    return errors


class Workload:
    """``keys`` names the distinct inputs; ops cycle through them in rounds."""

    name = ""
    keys: list[str] = []

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rng = np.random.default_rng(seed)

    def setup(self, out: Path) -> None:
        """Generate the scenario under ``out`` and warm up; the last call's
        scenario is the one the ops use."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute oracle values (untimed)."""

    def op(self, key: str):
        raise NotImplementedError

    def check(self, key: str, result) -> tuple[list[str], str]:
        """(errors, fingerprint); identical inputs must give identical fingerprints."""
        raise NotImplementedError

    def facts(self) -> dict:
        raise NotImplementedError


class _CliRun(Workload):
    """``selfsync run`` on generated scenarios, checked against omega*."""

    run_args: list[str] = []

    def _gen(self, cfg: dict, out: Path) -> None:
        code, text = run_cli(["gen", str(_dump(cfg, out / "config.json")), "--out-dir",
                              str(out / "scen")])
        if code != 0:
            raise RuntimeError(f"gen failed ({code}): {text}")
        self.scen = out / "scen"

    def _scenario(self, key: str) -> Path:
        return self.scen / key if key else self.scen

    def _warm_up(self, key: str) -> None:
        code, text = run_cli(["run", str(self._scenario(key)), "--horizon", "200", "--tol",
                              "1e9", "--out-dir", str(self.work / "warm")] + self.run_args)
        if code != 0:
            raise RuntimeError(f"warm-up run failed ({code}): {text}")

    def op(self, key: str):
        return run_cli(["run", str(self._scenario(key)), "--out-dir",
                        str(self.work / "out" / key)] + self.run_args)

    def check(self, key, result):
        code, text = result
        report = json.loads((self.work / "out" / key / "report.json").read_text())
        errors = check_cli_report(code, report, self.expected[key])
        if errors and text:
            errors.append(text.strip()[-200:])
        return errors, report["digest"]

    def _expect(self, key: str, t_step, k_gain, c, g) -> tuple[np.ndarray, np.ndarray]:
        w, tau = _load_scenario(self._scenario(key))
        self.expected[key] = oracle.omega_star(w, tau, t_step, k_gain, c, g)
        return w, tau


class CliDemo14(_CliRun):
    name = "cli-demo14"
    keys = ["sc", "qsc", "wc"]
    run_args = ["--mode", "simulate"]
    config = {"topology": "demo14", "t_step": 1e-3, "k_gain": 30.0, "tau": 0.05,
              "horizon": 8000}

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.g = self.rng.uniform(0.5, 1.5, 14)

    def setup(self, out):
        self._gen({**self.config, "seed": self.seed, "g_values": self.g.tolist()}, out)
        self._warm_up("sc")

    def prepare(self):
        self.expected, self.nnz = {}, {}
        for key in self.keys:
            w, _ = self._expect(key, self.config["t_step"], self.config["k_gain"], 1.0, self.g)
            self.nnz[key] = int((w > 0).sum())

    def facts(self):
        return {"n": 14, "nnz": self.nnz,
                "mmax": round(self.config["tau"] / self.config["t_step"]),
                "horizon": self.config["horizon"], "trace_rows": self.config["horizon"] + 1}


class RunN300(_CliRun):
    name = "run-n300"
    keys = [""]
    run_args = ["--downsample", "10"]
    config = {"n": 300, "d_side": 7.75, "tau_max": 0.05, "threshold": 0.5, "t_step": 1e-3,
              "k_gain": 5.0, "horizon": 1200}

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.g = self.rng.uniform(0.5, 1.5, self.config["n"])

    def setup(self, out):
        self._gen({**self.config, "seed": self.seed, "g_values": self.g.tolist()}, out)
        self._warm_up("")

    def prepare(self):
        self.expected = {}
        w, tau = self._expect("", self.config["t_step"], self.config["k_gain"], 1.0, self.g)
        self.nnz = int((w > 0).sum())
        self.mmax = int(np.rint(tau[w > 0] / self.config["t_step"]).max())

    def facts(self):
        return {"n": self.config["n"], "nnz": self.nnz, "mmax": self.mmax,
                "horizon": self.config["horizon"]}


class McN40(Workload):
    """``selfsync montecarlo``; ops alternate clean and noisy coupling."""

    name = "mc-n40"
    keys = ["clean", "noisy"]
    trials = 2
    config = {"n": 40, "d_side": 5.0, "t_step": 1e-3, "k_gain": 30.0, "tau_max": 0.1,
              "xi": 1.0, "sigma2": 0.25, "horizon": 2000}

    def setup(self, out):
        base = {**self.config, "seed": self.seed}
        self.configs = {
            "clean": _dump(base, out / "clean.json"),
            "noisy": _dump({**base, "noise_std": 0.1}, out / "noisy.json"),
        }
        warm = _dump({**base, "horizon": 200}, out / "warm.json")
        code, text = run_cli(["montecarlo", str(warm), "--trials", "1", "--out-dir",
                              str(self.work / "warm")])
        if code != 0:
            raise RuntimeError(f"warm-up montecarlo failed ({code}): {text}")

    def op(self, key):
        return run_cli(["montecarlo", str(self.configs[key]), "--trials", str(self.trials),
                        "--out-dir", str(self.work / "out" / key)])

    def check(self, key, result):
        code, text = result
        out = self.work / "out" / key
        raw = (out / "summary.json").read_bytes()
        table = np.loadtxt(out / "montecarlo.csv", delimiter=",", skiprows=1)
        errors = [] if code == 0 else [f"exit code {code}: {text.strip()[-200:]}"]
        if not np.isfinite(table).all():
            errors.append("non-finite value in montecarlo.csv")
        errors += check_mc_summary(json.loads(raw), clean=(key == "clean"), trials=self.trials)
        return errors, hashlib.sha256(raw).hexdigest()

    def facts(self):
        n = self.config["n"]
        # threshold 0 keeps every Rayleigh link; the largest delay is tau_max
        return {"n": n, "nnz": n * (n - 1), "mmax": round(self.config["tau_max"] / self.config["t_step"]),
                "horizon": self.config["horizon"], "trials": self.trials,
                "sims_per_trial": 3}


def check_mc_summary(summary: dict, clean: bool, trials: int) -> list[str]:
    """Finite values; without noise the two-step ratio equals the delay-free mean."""
    errors = []
    if summary["trials"] != trials:
        errors.append(f"summary reports {summary['trials']} trials, not {trials}")
    if not all(np.isfinite(v) for v in summary.values()):
        errors.append("non-finite value in summary.json")
    gap = abs(summary["final_twostep_mean"] - summary["final_nodelay_mean"])
    if clean and not gap <= MC_IDENTITY_TOL:
        errors.append(f"two-step mean differs from delay-free mean by {gap:.3e}")
    return errors


class GammaSweep(Workload):
    """gamma_estimation_protocol(mode="simulate") with the horizon escalation of
    the acceptance test; one random SC digraph per n in 4..8."""

    name = "gamma-sweep"
    keys = ["4", "5", "6", "7", "8"]
    horizons = (8000, 30000, 120000)
    tau = 0.02
    t_step = 2e-3
    k_gain = 20.0

    def setup(self, out):
        self.rng = np.random.default_rng(self.seed)
        self.cases = {}
        for key in self.keys:
            n = int(key)
            g = topologies.random_sc(n, self.rng)
            self.cases[key] = (g, selfsync.DelayMatrix.uniform(n, self.tau),
                               self.rng.uniform(0.5, 2.0, n), self.rng.normal(1.0, 0.4, n))
        # a full op as warm-up, so that set-up time is not mostly import time
        self.op(self.keys[0])

    def _cfg(self, c, horizon):
        return selfsync.SimConfig(t_step=self.t_step, k_gain=self.k_gain, c_weights=c,
                                  horizon=horizon, sync_tol_rel=1e-7)

    def prepare(self):
        self.expected = {}
        for key, (g, _, c, gv) in self.cases.items():
            w = np.asarray(g.weights)
            (root,) = oracle.root_components(w)
            self.expected[key] = (oracle.gamma(w, root), float(np.sum(c * gv) / np.sum(c)))

    def op(self, key):
        g, delays, c, gv = self.cases[key]
        for horizon in self.horizons:
            try:
                return selfsync.gamma_estimation_protocol(
                    g, delays, self._cfg(c, horizon), gv, mode="simulate")
            except selfsync.ProtocolError:
                continue
        raise RuntimeError(f"no synchronization up to horizon {self.horizons[-1]}")

    def check(self, key, result):
        gamma_ref, target = self.expected[key]
        errors = check_gamma_report(result.gamma_tilde, result.ratio, gamma_ref, target)
        fp = hashlib.sha256(result.gamma_tilde.tobytes() + repr(result.ratio).encode())
        return errors, fp.hexdigest()

    def facts(self):
        return {"n": [int(k) for k in self.keys],
                "nnz": [int((np.asarray(g.weights) > 0).sum()) for g, *_ in self.cases.values()],
                "mmax": round(self.tau / self.t_step), "horizon": list(self.horizons)}


def check_gamma_report(gamma_tilde, ratio, gamma_ref, target) -> list[str]:
    errors = []
    gap = float(np.abs(np.asarray(gamma_tilde) - gamma_ref).max())
    if not gap <= GAMMA_TOL:
        errors.append(f"|gamma_tilde - gamma|_inf = {gap:.3e}")
    if not abs(ratio - target) <= GAMMA_TOL:
        errors.append(f"ratio {ratio!r} vs sum(c g)/sum(c) {target!r}")
    return errors


WORKLOADS = {w.name: w for w in (CliDemo14, McN40, GammaSweep, RunN300)}
