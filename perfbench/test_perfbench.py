"""Self-tests of the benchmark: span accounting, wrapper transparency, and that
every workload's op passes its checks while a perturbed result fails them."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
import selfsync  # noqa: E402
from selfsync import cli, dde_sim  # noqa: E402


def _span(layer, start, end, parent, op=0):
    return [layer, layer, start, end, parent, op, False, None]


def test_self_time_subtracts_nested_and_back_to_back_children():
    tree = [
        _span("bench", 0.0, 10.0, -1),  # 0: children 1, 2 back to back, 4 later
        _span("cli", 1.0, 4.0, 0),  # 1: child 3 nested inside
        _span("cli", 4.0, 6.0, 0),  # 2: starts where 1 ends
        _span("dde_sim.sim", 2.0, 3.5, 1),  # 3
        _span("spectral", 8.0, 9.0, 0),  # 4
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 1.5, 2.0, 1.5, 1.0])
    layers = spans.layer_metrics(tree, ops=1)
    assert layers["cli.calls"] == 2
    assert layers["cli.self_s"] == pytest.approx(3.5)
    assert layers["trace.op_s"] == pytest.approx(10.0)
    assert layers["trace.unattributed_s"] == pytest.approx(4.0)


def test_self_time_clips_overlapping_children():
    tree = [_span("a", 0.0, 5.0, -1), _span("b", 1.0, 3.0, 0), _span("c", 2.0, 6.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_speedometer_samples_a_share_of_the_work():
    meter = speed.Speedometer()
    meter.sample()
    assert len(meter.samples) == 1
    mean = meter.sample(after_s=0.5)
    assert sum(meter.samples[1:]) >= speed.SHARE * 0.5
    assert mean == pytest.approx(sum(meter.samples[1:]) / len(meter.samples[1:]))
    assert meter.factor() == speed.REF_S / meter.mean_s()


def _small_case():
    g = selfsync.topologies.sc_14()
    cfg = selfsync.SimConfig(t_step=1e-3, k_gain=30.0, horizon=300)
    return g, selfsync.DelayMatrix.uniform(14, 0.05), cfg, np.linspace(0.8, 1.2, 14)


def test_wrappers_return_identical_results_and_are_removed():
    g, delays, cfg, gv = _small_case()
    plain = selfsync.simulate(g, delays, cfg, gv)
    original = dde_sim.simulate
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.simulate is not original and cli.simulate is dde_sim.simulate
        traced = cli.simulate(g, delays, cfg, gv)
        with pytest.raises(ValueError):
            selfsync.detect_sync(traced, tol=1e-3, window=0)
    finally:
        tracer.uninstall()
    assert cli.simulate is original and selfsync.simulate is original
    np.testing.assert_array_equal(plain.derivatives, traced.derivatives)
    np.testing.assert_array_equal(plain.states, traced.states)
    sim, detect = tracer.spans
    assert sim[spans.COUNTS]["node_steps"] == 14 * 301
    assert detect[spans.RAISED] and not sim[spans.RAISED]


def test_per_layer_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = set(spans.layer_metrics([], ops=0)) | {
        "trace.untraced_ops_per_s", "trace.ops_per_s", "trace.overhead"}
    assert {m["name"] for m in declared} == names
    assert all(m["unit"] == spans.unit(m["name"]) for m in declared)


def _perturb(x):
    return x * (1.0 + 1e-3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_op_passes_and_perturbed_result_fails(name, tmp_path):
    wl = workloads.WORKLOADS[name](seed=1, work=tmp_path / "work")
    wl.setup(tmp_path / "setup")
    wl.prepare()
    seen = {}
    key = wl.keys[0]
    result = wl.op(key)
    errors, fingerprint = wl.check(key, result)
    assert errors == []
    assert fingerprint
    if isinstance(wl, workloads._CliRun):
        report = json.loads((wl.work / "out" / key / "report.json").read_text())
        report["measured"]["clusters"][0]["value"] = _perturb(
            report["measured"]["clusters"][0]["value"])
        assert workloads.check_cli_report(0, report, wl.expected[key])
    elif isinstance(wl, workloads.McN40):
        summary = json.loads((wl.work / "out" / key / "summary.json").read_text())
        summary["final_twostep_mean"] = _perturb(summary["final_twostep_mean"])
        assert workloads.check_mc_summary(summary, clean=True, trials=wl.trials)
    else:
        gamma_ref, target = wl.expected[key]
        assert workloads.check_gamma_report(
            _perturb(result.gamma_tilde), result.ratio, gamma_ref, target)
        assert workloads.check_gamma_report(
            result.gamma_tilde, _perturb(result.ratio), gamma_ref, target)
    # a repeated input must reproduce the fingerprint
    wl.keys = [key]
    seen[key] = fingerprint
    assert run.measure(wl, 0.0, seen)["failures"] == []
    seen[key] = "different"
    again = run.measure(wl, 0.0, seen)
    assert again["failures"] and again["failures"][0]["input"] == key


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-n40", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
