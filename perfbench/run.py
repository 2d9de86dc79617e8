#!/usr/bin/env python3
"""selfsync benchmark: one workload per run, driven through the public API and CLI.

    python3 perfbench/run.py --workload cli-demo14 --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; it imports selfsync from ``src/``. Inputs come
from ``--seed``. Every op is checked against ``oracle`` and, for repeated
inputs, against the earlier results. Ops cycle through the workload's inputs in
whole rounds, stopping at the first round end after ``--seconds``, in one
process (closed loop, one client), with BLAS single-threaded. ``setup_s`` is
the median selfsync import time of three fresh interpreters plus the median of
three scenario generations, each with its warm-up.

Times are reported in reference seconds (see ``speed``): wall seconds scaled by
how fast a fixed reference computation ran in the same stretch of the run. This
takes out the drift of a shared host's speed, which moves wall times by tens of
percent from run to run. ``ops_per_s`` and ``setup_s`` are scaled by the mean
chunk time over the whole measurement (or the whole set-up); each op's latency,
for ``op_p50_s`` and the tail, by the chunks timed just before and just after
that op. The wall-clock figures and every op's wall time and chunk time are on
the info line.

``--trace 0`` prints the end-to-end metrics, measured untraced. ``--trace 1``
runs half the time untraced and half with every public selfsync function
wrapped by ``spans.Tracer``, and prints the per-layer metrics plus the tracing
overhead; the spans themselves go to ``.perfbench_work/spans-<workload>-<seed>.json``.
The last stdout line is the result JSON; the line before it records the
inputs, the machine and the failures.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def _single_thread_blas() -> None:
    """One BLAS thread, so that a shared host's scheduler does not time the
    ops; must run before numpy loads."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def import_s(speed) -> list[float]:
    """Times a fresh interpreter takes to import selfsync from ``src/``."""
    code = "import time; t = time.perf_counter(); import selfsync; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for _ in range(SETUP_REPEATS):
        times.append(float(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
            timeout=120).stdout))
        speed.sample(times[-1])
    return times


def measure(workload, seconds: float, seen: dict, tracer=None, first_op: int = 0,
            speed=None) -> dict:
    """Run whole rounds over the workload's inputs, at least one; stop at the
    first round end after ``seconds``. (Stopping at the nearest round end gave
    gamma-sweep, whose rounds take 8-11 s, 2 rounds on a slow host and 3 on a
    fast one, and its median latency moved with the count.) ``speed``, if
    given, samples before the first op and after each op; ``ref_s`` holds, for
    each op, the mean chunk time of the samples just before and just after it."""
    latencies, keys, failures, ref_s = [], [], [], []
    before = speed.sample(after_s=1.0) if speed is not None else None
    began = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        while True:
            for key in workload.keys:
                op_id = first_op + len(latencies)
                keys.append(key)
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        result = workload.op(key)
                    else:
                        with tracer.op_span(op_id):
                            result = workload.op(key)
                    latencies.append(time.perf_counter() - t0)
                    errors, fingerprint = workload.check(key, result)
                except Exception as exc:  # a raising op is a failed op, not a crash
                    latencies.append(time.perf_counter() - t0)
                    errors, fingerprint = [f"{type(exc).__name__}: {exc}"], None
                if fingerprint is not None and seen.setdefault(key, fingerprint) != fingerprint:
                    errors.append("result differs from an earlier op on the same input")
                if errors:
                    failures.append({"op": op_id, "input": key, "errors": errors})
                if speed is not None:
                    after = speed.sample(latencies[-1])
                    ref_s.append((before + after) / 2)
                    before = after
            if time.perf_counter() - began >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"latencies": latencies, "keys": keys, "failures": failures, "ref_s": ref_s}


def tail(latencies: list[float]) -> dict:
    """Latency at the highest percentile with at least ten ops beyond it."""
    n = len(latencies)
    if n < 11:
        return {}
    ordered = sorted(latencies)
    return {"op_tail_s": ordered[n - 11], "op_tail_percentile": 100.0 * (n - 10) / n}


def ops_per_s(run: dict) -> float:
    return (len(run["latencies"]) - len(run["failures"])) / sum(run["latencies"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "selfsync" / "__init__.py").is_file():
        print(f"perfbench: no selfsync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _single_thread_blas()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import selfsync
    first_import_s = time.perf_counter() - START

    import spans
    from speed import REF_S, Speedometer, to_reference
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        tracer = spans.Tracer() if args.trace else None
        seen: dict = {}
        if tracer is None:
            setup_speed, speed = Speedometer(), Speedometer()
            import_times = import_s(setup_speed)
            setup_times = []
            for rep in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup(work / f"setup{rep}")
                setup_times.append(time.perf_counter() - t0)
                setup_speed.sample(setup_times[-1])
            workload.prepare()
            runs = [measure(workload, args.seconds, seen, speed=speed)]
            speeds = [speed]
        else:
            tracer.install()
            try:
                workload.setup(work / "setup0")
            finally:
                tracer.uninstall()
            workload.prepare()
            half = args.seconds / 2
            speeds = [Speedometer(), Speedometer()]
            untraced = measure(workload, half, seen, speed=speeds[0])
            traced = measure(workload, half, seen, tracer, len(untraced["latencies"]),
                             speed=speeds[1])
            runs = [untraced, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's files
            work.parent.rmdir()

    latencies = [t for run in runs for t in run["latencies"]]
    failures = [f for run in runs for f in run["failures"]]
    attempted, failed = len(latencies), len(failures)
    ref_latencies = [to_reference(t, r) for run in runs
                     for t, r in zip(run["latencies"], run["ref_s"])]
    wall = {"op_p50_s": statistics.median(latencies),
            "ops_per_s": [ops_per_s(run) for run in runs], **tail(latencies)}
    if tracer is None:
        wall["setup_s"] = statistics.median(import_times) + statistics.median(setup_times)
        metrics = {
            "ops_per_s": (ops_per_s(runs[0]) / speed.factor(), "1/s"),
            "op_p50_s": (statistics.median(ref_latencies), "s"),
            "setup_s": (wall["setup_s"] * setup_speed.factor(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layers = spans.layer_metrics(tracer.spans, len(traced["latencies"]))
        untraced_rate, traced_rate = (ops_per_s(run) / speed.factor()
                                      for run, speed in zip(runs, speeds))
        layers["trace.untraced_ops_per_s"] = untraced_rate
        layers["trace.ops_per_s"] = traced_rate
        layers["trace.overhead"] = untraced_rate / traced_rate - 1.0
        metrics = {name: (value, spans.unit(name)) for name, value in layers.items()}
        dump = work.parent / f"spans-{args.workload}-{args.seed}.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps({"fields": spans.FIELDS, "spans": tracer.spans}))

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": {**workload.facts(), "ops": attempted, "seed": args.seed},
        "machine": {
            "cpu_count": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "selfsync": selfsync.__version__,
            "reference_chunk_s": {"nominal": REF_S,
                                  "ops_mean": [speed.mean_s() for speed in speeds]},
        },
        "fail_ratio": failed / attempted,
        **tail(ref_latencies),
        "wall": wall,
        "ops": [{"input": key, "wall_s": t, "chunk_s": r} for run in runs
                for key, t, r in zip(run["keys"], run["latencies"], run["ref_s"])],
        "failures": failures[:10],
    }
    if tracer is None:
        info["machine"]["reference_chunk_s"]["setup_mean"] = setup_speed.mean_s()
        info["setup_repeats_s"] = setup_times
        info["import_s"] = {"first": first_import_s, "fresh": import_times}
    for failure in failures[:10]:
        print(f"perfbench: failed op {failure}", file=sys.stderr)
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
