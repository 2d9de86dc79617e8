#!/usr/bin/env python3
"""A perfbench workload on a busy host: runs of two checkouts, side by side.

    python3 bench/busy_host.py --scenario pair --checkouts ../parent . \
        --labels parent change --workload run-n300 --out BENCH.json

Each round runs every checkout in turn, alternating their order, under one
``--scenario``:

``solo``: one ``perfbench/run.py --workload <workload>`` run, nothing else
busy (``--workload`` defaults to mc-n40).
``spin``: the same run beside a busy loop in another process.
``pair``: two runs of the workload at once, with different seeds.

Every run, and the busy loop, starts pinned to a CPU of its own (the first
run on the lowest usable CPU, the loop or second run on the next) and widens
its affinity to every usable CPU before ``exec``. A kernel that balances load
would place them so; one that does not (a cpuset with ``sched_load_balance``
0) would otherwise stack them on the launcher's CPU. Needs ``taskset`` and at
least two usable CPUs.

A run reports reference seconds, which scale wall time by how fast a fixed
computation ran in the same process. Under contention that computation slows
too, so the reference figures hide what a forked lane costs the other tasks;
the wall figures, and the total wall ops/s of a round, show it. Each row gives
the median over the rounds of the runs' ``op_p50_s`` (reference and wall)
and of the round's total wall ``ops_per_s``; ``--out`` stores the rows under
``busy_host.<workload>.<scenario>``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def launch(checkout: Path, cpu: int, every: str, argv: list[str]) -> subprocess.Popen:
    """argv started on `cpu`, its affinity widened to `every` before exec."""
    cmd = f'taskset -p -c {every} $$ >/dev/null; exec "$@"'
    return subprocess.Popen(
        ["taskset", "-c", str(cpu), "sh", "-c", cmd, "sh", *argv],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )


def parse(out: str) -> dict:
    lines = out.strip().splitlines()
    info, result = json.loads(lines[-2])["perfbench"], json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"a perfbench run failed: {lines[-1]}")
    return {
        "op_p50_s": result["metrics"]["op_p50_s"]["value"],
        "wall_op_p50_s": info["wall"]["op_p50_s"],
        "wall_ops_per_s": info["wall"]["ops_per_s"][0],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--scenario", choices=("solo", "spin", "pair"), required=True)
    ap.add_argument("--workload", default="mc-n40", help="perfbench workload to run")
    ap.add_argument("--checkouts", nargs="+", type=Path, required=True)
    ap.add_argument("--labels", nargs="+", default=None,
                    help="names of the checkouts in the output (default: their directory names)")
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=1700)
    ap.add_argument("--out", default=None, help="JSON file to store the result in")
    args = ap.parse_args()
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        raise SystemExit("needs at least two usable CPUs")
    every = ",".join(map(str, cpus))
    labels = args.labels or [c.resolve().name for c in args.checkouts]
    if len(labels) != len(args.checkouts):
        raise SystemExit("give one label per checkout")
    named = dict(zip(args.checkouts, labels))
    runs: dict[str, list[list[dict]]] = {label: [] for label in labels}
    for r in range(args.rounds):
        for checkout in args.checkouts if r % 2 == 0 else args.checkouts[::-1]:
            def bench(cpu: int, seed: int) -> subprocess.Popen:
                return launch(checkout, cpu, every, [
                    sys.executable, "perfbench/run.py", "--workload", args.workload,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
                ])

            spin = None
            if args.scenario == "spin":
                spin = launch(checkout, cpus[1], every, [sys.executable, "-c", "while True: pass"])
            procs = [bench(cpus[0], args.seed + r)]
            if args.scenario == "pair":
                procs.append(bench(cpus[1], args.seed + 50 + r))
            try:
                got = [parse(p.communicate()[0]) for p in procs]
            finally:
                if spin:
                    spin.kill()
                    spin.wait()
            runs[named[checkout]].append(got)
            print(args.workload, args.scenario, named[checkout], r, json.dumps(got), flush=True)
    result = {}
    for label, rounds in runs.items():
        result[label] = {
            "op_p50_s": statistics.median(g["op_p50_s"] for row in rounds for g in row),
            "wall_op_p50_s": statistics.median(g["wall_op_p50_s"] for row in rounds for g in row),
            "wall_ops_per_s": statistics.median(sum(g["wall_ops_per_s"] for g in row)
                                                for row in rounds),
        }
        print(args.workload, args.scenario, label, json.dumps(result[label]), flush=True)
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {}
        doc.setdefault("busy_host", {}).setdefault(args.workload, {})[args.scenario] = {
            "rounds": args.rounds, "seconds": args.seconds, "cpus": len(cpus), "median": result,
        }
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
