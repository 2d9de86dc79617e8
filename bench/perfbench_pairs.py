#!/usr/bin/env python3
"""Alternating perfbench pairs: one workload and seed, run from two checkouts
(``--parent`` and ``--change``) in turn.

    python3 bench/perfbench_pairs.py --parent ../parent --change . --workload run-n300 \\
        --seed 1 --pairs 10 --out BENCH.json --key run_n300_seed1

Each run is ``perfbench/run.py --trace 0`` of its checkout in a fresh
interpreter; the side that runs first alternates from pair to pair, so that a
drift of the host's speed hits both alike. For every end-to-end metric of
``BENCHMARK.json`` the summary gives both sides' medians, the parent's
quartiles and ``change_better_pairs``, the pairs in which the change did
better by the metric's ``better``. With ``--out`` the runs and the summary are
stored under ``perfbench_pairs``/``--key`` in that JSON file, keeping what is
already there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced perfbench run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summary(runs: list[dict], better: dict[str, str]) -> dict:
    sides = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    out = {"pairs": len(sides["change"]),
           "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in sides.items()}}
    for name, direction in better.items():
        parent = [r[name] for r in sides["parent"]]
        change = [r[name] for r in sides["change"]]
        sign = 1 if direction == "higher" else -1
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
        out[name] = {"parent_median": statistics.median(parent), "parent_q1": q1,
                     "parent_q3": q3, "change_median": statistics.median(change),
                     "change_better_pairs": sum(sign * (c - p) > 0
                                                for p, c in zip(parent, change))}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", default=str(ROOT), help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--out", default=None, help="JSON file to store the pairs in")
    ap.add_argument("--key", default=None, help="key of this series in --out")
    args = ap.parse_args(argv)

    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    checkouts = {"parent": Path(args.parent), "change": Path(args.change)}
    runs = []
    for pair in range(args.pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            result = perfbench(checkouts[side], args.workload, args.seed, args.seconds)
            runs.append({"pair": pair, "side": side, "workload": args.workload,
                         "seed": args.seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{name: m["value"] for name, m in result["metrics"].items()}})
            print(json.dumps(runs[-1]), flush=True)
    series = {"runs": runs, "summary": summary(runs, better)}
    print(json.dumps(series["summary"]))
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {}
        key = args.key or f"{args.workload}_seed{args.seed}"
        doc.setdefault("perfbench_pairs", {})[key] = series
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
