#!/usr/bin/env python3
"""Run the benchmark over several workloads and seeds, and report the spread.

Usage, from the root of a checkout:

    python3 perfbench/runs.py                                  # every workload, seed 1
    python3 perfbench/runs.py --workloads random_campaign --seeds 1 2 3 4 5 --quiet

Runs perfbench/run.py once per workload and seed, one run after another,
with the run_seconds of BENCHMARK.json. It prints each run's lines, then, per
workload, every metric's median, quartiles and quartile distance as a share
of the median (statistics.quantiles(values, n=4)), beside the metric's bound
and a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spread_line(name: str, xs: list[float], bound) -> str:
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], xs[0], xs[0])
    spread = (q3 - q1) / med if med else float("nan")
    verdict = "" if bound is None else f"  bound {bound}, a third {bound / 3:.4f}: " + (
        "below a third" if spread <= bound / 3 else "within bound" if spread <= bound
        else "OVER BOUND")
    return f"  {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{verdict}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quiet", action="store_true", help="print only one line per run")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    failed_runs = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                failed_runs += 1
                continue
            result = json.loads(lines[-1])
            row = {k: m["value"] for k, m in result["metrics"].items()}
            if not args.quiet:
                print("\n".join(lines[:-1]))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
            for k, v in row.items():
                values.setdefault(k, []).append(v)
        if len(args.seeds) > 1 and values:
            print(f"{workload}: spread over seeds {args.seeds}")
            for name, xs in values.items():
                print(spread_line(name, xs, bounds.get(name)))
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
