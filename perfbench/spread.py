#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):
    python3 perfbench/spread.py [--workloads check_hit,...] [--seeds 10]
                                [--first-seed 1] [--seconds N] [--out FILE]

Runs perfbench/run.py once per (workload, seed) with --trace 0 and prints, per
metric, the median and the quartile spread (Q3 - Q1) / median, with the
quartiles from statistics.quantiles(values, n=4), next to the metric's bound
in BENCHMARK.json. A spread at or below a third of the bound is marked ok.
--out saves every run's result and diagnostics as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    diag = json.loads(lines[-2])["diag"] if len(lines) >= 2 else {}
    return json.loads(lines[-1]), diag


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, diag = one_run(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "result": result, "diag": diag})
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                  + f" steal={diag.get('host_steal_pct', 0):.1f}%", flush=True)
        record[workload] = runs
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("inf")
            mark = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            print(f"  {workload:13s} {name:16s} median {med:12.5g}  spread {share:7.2%}"
                  f"  bound {bound:.0%}  {mark}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
