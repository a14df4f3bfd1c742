#!/usr/bin/env python3
"""Self-test of the benchmark: a short run of every workload, traced and not.

Usage (from the repository root):
    python3 perfbench/selftest.py [--seconds 1]

Each run must print, as its last stdout line, exactly the keys correct,
attempted, failed and metrics; report every end-to-end metric (untraced) or
every per-layer metric (traced) of BENCHMARK.json under its name and unit,
as a finite number; be correct; and fail no op. End-to-end values must be
positive, and so must the per-layer readings of the work each workload is
built to load (LOADED), so a layer that silently stopped working shows.
Exits 1 if any run violates one of these.
"""
import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per-layer readings that must be positive in a traced run of each workload.
LOADED = {
    "check_hit": ["runtime.frames_per_op", "proto.host_invoke_us"],
    "check_miss": ["runtime.frames_per_op", "proto.queries_per_check",
                   "proto.host_response_us", "proto.mgr_query_us"],
    "revoke_churn": ["runtime.frames_per_op", "proto.queries_per_check",
                     "proto.revoke_frames_per_revoke", "proto.mgr_update_us",
                     "proto.host_revoke_us"],
}


def check(workload: str, trace: int, seconds: int, spec: dict) -> list:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted {result.get('attempted')}")
    if result.get("failed") != 0:
        errors.append(f"failed {result.get('failed')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']} unit {got.get('unit')} != {m['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{m['name']} value {value}")
        elif value <= 0 and (not trace or m["name"] in LOADED[workload]):
            errors.append(f"{m['name']} is not positive: {value}")
    if len(lines) < 2 or "diag" not in json.loads(lines[-2]):
        errors.append("no diagnostics line before the result")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check(workload, trace, args.seconds, spec)
            print(f"{workload} trace={trace}: {'ok' if not errors else '; '.join(errors)}",
                  flush=True)
            status |= bool(errors)
    return status


if __name__ == "__main__":
    sys.exit(main())
