#!/usr/bin/env python3
"""Build the closed-loop benchmark from source and run one measurement.

Usage (from the repository root):
    python3 perfbench/run.py --workload check_hit --seed 1 --seconds 10 --trace 0

The driver binary is compiled from perfbench/CMakeLists.txt, which pulls the
protocol libraries from ../src, into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Build output goes to stderr; the driver's stdout is
passed through, so the last stdout line is the result object. A failed build
or run exits non-zero without printing a result.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("check_hit", "check_miss", "revoke_churn")
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    exe = build_dir / "closed_loop"
    cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "closed_loop",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return exe


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (target / "perfbench").resolve()
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"perfbench: driver exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 4
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
