#!/usr/bin/env python3
"""Build concord_bench from source and run it.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One workload in one process. The last line of standard output is the
      result: {"correct", "attempted", "failed", "metrics"}. A layer run
      (--trace 1) also writes <build>/traces/<workload>.trace.json.

  python3 perfbench/run.py --record <out.json> [--reps 3] [--seconds <s>]
      Every workload --reps times untraced (seeds 1..reps) plus once traced,
      merged with the revision and host fingerprint into one file — a point
      of the committed trajectory under perfbench/results/.

  python3 perfbench/run.py --quick
      The ~1/50-scale self-check (correctness, worker-count determinism,
      report names every metric of BENCHMARK.json, perfbench/spec.json
      agrees with the binary and BENCHMARK.json).

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
as an optimized CMake build; build output goes to standard error. The run
fails, printing no result, when the build does.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
BUILD_ROOT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "concord_bench"
TRACES = BUILD_ROOT / "traces"
RUN_TIMEOUT_S = 170


def build() -> bool:
    """Configures once, then builds incrementally."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # A failed configure must not leave a cache that skips it next time.
            (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
            return False
    TRACES.mkdir(exist_ok=True)
    return BINARY.exists()


def run_binary(args: list[str]) -> tuple[int, str]:
    """Runs concord_bench; returns (exit code, stdout). Stderr passes through."""
    try:
        proc = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"concord_bench timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def workload_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def record(out: Path, reps: int, seconds: int) -> int:
    """Runs every workload `reps` times untraced plus once traced and merges
    the full reports into one trajectory file."""
    tmp = BUILD_ROOT / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip() or "unknown"
    runs, status = [], 0
    for name in workload_names():
        for seed, trace in [(s, 0) for s in range(1, reps + 1)] + [(1, 1)]:
            report = tmp / f"{name}.{seed}.{trace}.json"
            args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace), "--trace-dir", str(TRACES), "--rev", rev,
                    "--out", str(report)]
            code, _ = run_binary(args)
            status |= code
            if report.exists():
                runs.append(json.loads(report.read_text()))
    host = runs[0]["host"] if runs else {}
    out.write_text(json.dumps({"bench": "concord_bench", "rev": rev, "host": host,
                               "run_seconds": seconds, "reps": reps, "runs": runs},
                              indent=1) + "\n")
    print(f"wrote {out} ({len(runs)} runs)", file=sys.stderr)
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--record", type=Path)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    if not build():
        print("concord_bench: build failed", file=sys.stderr)
        return 1
    if args.quick:
        code, out = run_binary(["--quick", "--benchmark-json", str(ROOT / "BENCHMARK.json"),
                                "--spec", str(PACKAGE / "spec.json")])
        sys.stdout.write(out)
        return code
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.record:
        return record(args.record, args.reps, seconds)
    if not args.workload:
        ap.error("--workload, --record or --quick is required")

    code, out = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(seconds), "--trace", args.trace,
                            "--trace-dir", str(TRACES)])
    lines = out.strip().splitlines()
    if lines:
        print(lines[-1])
    return code


if __name__ == "__main__":
    sys.exit(main())
