#!/usr/bin/env python3
"""Build noftl_bench and run the repository benchmark.

One command for everything (stdlib only):

  python3 benchmark/run.py                  # every workload, seed 42
  python3 benchmark/run.py --trace          # per-layer metrics + tracing overhead
  python3 benchmark/run.py --smoke          # every workload, 1/20 of the work
  python3 benchmark/run.py --runs 10 --out a.jsonl   # result set for compare.py
  python3 benchmark/run.py --workload tpcc_regions --seed 7 --seconds 25 --trace 0

Every metric the run measured is printed as `workload metric value unit`,
followed by one JSON result line per workload ({"correct", "attempted",
"failed", "metrics"}); with --workload that JSON object is the last line of
stdout. The exit code is non-zero when the build fails or any correctness
check fails.

The build goes to build-bench/ at the root of the checkout (CMake, Release).
A run executes `rounds` independent rounds of its workload, each one a fresh
load plus a fixed number of transactions that takes about ROUND_SECONDS on a
4-core x86 machine; --seconds chooses the round count, so the work done for a
given --seconds never depends on how fast the code is.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / "build-bench"
BINARY = BUILD_DIR / "noftl_bench"
ROUND_SECONDS = 25
SMOKE_SCALE = 0.05
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build noftl_bench; output goes to stderr."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = [cmake, "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = [cmake, "--build", str(BUILD_DIR), "--target", "noftl_bench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise RuntimeError("build failed")


def rounds_for(seconds, smoke):
    return 1 if smoke else max(1, round(seconds / ROUND_SECONDS))


def run_once(workload, seed, seconds, trace, smoke):
    """One run of one workload: a child process, its JSON result parsed."""
    cmd = [str(BINARY), f"workload={workload}", f"seed={seed}",
           f"rounds={rounds_for(seconds, smoke)}"]
    if smoke:
        cmd += [f"scale={SMOKE_SCALE}", "setup_loads=1"]
    if trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["trace=1", f"trace_out={traces / f'{workload}-{seed}.json'}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: noftl_bench exited {proc.returncode} "
                           "without a result")
    result = json.loads(lines[-1])
    if proc.returncode != (0 if result["correct"] else 1):
        raise RuntimeError(f"{workload}: noftl_bench exited {proc.returncode}")
    return result


def report(spec, result, trace):
    """Print every metric the run measured, then the JSON result line.

    Both kinds of run carry every end-to-end metric; an untraced run also
    carries tpcc.wall_tps, a traced run every per-layer metric."""
    required = spec["end_to_end"] + (spec["per_layer"] if trace else [])
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        value = result["metrics"].get(m["name"])
        if value is None:
            if result["correct"] and m in required:
                raise RuntimeError(f"{result['workload']}: noftl_bench did not "
                                   f"report {m['name']}")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{result['workload']} {m['name']} {value:.6g} {m['unit']}")
    for error in result["errors"]:
        print(f"{result['workload']} CHECK FAILED: {error}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"],
                    help="measuring budget per run; sets the round count")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="per-layer metrics from a traced run")
    ap.add_argument("--smoke", action="store_true",
                    help="one small round per workload, checks on")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, seeds seed..seed+runs-1")
    ap.add_argument("--out", type=Path,
                    help="append one JSON record per run (for compare.py)")
    args = ap.parse_args()
    if args.seconds < 1 or args.runs < 1:
        ap.error("--seconds and --runs must be positive")

    try:
        build()
    except RuntimeError as e:
        log(f"error: {e}")
        return 1

    ok = True
    for workload in [args.workload] if args.workload else names:
        for seed in range(args.seed, args.seed + args.runs):
            started = time.monotonic()
            try:
                result = run_once(workload, seed, args.seconds,
                                  args.trace == 1, args.smoke)
                report(spec, result, args.trace == 1)
            except (RuntimeError, ValueError, KeyError) as e:
                log(f"error: {e}")
                return 1
            log(f"{workload} seed {seed}: {time.monotonic() - started:.1f} s")
            ok = ok and result["correct"]
            if args.out:
                record = {k: result[k] for k in (
                    "workload", "seed", "trace", "rounds", "deterministic",
                    "correct", "attempted", "failed", "metrics")}
                record["smoke"] = args.smoke
                with open(args.out, "a") as f:
                    f.write(json.dumps(record) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
