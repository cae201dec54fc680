#!/usr/bin/env python3
"""Runs one measured benchmark run of one workload.

    python3 perfbench/run.py --workload hot_hits --seed 1 --seconds 15 --trace 0

Builds the repository and the load generator from source into
.bench_build/ (first run only; later runs reuse the build), runs the
generator against the repository's own sweep_serverd, checks every answer,
and prints two JSON lines: a "detail" line (run fingerprint, sample counts,
failure breakdown, response digest) and, last, the result line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Each run's full record is also written to .bench_build/results/ (or to
--out FILE) for perfbench/compare.py. METHODOLOGY.md describes workloads
and metrics.

Exit codes: 0 when the run completed, 1 when it failed (server or harness
error, timeout), 2 when the build failed, 3 when the harness output does
not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the build up to date. False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the run record here")
    args = parser.parse_args()

    if not build():
        return 2
    work = os.path.join(ROOT, ".bench_build", "runs",
                        "%s-%d-%d-%d" % (args.workload, args.seed, args.trace,
                                         os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.dirname(work), exist_ok=True)
    command = [os.path.join(BUILD, "perfbench_load"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--bin", os.path.join(BUILD, "repo"), "--work", work]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode != 0 or len(lines) < 2:
        log("harness failed (exit %d)" % done.returncode)
        return 1
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])

    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        log("metrics do not match BENCHMARK.json: missing %s, extra %s" %
            (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return 3

    detail["commit"] = git_commit()
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "time": time.time(), "detail": detail, "result": result}
    out = args.out or os.path.join(
        ROOT, ".bench_build", "results", "%s-s%d-t%d-%d.json" %
        (args.workload, args.seed, args.trace, int(time.time() * 1000)))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(record, handle)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
