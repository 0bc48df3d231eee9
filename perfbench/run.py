#!/usr/bin/env python3
"""End-to-end ingest -> serve benchmark of corrtrack.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_e2e in Release from this checkout into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), computes the
exact answer oracle for the workload's corpus and seed once (cached under
the build directory), runs the measurement and prints the result as the
last line of stdout:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a separate traced run (spans go to the cache
directory). Run context (core count, thread budget, offered rates, corpus
properties, validity) is printed on the line before the result. A run whose
generators fell behind their lateness bound, or most of whose set-ups were
not done within the unpaced warm-up, is invalid: it is not reported and is
measured again, up to MAX_ATTEMPTS times while time is left. The exit status
is non-zero when the build fails, a non-Release build is refused, every
attempt was invalid or the correctness gate fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Measuring attempts per invocation; only a valid attempt is reported.
MAX_ATTEMPTS = 4


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def run(cmd, timeout, capture=False):
    """Runs cmd to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(
            [str(c) for c in cmd], cwd=ROOT, timeout=timeout, check=False,
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        log("timed out after %ds: %s" % (timeout, " ".join(map(str, cmd))))
        sys.exit(4)


def build(build_dir):
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log("no corrtrack sources in %s" % ROOT)
        sys.exit(2)
    cache = build_dir / "CMakeCache.txt"
    if not cache.is_file():
        if run(["cmake", "-S", ROOT / "perfbench", "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"], 300).returncode != 0:
            log("configure failed")
            sys.exit(2)
    build_type = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type != "Release":
        log("refusing a '%s' build; benchmarks run Release only" % build_type)
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", build_dir, "--target", "perfbench_e2e",
            "-j", jobs], 800).returncode != 0:
        log("build failed")
        sys.exit(2)
    return build_dir / "perfbench_e2e"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    binary = build(build_dir)
    # Everything after the build must end within 180 s of this point.
    deadline = time.monotonic() + 170
    cache_dir = build_dir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--cache-dir", cache_dir]

    # The oracle runs in its own process so its memory never counts towards
    # the measuring process's peak RSS; it is cached per corpus and seed.
    if run([binary, "--oracle"] + common, 80).returncode != 0:
        log("oracle computation failed")
        sys.exit(2)
    # An invalid run (see the docstring) is never reported. It is measured
    # again while the time left allows another attempt as long as the last:
    # a burst of host CPU steal can hold the generators back in one run
    # without any fault of the program or the harness.
    for attempt in range(1, MAX_ATTEMPTS + 1):
        started = time.monotonic()
        proc = run([binary, "--trace", str(args.trace)] + common,
                   max(1, int(deadline - started)), capture=True)
        if proc.returncode != 0 or not proc.stdout.strip():
            log("measurement failed (exit %d)" % proc.returncode)
            sys.exit(2)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        took = time.monotonic() - started
        if result["valid"]:
            break
        context = result["context"]
        log("invalid attempt %d: doc lateness p99 %.3f ms, query lateness "
            "p99 %.3f ms (bound %g ms), %d set-ups past the warm-up, host "
            "steal %.1f%%" % (
                attempt, context["doc_late_ms_p99"],
                context["query_late_ms_p99"], context["lateness_bound_ms"],
                context["setups_past_warmup"], context["host_steal_pct"]))
        if attempt == MAX_ATTEMPTS or deadline - time.monotonic() < 1.5 * took:
            log("invalid run: generators fell behind their lateness bound or "
                "most set-ups outlasted the unpaced warm-up in every attempt; "
                "these runs measured the harness, not the program")
            sys.exit(3)
    result["context"]["attempts"] = attempt
    print("perfbench context: " + json.dumps(
        {"context": result["context"], "checks": result["checks"]}))

    metrics = result["metrics"]
    names = [m["name"]
             for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(names) or not all(
            math.isfinite(metrics[n]["value"]) for n in names):
        log("metric set does not match BENCHMARK.json")
        sys.exit(2)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: metrics[n] for n in names},
    }))
    if not result["correct"]:
        log("correctness gate failed: %s" % json.dumps(result["checks"]))
        sys.exit(1)


if __name__ == "__main__":
    main()
