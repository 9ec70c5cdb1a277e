#!/usr/bin/env python3
"""Repository benchmark: one command per workload, both clocks, checked.

    python3 perfbench/run.py --workload tpcc-lc --seed 1 --seconds 40 --trace 0

Builds perfbench_driver (the turbobp library from src/ plus driver.cc) into
.bench_build/ under the repository root, then runs passes of the workload.
Every pass is a fresh process: it sets the workload up once, runs the timed
window, drains and checks. With --trace 0 the last stdout line carries the
end-to-end metrics of BENCHMARK.json: tpcc-* passes all use --seed and
repeat until the next one would end past --seconds (at least two); tpch-dw
runs TPCH_SEEDS passes, each with its own seed derived from --seed, and
pools them. With --trace 1 one untraced and one traced pass of the same seed
run, and the last line carries the per-layer metrics; the spans go to
.bench_build/perfbench/traces/. Every pass must reproduce the virtual-time
values and layer counters of the first pass with the same seed exactly. Any
failed check, crash or mismatch makes the result incorrect and the exit code
1. See README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("tpcc-lc", "tpcc-mem", "tpch-dw")
# A TPC-H seed draws the query parameters, which move QphH and the power-test
# timings by tens of percent; one tpch-dw run pools this many seeds.
TPCH_SEEDS = 7
TPCH_SEEDS_QUICK = 2
MIN_PASSES = 2
MAX_PASSES = 12
PASS_TIMEOUT_S = 150

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no turbobp sources at %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def percentile(samples, p):
    """Nearest-rank percentile, as the driver computes it (p in (0, 1])."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(p * len(ordered)), 1) - 1]


def run_pass(workload, seed, traced, quick, trace_out):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--traced", str(int(traced)), "--quick", str(int(quick))]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "pass timed out after %d s" % PASS_TIMEOUT_S
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, "pass exited %d without a result: %s" % (
            proc.returncode, proc.stderr.strip()[-2000:])
    if proc.returncode != 0 and not result["failures"]:
        result["failures"].append("pass exited %d" % proc.returncode)
    return result, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true",
                    help="short virtual windows (self-test only)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e))
    build()

    traced = args.trace == 1
    trace_out = None
    if traced:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_out = os.path.join(BUILD, "traces", "%s-seed%d.jsonl" % (
            args.workload, args.seed))

    tpch = args.workload == "tpch-dw"
    n_tpch = TPCH_SEEDS_QUICK if args.quick else TPCH_SEEDS
    # Seeds of consecutive --seed values do not overlap.
    tpch_seeds = [args.seed * n_tpch + i + 1 for i in range(n_tpch)]
    passes, errors = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        # Trace runs: one untraced pass, then one traced pass of that seed.
        this_traced = traced and len(passes) == 1
        seed = args.seed
        if tpch:
            seed = tpch_seeds[0 if traced else len(passes)]
        result, err = run_pass(args.workload, seed, this_traced,
                               args.quick, trace_out if this_traced else None)
        if err:
            errors.append(err)
            break
        result["seed"] = seed
        passes.append(result)
        errors += result["failures"]
        took = time.monotonic() - t0
        if traced:
            if len(passes) == 2:
                break
        elif tpch:
            if len(passes) == n_tpch:
                break
        elif len(passes) >= MAX_PASSES or (
                len(passes) >= MIN_PASSES and
                time.monotonic() - start + took > args.seconds):
            break

    # Determinism: every pass must reproduce the op count, virtual-time
    # values and layer counters of the first pass with its seed bit for bit.
    first_of = {}
    for i, p in enumerate(passes, start=1):
        j, ref = first_of.setdefault(p["seed"], (i, p))
        if p["ops"] != ref["ops"]:
            errors.append("pass %d ran %d ops, pass %d ran %d" % (
                i, p["ops"], j, ref["ops"]))
        for key in ("virt", "counters"):
            diff = sorted(k for k in p[key] if p[key][k] != ref[key][k])
            if diff:
                errors.append("pass %d differs from pass %d in %s" % (
                    i, j, ", ".join(diff)))

    attempted = sum(p["ops"] for p in passes) or 1
    values = {}
    samples = {}
    if passes:
        first = passes[0]
        if traced:
            t = passes[-1]
            values.update(t["counters"])
            values.update(t["host"])
            values["trace.overhead_us_per_op"] = (
                t["host_us_per_op"] - first["host_us_per_op"])
            wanted = spec["per_layer"]
        else:
            lat = "%d ops per pass" % first["ops"]
            values.update(first["virt"])
            if tpch:
                # QphH averaged over the seeds; latency percentiles over
                # their pooled power-test timings.
                power = [t for p in passes for t in p["power_us"]]
                values["virt_tput"] = statistics.mean(
                    p["virt"]["virt_tput"] for p in passes)
                values["virt_lat_p50_ms"] = percentile(power, 0.50) / 1e3
                values["virt_lat_p99_ms"] = percentile(power, 0.99) / 1e3
                lat = "%d power-test timings of %d seeds" % (
                    len(power), len(passes))
            host = [p["host_us_per_op"] for p in passes]
            setups = [p["setup_s"] for p in passes]
            rss = [p["peak_rss_mb"] for p in passes]
            values["host_us_per_op"] = statistics.median(host)
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = statistics.median(rss)
            samples = {"host_us_per_op": "median of %d passes" % len(host),
                       "setup_s": "median of %d setups" % len(setups),
                       "peak_rss_mb": "median of %d passes" % len(rss),
                       "virt_lat_p50_ms": lat,
                       "virt_lat_p99_ms": lat}
            wanted = spec["end_to_end"]
        metrics = {}
        for m in wanted:
            v = values.get(m["name"])
            if v is None or not math.isfinite(v):
                errors.append("metric %s missing or not finite" % m["name"])
                continue
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            log("%-40s %16.6g %-12s %s" % (m["name"], v, m["unit"],
                                           samples.get(m["name"], "")))
    else:
        metrics = {}
    for e in errors:
        log("FAILED: " + e)
    correct = not errors
    log("%s --seed %d: %d passes in %.1f s, %s" % (
        args.workload, args.seed, len(passes), time.monotonic() - start,
        "correct" if correct else "INCORRECT"))
    if trace_out and passes:
        log("spans written to " + trace_out)
    # A run that aborts or fails a check counts as all failed.
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": 0 if correct else attempted,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
