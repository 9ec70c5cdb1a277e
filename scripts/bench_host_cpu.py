#!/usr/bin/env python3
"""Host-CPU cost of the reproduction: writes BENCH_host_cpu.json.

Runs the two google-benchmark micro-bench binaries with
--benchmark_repetitions=N and times N runs each of the quick
(TURBOBP_QUICK=1) Figure 5 TPC-C and Figure 8 I/O-traffic benches. Every row
reports the median, min and max over the N runs: ns/op (host CPU time per
iteration) for a micro-benchmark, wall seconds for a paper bench. The clock
is the host's; the virtual-time output of the paper benches is checked
separately against bench/golden/ (see the bench-virtual-identity CI job).

Usage:
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
  scripts/bench_host_cpu.py [--build-dir build] [--runs 3] [--out PATH]

The output defaults to <build-dir>/BENCH_host_cpu.json.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

MICRO_BENCHES = ["bench_micro_bufferpool", "bench_micro_ssd_structures"]
PAPER_BENCHES = ["bench_fig5_tpcc_speedup", "bench_fig8_io_traffic"]
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def spread(values):
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "runs": len(values),
    }


def run_micro(binary, runs):
    out = subprocess.run(
        [str(binary), f"--benchmark_repetitions={runs}",
         "--benchmark_format=json"],
        check=True, capture_output=True, text=True).stdout
    samples = {}
    for b in json.loads(out)["benchmarks"]:
        if b.get("run_type") != "iteration":
            continue  # skip the mean/median/stddev aggregates
        if b.get("error_occurred"):
            sys.exit(f"{binary.name}: {b['run_name']}: {b['error_message']}")
        ns = b["cpu_time"] * NS_PER_UNIT[b["time_unit"]]
        samples.setdefault(b["run_name"], []).append(ns)
    return [dict(bench=binary.name, name=name, unit="ns/op", **spread(ns))
            for name, ns in samples.items()]


def run_paper(binary, runs):
    env = dict(os.environ, TURBOBP_QUICK="1")
    walls = []
    with tempfile.TemporaryDirectory() as cwd:
        for _ in range(runs):
            start = time.perf_counter()
            subprocess.run([str(binary)], check=True, cwd=cwd, env=env,
                           stdout=subprocess.DEVNULL)
            walls.append(time.perf_counter() - start)
    return dict(bench=binary.name, name="quick", unit="wall_s", **spread(walls))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build", type=pathlib.Path)
    parser.add_argument("--runs", default=3, type=int)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args()
    bench_dir = args.build_dir / "bench"
    out = args.out or args.build_dir / "BENCH_host_cpu.json"

    rows = []
    for name in MICRO_BENCHES:
        rows += run_micro(bench_dir / name, args.runs)
    for name in PAPER_BENCHES:
        rows.append(run_paper(bench_dir / name, args.runs))
    out.write_text(json.dumps(rows, indent=2) + "\n")
    for r in rows:
        print(f"{r['bench']:28s} {r['name']:40s} {r['median']:14.1f} "
              f"[{r['min']:.1f}, {r['max']:.1f}] {r['unit']}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
