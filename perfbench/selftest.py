#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload with short virtual windows (run.py --quick) and checks:
  * every run is correct and its last line names every metric of
    BENCHMARK.json (end-to-end with --trace 0, per-layer with --trace 1),
    each with a finite value and its unit;
  * two runs with the same seed give identical virtual-time values, and the
    two passes (processes) of a traced run identical per-layer counters;
  * a second seed runs cleanly;
  * in a directory that holds only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.
Exits 0 when every check holds.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (same directory; WORKLOADS)

VIRTUAL_E2E = ("virt_tput", "virt_lat_p50_ms", "virt_lat_p99_ms")


def invoke(cwd, workload, seed, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def check_run(workload, seed, trace):
        proc = invoke(ROOT, workload, seed, trace)
        res = result_of(proc)
        where = "%s seed %d trace %d" % (workload, seed, trace)
        if proc.returncode != 0 or res is None or not res.get("correct"):
            problems.append("%s: exit %d, stderr tail: %s" % (
                where, proc.returncode, proc.stderr.strip()[-1500:]))
            return {}
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append("%s: unexpected keys %s" % (where, sorted(res)))
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        for m in wanted:
            got = res["metrics"].get(m["name"])
            if got is None or got.get("unit") != m["unit"] or not isinstance(
                    got.get("value"), (int, float)) or not math.isfinite(
                    got["value"]):
                problems.append("%s: metric %s missing, unitless or not "
                                "finite: %r" % (where, m["name"], got))
        if len(res["metrics"]) != len(wanted):
            problems.append("%s: %d metrics, expected %d" % (
                where, len(res["metrics"]), len(wanted)))
        return {k: v["value"] for k, v in res["metrics"].items()}

    for workload in run.WORKLOADS:
        print("selftest: %s" % workload, flush=True)
        a = check_run(workload, 1, 0)
        b = check_run(workload, 1, 0)
        for name in VIRTUAL_E2E:
            if a.get(name) != b.get(name):
                problems.append("%s: %s differs between same-seed runs: "
                                "%r vs %r" % (workload, name, a.get(name),
                                              b.get(name)))
        # Its untraced and traced passes are separate processes that must
        # agree on every counter; run.py fails the run when they do not.
        check_run(workload, 1, 1)
        check_run(workload, 2, 0)

    # A directory holding only the benchmark's own files must fail cleanly.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke(bare, run.WORKLOADS[0], 1, 0)
    if proc.returncode == 0 or result_of(proc) is not None:
        problems.append("bare directory: expected a non-zero exit and no "
                        "result, got exit %d" % proc.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("selftest FAILED: " + p)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
