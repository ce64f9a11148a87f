#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the repository root. Builds the benchmark if needed, then:
  - runs every workload for about a second, untraced and traced, and
    checks the result line against BENCHMARK.json (keys, every metric
    name and unit, correct, 0 failed);
  - checks that every per-layer metric is measured, not filled in, by
    at least one workload BENCHMARK.json gates;
  - negative case: a coldstart run whose image is corrupted on disk
    must fail its correctness gate (non-zero exit, correct: false);
  - negative case: with a fault plan in the environment the benchmark
    must refuse to run (non-zero exit, no result).
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

import run as bench

RUN_PY = os.path.join(bench.HERE, "run.py")


def fail(msg):
    print(f"smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(catalog, workload, trace):
    """One short run; returns the per-layer metrics it did not measure."""
    p = subprocess.run([sys.executable, RUN_PY, "--workload", workload,
                        "--seed", "7", "--seconds", "1", "--trace", trace],
                       cwd=bench.ROOT, capture_output=True, text=True)
    what = f"{workload} --trace {trace}"
    if p.returncode != 0:
        fail(f"{what}: exit {p.returncode}\n{p.stderr[-3000:]}")
    r = last_json(p.stdout)
    if r is None or set(r) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: bad result line {p.stdout[-500:]!r}")
    if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
        fail(f"{what}: correct={r['correct']} failed={r['failed']} "
             f"attempted={r['attempted']}")
    declared = catalog["per_layer" if trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {n: m["unit"] for n, m in r["metrics"].items()}
    if got != want:
        fail(f"{what}: metrics differ from the catalog: "
             f"{sorted(set(got) ^ set(want))}")
    print(f"smoke: ok  {what}  attempted={r['attempted']}")
    prefix = "perfbench unmeasured: "
    for line in p.stdout.splitlines():
        if line.startswith(prefix):
            return set(json.loads(line[len(prefix):]))
    if trace == "1":
        fail(f"{what}: no unmeasured line")
    return set()


def main():
    catalog = bench.load_catalog()
    binary = bench.build()
    gated = {w["name"] for w in catalog["workloads"]}
    unmeasured = {m["name"] for m in catalog["per_layer"]}
    for workload in bench.WORKLOADS:
        check_run(catalog, workload, "0")
        missed = check_run(catalog, workload, "1")
        if workload in gated:
            unmeasured &= missed
    if unmeasured:
        fail(f"per-layer metrics no gated workload measures: "
             f"{sorted(unmeasured)}")
    print("smoke: ok  every per-layer metric is measured on a gated "
          "workload")

    work = os.path.join(bench.build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    p = subprocess.run([binary, "--workload", "coldstart", "--seed", "7",
                        "--seconds", "1", "--trace", "0", "--work-dir", work,
                        "--corrupt-image"],
                       cwd=bench.ROOT, capture_output=True, text=True)
    r = last_json(p.stdout)
    if p.returncode == 0 or r is None or r["correct"] or r["metrics"]:
        fail(f"corrupted image passed the coldstart gate: {p.stdout!r}")
    print("smoke: ok  corrupted image fails the coldstart gate")

    env = dict(os.environ, MEDUSA_FAULT_PLAN="image_open:1")
    p = subprocess.run([sys.executable, RUN_PY, "--workload", "serve",
                        "--seed", "7", "--seconds", "1", "--trace", "0"],
                       cwd=bench.ROOT, capture_output=True, text=True,
                       env=env)
    if p.returncode == 0 or last_json(p.stdout) is not None:
        fail("ran with MEDUSA_FAULT_PLAN set")
    print("smoke: ok  refuses to run under a fault plan")
    return 0


if __name__ == "__main__":
    sys.exit(main())
