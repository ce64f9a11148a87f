#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (the
medusa libraries plus the perfbench binary) with CMake into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs one
workload and prints its result as the last stdout line:
{"correct", "attempted", "failed", "metrics"}. The metric catalog is
BENCHMARK.json: an untraced run reports exactly its end_to_end metrics;
a traced run reports every per_layer metric, with 0 for the layers the
workload does not exercise, and names those on the line before the
result ("perfbench unmeasured: [...]"), so a filled-in 0 can be told
from a measured one. Exits non-zero, without a result, when the
build fails or the output breaks the catalog; exits non-zero when any
correctness check failed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; stop the binary before that.
RUN_TIMEOUT_S = 170
# Every workload the binary runs. BENCHMARK.json lists the gated ones;
# serve_stream runs and is smoke-tested but is not gated
# (perfbench/README.md, "Steadiness").
WORKLOADS = ["coldstart", "cluster", "serve", "serve_stream"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build; returns the perfbench binary's path."""
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", out, "-j", jobs]):
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            raise SystemExit(1)
    return os.path.join(out, "perfbench")


def load_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def complete(result, catalog, traced):
    """Check the result against the catalog; fill unexercised layers.

    Returns (problem or None, names of the per-layer metrics filled in).
    """
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}", []
    declared = catalog["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in units or m.get("unit") != units[name]:
            return f"metric {name} {m} is not in the catalog", []
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            return f"metric {name} has no finite value", []
    unmeasured = [n for n in units if n not in metrics]
    if traced:
        for name in unmeasured:
            metrics[name] = {"value": 0, "unit": units[name]}
    elif result["correct"]:
        if unmeasured:
            return f"missing end-to-end metrics {unmeasured}", []
        zero = [n for n, m in metrics.items() if m["value"] <= 0]
        if zero:
            return f"end-to-end metrics not positive: {zero}", []
    result["metrics"] = {n: metrics[n] for n in units if n in metrics}
    return None, unmeasured


def run(binary, argv):
    """Run the binary; returns (exit code, stdout lines)."""
    proc = subprocess.Popen([binary] + argv, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, out.splitlines()


def main():
    catalog = load_catalog()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    binary = build()
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    code, lines = run(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--work-dir", work])
    if not lines:
        log(f"no result (exit {code})")
        return code or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"last line is not a result: {lines[-1]!r}")
        return 1
    problem, unmeasured = complete(result, catalog, args.trace == "1")
    if problem:
        log(f"result breaks the catalog: {problem}")
        return 1
    for line in lines[:-1]:
        print(line)
    if args.trace == "1":
        print(f"perfbench unmeasured: {json.dumps(unmeasured)}")
    print(json.dumps(result), flush=True)
    if not result["correct"] or code != 0:
        log(f"correctness checks failed (exit {code})")
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
