#!/usr/bin/env python3
"""Builds csf_bench from the checkout's sources and runs one workload.

    python3 csfbench/run.py --workload csf_query --seed 7 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and snapshots and trace files to .bench_out. Build
output goes to stderr; the last line of stdout is the workload's JSON
result. Exits non-zero when the build or the workload fails: without a
result when the build fails or the workload prints none.

A traced run (--trace 1) reports the layers listed under "per_layer" in
BENCHMARK.json, the one list of their names and units: a layer the
workload does not reach reads 0, and a layer it prints that is not listed
there, or with another unit, makes the result incorrect.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("csf_query", "social_stream", "serve_zipf")
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "csf_bench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def declared_layers(result):
    """Orders the traced result's metrics as BENCHMARK.json's per_layer
    list, filling the layers the workload does not reach with 0. Returns
    False when a printed layer is undeclared or has another unit."""
    with open(SPEC) as f:
        declared = json.load(f)["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    printed = result["metrics"]
    ok = True
    for name, metric in printed.items():
        if units.get(name) != metric["unit"]:
            print(f"csfbench: traced layer {name} ({metric['unit']}) is not "
                  f"declared with that unit in BENCHMARK.json",
                  file=sys.stderr)
            ok = False
    result["metrics"] = {
        m["name"]: printed.get(m["name"], {"value": 0, "unit": m["unit"]})
        for m in declared}
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        print("csfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "csf_bench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", ".bench_out"]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("csfbench: workload timed out", file=sys.stderr)
        return 1
    lines = [line for line in out.splitlines() if line.strip()]
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if not lines or not lines[-1].startswith("{"):
        print(f"csfbench: workload exited with {proc.returncode} and no "
              f"result", file=sys.stderr)
        return proc.returncode or 1
    # Printed also when an operation or an output check failed; then the
    # exit code is non-zero.
    result = json.loads(lines[-1])
    layers_ok = not args.trace or declared_layers(result)
    if not layers_ok:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    if proc.returncode != 0:
        print(f"csfbench: workload exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode
    return 0 if layers_ok else 1


if __name__ == "__main__":
    sys.exit(main())
