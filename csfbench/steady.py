#!/usr/bin/env python3
"""Steadiness check: runs each workload several times, on distinct seeds,
and prints for every end-to-end metric the median, the quartiles and the
spread (interquartile range over median) against the metric's bound from
BENCHMARK.json.

    python3 csfbench/steady.py --runs 10 --first-seed 1000 --save .bench_out/a.json
    python3 csfbench/steady.py --runs 10 --first-seed 3000 --against .bench_out/a.json

Run from the root of a checkout. A spread above a third of its bound is
flagged, for every metric (setup_s included: it is one cold set-up per
run). With --against, each median is also compared with the median of an
earlier set saved by --save, and a change for the worse by more than the
bound is flagged. The share of failed operations must be identical in
every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(ROOT, "csfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def worse_by(metric, median, earlier):
    """How much worse `median` is than `earlier`, as a share of `earlier`."""
    change = (median - earlier) / earlier
    return change if metric["better"] == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=names)
    parser.add_argument("--save", help="write every run's result here")
    parser.add_argument("--against", help="results saved by an earlier set")
    args = parser.parse_args()
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    saved = {}
    worst = 0.0
    flags = 0
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.monotonic()
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            values = " ".join(f"{name}={m['value']:.5g}"
                              for name, m in result["metrics"].items())
            print(f"{workload} seed {seed} ({time.monotonic() - start:.0f} s):"
                  f" correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} {values}", file=sys.stderr,
                  flush=True)
        saved[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        shares |= {r["failed"] / r["attempted"]
                   for r in earlier.get(workload, [])}
        flags += len(shares) != 1
        print(f"\n{workload}: {args.runs} runs, failed share "
              f"{sorted(shares)}{'' if len(shares) == 1 else '  UNEQUAL'}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'worse':>8}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            worst = max(worst, spread / bound)
            flag = "  spread > bound/3" if spread > bound / 3 else ""
            change = ""
            if workload in earlier:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[workload])
                worse = worse_by(metric, median, before)
                change = f"{worse:>8.2%}"
                if worse > bound:
                    flag += "  median worse than bound"
            flags += bool(flag)
            print(f"  {name:<14} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.2%} {bound:>6} {change:>8}{flag}")
    print(f"\nlargest spread/bound: {worst:.2f}; {flags} flagged")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f)


if __name__ == "__main__":
    main()
