#!/usr/bin/env python3
"""Runs the benchmark several times per workload, with seeds 1 to N and
BENCHMARK.json's run_seconds, and reports each metric's median, quartiles
and spread with its sample count.

Run from the root of a checkout:

    python3 perfbench/repeat.py --runs 10 --out perfbench/results.json

The spread is the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median; the
benchmark's bounds in `BENCHMARK.json` are meant to be at least three times
the spread of every end-to-end metric except `setup_s`.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = ["python3", "perfbench/run.py"]


def run_once(workload, seed, seconds, trace):
    command = BENCH + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(command)}: incorrect result {result}")
    return result


def summarize(runs):
    """Median, quartiles and spread per metric over `runs`."""
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "n": len(values),
            "values": values,
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", help="write the summary as JSON")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {"runs": args.runs, "seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, i + 1, seconds, args.trace))
            print(f"{workload}: run {i + 1}/{args.runs} done", file=sys.stderr)
        summary = summarize(runs)
        report["workloads"][workload] = summary
        print(f"\n{workload} ({args.runs} runs, {seconds} s each)")
        print(f"  {'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  n")
        for name, s in summary.items():
            bound = bounds.get(name)
            print(
                f"  {name:<24} {s['median']:>14.4f} {s['q1']:>14.4f} {s['q3']:>14.4f}"
                f" {s['spread']:>8.4f} {'' if bound is None else bound:>6}  {s['n']}  {s['unit']}"
            )
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
