#!/usr/bin/env python3
"""Run the benchmark several times per workload, each with another seed, and
report each metric's quartiles and its spread: the distance between the
first and third quartile as a share of the median.

Run from the repository root:

    python3 benchmark/steadiness.py --runs 10 --out benchmark/STEADINESS.md

It runs the command named in BENCHMARK.json and flags every end-to-end
metric whose spread is not below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    out = subprocess.run(args, capture_output=True, text=True, check=True)
    wall = time.monotonic() - started
    return json.loads(out.stdout.strip().splitlines()[-1]), wall


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, help="default: run_seconds")
    p.add_argument("--workloads", nargs="*", help="default: all")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", help="write a markdown table here")
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    lines = [
        f"{a.runs} runs per workload, seeds {a.first_seed}..{a.first_seed + a.runs - 1}, "
        f"{seconds} s each, trace {a.trace}.",
        "",
        "| workload | metric | unit | q1 | median | q3 | spread | bound/3 |",
        "|---|---|---|---|---|---|---|---|",
    ]
    raw = ["", "Values in seed order:", ""]
    steady = True
    for w in workloads:
        results = []
        for i in range(a.runs):
            seed = a.first_seed + i
            r, wall = run_once(bench["command"], w, seed, seconds, a.trace)
            print(f"{w} seed {seed}: {wall:.1f} s wall, correct {r['correct']}, "
                  f"attempted {r['attempted']}, failed {r['failed']}", file=sys.stderr)
            results.append(r)
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            limit = bound / 3 if bound else None
            flag = ""
            if limit is not None and name != "setup_s" and not spread < limit:
                flag = " **not steady**"
                steady = False
            lines.append(
                f"| {w} | {name} | {first['unit']} | {q1:.6g} | {med:.6g} | {q3:.6g} | "
                f"{spread:.4f}{flag} | {'' if limit is None else f'{limit:.4f}'} |")
            raw.append(f"- {w} {name}: " + ", ".join(f"{v:.5g}" for v in values))
    text = "\n".join(lines + raw) + "\n"
    print(text)
    if a.out:
        with open(a.out, "w") as f:
            f.write(text)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
