#!/usr/bin/env python3
"""Steadiness check for perfbench: runs each workload on several seeds and
prints every metric's median, quartiles and spread (interquartile range as
a share of the median), next to the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --workloads cold,serve --seeds 1-10 --seconds 10
    python3 perfbench/steady.py --workloads prompt-hit --seeds 1-5 --trace both
    python3 perfbench/steady.py --save a.json
    python3 perfbench/steady.py --save b.json --against a.json

Every spread is held against its metric's bound, setup_s's too. --save
writes each workload's medians and failed shares to a file; --against
compares this set's medians with a saved set's and flags every metric
whose median is worse by more than its bound, and any workload whose
failed share differs. --trace both also makes a traced run per seed and
reports the tracing overhead: how much lower the traced runs' median
throughput is. Run it from the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = {}
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench summary "):
            summary = json.loads(line[len("perfbench summary "):])
        elif line.startswith("perfbench check: "):
            print(f"{workload} seed {seed}: {line}", file=sys.stderr)
    return result, summary


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else float("inf")


def report(workload, trace, runs, bounds):
    """Prints the spreads and returns the set's medians and failed shares."""
    print(f"\n== {workload} (trace {trace}, {len(runs)} seeds)")
    shares = sorted({r["failed"] / r["attempted"] for r, _ in runs})
    print(f"correct on every run: {all(r['correct'] for r, _ in runs)}; "
          f"failed share per run: {shares}")
    medians = {}
    names = sorted(runs[0][0]["metrics"])
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r, _ in runs]
        med, q1, q3, sp = spread(values)
        medians[name] = med
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
        unit = runs[0][0]["metrics"][name]["unit"]
        print(f"{name:40} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.3f} "
              f"{'' if bound is None else bound:>6} {unit} {flag}")
    return {"medians": medians, "failed_shares": shares}


def compare(workload, now, then, bounds, better):
    """Flags each metric whose median got worse than the saved set's by
    more than its bound, and a changed failed share."""
    print(f"-- {workload} against the saved set")
    if now["failed_shares"] != then["failed_shares"]:
        print(f"failed share CHANGED: {then['failed_shares']} -> {now['failed_shares']}")
    for name, med in sorted(now["medians"].items()):
        old = then["medians"].get(name)
        if old is None or name not in bounds:
            continue
        worse = (med - old) / old if better[name] == "lower" else (old - med) / old
        flag = "ok" if worse <= bounds[name] else "WORSE THAN BOUND"
        print(f"{name:40} {old:12.5g} -> {med:12.5g} {worse:+8.3f} {bounds[name]:>6} {flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="cold,prompt-hit,serve")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", default="0", choices=["0", "1", "both"])
    ap.add_argument("--save", help="write this set's medians and failed shares here")
    ap.add_argument("--against", help="compare with the medians a previous --save wrote")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    saved = {}
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)
    results = {}
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    for workload in args.workloads.split(","):
        qps = {}
        for trace in traces:
            runs = []
            for seed in parse_seeds(args.seeds):
                result, summary = run_once(workload, seed, seconds, trace)
                runs.append((result, summary))
                print(f"{workload} seed {seed} trace {trace}: qps {summary.get('queries_per_s', 0):.1f} "
                      f"setup {summary.get('setup_median_s', 0):.4g} s "
                      f"steal {summary.get('host_steal_pct', 0):.1f}% correct {result['correct']}",
                      file=sys.stderr, flush=True)
            key = f"{workload} trace {trace}"
            results[key] = report(workload, trace, runs, bounds)
            if key in saved:
                compare(workload, results[key], saved[key], bounds, better)
            qps[trace] = statistics.median(s["queries_per_s"] for _, s in runs)
        if len(qps) == 2:
            print(f"tracing overhead on {workload}: median throughput {qps[0]:.1f} q/s untraced, "
                  f"{qps[1]:.1f} q/s traced ({1 - qps[1] / qps[0]:+.1%} lower)")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    os.environ.setdefault("PYTHONUNBUFFERED", "1")
    main()
