#!/usr/bin/env python3
"""Measure the run-to-run spread of every end-to-end metric.

Runs K sets of N runs of each workload from one checkout, each run with its
own seed, exactly as BENCHMARK.json's command is run:

    python3 odebench/spread.py --sets 2 --runs 10

For each workload and metric it prints each set's median and spread (the
distance between the first and third quartile of the set's values, from
statistics.quantiles(values, n=4), as a share of the set's median), how far
the second set's median moved from the first in the worse direction, the
bound BENCHMARK.json gives, and a bound derived from what was measured:
three times the largest spread seen, rounded up to a hundredth (setup_s: its
largest shift, since its spread is not bounded). It also compares the share
of failed operations between sets, which must match exactly. Raw results go
to .odebench/spread-<time>.json. Run it from the repository root; rerun it
when the host changes, and set the bounds from its output.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace, env):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(args, capture_output=True, text=True, env=env, timeout=900)
    wall = time.monotonic() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: the run reported wrong answers")
    return result, wall


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else math.inf


def worse_shift(first, second, better):
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    cmd = spec["command"]
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    raw = {}
    for w in workloads:
        raw[w] = []
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = args.seed_base + s * args.runs + r
                result, wall = run_once(cmd, w, seed, seconds, 0, env)
                result["wall_s"] = wall
                result["seed"] = seed
                runs.append(result)
                print(f"{w} set {s} run {r} seed {seed}: {wall:.1f}s "
                      f"ops={result['attempted']} failed={result['failed']}", flush=True)
            raw[w].append(runs)

    os.makedirs(".odebench", exist_ok=True)
    out_path = time.strftime(".odebench/spread-%Y%m%d-%H%M%S.json")
    with open(out_path, "w") as f:
        json.dump(raw, f, indent=1)

    derived = {}
    print()
    for w in workloads:
        sets = raw[w]
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        print(f"== {w}: failed share per set {shares}"
              f"{'' if len(set(shares)) == 1 else '  <-- DIFFERS'}")
        print(f"{'metric':28} {'set medians':>32} {'spreads':>16} {'shift':>7} "
              f"{'bound':>6} {'derived':>7}")
        for m in metrics:
            name = m["name"]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            shifts = [worse_shift(meds[0], x, m["better"]) for x in meds[1:]]
            shift = max(shifts) if shifts else 0.0
            if name == "setup_s":
                need = max(shift, 0.0)
            else:
                need = 3 * max(spreads)
            d = math.ceil(need * 100) / 100
            derived[name] = max(derived.get(name, 0.0), d)
            flag = ""
            if name != "setup_s" and max(spreads) > m["bound"]:
                flag = "  <-- SPREAD OVER BOUND"
            elif shift > m["bound"]:
                flag = "  <-- SHIFT OVER BOUND"
            elif name != "setup_s" and max(spreads) > m["bound"] / 3:
                flag = "  (spread over a third of the bound)"
            print(f"{name:28} {' '.join(f'{x:.4g}' for x in meds):>32} "
                  f"{' '.join(f'{x:.3f}' for x in spreads):>16} {shift:7.3f} "
                  f"{m['bound']:6.2f} {d:7.2f}{flag}")
        print()
    print("derived bounds (largest over workloads):")
    for m in metrics:
        print(f"  {m['name']:28} {derived[m['name']]:.2f}  (BENCHMARK.json: {m['bound']})")
    print(f"raw results: {out_path}")


if __name__ == "__main__":
    main()
