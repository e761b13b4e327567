#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload once per seed, in two
sets one after the other, and print

* per set, for every metric, the median, the quartiles and the quartile
  spread (q3 - q1) / median, the figure the end-to-end bounds in
  BENCHMARK.json are set from;
* between the two sets, every end-to-end metric's
  median ratio and how far it moved in its worse direction, against the
  metric's bound, and whether the share of failed operations is the same.

Run from the root of the repository:

    python3 perfbench/steady.py --workloads cold,sweep --seeds 1-10

The command and run length come from BENCHMARK.json. Every figure is
computed over the runs of this invocation only.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, wall_s=round(wall, 2))
    return result


def medians(rs):
    return {name: statistics.median(r["metrics"][name]["value"] for r in rs)
            for name in rs[0]["metrics"]}


def failed_shares(rs):
    return sorted({r["failed"] / r["attempted"] for r in rs})


def summarise(label, by_workload, bounds):
    """Prints one set's medians, quartiles and spreads; returns the widest
    spread per end-to-end metric."""
    worst = {}
    for workload, rs in by_workload.items():
        print(f"\n{label} {workload}: {len(rs)} runs, seeds "
              f"{[r['seed'] for r in rs]}, wall "
              f"{statistics.median(r['wall_s'] for r in rs):.1f} s median")
        print(f"  failed share: {failed_shares(rs)}; "
              f"correct: {all(r['correct'] for r in rs)}")
        print(f"  {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for name in rs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rs]
            unit = rs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                mark = "  <- above a third of its bound"
            if bound is not None:
                worst[name] = max(worst.get(name, 0.0), spread)
            print(f"  {name:<26}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}"
                  f"{'' if bound is None else f'{bound:>7.2f}'} {unit}{mark}")
    print(f"\n{label}: widest spread over the workloads, per end-to-end metric:")
    for name, spread in worst.items():
        print(f"  {name:<26}{spread:>9.3f}  (bound {bounds[name]:.2f})")
    return worst


def compare(first, second, bounds, better):
    """Prints each end-to-end metric's median ratio (second / first) per
    workload and the share by which it got worse; returns the number of
    metrics that moved beyond their bound, plus failed-share mismatches."""
    print("\nset 2 against set 1: median ratio (worse-by share; bound)")
    names = list(bounds)
    print(f"  {'workload':<10}" + "".join(f"{n:>20}" for n in names))
    broken = 0
    for workload, rs in first.items():
        a, b = medians(rs), medians(second[workload])
        cells = []
        for name in names:
            ratio = b[name] / a[name] if a[name] else float("nan")
            worse = ratio - 1 if better[name] == "lower" else 1 - ratio
            flag = "!" if worse > bounds[name] else " "
            broken += worse > bounds[name]
            cells.append(f"{ratio:.3f} ({worse:+.3f}){flag}")
        print(f"  {workload:<10}" + "".join(f"{c:>20}" for c in cells))
        if failed_shares(rs) != failed_shares(second[workload]):
            broken += 1
            print(f"  {workload}: failed shares differ: "
                  f"{failed_shares(rs)} vs {failed_shares(second[workload])}")
    print(f"  {broken} metric(s) beyond their bound (marked !)")
    return broken


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]

    sets = []
    for n in (1, 2):
        by_workload = {}
        for workload in workloads:
            for seed in seeds(opts.seeds):
                r = run(bench["command"], workload, seed, seconds)
                by_workload.setdefault(workload, []).append(r)
                print(f"set {n} {workload} seed {seed}: {r['wall_s']} s, "
                      f"correct {r['correct']}, {r['attempted']} attempted, "
                      f"{r['failed']} failed", flush=True)
        sets.append(by_workload)
    for n, by_workload in enumerate(sets, 1):
        summarise(f"set {n}", by_workload, bounds)
    broken = compare(sets[0], sets[1], bounds, better)
    if broken or not all(r["correct"] for s in sets for rs in s.values() for r in rs):
        sys.exit(1)


if __name__ == "__main__":
    main()
