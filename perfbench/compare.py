#!/usr/bin/env python3
"""Summarise one result set, or compare two, from run.py --out files.

    python3 perfbench/compare.py A.jsonl [B.jsonl]

For every workload and end-to-end metric it prints n, the median and
the quartiles of each set, and the spread: the distance between the
quartiles as a share of the median (statistics.quantiles, n=4). With
two sets it also prints the change of B's median against A's, the
share of index-matched (alternating) pairs that B wins (ties count
for neither side), and a verdict:

  unresolved  a spread exceeds the metric's bound, and not every B run
              beats every A run
  worse       B's median is worse than A's by more than the bound
  better      B wins at least 9 in 10 pairs and the medians differ by
              more than A's interquartile distance
  same        none of the above

Bounds and directions come from BENCHMARK.json. Only untraced runs
(trace 0) carry end-to-end metrics. Exit status 1 when any row is
unresolved or worse (or, for one set, when any spread exceeds its
bound), else 0.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    sets = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"] != 0:
                continue
            sets.setdefault(rec["workload"], []).append(rec["result"])
    return sets


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    a = load(sys.argv[1])
    b = load(sys.argv[2]) if len(sys.argv) == 3 else None

    bad = 0
    header = "%-16s %-20s %3s %12s %12s %12s %7s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread")
    if b is not None:
        header += " | %3s %12s %7s %8s %6s  verdict" % (
            "n", "median B", "spread", "change", "wins")
    print(header)
    for wl in [w["name"] for w in bench["workloads"]]:
        runs_a = a.get(wl, [])
        runs_b = (b or {}).get(wl, [])
        if not runs_a:
            continue
        fails = sum(r["failed"] for r in runs_a + runs_b)
        tries = sum(r["attempted"] for r in runs_a + runs_b)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            va = [r["metrics"][name]["value"] for r in runs_a]
            q1, med, q3 = quartiles(va)
            sa = spread(va)
            row = "%-16s %-20s %3d %12.6g %12.6g %12.6g %6.1f%%" % (
                wl, name, len(va), q1, med, q3, 100 * sa)
            if b is None:
                if sa > bound:
                    row += "  spread over bound %.0f%%" % (100 * bound)
                    bad += 1
                print(row)
                continue
            vb = [r["metrics"][name]["value"] for r in runs_b]
            if not vb:
                print(row + " | no runs in B")
                bad += 1
                continue
            medb = statistics.median(vb)
            sb = spread(vb)
            worse_by = (medb - med) / med if lower else (med - medb) / med
            pairs = list(zip(va, vb))
            wins = sum((y < x) if lower else (y > x) for x, y in pairs)
            decided = sum(x != y for x, y in pairs)
            win_frac = wins / decided if decided else 0.0
            all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            if (sa > bound or sb > bound) and not all_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif win_frac >= 0.9 and abs(medb - med) > (q3 - q1):
                verdict = "better"
            else:
                verdict = "same"
            bad += verdict in ("unresolved", "worse")
            row += " | %3d %12.6g %6.1f%% %+7.1f%% %6.2f  %s" % (
                len(vb), medb, 100 * sb, 100 * (medb - med) / med, win_frac,
                verdict)
            print(row)
        print("%-16s failed operations: %d of %d" % (wl, fails, tries))
        bad += fails > 0
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
