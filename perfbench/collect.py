#!/usr/bin/env python3
"""Collect result sets for compare.py by running run.py repeatedly.

    python3 perfbench/collect.py --out PREFIX [--runs 10] [--seed0 1]
        [--seconds S] [--trace 0|1] [--workload W ...] [--root DIR ...]

Run i uses seed seed0 + i. Each --root is a checkout whose run.py is
run from that checkout's root, writing PREFIX-<k>.jsonl for the k-th
root; giving the same root twice collects two sets of the same code.
Within each run index the roots take turns going first, so slow
stretches of the host fall on both sets alike. --seconds defaults to
run_seconds from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workload", action="append",
                    default=None, help="default: every workload")
    ap.add_argument("--root", action="append", default=None,
                    help="checkout to run (default: this one)")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    roots = [os.path.abspath(r) for r in (args.root or [ROOT])]

    for i in range(args.runs):
        seed = args.seed0 + i
        for wl in workloads:
            for k in [(i + j) % len(roots) for j in range(len(roots))]:
                out = os.path.abspath("%s-%d.jsonl" % (args.out, k))
                cmd = [sys.executable, "perfbench/run.py", "--workload", wl,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", out]
                proc = subprocess.run(cmd, cwd=roots[k],
                                      stdout=subprocess.PIPE, text=True)
                last = proc.stdout.rstrip("\n").split("\n")[-1]
                print("run %d set %d %s seed %d: exit %d %s"
                      % (i, k, wl, seed, proc.returncode, last[:160]),
                      flush=True)
                if proc.returncode != 0:
                    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
