#!/usr/bin/env python3
"""Build and run the sstsim host-time benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--out FILE.jsonl]

Run from the root of a checkout. The first run configures and builds
the simulator's libraries and sstbench into .bench_build/perfbench
(later runs only check that the build is current); build output goes
to stderr. sstbench's report goes to stdout; its last line is the
JSON result. --out appends one record per run (provenance plus result)
for compare.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sstbench")
WORKLOADS = ["sst_commercial", "dependent_chain", "rock16_coherent",
             "sampled_profile"]


def build():
    """Configure on first use, then bring sstbench up to date. Exits
    non-zero (printing no result) when the sources cannot be built."""
    try:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                            "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                           + gen, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "--target", "sstbench",
                        "-j", "2"], check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)


def git_provenance():
    """Git rev and dirty flag, or None outside a git checkout."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--", "src", "perfbench"],
                               capture_output=True, text=True, check=True,
                               timeout=10).stdout.strip() != ""
        return {"git_rev": rev, "git_dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"git_rev": None, "git_dirty": None}


def source_hash():
    """SHA-256 over the simulator and benchmark sources (not their
    docs), so two result sets can be matched to code even outside a git
    checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".pyc", ".md")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--out", help="append a JSON record per run here")
    args = ap.parse_args()

    build()
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(ROOT, ".bench_build", "work-" + tag)]
    if args.trace:
        cmd += ["--spans",
                os.path.join(ROOT, ".bench_build", "spans-" + tag + ".json")]

    provenance = dict(git_provenance())
    provenance["source_hash"] = source_hash()
    provenance["cxx_compiler"] = cmake_cache("CMAKE_CXX_COMPILER")
    provenance["cmake_build_type"] = cmake_cache("CMAKE_BUILD_TYPE")
    provenance["command_loadavg_start"] = os.getloadavg()[0]
    t0 = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    provenance["command_wall_s"] = round(time.time() - t0, 3)
    provenance["command_loadavg_end"] = os.getloadavg()[0]
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])

    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance.update(json.loads(line[len("provenance "):]))
        else:
            print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload,
                                "seed": args.seed, "trace": args.trace,
                                "provenance": provenance,
                                "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
