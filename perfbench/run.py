#!/usr/bin/env python3
"""Builds the toolkit and the dftbench program from this checkout, then runs
one benchmark workload (see README.md).

    python3 perfbench/run.py --workload atpg_rand --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The last line on stdout is the result JSON; build output goes to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(".bench_build", "perfbench")
WORK = os.path.join(".bench_build", "run")
WORKLOADS = ("atpg_rand", "bist_grade", "serve_mix")


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        sys.exit("run.py: no toolkit sources next to perfbench/; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "dftbench", "dft_tool", "serve_check"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return {
        "dftbench": os.path.join(BUILD, "dftbench"),
        "dft_tool": os.path.join(BUILD, "dft", "examples", "dft_tool"),
        "serve_check": os.path.join(BUILD, "dft", "examples", "serve_check"),
    }


def self_test(bins):
    failed = subprocess.run([bins["dftbench"], "--self-test"]).returncode != 0

    # serve_check (the transcript check of serve_mix) must reject a
    # transcript that answers one id twice, and accept it answered once.
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "selftest-transcript.ndjson")
    line = ('{"schema":"dft-serve-response","version":1,"id":"r1","op":"lint",'
            '"ok":true,"status":"completed","degraded":false,"cache":"hit",'
            '"elapsed_ms":1,"result":{"errors":0}}')
    schema = os.path.join("data", "serve_response_schema_v1.json")
    for copies, want in ((1, 0), (2, 1)):
        with open(path, "w") as f:
            f.write((line + "\n") * copies)
        rc = subprocess.run([bins["serve_check"], schema, path,
                             "--require-answered", str(copies)],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode
        ok = (rc == 0) == (want == 0)
        failed |= not ok
        print("%s serve_check on %d answer(s) to one id" %
              ("PASS" if ok else "FAIL", copies))
    os.remove(path)

    # the metric names dftbench prints are the ones BENCHMARK.json declares.
    listed = subprocess.run([bins["dftbench"], "--list-metrics"],
                            capture_output=True, text=True).stdout.split("\n")
    have = {"e2e": set(), "layer": set()}
    for row in filter(None, listed):
        kind, name, unit = row.split()
        have[kind].add((name, unit))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for kind, key in (("e2e", "end_to_end"), ("layer", "per_layer")):
        want = {(m["name"], m["unit"]) for m in spec[key]}
        ok = want == have[kind]
        failed |= not ok
        print("%s BENCHMARK.json %s matches dftbench" % ("PASS" if ok else "FAIL", key))
        for m in sorted(want ^ have[kind]):
            print("  differs: %s %s" % m)
    ok = sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    failed |= not ok
    print("%s BENCHMARK.json workloads" % ("PASS" if ok else "FAIL"))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    os.chdir(ROOT)
    bins = build()
    if args.self_test:
        sys.exit(self_test(bins))
    os.makedirs(WORK, exist_ok=True)
    sys.stdout.flush()
    # dftbench replaces this process: signals reach it directly, and it
    # stops and reaps every process it starts itself.
    os.execv(bins["dftbench"], [
        bins["dftbench"], "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--tool", bins["dft_tool"],
        "--serve-check", bins["serve_check"], "--root", ".",
        "--work-dir", WORK])


if __name__ == "__main__":
    main()
