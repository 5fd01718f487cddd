#!/usr/bin/env python3
"""Build and run the dlproj benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark program is a dune project of its own (perfbench/_pkg, which
the repo's dune build skips).  This script copies it and the checkout's
lib/ into .bench_build/src, builds it there with the dune cache off
(build output goes to stderr), then runs one workload and passes its
standard output through; the last line is the JSON result.  All scratch
files stay under .bench_build/ in the checkout.  Exits non-zero, without a
result line, when the checkout cannot be built; exits 1 when an output
check fails.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ["pipeline-cold", "gate-level", "reproject-warm", "serve-mix"]
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
STARTUP_LAUNCHES = 11


def startup_s(exe, env):
    """The program's start-up, which counts as set-up: the median time to
    launch it with -help (exec, runtime and library initialisation, usage)
    and see it exit, over STARTUP_LAUNCHES launches.  One launch scatters
    by a factor of two; the median of eleven stays within a few percent."""
    times = []
    for _ in range(STARTUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run([exe, "-help"], stdout=subprocess.DEVNULL, env=env,
                       check=True, timeout=RUN_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    root = os.getcwd()
    pkg = os.path.join(root, "perfbench", "_pkg")
    if not (os.path.isdir("lib") and os.path.isdir(pkg)):
        sys.exit("perfbench: run from the root of a dlproj checkout "
                 "(no lib/ or perfbench/_pkg here)")
    bench = os.path.join(root, ".bench_build")
    src = os.path.join(bench, "src")
    work = os.path.join(bench, "perfbench")
    tmp = os.path.join(work, "tmp")
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(pkg, src)
    shutil.copytree("lib", os.path.join(src, "lib"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
               DUNE_BUILD_DIR=os.path.join(bench, "_build"))

    build = subprocess.run(
        ["dune", "build", "--root", src, "./main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    exe = os.path.join(env["DUNE_BUILD_DIR"], "default", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--pins", os.path.join(root, "perfbench", "pins.txt"),
           "--startup-s", repr(startup_s(exe, env))]
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: workload timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
