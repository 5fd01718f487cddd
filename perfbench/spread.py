#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--seeds 1-10] [WORKLOAD ...]

Runs perfbench/run.py once per seed for each workload (all workloads when
none is named), untraced, for BENCHMARK.json's run_seconds, and prints for
every end-to-end metric the median and the interquartile range as a share
of the median, next to a third of the metric's bound.  It prints the same
for the machine calibration (the `figure calib_ms` line of each run): when
that spreads too, the machine changed speed during the set, and the set's
timings are not comparable with another set's.  Exits 1 when a run fails
or a spread (setup_s excepted) reaches a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, (q3 - q1) / med


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seeds", default="1-10", type=seeds_of)
    args = ap.parse_args()
    for w in args.workloads:
        if w not in names:
            ap.error(f"unknown workload {w} (have: {', '.join(names)})")

    ok = True
    for workload in args.workloads or names:
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
                sys.stderr.write(proc.stderr[-2000:])
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for line in lines:
                if line.startswith("figure calib_ms "):
                    values.setdefault("calib_ms", []).append(float(line.split()[2]))
        if len(values.get("calib_ms", [])) < 4:
            continue
        for metric in bench["end_to_end"]:
            med, s = spread(values[metric["name"]])
            limit = metric["bound"] / 3
            flag = ""
            if s >= limit and metric["name"] != "setup_s":
                flag = "  WIDE"
                ok = False
            print(f"{workload:15s} {metric['name']:12s} median {med:12.4f} "
                  f"spread {s:6.3f} (bound/3 {limit:.3f}){flag}")
        med, s = spread(values["calib_ms"])
        print(f"{workload:15s} {'calib_ms':12s} median {med:12.4f} "
              f"spread {s:6.3f} (machine speed)")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
