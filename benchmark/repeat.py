#!/usr/bin/env python3
"""Run the benchmark repeatedly and judge its steadiness by its own bounds.

    repeat.py <binary> [--sets 2] [--runs 3] [--seeds 11,12,13] [--seconds N]
              [--trace 0|1] [--out FILE.json]

Each set runs every workload once per seed, workloads alternating, so two
sets of the same code see the same inputs at different moments. For every
end-to-end metric and workload it prints each set's median, how far the
second median is from the first in the metric's worse direction, and the
spread (interquartile range over median, statistics.quantiles n=4) over all
runs, and exits 1 if a difference or a spread exceeds the metric's bound in
BENCHMARK.json. With --trace 1 it records per-layer metrics instead and
judges nothing: they have no bounds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if p.returncode != 0:
        sys.exit("%s\nexit %d from %s" % (p.stderr[-2000:], p.returncode, " ".join(cmd)))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("wrong answers from %s" % " ".join(cmd))
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("binary")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", default="11,12,13")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = []
    for s in range(args.sets):
        for seed in seeds:
            for w in workloads:
                metrics = run_once(args.binary, w, seed, seconds, args.trace)
                runs.append({"set": s, "seed": seed, "workload": w, "metrics": metrics})
                print("set %d seed %d %s done" % (s, seed, w), file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "trace": args.trace, "runs": runs}, f, indent=1)
            f.write("\n")

    if args.trace:
        for w in workloads:
            print("== %s (median of %d runs)" % (w, args.sets * len(seeds)))
            for m in spec["per_layer"]:
                vals = [r["metrics"][m["name"]] for r in runs if r["workload"] == w]
                print("  %-34s %16.4f %s" % (m["name"], statistics.median(vals), m["unit"]))
        return

    bad = 0
    for w in workloads:
        print("== %s" % w)
        for m in spec["end_to_end"]:
            by_set = [[r["metrics"][m["name"]] for r in runs if r["workload"] == w and r["set"] == s] for s in range(args.sets)]
            medians = [statistics.median(v) for v in by_set]
            worse = 0.0
            if args.sets > 1 and medians[0]:
                delta = (medians[-1] - medians[0]) / medians[0]
                worse = delta if m["better"] == "lower" else -delta
            sp = spread([v for vs in by_set for v in vs])
            ok = worse <= m["bound"] and (m["name"] == "setup_s" or sp <= m["bound"])
            bad += not ok
            print("  %-22s %s  worse by %+6.2f%%  spread %5.2f%%  bound %4.1f%%  %s" % (
                m["name"], "  ".join("%12.4f" % x for x in medians), 100 * worse, 100 * sp, 100 * m["bound"],
                "ok" if ok else "OUT OF BOUND"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
