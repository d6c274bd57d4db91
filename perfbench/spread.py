#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each end-to-end metric's
median and quartile spread (IQR / median), as the acceptance check takes it.

    python3 perfbench/spread.py --workload sweep_pair --seeds 1-10 [--seconds N]

--seconds defaults to run_seconds from BENCHMARK.json. Per-run JSON lines go
to .bench_build/spread/<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    out_dir = os.path.join(ROOT, ".bench_build", "spread")
    os.makedirs(out_dir, exist_ok=True)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    with open(os.path.join(out_dir, args.workload + ".jsonl"), "a") as log:
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", "%g" % args.seconds, "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                sys.exit("seed %d failed: %s" % (seed, proc.stderr.strip()))
            line = proc.stdout.strip().splitlines()[-1]
            log.write(line + "\n")
            result = json.loads(line)
            print("seed %d: correct=%s failed=%d  %s" % (
                seed, result["correct"], result["failed"], "  ".join(
                    "%s=%.4g" % (k, v["value"])
                    for k, v in result["metrics"].items())), flush=True)
            for name in values:
                values[name].append(result["metrics"][name]["value"])

    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 \
            else "  <-- above bound/3"
        print("%-14s median %12.6g  spread %6.3f  bound %.2f%s" % (
            m["name"], med, spread, m["bound"], flag))


if __name__ == "__main__":
    main()
