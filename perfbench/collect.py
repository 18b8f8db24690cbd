#!/usr/bin/env python3
"""Runs the benchmark over a set of seeds and appends each result to a file.

    python3 perfbench/collect.py --out a.jsonl [--workload NAME ...]
                                 [--seeds 1-10] [--trace 0|1]

Run it from the root of the repository. It runs the command that
BENCHMARK.json names, with its run length, once per workload and seed
(workload-major), and appends one JSON line per run to --out:
{"workload": ..., "seed": ..., "trace": ..., "wall_s": ..., "result": {...}}.
Two such files are the input of compare.py.
"""

import argparse
import json
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    failures = 0
    for w in workloads:
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if proc.returncode != 0 or result is None or not result["correct"]:
                failures += 1
                sys.stderr.write(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}\n")
            record = {"workload": w, "seed": seed, "trace": int(args.trace),
                      "wall_s": round(wall, 3), "result": result}
            with open(args.out, "a") as f:
                f.write(json.dumps(record) + "\n")
            print(f"{w} seed {seed}: {wall:.1f} s", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
