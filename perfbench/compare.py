#!/usr/bin/env python3
"""A/A (or A/B) comparison of two sets of benchmark runs.

    python3 perfbench/compare.py a.jsonl b.jsonl

Both files are written by collect.py. For each workload and end-to-end
metric it prints each side's median, first and third quartile, and the
spread (interquartile distance as a share of the median), and whether
the two sides agree within the metric's bound in BENCHMARK.json: B's
median is not worse than A's by more than the bound, and, except for
setup_s, each side's spread is within the bound. It also compares the
share of failed operations, which must be exactly equal. Exits 1 when
anything disagrees.
"""

import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["result"] is not None and rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open("BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    a, b = load(sys.argv[1]), load(sys.argv[2])
    ok = True
    print(f"{'workload':<16} {'metric':<16} {'A median':>11} {'A q1..q3':>23} {'A spr':>6}"
          f" {'B median':>11} {'B q1..q3':>23} {'B spr':>6} {'B/A':>7} {'bound':>6}  verdict")
    for w in sorted(set(a) | set(b)):
        ra, rb = a.get(w, []), b.get(w, [])
        if len(ra) < 2 or len(rb) < 2:
            print(f"{w:<16} needs at least two runs on each side")
            ok = False
            continue
        for m in metrics:
            name, bound = m["name"], m["bound"]
            qa = quartiles([r["metrics"][name]["value"] for r in ra])
            qb = quartiles([r["metrics"][name]["value"] for r in rb])
            ratio = qb[1] / qa[1]
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            agree = worse <= bound and (name == "setup_s" or (qa[3] <= bound and qb[3] <= bound))
            ok &= agree
            print(f"{w:<16} {name:<16} {qa[1]:>11.5g} {qa[0]:>11.5g}..{qa[2]:<11.5g} {qa[3]:>6.3f}"
                  f" {qb[1]:>11.5g} {qb[0]:>11.5g}..{qb[2]:<11.5g} {qb[3]:>6.3f} {ratio:>7.3f} {bound:>6}"
                  f"  {'agree' if agree else 'DISAGREE'}")
        share = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in (ra, rb)]
        same = share[0] == share[1]
        ok &= same
        print(f"{w:<16} {'failed share':<16} {share[0]:>11.5g} {'':>23} {'':>6} {share[1]:>11.5g}"
              f" {'':>23} {'':>6} {'':>7} {'':>6}  {'agree' if same else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
