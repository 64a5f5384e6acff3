#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
                                    [--seed-base 1]

Runs two sets of runs of one build. Each set runs every workload --runs
times, each time with another seed (the second set takes the next seeds).
For each workload and end-to-end metric it prints each set's median and
quartiles, the spread (third minus first quartile, as a share of the
median), and whether

  * both sets' spreads stay within the metric's bound in BENCHMARK.json,
  * the two sets' medians differ, in either direction, by no more than the
    bound (as a share of the first), and
  * the share of failed operations is the same in both sets.

A summary JSON goes to .bench_build/steadiness.json. Exit status 0 when
every check holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.time()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.time() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                       done.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])

    results = {}  # (set, workload) -> [result]
    for s in range(SETS):
        for w in workloads:
            for i in range(args.runs):
                seed = args.seed_base + i + s * args.runs
                r = run_once(w, seed, bench["run_seconds"])
                results.setdefault((s, w), []).append(r)
                print("set %d %-16s seed %-3d correct=%s failed=%d/%d "
                      "wall=%.1fs" % (s, w, seed, r["correct"], r["failed"],
                                      r["attempted"], r["wall_s"]),
                      file=sys.stderr, flush=True)

    ok = True
    report = {}
    for w in workloads:
        print("\n== %s" % w)
        sets = [results[(s, w)] for s in range(SETS)]
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"]
                                                     for r in rs)
                  for rs in sets]
        # Failed shares must match exactly; a workload with no failures
        # compares 0 with 0.
        if any(r["failed"] for rs in sets for r in rs):
            shares = [round(x, 12) for x in shares]
        same_share = len(set(shares)) == 1
        correct = all(r["correct"] for rs in sets for r in rs)
        ok &= same_share and correct
        print("correct=%s failed-share=%s" % (correct, shares))
        walls = [r["wall_s"] for rs in sets for r in rs]
        print("run wall: median %.1fs max %.1fs" % (statistics.median(walls),
                                                    max(walls)))
        for m in bench["end_to_end"]:
            name = m["name"]
            sums = [summary([r["metrics"][name]["value"] for r in rs])
                    for rs in sets]
            bound = m["bound"]
            spread_ok = all(x["spread"] <= bound for x in sums)
            a, b = sums[0]["median"], sums[1]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            drift_ok = abs(worse) <= bound
            ok &= spread_ok and drift_ok
            report.setdefault(w, {})[name] = {"sets": sums, "drift": worse,
                                              "bound": bound}
            print("  %-16s %s  drift %+.3f  bound %.2f  %s" % (
                name, "  ".join("med %.6g [%.6g, %.6g] spread %.3f" % (
                    x["median"], x["q1"], x["q3"], x["spread"])
                    for x in sums), worse, bound,
                "ok" if spread_ok and drift_ok else "NOT STEADY"))

    out = os.path.join(ROOT, ".bench_build", "steadiness.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print("\n%s" % ("steady" if ok else "NOT steady"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
