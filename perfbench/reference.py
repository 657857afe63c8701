#!/usr/bin/env python3
"""Reference numbers for perfbench/README.md.

    python3 perfbench/reference.py [--sets 2] [--runs 10] [--traced 2]
                                   [--seconds S] [--workloads fig4_selfjoin,...]

Runs --sets sets of --runs untraced runs of every workload (set k uses
seeds (k-1)*runs+1 ... k*runs), then --traced traced runs per workload,
one after another through run.py. Prints, as the README's markdown tables:
per workload and end-to-end metric the median, quartiles and spread
(Q3 - Q1) / median of the first set against the metric's bound from
BENCHMARK.json, the other sets' medians as a ratio to the first's, and the
share of resampled pairs of 10-run sets whose medians differ by more than
the bound in the metric's worse direction; operations attempted and failed;
the median of every per-layer metric of the traced runs; and the median of
every entry of the untraced runs' detail files. Raw results go to
.bench_build/reference.json.
"""
import argparse
import json
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("failed: " + " ".join(cmd))
    result = json.loads(lines[-1])
    detail = os.path.join(ROOT, ".bench_build", "run",
                          "%s-%d-trace%d" % (workload, seed, trace), "detail.json")
    with open(detail) as f:
        result["detail"] = json.load(f)
    print("  %s seed %d trace %d done" % (workload, seed, trace),
          file=sys.stderr, flush=True)
    return result


def false_regression_share(values, better, bound, trials=4000):
    """Share of resampled pairs of 10-run sets whose second median is worse
    than the first by more than the bound."""
    rng = random.Random(1)
    worse = 0
    for _ in range(trials):
        a = statistics.median(rng.choices(values, k=10))
        b = statistics.median(rng.choices(values, k=10))
        if (b > a * (1 + bound)) if better == "lower" else (b < a * (1 - bound)):
            worse += 1
    return worse / trials


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    raw = {name: {"sets": [], "traced": []} for name in names}
    for k in range(args.sets):
        for name in names:
            seeds = range(k * args.runs + 1, (k + 1) * args.runs + 1)
            raw[name]["sets"].append([run(name, s, seconds, 0) for s in seeds])
    for name in names:
        raw[name]["traced"] = [run(name, s, seconds, 1)
                               for s in range(1, args.traced + 1)]
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "reference.json"), "w") as f:
        json.dump(raw, f, indent=1)
    print_tables(raw, bench, seconds)


def print_tables(raw, bench, seconds):
    names = list(raw)
    sets = len(raw[names[0]]["sets"])
    print("%d set(s) of %d untraced runs per workload, `--seconds %d`.\n"
          % (sets, len(raw[names[0]]["sets"][0]), seconds))
    print("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | bound | "
          "other sets' median / first | resampled P(worse by > bound) |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name in names:
        for m in bench["end_to_end"]:
            per_set = [[r["metrics"][m["name"]]["value"] for r in runs]
                       for runs in raw[name]["sets"]]
            values = per_set[0]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            ratios = ", ".join("%.3f" % (statistics.median(v) / med)
                               for v in per_set[1:]) or "-"
            pooled = [v for vs in per_set for v in vs]
            print("| `%s` | `%s` (%s) | %.4g | %.4g | %.4g | %.3f | %.2f | %s | %.3f |"
                  % (name, m["name"], m["unit"], med, q1, q3, (q3 - q1) / med,
                     m["bound"], ratios,
                     false_regression_share(pooled, m["better"], m["bound"])))
    print()
    for name in names:
        runs = [r for rs in raw[name]["sets"] for r in rs]
        print("- `%s`: %d runs, all correct: %s, operations attempted %d, failed %d"
              % (name, len(runs), all(r["correct"] for r in runs),
                 sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs)))
    if raw[names[0]]["traced"]:
        print("\nPer-layer metrics, median of %d traced runs:\n"
              % len(raw[names[0]]["traced"]))
        print("| layer metric | unit | " + " | ".join(names) + " |")
        print("|---|---|" + "---|" * len(names))
        for m in bench["per_layer"]:
            cells = [statistics.median(r["metrics"][m["name"]]["value"]
                                       for r in raw[n]["traced"]) for n in names]
            print("| `%s` | %s | " % (m["name"], m["unit"]) +
                  " | ".join("%.4g" % v for v in cells) + " |")
    print("\nDetail-file entries, median over the first set "
          "(`calibration_ms` as min to max):\n")
    print("| workload | entry | median |")
    print("|---|---|---|")
    for name in names:
        runs = raw[name]["sets"][0]
        for key in sorted(runs[0]["detail"]):
            values = [r["detail"][key] for r in runs]
            cell = ("%.1f to %.1f" % (min(values), max(values))
                    if key == "calibration_ms" else "%.4g" % statistics.median(values))
            print("| `%s` | `%s` | %s |" % (name, key, cell))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
