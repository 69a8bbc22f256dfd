#!/usr/bin/env python3
"""Steadiness tool: repeated runs of one workload, and comparison of two sets.

    python3 perfbench/steady.py run --workload ycsb-shift --runs 10 --out set-a.json
    python3 perfbench/steady.py compare set-a.json set-b.json

`run` runs `run.py` once per seed 1, 2, ..., N, one run at a time, for
`run_seconds` of `BENCHMARK.json` and with the end-to-end metrics, saves
every result to `--out`, and prints each end-to-end metric's median,
quartiles and spread: the distance between the quartiles as a share of the
median, set against the metric's bound in `BENCHMARK.json` (a spread under
a third of the bound is steady). `compare` checks, per workload and metric,
that the second set's median is not worse than the first's by more than
the bound, and that both sets fail the same share of operations. It exits
with 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs():
    return {m["name"]: m for m in benchmark()["end_to_end"]}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(results):
    specs = metric_specs()
    rows = []
    for name, spec in specs.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("inf")
        rows.append((name, spec, med, q1, q3, spread))
    return rows


def cmd_run(args):
    seconds = benchmark()["run_seconds"]
    results = []
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: output check failed", file=sys.stderr)
            return 1
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump({"workload": args.workload, "seconds": seconds, "results": results}, f, indent=1)
    print(f"{args.workload}: {len(results)} runs")
    print(f"{'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}  verdict")
    for name, spec, med, q1, q3, spread in summarize(results):
        bound = spec["bound"]
        verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:<34}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.2%}{bound:>8.2f}  {verdict}")
    return 0


def cmd_compare(args):
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    a, b = sets
    if a["workload"] != b["workload"] or a["seconds"] != b["seconds"]:
        print("the two sets are of different workloads or run lengths", file=sys.stderr)
        return 1
    if [r["seed"] for r in a["results"]] != [r["seed"] for r in b["results"]]:
        print("the two sets use different seeds", file=sys.stderr)
        return 1
    ok = True
    share = [sum(r["failed"] for r in s["results"]) / sum(r["attempted"] for r in s["results"])
             for s in sets]
    if share[0] != share[1]:
        ok = False
    print(f"{a['workload']}: failed share {share[0]:.6g} vs {share[1]:.6g}"
          f"{'' if share[0] == share[1] else '  DIFFERENT'}")
    print(f"{'metric':<34}{'median 1':>14}{'median 2':>14}{'change':>9}{'bound':>8}  verdict")
    rows_a = summarize(a["results"])
    rows_b = {r[0]: r for r in summarize(b["results"])}
    for name, spec, med_a, *_ in rows_a:
        med_b = rows_b[name][2]
        change = (med_b - med_a) / med_a if med_a else 0.0
        worse = -change if spec["better"] == "higher" else change
        bound = spec["bound"]
        ok &= worse <= bound
        print(f"{name:<34}{med_a:>14.6g}{med_b:>14.6g}{change:>9.2%}{bound:>8.2f}  "
              f"{'ok' if worse <= bound else 'WORSE'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run one workload with several seeds")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--out", required=True)
    compare = sub.add_parser("compare", help="compare two sets of runs")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
