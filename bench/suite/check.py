#!/usr/bin/env python3
"""Check and compare result files of the repository benchmark.

    python3 bench/suite/check.py validate R.json [R.json ...]
    python3 bench/suite/check.py compare A*.json -- B*.json

Result files are what `run.py --out` (or `ls2_bench --out`) writes, one per
run. `validate` fails unless every run is correct and every (workload,
metric) that BENCHMARK.json declares is present, finite and in the declared
unit: the end-to-end metrics for every workload, plus the per-layer metrics
of any traced run given. `compare` groups the runs of each side by
(workload, metric) and prints each side's median and quartiles (Python's
statistics.quantiles, n=4) with a verdict against the metric's bound:

    agree       B's median is no worse than A's by more than the bound
    worse       it is worse by more than the bound
    unresolved  a side's quartile spread is wider than the bound, and not
                every B run reads better than every A run

Per-layer metrics have no bound and get no verdict. `compare` exits
nonzero unless every bounded metric agrees.
"""
import json
import math
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                         "BENCHMARK.json")


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def load_results(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            run = json.load(f)
        run["path"] = path
        runs.append(run)
    return runs


def validate(paths):
    bench = load_benchmark()
    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
    errors, seen = [], set()
    for run in load_results(paths):
        where = f"{run['path']} ({run['workload']}, seed {run['seed']}, trace {run['trace']})"
        result = run["result"]
        if not result["correct"]:
            errors.append(f"{where}: incorrect: {'; '.join(run['failures'])}")
        if result["attempted"] < 1:
            errors.append(f"{where}: attempted {result['attempted']}")
        for metric in declared[run["trace"]]:
            got = result["metrics"].get(metric["name"])
            if got is None:
                errors.append(f"{where}: {metric['name']} missing")
            elif got["unit"] != metric["unit"]:
                errors.append(f"{where}: {metric['name']} in {got['unit']}, "
                              f"declared {metric['unit']}")
            elif not math.isfinite(got["value"]):
                errors.append(f"{where}: {metric['name']} = {got['value']}")
        extra = set(result["metrics"]) - {m["name"] for m in declared[run["trace"]]}
        if extra:
            errors.append(f"{where}: undeclared metrics {sorted(extra)}")
        if run["trace"] == 0:
            seen.add(run["workload"])
    for workload in bench["workloads"]:
        if workload["name"] not in seen:
            errors.append(f"no untraced run of workload {workload['name']}")
    for e in errors:
        print("INVALID", e)
    print(f"{len(paths)} result files, {len(errors)} problems")
    return 1 if errors else 0


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return statistics.median(values), q1, q3


def compare(a_paths, b_paths):
    bench = load_benchmark()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"] + bench["per_layer"]}

    def collect(paths):
        table = {}
        for run in load_results(paths):
            for name, m in run["result"]["metrics"].items():
                table.setdefault((run["workload"], name), []).append(m["value"])
        return table

    a, b = collect(a_paths), collect(b_paths)
    print(f"{'workload':<10} {'metric':<34} {'A median':>14} {'A q1..q3':>25} "
          f"{'B median':>14} {'B q1..q3':>25} {'delta':>8}  verdict")
    failing = 0
    for key in sorted(set(a) & set(b)):
        workload, name = key
        (am, aq1, aq3), (bm, bq1, bq3) = summary(a[key]), summary(b[key])
        delta = (bm - am) / abs(am) if am else 0.0
        verdict = "-"
        if name in bounds:
            bound = bounds[name]["bound"]
            worse = delta if lower[name] else -delta
            spread = max((aq3 - aq1) / abs(am) if am else 0.0, (bq3 - bq1) / abs(bm) if bm else 0.0)
            if lower[name]:
                b_all_better = max(b[key]) < min(a[key])
            else:
                b_all_better = min(b[key]) > max(a[key])
            if spread > bound and not b_all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            else:
                verdict = "agree"
            failing += verdict != "agree"
        print(f"{workload:<10} {name:<34} {am:>14.6g} {f'{aq1:.6g}..{aq3:.6g}':>25} "
              f"{bm:>14.6g} {f'{bq1:.6g}..{bq3:.6g}':>25} {100 * delta:>7.2f}%  {verdict}")
    missing = sorted(set(a) ^ set(b))
    for key in missing:
        print("only on one side:", *key)
    print(f"{failing} bounded metrics not in agreement, {len(missing)} unmatched")
    return 1 if failing or missing else 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "validate":
        return validate(argv[1:])
    if len(argv) >= 4 and argv[0] == "compare" and "--" in argv[2:-1]:
        split = argv.index("--")
        return compare(argv[1:split], argv[split + 1:])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
