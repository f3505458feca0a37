#!/usr/bin/env python3
"""Build and run the repository benchmark (bench/suite/README.md).

    python3 bench/suite/run.py [--workload W|all] [--seed N | --seeds 1,2,3]
                               [--seconds S] [--trace 0|1] [--trace-dir DIR]
                               [--out FILE]

Configures and builds bench/suite (Release, into bench/suite/build-bench)
before every invocation; an up-to-date build costs about a second. Build
output goes to stderr, so for one workload and one seed the last stdout line
is the benchmark's result JSON. With several workloads or seeds every run's
lines are printed, and --seeds adds min / median / max per metric across
the seeds. In --out, "{workload}" and "{seed}" expand per run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(SUITE, "build-bench")
BINARY = os.path.join(BUILD, "ls2_bench")
WORKLOADS = ["wmt_dp8", "gpt_3d", "gpt2_exec", "chat", "rag"]
RUN_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", SUITE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "ls2_bench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run_one(args, workload, seed, echo=True):
    """Runs the benchmark once; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace_dir:
        cmd += ["--trace-dir", args.trace_dir]
    if args.out:
        out = args.out.format(workload=workload, seed=seed)
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        cmd += ["--out", out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def seed_spread(results):
    """Prints min / median / max of every metric across seeds, per workload."""
    print("\nseed spread: workload metric min median max unit (n seeds)")
    for workload, runs in results.items():
        names = list(runs[0]["metrics"]) if runs else []
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            print(f"{workload} {name} {min(values):.6g} {statistics.median(values):.6g} "
                  f"{max(values):.6g} {unit} ({len(values)})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seeds", help="comma-separated input seeds (seed-spread mode)")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--trace-dir", help="write <workload>.{trace,registry,layers}.json here")
    ap.add_argument("--out", help="result JSON path; {workload} and {seed} expand")
    args = ap.parse_args()

    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    if len(workloads) == 1 and len(seeds) == 1:
        code, _ = run_one(args, workloads[0], seeds[0])
        return code

    code, results = 0, {}
    for workload in workloads:
        for seed in seeds:
            rc, result = run_one(args, workload, seed)
            code = code or rc
            if result is not None:
                results.setdefault(workload, []).append(result)
    if len(seeds) > 1:
        seed_spread(results)
    return code


if __name__ == "__main__":
    sys.exit(main())
