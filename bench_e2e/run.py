#!/usr/bin/env python3
"""Builds and runs bench_e2e, the repository's end-to-end benchmark.

Run from the repository root:

  python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run.  The last line of standard output is its JSON result; the
      exit code is the benchmark's (0 = every answer checked correct).
  python3 bench_e2e/run.py --all [--seed N] [--trace 0|1] [--smoke]
      Every workload once, each in its own process, then a table.
      --smoke makes each run short with every check still on.
  python3 bench_e2e/run.py --repeat N [--workload NAME] [--out FILE]
      N runs of each workload (seeds --seed .. --seed+N-1), then the median
      and quartiles of every metric; --out keeps the runs as JSON.
  python3 bench_e2e/run.py --compare A.json B.json
      Judges every (end-to-end metric, workload) pair of two --repeat files
      against the bounds in BENCHMARK.json: agree, regressed, improved or
      unresolved (a run-to-run spread wider than the bound).

The binary is built from source under .bench_build/e2e on first use; the
build's output goes to standard error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "e2e")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
WORKLOADS = ["warm_query", "cold_exact", "deadline_anytime", "churn_mix"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; exits 1 if either fails."""
    steps = []
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                  "--parallel", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("bench_e2e: build step failed: " + " ".join(step))


def run_once(workload, seed, seconds, trace, smoke=False, spans=None):
    """Runs the binary once; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench_e2e: {workload} seed {seed} timed out", file=sys.stderr)
        return 2, None
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def metric_table(runs):
    """{workload: {metric: (unit, [values])}} from {workload: [result]}."""
    table = {}
    for workload, results in runs.items():
        metrics = table.setdefault(workload, {})
        for result in results:
            for name, m in result["metrics"].items():
                metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return table


def print_summary(runs):
    for workload, metrics in metric_table(runs).items():
        print(f"\n{workload} ({len(runs[workload])} runs)")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8}  unit")
        for name, (unit, values) in metrics.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f}  {unit}")


def repeat(args, workloads, count):
    runs = {w: [] for w in workloads}
    ok = True
    for workload in workloads:
        for seed in range(args.seed, args.seed + count):
            code, result = run_once(workload, seed, args.seconds, args.trace,
                                    args.smoke)
            if code != 0 or result is None:
                print(f"bench_e2e: {workload} seed {seed} failed "
                      f"(exit {code})", file=sys.stderr)
                ok = False
                continue
            runs[workload].append(result)
    print_summary({w: r for w, r in runs.items() if r})
    if args.out:
        with open(args.out, "w") as out:
            json.dump({"trace": args.trace, "seconds": args.seconds,
                       "runs": runs}, out, indent=1)
    return 0 if ok else 1


def load_bounds():
    for path in ("BENCHMARK.json",
                 os.path.join(BENCH_DIR, "..", "BENCHMARK.json")):
        if os.path.exists(path):
            with open(path) as f:
                return {m["name"]: m for m in json.load(f)["end_to_end"]}
    sys.exit("bench_e2e: BENCHMARK.json not found")


def compare(path_a, path_b):
    bounds = load_bounds()
    with open(path_a) as f:
        a = metric_table(json.load(f)["runs"])
    with open(path_b) as f:
        b = metric_table(json.load(f)["runs"])
    print(f"{'workload':18} {'metric':18} {'median A':>12} {'median B':>12} "
          f"{'worse':>8} {'spread':>8} {'bound':>6}  verdict")
    regressed = False
    for workload in a:
        if workload not in b:
            continue
        for name, spec in bounds.items():
            if name not in a[workload] or name not in b[workload]:
                continue
            qa = quartiles(a[workload][name][1])
            qb = quartiles(b[workload][name][1])
            med_a, med_b = qa[1], qb[1]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (med_b - med_a) / med_a if med_a else 0.0
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0
                         for q in (qa, qb))
            bound = spec["bound"]
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                regressed = True
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "agree"
            print(f"{workload:18} {name:18} {med_a:12.6g} {med_b:12.6g} "
                  f"{worse:8.4f} {spread:8.4f} {bound:6.2f}  {verdict}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--repeat", type=int, metavar="N")
    mode.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", metavar="FILE")
    parser.add_argument("--out", metavar="FILE")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    build()
    if args.repeat is not None:
        if args.repeat < 1:
            parser.error("--repeat needs N >= 1")
        return repeat(args, [args.workload] if args.workload else WORKLOADS,
                      args.repeat)
    if args.all:
        return repeat(args, WORKLOADS, 1)
    if not args.workload:
        parser.error("--workload is required for a single run")
    code, result = run_once(args.workload, args.seed, args.seconds,
                            args.trace, args.smoke, args.spans)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
