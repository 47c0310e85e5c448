#!/usr/bin/env python3
"""The whole benchmark, once or N times.

    benchmark/run.sh                      one set: every workload, measured and traced
    benchmark/repeat.sh N [--seed-base S] [--reverse] [--save FILE]

A *set* runs each workload of BENCHMARK.json in its own process, first
measured (--trace 0, the end-to-end metrics), then — for `run` only — traced
(--trace 1, the per-layer metrics). `run` prints `workload name unit value`
for every metric and writes benchmark/results/latest.json. `repeat` runs N
measured sets, each with another seed, and prints per workload and metric
the median, the quartiles and the spread (inter-quartile distance as a share
of the median) against the metric's bound; it exits non-zero when a spread
exceeds its bound or a run was incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run_once(workload, seed, trace):
    """One process of the benchmark's own command; returns its result object."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: incorrect run: {lines[-1][:200]}")
    return result


def workloads(reverse=False):
    names = [w["name"] for w in SPEC["workloads"]]
    return names[::-1] if reverse else names


def run_set(args):
    latest = {}
    for workload in workloads():
        latest[workload] = {}
        for trace in (0, 1):
            result = run_once(workload, args.seed, trace)
            for name, m in result["metrics"].items():
                print(workload, name, m["unit"], m["value"], flush=True)
            latest[workload]["per_layer" if trace else "end_to_end"] = result["metrics"]
            latest[workload]["attempted"] = result["attempted"]
    path = os.path.join(HERE, "results", "latest.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as out:
        json.dump({"seed": args.seed, "workloads": latest}, out, indent=1)
        out.write("\n")
    print(f"written {os.path.relpath(path, ROOT)}")


def spread(values):
    """Inter-quartile distance over the median, as the driver computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def repeat(args):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    runs = {w: {name: [] for name in bounds} for w in workloads()}
    for i in range(args.n):
        for workload in workloads(args.reverse):
            result = run_once(workload, args.seed_base + i, 0)
            for name in bounds:
                runs[workload][name].append(result["metrics"][name]["value"])
            print(f"set {i + 1}/{args.n} {workload} done", file=sys.stderr, flush=True)
    exceeded = 0
    summary = {}
    print(f"{'workload':13} {'metric':21} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6}")
    for workload, metrics in runs.items():
        summary[workload] = {}
        for name, values in metrics.items():
            q1, _, q3 = statistics.quantiles(values, n=4)
            med, s = statistics.median(values), spread(values)
            # set-up time is gated on its median only, not on its spread
            over = s > bounds[name] and name != "setup_s"
            exceeded += over
            print(f"{workload:13} {name:21} {med:14.4f} {q1:14.4f} {q3:14.4f} "
                  f"{100 * s:6.2f}% {100 * bounds[name]:5.1f}%{'  EXCEEDED' if over else ''}")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": s,
                                       "values": values}
    if args.save:
        with open(args.save, "w") as out:
            json.dump({"sets": args.n, "seed_base": args.seed_base, "reverse": args.reverse,
                       "cores": os.cpu_count(), "workloads": summary}, out, indent=1)
            out.write("\n")
    return 1 if exceeded else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    one = sub.add_parser("run")
    one.add_argument("--seed", type=int, default=7)
    one.set_defaults(go=run_set)
    many = sub.add_parser("repeat")
    many.add_argument("n", type=int)
    many.add_argument("--seed-base", type=int, default=1)
    many.add_argument("--reverse", action="store_true", help="run the workloads in reverse order")
    many.add_argument("--save", help="also write the summary to this JSON file")
    many.set_defaults(go=repeat)
    args = parser.parse_args()
    if args.mode == "repeat" and args.n < 2:
        parser.error("repeat needs at least 2 sets to have quartiles")
    return args.go(args)


if __name__ == "__main__":
    sys.exit(main())
