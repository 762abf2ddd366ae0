#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 benchmark/spread.py [--seeds 10] [--sets 1] [--trace 0]
                                [--workloads a,b] [--out FILE]

Each set runs the command declared in BENCHMARK.json once per workload
and seed (seeds 1..N, workloads interleaved so a slow spell on a shared
host is spread over all of them) for `run_seconds` each. For every
(workload, metric) it prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread
(q3 - q1) / median next to the metric's bound. With --sets 2 it also
prints how far the second set's median moved from the first's. --out
writes every number as JSON (the committed BASELINE.json is this file).
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    backend = re.search(r"kernel backend (\w+)", proc.stdout)
    return json.loads(lines[-1]), backend.group(1) if backend else None


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    declared = bench["per_layer" if opts.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    sets = []
    backend = None
    for s in range(opts.sets):
        values = {w: {m["name"]: [] for m in declared} for w in workloads}
        for seed in range(1, opts.seeds + 1):
            for w in workloads:
                result, backend = run_once(bench["command"], w, seed,
                                           bench["run_seconds"], opts.trace)
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{w} seed {seed}: {result}")
                for name, m in result["metrics"].items():
                    values[w][name].append(m["value"])
                print(f"set {s + 1} seed {seed} {w} done", file=sys.stderr)
        sets.append({w: {n: summarise(v) for n, v in ms.items()}
                     for w, ms in values.items()})

    for w in workloads:
        for m in declared:
            name = m["name"]
            row = [f"{w:<14} {name:<30}"]
            for st in sets:
                x = st[w][name]
                row.append(f"median {x['median']:>14.6f} q1 {x['q1']:>14.6f} "
                           f"q3 {x['q3']:>14.6f} spread {100 * x['spread']:6.2f}%")
            if bounds[name] is not None:
                row.append(f"bound {100 * bounds[name]:.0f}%")
            if len(sets) > 1:
                a, b = sets[0][w][name]["median"], sets[-1][w][name]["median"]
                row.append(f"set drift {100 * (b - a) / a if a else 0.0:+.2f}%")
            print("  ".join(row))

    if opts.out:
        with open(opts.out, "w") as f:
            json.dump({"host_parallelism": os.cpu_count(),
                       "host": platform.processor() or platform.machine(),
                       "kernel_backend": backend,
                       "run_seconds": bench["run_seconds"],
                       "seeds": list(range(1, opts.seeds + 1)),
                       "trace": opts.trace,
                       "sets": sets}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
