#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs BENCHMARK.json's command once per seed (1..RUNS) for each named
workload, with the workloads interleaved seed by seed so host drift hits
every workload alike, then prints per metric the median, the quartiles
and the spread (Q3 - Q1, as a share of the median) next to the metric's
bound from BENCHMARK.json.

    python3 perfbench/spread.py [--runs 10] [--seconds S] [WORKLOAD ...]

Run it from the repository root. The command builds the benchmark on its
first run.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    values = {w: {} for w in args.workloads}
    for seed in range(1, args.runs + 1):
        for w in args.workloads:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            ok = proc.returncode == 0 and result.get("correct") is True
            print(f"# {w} seed {seed}: exit {proc.returncode}, correct {result.get('correct')}, "
                  f"attempted {result.get('attempted')}, failed {result.get('failed')}",
                  file=sys.stderr)
            if not ok:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                sys.exit(1)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'workload':18} {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for w in args.workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"{w:18} {name:24} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
