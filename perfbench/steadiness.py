#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload, untraced, from the repository root, and reports for every
end-to-end metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median next to the metric's bound. The host
diagnostics each run prints on standard error are recorded beside them
(never used to rescale anything), so that host drift shows.

    python3 perfbench/steadiness.py [--seeds 10] [--first-seed 1]
        [--workload NAME ...] [--out FILE]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t = time.time()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.time() - t
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} reported failures: {result}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for line in proc.stderr.splitlines():
        if line.startswith("host:"):
            words = line.split()[1:]
            metrics.update((f"host.{k}", float(v)) for k, v in zip(words[::2], words[1::2]))
    return metrics, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    host = ["host.cpu_calib_ms", "host.mem_calib_ms", "host.steal_ratio"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    record = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "first_seed": args.first_seed, "workloads": {}}
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in list(bounds) + host}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            metrics, wall = run_once(bench["command"], w, seed, bench["run_seconds"])
            walls.append(wall)
            for name in values:
                values[name].append(metrics[name])
        rows = {}
        print(f"{w}: {len(walls)} runs, {min(walls):.0f}-{max(walls):.0f} s each")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": vs}
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:18s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                  f"  spread {spread:6.3f}  bound {bound if bound is not None else '-'}")
        record["workloads"][w] = rows
        if args.out:
            with open(args.out, "w") as f:
                json.dump(record, f, indent=1)
                f.write("\n")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
