"""Measure the benchmark's spread and record a baseline.

    python3 perfbench/baseline.py [--runs 10] [--workloads NAME ...]
        [--traced 1] [--out perfbench/BASELINE.json]

For each workload: --runs untraced runs of run.py, each with its own seed
(0, 1, ...), then --traced traced runs.  Per end-to-end metric it reports
the median of the runs and the spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the median,
against a third of the metric's bound in BENCHMARK.json.  It also reports the
tracing overhead (median traced wall_s minus median untraced wall_s) and the
median per-layer metrics.  With --out the result is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    environment = json.loads(lines[0])["environment"]
    return json.loads(lines[-1]), environment


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    doc = {"runs": args.runs, "workloads": {}}
    steady = True
    for workload in names:
        runs = []
        for seed in range(args.runs):
            result, doc["environment"] = run_once(spec, workload, seed, 0)
            runs.append(result)
            print(workload, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  file=sys.stderr, flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": runs[0]["attempted"], "failed": runs[0]["failed"],
                 "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            share = spread(values) if len(values) > 1 else 0.0
            ok = share < bound / 3
            steady = steady and ok
            entry["end_to_end"][name] = {
                "median": statistics.median(values), "unit": runs[0]["metrics"][name]["unit"],
                "min": min(values), "max": max(values), "spread": share,
                "third_of_bound": bound / 3, "steady": ok,
            }
        traced = [run_once(spec, workload, seed, 1)[0] for seed in range(args.traced)]
        if traced:
            layers = {name: statistics.median(t["metrics"][name]["value"] for t in traced)
                      for name in traced[0]["metrics"]}
            entry["tracing_overhead_s"] = (layers["trace.wall_s"]
                                           - entry["end_to_end"]["wall_s"]["median"])
            entry["per_layer"] = layers
        doc["workloads"][workload] = entry
        print(json.dumps({workload: {k: v for k, v in entry.items() if k != "per_layer"}},
                         indent=1), flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
