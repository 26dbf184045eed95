"""The repository benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload verify-suite|duality-ladder|adversary-report
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The library is imported from ``src/`` next to
this directory; nothing needs installing.

``--trace 0`` runs the workload's jobs in fresh worker processes, one after
another, for about S seconds (at least one pass).  Set-up-only workers before
and after the passes bring the set-up times to SETUP_SAMPLES.  It prints the
medians of the end-to-end metrics:

  setup_s      process start until the library is imported and the inputs built
  wall_s       end of set-up until the last job returns (checks excluded)
  peak_rss_mb  peak resident memory of the worker process
  ok_share     ops that neither raised nor failed their check / ops attempted
  max_rel_gap  largest relative gap between a computed value and its certified
               bound (primal vs dual objective; Gamma's norm vs its Rayleigh bound)

``--trace 1`` runs one traced worker and prints the per-layer metrics of
layers.PER_LAYER; the spans and the full per-callable table go to
``.perfbench/trace-<workload>-seed<N>.json``.

Earlier stdout lines hold the environment and each worker's record; the last
line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``correct`` is false when a correctness gate of workloads.py fails; an op
that raises or fails its gate counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from layers import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("verify-suite", "duality-ladder", "adversary-report")
SETUP_SAMPLES = 10
RUN_LIMIT_S = 170.0   # every worker ends within this many seconds of the start

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "max_rel_gap": "ratio",
}


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", WORKDIR, "--mode", mode, "--spawned"]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(spawned)], cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{mode} worker ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["process_s"] = time.monotonic() - spawned
    return record


def environment() -> dict:
    """Versions, BLAS build and threads, core count and CPU, to tell machines apart."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": int(worker_env()["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "cpu": cpu,
        "machine": platform.machine(),
    }


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    # half the set-up samples before the passes and the rest after them, so
    # that their median spans the run rather than a few seconds of it
    setups = [run_worker(workload, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES // 2)]
    start = time.monotonic()
    passes = [run_worker(workload, seed, "pass", deadline)]
    # another pass only if it is expected to end within the measuring time
    while time.monotonic() - start + passes[-1]["process_s"] <= seconds:
        passes.append(run_worker(workload, seed, "pass", deadline))
    setups += [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, "setup", deadline)["setup_s"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": all(not p["check_failures"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "ok_share": (attempted - failed) / attempted,
            "max_rel_gap": max(p["max_rel_gap"] for p in passes),
        },
    }
    return result, passes


def trace(workload: str, seed: int) -> tuple[dict, list[dict]]:
    record = run_worker(workload, seed, "trace", time.monotonic() + RUN_LIMIT_S)
    result = {
        "correct": not record["check_failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record["layers"]["metrics"][name] for name in PER_LAYER},
    }
    return result, [record]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lgcomplexity", "__init__.py")):
        print(f"error: no library at {SRC}/lgcomplexity; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    try:
        if args.trace:
            result, records = trace(args.workload, args.seed)
            units = PER_LAYER
        else:
            result, records = measure(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        record.pop("layers", None)
        print(json.dumps({"worker": record}))
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
