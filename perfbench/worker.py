"""One fresh process of one workload: set up, run the timed jobs, check.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload NAME --seed N --spawned T
        --workdir DIR --mode pass|setup|trace

T is the parent's ``time.monotonic()`` just before it started this process,
so ``setup_s`` covers interpreter start, the imports and building the
inputs.  The last stdout line is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_library():
    sys.path.insert(0, SRC)
    import lgcomplexity

    if not os.path.abspath(lgcomplexity.__file__).startswith(SRC + os.sep):
        raise ImportError(f"lgcomplexity came from {lgcomplexity.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("pass", "setup", "trace"), required=True)
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    tracer = None
    if args.mode == "trace":
        import layers
        from spans import Tracer

        tracer = Tracer(layers.COUNTERS)
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned
    out = {"setup_s": setup_s}
    if args.mode != "setup":
        ledger = workloads.Ledger()
        start = time.perf_counter_ns()
        done = workload.run(inputs, ledger)
        end = time.perf_counter_ns()
        if tracer is not None:
            tracer.uninstall()
        failures = workload.check(done, ledger)
        out.update(
            wall_s=(end - start) / 1e9,
            attempted=ledger.attempted,
            failed=ledger.failed,
            op_errors={op.name: op.error for op in ledger.ops.values() if op.error},
            check_failures=failures,
            max_rel_gap=workload.gap(done),
        )
        if tracer is not None:
            out["layers"] = layers.summarize(tracer.spans, start, end)
            path = os.path.join(args.workdir, f"trace-{args.workload}-seed{args.seed}.json")
            with open(path, "w") as handle:
                json.dump({"run_start_ns": start, "run_end_ns": end,
                           "table": out["layers"]["table"],
                           "spans": [[s.name, s.start, s.end, s.parent, s.failed]
                                     for s in tracer.spans]}, handle)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
