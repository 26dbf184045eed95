"""Per-layer metrics from a traced run.

Every wrapped callable gets ``.calls``, ``.self_s`` and ``.failed`` in the
full table that the traced run writes to its trace file.  `PER_LAYER` is the
subset the benchmark prints: the callables whose time an open optimisation
should move, plus the counts that explain that time.  Counts marked
"computed" below come from argument sizes, not from measuring the hardware.
"""

from __future__ import annotations

from spans import layer_table


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dense_counts(result, args, kwargs):
    op = args[0]
    blocks = op.num_certificates
    # computed: one (q^n x q^n) @ (q^n x q^n) product and one q^n x q^n basis per block
    return {"flops": 2 * op.q ** (3 * op.n) * blocks, "bytes": 8 * op.q ** (2 * op.n) * blocks}


def _class_counts(result, args, kwargs):
    instance = _arg(args, kwargs, 0, "instance")
    return {"enumerated": instance.q ** instance.n, "kept": sum(len(c) for c in result)}


def _rows(result, args, kwargs):
    return {"rows": _arg(args, kwargs, 0, "q") ** _arg(args, kwargs, 1, "n")}


COUNTERS = {
    "lgsolver.solve_dual": lambda r, a, k: {"iterations": r.info.iterations if r.info else 0},
    # computed: one Laplacian solve per certificate per iteration
    "lgsolver.solve_primal": lambda r, a, k: {"iterations": r.iterations,
                                              "laplacian_solves": r.iterations * len(r.mu)},
    "adversary.BlockOperator.dense": _dense_counts,
    "adversary.spectral_norm": lambda r, a, k: {
        "iterations": r.iterations,
        "calls_dense": int(r.method == "dense_eigen"),
        "calls_iterative": int(r.method != "dense_eigen"),
    },
    "fourier.equivalence_classes": _class_counts,
    "indexing.all_inputs": _rows,
}

# callable -> (extra fields with their units), printed after calls/self_s/failed
_CALLABLES = {
    "lgsolver.solve_dual": (("iterations", "count"),),
    "lgsolver.solve_primal": (("iterations", "count"), ("laplacian_solves", "count"),
                              ("s_per_solve", "s")),
    "lgsolver.duality_report": (),
    "lgsolver.dual_feasibility_margin": (),
    "lgsolver.normalize_witness": (),
    "adversary.BlockOperator.dense": (("flops", "flop"), ("bytes", "B")),
    "adversary.spectral_norm": (("iterations", "count"), ("calls_dense", "count"),
                                ("calls_iterative", "count")),
    "adversary.adversary_ratio": (("total_s", "s"),),
    "adversary.bounded_norm_certificates": (("total_s", "s"),),
    "adversary.hadamard_mask": (),
    "adversary.assemble": (),
    "fourier.equivalence_classes": (("enumerated", "count"), ("kept", "count"),
                                    ("useful_ratio", "ratio")),
    "fourier.restriction_gap": (("total_s", "s"),),
    "fourier.character_overlap": (),
    "indexing.decode": (),
    "indexing.all_inputs": (("rows", "count"),),
    "arrays.build_bounded_instance": (("total_s", "s"),),
    "arrays.verify_orthogonality_property": (),
    "structures.membership_table": (),
    "structures.arc_arrays": (),
    "witnesses.ksubset_witness": (),
    "witnesses.hidden_shift_witness": (),
    "witnesses.triangle_witness": (),
    "reporting.run_suite": (),
    "reporting.write_report": (),
}

PER_LAYER: dict[str, str] = {
    "trace.wall_s": "s",             # wall_s of the traced run; minus the untraced one is the overhead
    "trace.top_level_share": "ratio",  # share of wall_s inside top-level spans
    "trace.spans": "count",
}
for _name, _extra in _CALLABLES.items():
    PER_LAYER.update({f"{_name}.calls": "count", f"{_name}.self_s": "s",
                      f"{_name}.failed": "count"})
    PER_LAYER.update({f"{_name}.{field}": unit for field, unit in _extra})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans, run_start_ns: int, run_end_ns: int) -> dict:
    """The full per-callable table and the `PER_LAYER` metrics of one traced run."""
    table = layer_table(spans)
    primal = table.get("lgsolver.solve_primal", {})
    if primal:
        primal["s_per_solve"] = _ratio(primal["self_s"], primal.get("laplacian_solves", 0))
    classes = table.get("fourier.equivalence_classes", {})
    if classes:
        classes["useful_ratio"] = _ratio(classes.get("kept", 0), classes.get("enumerated", 0))

    wall_ns = run_end_ns - run_start_ns
    top_ns = sum(s.end - s.start for s in spans if s.parent < 0 and s.start >= run_start_ns)
    metrics = {"trace.wall_s": wall_ns / 1e9,
               "trace.top_level_share": _ratio(top_ns, wall_ns),
               "trace.spans": len(spans)}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        callable_, field = name.rsplit(".", 1)
        metrics[name] = table.get(callable_, {}).get(field, 0)
    return {"metrics": metrics, "table": table}
