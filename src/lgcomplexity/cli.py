"""Command-line interface.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

from . import adversary as adv
from . import arrays as ar
from . import fourier as fo
from . import lgsolver as lg
from . import structures as st
from . import witnesses as wt
from .errors import LgError, ParameterError
from .reporting import (
    DEFAULT_CONFIG,
    SUITES,
    check_gap_tolerance,
    report_csv_body,
    run_suite,
    validate_config,
    write_report,
)


def _load_json(path: str, what: str):
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{what} {path} is not JSON: {exc}") from exc


def _emit(args, payload: dict, csv_rows: list[list] | None = None):
    if args.format == "csv":
        lines = [",".join(str(x) for x in row) for row in csv_rows]
        text = "\n".join(lines) + "\n"
    else:
        # payloads are built in their documented field order; keep it
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.artifact_name}.{args.format}")
        with open(path, "w") as handle:
            handle.write(text)
        print(path)
    else:
        sys.stdout.write(text)


def _build_structure(args) -> st.CertificateStructure:
    return st.build_named_structure(args.kind, tuple(args.params))


def cmd_structure_build(args) -> int:
    cert = _build_structure(args)
    args.artifact_name = f"structure-{args.kind}-{'-'.join(map(str, args.params))}"
    _emit(args, st.structure_to_dict(cert))
    return 0


def cmd_structure_show(args) -> int:
    cert = _build_structure(args)
    profile = st.minimal_profile(cert)
    args.artifact_name = f"structure-show-{args.kind}"
    _emit(args, {
        "kind": cert.kind,
        "params": list(cert.params or ()),
        "n": cert.n,
        "certificates": len(cert),
        "minimal_set_counts": list(profile.counts),
        "boundedly_generated": profile.boundedly_generated,
        "generator_bound": profile.generator_bound,
        "lattice_arcs": st.arc_count(cert.n) if cert.n <= st.LATTICE_CAP else None,
    })
    return 0


def cmd_lg(args) -> int:
    cert = _build_structure(args)
    params = lg.SolverParams(tolerance=args.tolerance, max_iterations=args.max_iterations)
    name = f"{args.kind}-{'-'.join(map(str, args.params))}"
    if args.lg_command == "gap":
        check_gap_tolerance(args.gap_tolerance)
    rep = lg.duality_report(cert, params)
    if args.lg_command == "primal":
        sol = rep.primal
        args.artifact_name = f"lg-primal-{name}"
        _emit(args, {
            "structure": name, "objective": sol.objective,
            "iterations": sol.iterations, "converged": sol.converged,
            "residual": sol.residual,
        })
        return 0
    if args.lg_command == "dual":
        witness = rep.witness
        args.artifact_name = f"lg-dual-{name}"
        payload = witness.to_dict()
        payload["objective"] = rep.dual_objective
        payload["margin"] = lg.dual_feasibility_margin(cert, witness)
        _emit(args, payload)
        return 0
    args.artifact_name = f"lg-gap-{name}"
    row = [name, cert.n, f"{rep.primal_objective:.9g}", f"{rep.dual_objective:.9g}",
           f"{rep.relative_gap:.6g}", rep.primal.iterations]
    _emit(args, {
        "structure": name, "n": cert.n,
        "primal": rep.primal_objective, "dual": rep.dual_objective,
        "gap": rep.relative_gap, "iterations": rep.primal.iterations,
    }, csv_rows=[["structure", "n", "primal", "dual", "gap", "iterations"], row])
    return 0 if rep.relative_gap <= args.gap_tolerance else 1


def _witness_for(args) -> tuple[st.CertificateStructure, lg.DualWitness, str]:
    if args.witness_command == "ksubset":
        return (st.ksubset_structure(args.n, args.k),
                wt.ksubset_witness(args.n, args.k),
                f"ksubset-{args.n}-{args.k}")
    if args.witness_command == "hiddenshift":
        return (wt.HIDDEN_SHIFT_TARGETS[args.target](args.n),
                wt.hidden_shift_witness(args.n, args.target),
                f"hiddenshift-{args.n}-{args.target}")
    return (st.triangle_structure(args.n),
            wt.triangle_witness(args.n),
            f"triangle-{args.n}")


def cmd_witness(args) -> int:
    if args.format == "csv" and not args.measure_margin:
        raise ParameterError("only --measure-margin has a CSV form")
    cert, witness, name = _witness_for(args)
    args.artifact_name = f"witness-{name}"
    if args.measure_margin:
        objective = lg.dual_objective(witness)
        margin = lg.dual_feasibility_margin(cert, witness)
        per_log2n = margin / math.log2(max(args.n, 2))
        rows = [["n", "objective", "margin", "margin_per_log2n"],
                [args.n, f"{objective:.9g}", f"{margin:.9g}", f"{per_log2n:.9g}"]]
        _emit(args, {"witness": name, "n": args.n, "objective": objective, "margin": margin,
                     "margin_per_log2n": per_log2n}, csv_rows=rows)
        return 0
    _emit(args, witness.to_dict())
    return 0


def cmd_oa(args) -> int:
    if args.oa_command == "make":
        array = ar.sum_array(args.q, args.k)
        args.artifact_name = f"oa-{args.q}-{args.k}"
        _emit(args, {"q": array.q, "k": array.k, "size": len(array),
                     "rows": [list(r) for r in array.rows]})
        return 0
    if args.rows_file:
        doc = _load_json(args.rows_file, "rows file")
        if not (isinstance(doc, dict) and {"q", "k", "rows"} <= set(doc)):
            raise ParameterError(f"rows file {args.rows_file} must be an object "
                                 "with q, k and rows")
        array = ar.OrthogonalArray(doc["q"], doc["k"], doc["rows"])
    elif args.q is None or args.k is None:
        raise ParameterError("oa verify needs --rows-file or both --q and --k")
    else:
        array = ar.sum_array(args.q, args.k)
    check = ar.verify_orthogonal_array(array)
    args.artifact_name = "oa-verify"
    payload = {"ok": check.ok, "completions": check.completions, "note": check.note}
    if check.counterexample:
        payload["counterexample"] = {
            "coordinate": check.counterexample.coordinate,
            "partial": list(check.counterexample.partial),
            "count": check.counterexample.count,
            "expected": check.counterexample.expected,
        }
    _emit(args, payload)
    return 0 if check.ok else 1


def cmd_instance(args) -> int:
    cert = _build_structure(args)
    inst = ar.build_bounded_instance(cert, args.q)
    name = f"{args.kind}-{'-'.join(map(str, args.params))}-q{args.q}"
    if args.instance_command == "build":
        args.artifact_name = f"instance-{name}"
        _emit(args, inst.to_summary_dict())
        return 0
    claims = ar.bounded_instance_claims(inst)
    args.artifact_name = f"instance-verify-{name}"
    _emit(args, {
        "instance": name,
        "orthogonality": [bool(c.ok) for c in claims.orthogonality],
        "y_size": claims.y_size,
        "y_bound": claims.y_bound,
        "ok": claims.ok,
    })
    return 0 if claims.ok else 1


def cmd_adversary_report(args) -> int:
    if args.kind != "ksubset":
        print("adversary report uses the matching uniform-decay witness; "
              "only ksubset structures are supported", file=sys.stderr)
        return 2
    cert = _build_structure(args)
    inst = ar.build_bounded_instance(cert, args.q)
    witness = lg.normalize_witness(wt.ksubset_witness(*args.params), cert)
    rep = adv.adversary_ratio(inst, witness)
    bn = adv.bounded_norm_certificates(inst, witness, 1)
    witness_hash = hashlib.sha256(
        json.dumps(witness.to_dict(), sort_keys=True).encode()
    ).hexdigest()
    payload = rep.to_dict(witness_hash=witness_hash)
    payload["bound_checks"] = bn.bound_checks()
    args.artifact_name = f"adversary-{args.kind}-q{args.q}"
    _emit(args, payload)
    return 0 if all(c["passed"] for c in payload["bound_checks"]) else 1


def cmd_fourier(args) -> int:
    if args.fourier_command == "bias":
        biased = fo.random_low_bias_set(args.p, args.delta, args.seed)
        args.artifact_name = f"fourier-bias-{args.p}"
        _emit(args, {"p": args.p, "seed": args.seed, "size": len(biased),
                     "delta": biased.density, "bias": biased.bias})
        return 0
    rows = [["p", "seed", "size", "bias", "bound"]]
    payload = []
    for p in args.p:
        for seed in args.seeds:
            biased = fo.random_low_bias_set(p, args.delta, seed)
            bound = fo.random_bias_bound(p)
            rows.append([p, seed, len(biased), f"{biased.bias:.9g}", f"{bound:.9g}"])
            payload.append({"p": p, "seed": seed, "size": len(biased),
                            "bias": biased.bias, "bound": bound})
    args.artifact_name = "fourier-scan"
    _emit(args, {"scan": payload}, csv_rows=rows)
    return 0


def cmd_general_gap(args) -> int:
    # hidden_shift is the one structure with a matching witness
    cert = st.build_named_structure("hidden_shift", tuple(args.params))
    witness = wt.hidden_shift_witness(args.params[0])
    rows = [["p", "m", "gap", "bound"]]
    payload = []
    ok = True
    for p, m, gap, bound in fo.restriction_gap_ladder(cert, witness, args.p, args.j, args.seed):
        ok = ok and gap <= bound
        rows.append([p, m, f"{gap:.9g}", f"{bound:.9g}"])
        payload.append({"p": p, "m": m, "gap": gap, "bound": bound})
    args.artifact_name = "general-gap-hidden_shift"
    _emit(args, {"ladder": payload}, csv_rows=rows)
    return 0 if ok else 1


def cmd_verify_all(args) -> int:
    doc = {}
    if args.config:
        doc = _load_json(args.config, "config file")
    if isinstance(doc, dict):  # anything else is left for validate_config to reject
        if args.suite:
            doc["suite"] = args.suite
        if args.seed is not None:
            for section in ("solver", "instance"):
                if isinstance(doc.setdefault(section, {}), dict):
                    doc[section]["seed"] = args.seed
    config, errors = validate_config(doc)
    if errors:
        for err in errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    report = run_suite(config)
    if args.out:
        paths = write_report(report, args.out)
        print(json.dumps({"config_hash": report.config_hash,
                          "passed": report.passed, **paths}, indent=2))
    else:
        if args.format == "csv":
            sys.stdout.write(report_csv_body(report))
        else:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    for record in report.records:
        if not record.passed:
            print(f"FAIL {record.check_id}: {record.claim} "
                  f"(measured {record.measured}, bound {record.bound})",
                  file=sys.stderr)
    return 0 if report.passed else 1


def _add_common(parser, with_csv=False, with_solver=False, with_gap=False):
    parser.add_argument("--out", default=None, help="directory for the artifact")
    if with_csv:
        parser.add_argument("--format", choices=("json", "csv"), default="json")
    else:
        parser.set_defaults(format="json")
    if with_solver:
        defaults = lg.SolverParams()
        parser.add_argument("--tolerance", type=float, default=defaults.tolerance)
        parser.add_argument("--max-iterations", dest="max_iterations", type=int,
                            default=defaults.max_iterations)
    if with_gap:
        parser.add_argument("--gap-tolerance", dest="gap_tolerance", type=float,
                            default=DEFAULT_CONFIG["gap_tolerance"])


def _add_structure_args(parser):
    parser.add_argument("--kind", required=True, choices=st.STRUCTURE_KINDS)
    parser.add_argument("--params", required=True, type=int, nargs="+")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgcomplexity",
        description="Learning-graph complexity programs, witnesses, hard instances, "
                    "and adversary-matrix certificates at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_structure = sub.add_parser("structure", help="build or summarize structures")
    s_sub = p_structure.add_subparsers(dest="structure_command", required=True)
    for name, fn in (("build", cmd_structure_build), ("show", cmd_structure_show)):
        sp = s_sub.add_parser(name)
        _add_structure_args(sp)
        _add_common(sp)
        sp.set_defaults(func=fn)

    p_lg = sub.add_parser("lg", help="solve the primal or dual program")
    lg_sub = p_lg.add_subparsers(dest="lg_command", required=True)
    for name in ("primal", "dual", "gap"):
        sp = lg_sub.add_parser(name)
        _add_structure_args(sp)
        _add_common(sp, with_csv=name == "gap", with_solver=True, with_gap=name == "gap")
        sp.set_defaults(func=cmd_lg)

    p_wit = sub.add_parser("witness", help="closed-form dual witnesses")
    w_sub = p_wit.add_subparsers(dest="witness_command", required=True)
    wp = w_sub.add_parser("ksubset")
    wp.add_argument("--n", type=int, required=True)
    wp.add_argument("--k", type=int, required=True)
    wh = w_sub.add_parser("hiddenshift")
    wh.add_argument("--n", type=int, required=True)
    wh.add_argument("--target", default="hidden_shift", choices=tuple(wt.HIDDEN_SHIFT_TARGETS))
    wtri = w_sub.add_parser("triangle")
    wtri.add_argument("--n", type=int, required=True)
    for sp in (wp, wh, wtri):
        sp.add_argument("--measure-margin", action="store_true")
        _add_common(sp, with_csv=True)
        sp.set_defaults(func=cmd_witness)

    p_oa = sub.add_parser("oa", help="orthogonal arrays")
    oa_sub = p_oa.add_subparsers(dest="oa_command", required=True)
    om = oa_sub.add_parser("make")
    om.add_argument("--q", type=int, required=True)
    om.add_argument("--k", type=int, required=True)
    ov = oa_sub.add_parser("verify")
    ov.add_argument("--q", type=int)
    ov.add_argument("--k", type=int)
    ov.add_argument("--rows-file", default=None,
                    help="JSON file {q, k, rows} to verify instead of a sum array")
    for sp in (om, ov):
        _add_common(sp)
        sp.set_defaults(func=cmd_oa)

    p_inst = sub.add_parser("instance", help="hard input instances")
    i_sub = p_inst.add_subparsers(dest="instance_command", required=True)
    for name in ("build", "verify"):
        sp = i_sub.add_parser(name)
        _add_structure_args(sp)
        sp.add_argument("--q", type=int, required=True)
        _add_common(sp)
        sp.set_defaults(func=cmd_instance)

    p_adv = sub.add_parser("adversary", help="adversary-matrix reports")
    a_sub = p_adv.add_subparsers(dest="adversary_command", required=True)
    arp = a_sub.add_parser("report")
    _add_structure_args(arp)
    arp.add_argument("--q", type=int, required=True)
    _add_common(arp)
    arp.set_defaults(func=cmd_adversary_report)

    p_fourier = sub.add_parser("fourier", help="Fourier bias of subsets of Z_p")
    f_sub = p_fourier.add_subparsers(dest="fourier_command", required=True)
    fb = f_sub.add_parser("bias")
    fb.add_argument("--p", type=int, required=True)
    fb.add_argument("--delta", type=float, default=0.5)
    fb.add_argument("--seed", type=int, default=0)
    fs = f_sub.add_parser("scan")
    fs.add_argument("--p", type=int, nargs="+", required=True)
    fs.add_argument("--delta", type=float, default=0.5)
    fs.add_argument("--seeds", type=int, nargs="+", default=[0])
    for sp, with_csv in ((fb, False), (fs, True)):
        _add_common(sp, with_csv=with_csv)
        sp.set_defaults(func=cmd_fourier)

    p_general = sub.add_parser("general", help="product-alphabet construction")
    g_sub = p_general.add_subparsers(dest="general_command", required=True)
    gg = g_sub.add_parser("gap")
    gg.add_argument("--params", type=int, nargs="+", default=[2])
    gg.add_argument("--p", type=int, nargs="+", default=DEFAULT_CONFIG["instance"]["p_ladder"])
    gg.add_argument("--j", type=int, default=1)
    gg.add_argument("--seed", type=int, default=0)
    _add_common(gg, with_csv=True)
    gg.set_defaults(func=cmd_general_gap)

    p_all = sub.add_parser("verify-all", help="run a verification suite")
    p_all.add_argument("--config", default=None)
    p_all.add_argument("--suite", default=None, choices=(None,) + SUITES)
    p_all.add_argument("--seed", type=int, default=None)
    p_all.add_argument("--out", default=None)
    p_all.add_argument("--format", choices=("json", "csv"), default="json")
    p_all.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
