"""The benchmark's workloads: inputs from a seed, the timed jobs, the checks.

Each workload has three steps, run in one fresh process:

  setup(seed)          builds every input (structures, instances, witnesses,
                       validated config); its time is ``setup_s``
  run(inputs, ledger)  the timed jobs; each job is one op in the ledger
  check(done, ledger)  the correctness gate, after the timed section; a
                       failed check marks its op failed and returns a message

The library is reached only through module attributes (``lg.duality_report``)
so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from dataclasses import dataclass, field

from lgcomplexity import adversary as adv
from lgcomplexity import arrays as ar
from lgcomplexity import lgsolver as lg
from lgcomplexity import reporting as rp
from lgcomplexity import structures as st
from lgcomplexity import witnesses as wt

GAP_TOLERANCE = 0.02          # the acceptance tolerance on a duality gap
PRIMAL_TOLERANCE = 1e-9       # on flow residuals and on constraint values above 1
RAYLEIGH_TOLERANCE = 1e-9
REFERENCE_RTOL = 1e-6
# adversary_ratio results for ksubset(3,2) at the first measured commit
ADVERSARY_REFERENCE = {
    12: {"gamma_norm": 1.7764775057123179, "ratio": 1.9522900832248462},
    16: {"gamma_norm": 1.8377247671506978, "ratio": 1.9040480212464945},
}


@dataclass
class Op:
    name: str
    error: str | None = None


@dataclass
class Ledger:
    """Every attempted op; an op that raises or fails its check is failed."""

    ops: dict[str, Op] = field(default_factory=dict)

    def add(self, name: str) -> Op:
        return self.ops.setdefault(name, Op(name))

    def attempt(self, name: str, job):
        """Run job() as op `name`; a raised exception fails the op and gives None."""
        op = self.add(name)
        try:
            return job()
        except Exception as exc:  # an op that raises is counted, not propagated
            op.error = op.error or f"{type(exc).__name__}: {exc}"
            return None

    def fail(self, name: str, reason: str) -> str:
        op = self.add(name)
        op.error = op.error or reason
        return f"{name}: {reason}"

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops.values())


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


# ---------------------------------------------------------------------------
# verify-suite: `lgcomplexity verify-all --seed <seed>`, serial, all suites


def verify_suite_setup(seed: int, workdir: str) -> dict:
    config, errors = rp.validate_config({"solver": {"seed": seed}, "instance": {"seed": seed}})
    if errors:
        raise ValueError(f"config rejected: {errors}")
    return {"config": config, "workdir": workdir}


def verify_suite_run(inputs: dict, ledger: Ledger) -> dict:
    try:
        report = rp.run_suite(inputs["config"])
    except Exception as exc:  # no records to count; the whole suite is one failed op
        ledger.fail("run_suite", f"{type(exc).__name__}: {exc}")
        return {"report": None}

    def serialize():
        # both outputs of verify-all: the JSON on stdout, and report.json via --out
        errors = []
        for job in (lambda: json.dumps(report.to_dict(), indent=2, sort_keys=True),
                    lambda: rp.write_report(report, out)):
            try:
                job()
            except Exception as exc:  # recorded below; the other output is still tried
                errors.append(f"{type(exc).__name__}: {exc}")
        if errors:
            raise RuntimeError("; ".join(errors))

    with tempfile.TemporaryDirectory(dir=inputs["workdir"]) as out:
        ledger.attempt("serialize", serialize)
    return {"report": report}


def verify_suite_check(done: dict, ledger: Ledger) -> list[str]:
    report = done["report"]
    if report is None:
        return [ledger.fail("run_suite", "no report")]
    failures = []
    for record in report.records:
        ledger.add(record.check_id)
        if not record.passed:
            failures.append(ledger.fail(
                record.check_id, f"measured {record.measured} against bound {record.bound}"))
    return failures


def verify_suite_gap(done: dict) -> float:
    report = done["report"]
    gaps = [r.measured for r in report.records if r.check_id.endswith("/gap")] if report else []
    return max(gaps, default=math.nan)


# ---------------------------------------------------------------------------
# duality-ladder: both sides of the duality on small lattices, then a
# fixed-iteration primal on a large one (the sparse Laplacian path)

LADDER = (("ksubset", (4, 1)), ("ksubset", (4, 2)), ("hidden_shift", (3,)), ("collision", (2,)))
LARGE_PRIMAL = ("ksubset", (12, 1))
LARGE_PRIMAL_ITERATIONS = 2


def _tag(kind: str, params) -> str:
    return f"{kind}-{'-'.join(map(str, params))}"


def duality_ladder_setup(seed: int, workdir: str) -> dict:
    return {
        "params": lg.SolverParams(seed=seed),
        "large_params": lg.SolverParams(seed=seed, max_iterations=LARGE_PRIMAL_ITERATIONS),
        "ladder": [(_tag(kind, p), st.build_named_structure(kind, p)) for kind, p in LADDER],
        "large": (_tag(*LARGE_PRIMAL), st.build_named_structure(*LARGE_PRIMAL)),
    }


def duality_ladder_run(inputs: dict, ledger: Ledger) -> dict:
    reports = {
        tag: ledger.attempt(f"duality_report/{tag}",
                            lambda cert=cert: lg.duality_report(cert, inputs["params"]))
        for tag, cert in inputs["ladder"]
    }
    tag, cert = inputs["large"]
    primal = ledger.attempt(f"solve_primal/{tag}",
                            lambda: lg.solve_primal(cert, inputs["large_params"]))
    return {"inputs": inputs, "reports": reports, "primal": primal}


def _primal_failures(cert, primal) -> list[str]:
    out = []
    residuals = lg.flow_residuals(cert, primal.flow).values()
    worst = max((abs(r) for r in residuals), default=0.0)
    if not worst <= PRIMAL_TOLERANCE:
        out.append(f"flow residual {worst} > {PRIMAL_TOLERANCE}")
    top = float(lg.primal_constraint_values(primal.flow, primal.weights).max())
    if not top <= 1.0 + PRIMAL_TOLERANCE:
        out.append(f"constraint value {top} > 1 + {PRIMAL_TOLERANCE}")
    return out


def duality_ladder_check(done: dict, ledger: Ledger) -> list[str]:
    failures = []
    ladder = dict(done["inputs"]["ladder"])
    for tag, rep in done["reports"].items():
        name = f"duality_report/{tag}"
        if rep is None:
            failures.append(ledger.fail(name, "raised"))
            continue
        reasons = _primal_failures(ladder[tag], rep.primal)
        if not rep.dual_objective <= rep.primal_objective + 1e-9:
            reasons.append(f"weak duality: dual {rep.dual_objective} > primal "
                           f"{rep.primal_objective}")
        if not rep.relative_gap <= GAP_TOLERANCE:
            reasons.append(f"gap {rep.relative_gap} > {GAP_TOLERANCE}")
        failures += [ledger.fail(name, r) for r in reasons]
    tag, cert = done["inputs"]["large"]
    name = f"solve_primal/{tag}"
    if done["primal"] is None:
        failures.append(ledger.fail(name, "raised"))
    else:
        failures += [ledger.fail(name, r) for r in _primal_failures(cert, done["primal"])]
    return failures


def duality_ladder_gap(done: dict) -> float:
    gaps = [rep.relative_gap for rep in done["reports"].values() if rep is not None]
    return max(gaps, default=math.nan)


# ---------------------------------------------------------------------------
# adversary-report: the chain of `lgcomplexity adversary report --kind ksubset
# --params 3 2 --q <q>` at the largest alphabets the dense path accepts

ADVERSARY_KIND = (3, 2)
ADVERSARY_QS = (12, 16)


def adversary_report_setup(seed: int, workdir: str) -> dict:
    cases = []
    for q in ADVERSARY_QS:
        cert = st.ksubset_structure(*ADVERSARY_KIND)
        instance = ar.build_bounded_instance(cert, q)
        witness = lg.normalize_witness(wt.ksubset_witness(*ADVERSARY_KIND), cert)
        cases.append((q, instance, witness))
    # construction is deterministic; the seed is only recorded
    return {"seed": seed, "cases": cases}


def _bound_checks(bn) -> list[dict]:
    """The four bound checks `lgcomplexity adversary report` adds to its payload."""
    return [
        {"claim": "part norms at most 1", "measured": max(bn.hat_part_norms),
         "bound": 1.0 + 1e-6, "passed": max(bn.hat_part_norms) <= 1.0 + 1e-6},
        {"claim": "stacked difference norm at most k", "measured": bn.hat_norm,
         "bound": bn.k + 1e-6, "passed": bn.hat_norm <= bn.k + 1e-6},
        {"claim": "restricted norm below the unrestricted one",
         "measured": bn.prime_norm, "bound": bn.hat_norm + 1e-9,
         "passed": bn.prime_norm <= bn.hat_norm + 1e-9},
        {"claim": "masked norms at most 2k", "measured": max(bn.masked_norms),
         "bound": 2.0 * bn.k + 1e-6, "passed": max(bn.masked_norms) <= 2.0 * bn.k + 1e-6},
    ]


def adversary_report_run(inputs: dict, ledger: Ledger) -> dict:
    results = {}
    for q, instance, witness in inputs["cases"]:
        def case(instance=instance, witness=witness):
            rep = adv.adversary_ratio(instance, witness)
            bn = adv.bounded_norm_certificates(instance, witness, 1)
            witness_hash = hashlib.sha256(
                json.dumps(witness.to_dict(), sort_keys=True).encode()
            ).hexdigest()
            payload = rep.to_dict(witness_hash=witness_hash)
            payload["bound_checks"] = _bound_checks(bn)
            json.dumps(payload, indent=2)
            return rep, payload
        results[q] = ledger.attempt(f"adversary/q{q}", case)
    return {"results": results}


def adversary_report_check(done: dict, ledger: Ledger) -> list[str]:
    failures = []
    for q, result in done["results"].items():
        name = f"adversary/q{q}"
        if result is None:
            failures.append(ledger.fail(name, "raised"))
            failures += [ledger.fail(f"{name}/bound-{i}", "not run") for i in range(4)]
            continue
        rep, payload = result
        err = abs(rep.rayleigh_identity - rep.rayleigh_predicted)
        if not err <= RAYLEIGH_TOLERANCE:
            failures.append(ledger.fail(name, f"Rayleigh identity off by {err}"))
        for key, reference in ADVERSARY_REFERENCE[q].items():
            value = getattr(rep, key)
            if not _rel(value, reference) <= REFERENCE_RTOL:
                failures.append(ledger.fail(name, f"{key} {value} != reference {reference}"))
        for i, bound in enumerate(payload["bound_checks"]):
            ledger.add(f"{name}/bound-{i}")
            if not bound["passed"]:
                failures.append(ledger.fail(f"{name}/bound-{i}", bound["claim"]))
    return failures


def adversary_report_gap(done: dict) -> float:
    # relative gap between the norm of Gamma and its Rayleigh-quotient lower bound
    gaps = [(rep.gamma_norm - rep.rayleigh_identity) / rep.gamma_norm
            for rep, _ in filter(None, done["results"].values())]
    return max(gaps, default=math.nan)


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object
    gap: object


WORKLOADS = {
    "verify-suite": Workload(verify_suite_setup, verify_suite_run, verify_suite_check,
                             verify_suite_gap),
    "duality-ladder": Workload(duality_ladder_setup, duality_ladder_run,
                               duality_ladder_check, duality_ladder_gap),
    "adversary-report": Workload(adversary_report_setup, adversary_report_run,
                                 adversary_report_check, adversary_report_gap),
}
