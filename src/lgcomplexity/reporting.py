"""Config-driven verification suites with reproducible reports.

A config is a JSON document with a versioned schema.  Validation fills
defaults and checks every referenced capacity cap before anything runs.
Reports are written atomically into a directory keyed by the config hash;
the CSV body is byte-identical across reruns (timestamps live in a separate
metadata file).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
# numpy loads numpy.random lazily, and environment_fingerprint reads scipy's version: loaded
# here, neither is paid by the first suite run
import numpy.random
import scipy

from . import adversary as adv
from . import arrays as ar
from . import fourier as fo
from . import lgsolver as lg
from . import structures as st
from . import witnesses as wt
from .errors import LgError, ParameterError

SCHEMA_VERSION = 1
SUITES = ("duality", "witnesses", "arrays", "adversary", "fourier", "general", "all")

DEFAULT_CONFIG = {
    "schema": SCHEMA_VERSION,
    "suite": "all",
    "structures": {
        "duality": [["ksubset", [2, 1]], ["ksubset", [3, 1]]],
        "witnesses": {
            "ksubset": [[4, 1], [6, 2]],
            "hidden_shift": [2, 4],
            "triangle": [5],
        },
    },
    "solver": dataclasses.asdict(lg.SolverParams()),
    "instance": {"q": 8, "p_ladder": [16, 32, 64], "seed": 0},
    "gap_tolerance": 0.02,
}


def _config_type(value) -> str:
    """A config value's type: an object, a list, a number (int or float, not bool) or a string."""
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "a list"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "a number (integer or float)"
    return "a string" if isinstance(value, str) else type(value).__name__


# what the type check in _overlay leaves open, per key: int is an integer (an integral float such
# as 8.0 counts), _SEED one that numpy can seed a generator with (>= 0), str a string, [s] a
# list of s, and (s, t) a two-element list of s then t
_SEED = "seed"
_SHAPES = {
    "instance.q": (int, "an integer"),
    "instance.seed": (_SEED, "an integer >= 0"),
    "solver.seed": (_SEED, "an integer >= 0"),
    "instance.p_ladder": ([int], "a list of integers"),
    "structures.witnesses.hidden_shift": ([int], "a list of integers"),
    "structures.witnesses.triangle": ([int], "a list of integers"),
    "structures.witnesses.ksubset": ([(int, int)], "a list of [n, k] integer pairs"),
    "structures.duality": ([(str, [int])], "a list of [kind, [integers]] pairs"),
}


def _has_shape(value, shape) -> bool:
    if shape is _SEED:
        return _has_shape(value, int) and value >= 0
    if shape is int:
        return ((isinstance(value, int) and not isinstance(value, bool))
                or (isinstance(value, float) and value.is_integer()))
    if shape is str:
        return isinstance(value, str)
    if not isinstance(value, list):
        return False
    if isinstance(shape, tuple):
        return len(value) == len(shape) and all(map(_has_shape, value, shape))
    return all(_has_shape(item, shape[0]) for item in value)


def _overlay(defaults: dict, doc: dict, prefix: str, errors: list[str]) -> None:
    """Copy doc's values onto defaults; each value must have its default's config type."""
    for key, value in doc.items():
        name = prefix + key
        if key not in defaults:
            errors.append(f"unknown config key {name!r}")
        elif _config_type(value) != _config_type(defaults[key]):
            errors.append(f"config key {name!r} must be {_config_type(defaults[key])}, "
                          f"got {type(value).__name__}")
        elif name in _SHAPES and not _has_shape(value, _SHAPES[name][0]):
            errors.append(f"config key {name!r} must be {_SHAPES[name][1]}, got {value!r}")
        elif isinstance(value, dict):
            _overlay(defaults[key], value, name + ".", errors)
        else:
            defaults[key] = value


def validate_config(doc: dict | None) -> tuple[dict, list[str]]:
    """Fill defaults, normalize deterministically, and collect cap violations."""
    errors: list[str] = []
    config = json.loads(json.dumps(DEFAULT_CONFIG))
    doc = doc or {}
    if not isinstance(doc, dict):
        return config, ["config must be a JSON object"]
    _overlay(config, {k: v for k, v in doc.items() if k != "out"}, "", errors)
    if "out" in doc:
        config["out"] = doc["out"]
    if config["schema"] != SCHEMA_VERSION:
        errors.append(f"schema must be {SCHEMA_VERSION}, got {config['schema']}")
    if config["suite"] not in SUITES:
        errors.append(f"suite must be one of {SUITES}, got {config['suite']!r}")

    # build every referenced structure, as its suite will, and check its lattice
    entries = [("duality structure", kind, params)
               for kind, params in config["structures"]["duality"]]
    entries += [("witness", kind, params) for kind, params in _witness_entries(config)]
    for what, kind, params in entries:
        try:
            st.check_lattice(st.build_named_structure(kind, params).n)
        except LgError as exc:
            errors.append(f"{what} {kind}{tuple(params)}: {exc}")
    q = config["instance"]["q"]
    bounded_cert = st.ksubset_structure(3, 2)
    if q < 2 * len(bounded_cert):
        errors.append(
            f"instance alphabet q={q} violates q >= 2|C| = {2 * len(bounded_cert)} "
            "for the bounded instance checks"
        )
    try:
        lg.SolverParams(**config["solver"])
    except LgError as exc:
        errors.append(f"solver.{exc}")
    try:
        check_gap_tolerance(config["gap_tolerance"])
    except LgError as exc:
        errors.append(str(exc))
    normalized = json.loads(json.dumps(config, sort_keys=True))
    return normalized, errors


def check_gap_tolerance(value: float) -> None:
    """Refuse a negative gap tolerance, which would fail every relative-gap check."""
    if not value >= 0:
        raise ParameterError(f"gap_tolerance must be non-negative, got {value}")


def config_hash(config: dict) -> str:
    doc = {k: v for k, v in config.items() if k != "out"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    claim: str        # the identity or bound being checked, or "plumbing"
    measured: float
    bound: float
    passed: bool

    def __post_init__(self):
        # checks compute these with numpy; plain types keep report.json serializable
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "bound", float(self.bound))
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class RunReport:
    config_hash: str
    records: tuple[CheckRecord, ...]
    environment: dict

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "passed": self.passed,
            "records": [
                {
                    "check_id": r.check_id,
                    "claim": r.claim,
                    "measured": _num(r.measured),
                    "bound": _num(r.bound),
                    "passed": r.passed,
                }
                for r in self.records
            ],
        }


def _num(x: float) -> float | str:
    if math.isfinite(x):
        return float(f"{x:.12g}")
    return repr(x)


def environment_fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


# ---------------------------------------------------------------------------
# suite checks


def duality_records(tag: str, rep: lg.DualityReport, params: lg.SolverParams,
                    gap_tol: float) -> list[CheckRecord]:
    """The /weak and /gap records of one duality report; verify-all and `lg` both read them."""
    slack = params.weak_duality_slack
    return [
        CheckRecord(
            f"{tag}/weak",
            "feasible witness objective never exceeds the primal objective",
            rep.dual_objective - rep.primal_objective,
            slack,
            rep.dual_objective <= rep.primal_objective + slack,
        ),
        CheckRecord(
            f"{tag}/gap",
            "primal and dual solvers agree within the gap tolerance",
            rep.relative_gap,
            gap_tol,
            rep.relative_gap <= gap_tol,
        ),
    ]


def _duality_checks(config) -> list[tuple[str, Callable[[], list[CheckRecord]]]]:
    params = lg.SolverParams(**config["solver"])
    gap_tol = float(config["gap_tolerance"])

    def make(tag, kind, sparams):
        def run():
            rep = lg.duality_report(st.build_named_structure(kind, sparams), params)
            return duality_records(tag, rep, params, gap_tol)
        return run

    entries = []
    for kind, sparams in config["structures"]["duality"]:
        tag = f"duality/{kind}-{'-'.join(map(str, sparams))}"
        entries.append((tag, make(tag, kind, sparams)))
    return entries


# per witness kind, in report order: check-id name, builder, the objective's claim and closed
# form, and the margin's claim and bound
_WITNESS_FAMILIES = {
    "ksubset": ("ksubset", wt.ksubset_witness,
                "witness objective equals n^(k/(k+1))", lambda n, k: float(n) ** (k / (k + 1.0)),
                "exhaustive arc-load margin stays below 8", lambda n, k: 8.0),
    "hidden_shift": ("hidden-shift", wt.hidden_shift_witness,
                     "witness objective equals n^(1/3)", lambda n: float(n) ** (1.0 / 3.0),
                     "exhaustive arc-load margin stays below 2", lambda n: 2.0 + 1e-9),
    "triangle": ("triangle", wt.triangle_witness,
                 "witness objective equals sqrt(C(n,3)) * n^(-3/14)",
                 lambda n: math.sqrt(math.comb(n, 3)) * float(n) ** (-3.0 / 14.0),
                 "exhaustive margin is finite and below 100*log2(n)",
                 lambda n: 100.0 * math.log2(n)),
}


def _witness_entries(config) -> list[tuple[str, tuple[int, ...]]]:
    """(structure kind, integer params) of every witness entry, in report order."""
    return [(kind, tuple(int(v) for v in (entry if isinstance(entry, list) else [entry])))
            for kind in _WITNESS_FAMILIES
            for entry in config["structures"]["witnesses"][kind]]


def _witness_checks(config):
    def make(tag, kind, params):
        _, build, objective_claim, objective, margin_claim, margin_bound = _WITNESS_FAMILIES[kind]

        def run():
            witness = build(*params)
            err = abs(lg.dual_objective(witness) - objective(*params))
            records = [CheckRecord(f"{tag}/objective", objective_claim, err, 1e-9, err <= 1e-9)]
            if kind == "triangle":  # the one family whose empty-set value is exact
                exact = bool(np.all(witness.alpha[:, 0] == float(params[0]) ** (-3.0 / 14.0)))
                records.append(CheckRecord(f"{tag}/empty",
                                           "alpha at the empty set equals n^(-3/14) exactly",
                                           0.0 if exact else 1.0, 0.0, exact))
            margin = lg.dual_feasibility_margin(st.build_named_structure(kind, params), witness)
            bound = margin_bound(*params)
            records.append(CheckRecord(f"{tag}/margin", margin_claim, margin, bound,
                                       margin <= bound))
            return records
        return run

    entries = []
    for kind, params in _witness_entries(config):
        tag = f"witnesses/{_WITNESS_FAMILIES[kind][0]}-{'-'.join(map(str, params))}"
        entries.append((tag, make(tag, kind, params)))
    return entries


def _array_checks(config):
    q_top = 16

    def sum_arrays():
        failures = 0
        for q in range(2, q_top + 1):
            for k in range(1, 4):
                if not ar.verify_orthogonal_array(ar.sum_array(q, k)).ok:
                    failures += 1
        return [CheckRecord(
            "arrays/sum-arrays",
            "modular-sum arrays satisfy the uniform-completion property",
            failures, 0.0, failures == 0,
        )]

    def planted():
        bad = ar.OrthogonalArray(3, 2, ((0, 0), (1, 1)))
        check = ar.verify_orthogonal_array(bad)
        detected = (not check.ok) and check.counterexample is not None
        return [CheckRecord(
            "arrays/planted-violation",
            "a planted violation is reported with a counterexample",
            0.0 if detected else 1.0, 0.0, detected,
        )]

    def bounded_instance():
        q = int(config["instance"]["q"])
        cert = st.ksubset_structure(3, 2)
        inst = ar.build_bounded_instance(cert, q)
        xs = [inst.x_size(m) for m in range(len(cert))]
        records = [CheckRecord(
            "arrays/x-sizes",
            "every positive set has q^(n-1) inputs",
            max(abs(x - q ** 2) for x in xs), 0.0,
            all(x == q ** 2 for x in xs),
        )]
        claims = ar.bounded_instance_claims(inst)
        y = claims.y_size
        records.append(CheckRecord(
            "arrays/y-bound",
            "negative set keeps at least half of all inputs",
            y, claims.y_bound, claims.y_bounded,
        ))
        if q == 8:
            records.append(CheckRecord(
                "arrays/y-exact",
                "negative-set enumeration matches the inclusion-exclusion count",
                y, 342.0, y == 342,
            ))
        records.append(CheckRecord(
            "arrays/orthogonality",
            "positive sets project uniformly outside their certificate",
            0.0 if claims.orthogonal else 1.0, 0.0, claims.orthogonal,
        ))
        return records

    def overlapping_counterexample():
        cert = st.CertificateStructure(3, (st.Certificate.from_sets([(1, 2), (2, 3)]),))
        eq = ar.OrthogonalArray(4, 2, tuple((c, c) for c in range(4)))
        inst = ar.build_instance(cert, 4, [[eq, eq]])
        check = ar.verify_orthogonality_property(inst, 0)
        flagged = (not check.ok) and check.subset == (1, 3)
        return [CheckRecord(
            "arrays/overlap-counterexample",
            "overlapping equality arrays break uniformity exactly at {1,3}",
            0.0 if flagged else 1.0, 0.0, flagged,
        )]

    return [
        ("arrays/sum-arrays", sum_arrays),
        ("arrays/planted-violation", planted),
        ("arrays/bounded-instance", bounded_instance),
        ("arrays/overlap-counterexample", overlapping_counterexample),
    ]


def _adversary_checks(config):
    def pipeline():
        q = int(config["instance"]["q"])
        cert = st.ksubset_structure(3, 2)
        inst = ar.build_bounded_instance(cert, q)
        witness = lg.normalize_witness(wt.ksubset_witness(3, 2), cert)
        rep = adv.adversary_ratio(inst, witness)
        part, _, _, masked = adv.bounded_norm_certificates(inst, witness, 1).bound_checks()
        identity_err = abs(rep.rayleigh_identity - rep.rayleigh_predicted)
        return [
            CheckRecord("adversary/rayleigh-identity",
                        "structured test vectors give sqrt(|Y|/q^n * sum alpha_empty^2)",
                        identity_err, 1e-9, identity_err <= 1e-9),
            CheckRecord("adversary/part-norms",
                        "each generator-partition part has norm at most 1",
                        part["measured"], part["bound"], part["passed"]),
            CheckRecord("adversary/masked-norms",
                        "every coordinate-masked norm stays below 2k",
                        masked["measured"], masked["bound"], masked["passed"]),
            CheckRecord("adversary/ratio",
                        "the norm ratio certifies at least a quarter of the witness objective",
                        rep.ratio, 0.25 * rep.witness_objective,
                        rep.ratio >= 0.25 * rep.witness_objective),
        ]

    def hadamard():
        rng = np.random.default_rng(int(config["instance"]["seed"]))
        worst = 0.0
        for _ in range(100):
            mat = rng.standard_normal((40, 40))
            rows = rng.integers(0, 3 ** 4, size=40)
            cols = rng.integers(0, 3 ** 4, size=40)
            lm = adv.LabeledMatrix(mat, 3, 4, rows, cols)
            base = np.linalg.svd(mat, compute_uv=False)[0]   # the spectral norm
            j = int(rng.integers(1, 5))
            masked = np.linalg.svd(adv.hadamard_mask(lm, j).matrix, compute_uv=False)[0]
            worst = max(worst, masked - 2 * base)
        return [CheckRecord(
            "adversary/hadamard-mask",
            "masking by a coordinate-difference pattern at most doubles the norm",
            worst, 1e-9, worst <= 1e-9,
        )]

    return [("adversary/pipeline", pipeline), ("adversary/hadamard", hadamard)]


def _fourier_checks(config):
    def exact_values():
        p = 1009
        full = fo.fourier_bias(range(p), p)
        single = fo.fourier_bias([0], p)
        ok = full == 0.0 and single == 1.0 / p
        return [CheckRecord(
            "fourier/exact-bias",
            "full group has zero bias; a singleton has bias 1/p",
            max(full, abs(single - 1.0 / p)), 0.0, ok,
        )]

    def random_bias():
        records = []
        seed = int(config["instance"]["seed"])
        for p in (1009, 10007):
            biased = fo.random_low_bias_set(p, 0.5, seed)
            bound = fo.random_bias_bound(p)
            records.append(CheckRecord(
                f"fourier/random-bias-{p}",
                "a random half-density set has bias at most 4*sqrt(ln p / p)",
                biased.bias, bound, biased.bias <= bound,
            ))
        return records

    def overlap_cases():
        cert = st.CertificateStructure(3, (st.Certificate.from_sets([(1, 2)]),))
        inst = fo.GeneralInstance(
            cert=cert, p=7, ell=1,
            biased_set=fo.random_low_bias_set(7, 2.0 / 7.0, int(config["instance"]["seed"])),
        )
        rng = np.random.default_rng(0)
        worst_equal = worst_zero = worst_shift = worst_pair = 0.0
        for _ in range(100):
            w = tuple(rng.integers(0, 7, 3).tolist())
            eq = fo.character_overlap(w, w, 0, 1, inst, "fast")
            worst_equal = max(worst_equal, abs(eq - inst.delta))
            w_shift = fo.shift(w, (1, 2), int(rng.integers(1, 7)), 7)
            sh = fo.character_overlap(w, w_shift, 0, 1, inst, "fast")
            worst_shift = max(worst_shift, abs(sh) - inst.biased_set.bias)
            w_far = tuple((np.array(w) + np.array([0, 1, 2])) % 7)
            if w_far != w and fo.shift(w_far, (1, 2), -w_far[0], 7) != fo.shift(w, (1, 2), -w[0], 7):
                zr = fo.character_overlap(w, w_far, 0, 1, inst, "brute")
                worst_zero = max(worst_zero, abs(zr))
            for other in (w, w_shift, w_far):
                brute = fo.character_overlap(w, other, 0, 1, inst, "brute")
                fast = fo.character_overlap(w, other, 0, 1, inst, "fast")
                worst_pair = max(worst_pair, abs(brute - fast))
        return [
            CheckRecord("fourier/overlap-equal",
                        "equal vectors overlap exactly at the density",
                        worst_equal, 1e-12, worst_equal <= 1e-12),
            CheckRecord("fourier/overlap-zero",
                        "non-shift-related vectors have zero overlap",
                        worst_zero, 1e-12, worst_zero <= 1e-12),
            CheckRecord("fourier/overlap-shift",
                        "shift-related overlaps stay within the bias",
                        worst_shift, 1e-10, worst_shift <= 1e-10),
            CheckRecord("fourier/overlap-agreement",
                        "exhaustive and closed-form overlaps agree",
                        worst_pair, 1e-10, worst_pair <= 1e-10),
        ]

    return [
        ("fourier/exact-bias", exact_values),
        ("fourier/random-bias", random_bias),
        ("fourier/overlap-cases", overlap_cases),
    ]


def _general_checks(config):
    def ladder():
        seed = int(config["instance"]["seed"])
        ladder_ps = [int(p) for p in config["instance"]["p_ladder"]]
        cert = st.hidden_shift_structure(2)
        witness = wt.hidden_shift_witness(2)
        records = []
        per_m_gaps = {m: [] for m in range(len(cert))}
        for p, m, gap, bound in fo.restriction_gap_ladder(cert, witness, ladder_ps, 1, seed):
            per_m_gaps[m].append(gap)
            records.append(CheckRecord(
                f"general/gap-bound-p{p}-m{m}",
                "block deviation stays below n^ell * (bias/density) * max beta^2",
                gap, bound, gap <= bound,
            ))
        for m, gaps in per_m_gaps.items():
            decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
            records.append(CheckRecord(
                f"general/gap-decreasing-m{m}",
                "block deviation strictly decreases along the modulus ladder",
                min(gaps[i] - gaps[i + 1] for i in range(len(gaps) - 1)) if len(gaps) > 1 else 0.0,
                0.0, decreasing,
            ))
        return records

    def brute_blocks():
        seed = int(config["instance"]["seed"])
        cert = st.hidden_shift_structure(2)
        witness = wt.hidden_shift_witness(2)
        inst = fo.build_general_instance(cert, 8, seed)
        beta = adv.difference_coefficients(witness, 1)
        worst = 0.0
        for m in range(len(cert)):
            classes = fo.equivalence_classes(inst, m, beta)
            for cls in classes[:64]:
                block = fo._class_gap_matrix(inst, m, beta[m], cls)
                for r, vr in enumerate(cls.members):
                    for s, vs in enumerate(cls.members):
                        if r == s:
                            continue
                        prod = 1.0 + 0.0j
                        for i in range(1, inst.ell + 1):
                            wr = tuple(sym[i - 1] for sym in vr)
                            ws = tuple(sym[i - 1] for sym in vs)
                            prod *= fo.character_overlap(wr, ws, m, i, inst, "brute")
                        expected = (inst.delta ** -inst.minimal_count(m)
                                    * beta[m][fo._vector_support_mask(vr)]
                                    * beta[m][fo._vector_support_mask(vs)] * prod)
                        worst = max(worst, abs(expected - block[r, s]))
        return [CheckRecord(
            "general/brute-blocks",
            "closed-form block entries match exhaustive character sums",
            worst, 1e-10, worst <= 1e-10,
        )]

    return [("general/ladder", ladder), ("general/brute-blocks", brute_blocks)]


_SUITE_BUILDERS = {
    "duality": _duality_checks,
    "witnesses": _witness_checks,
    "arrays": _array_checks,
    "adversary": _adversary_checks,
    "fourier": _fourier_checks,
    "general": _general_checks,
}


def run_suite(config: dict) -> RunReport:
    """Execute the configured suite; per-check errors become failing records."""
    suite = config["suite"]
    names = list(_SUITE_BUILDERS) if suite == "all" else [suite]
    jobs: list[tuple[str, Callable[[], list[CheckRecord]]]] = []
    for name in names:
        jobs.extend(_SUITE_BUILDERS[name](config))
    records: list[CheckRecord] = []
    for check_id, fn in jobs:
        try:
            records.extend(fn())
        except LgError as exc:
            records.append(CheckRecord(check_id, f"plumbing: {type(exc).__name__}: {exc}",
                                       math.inf, 0.0, False))
    return RunReport(
        config_hash=config_hash(config),
        records=tuple(records),
        environment=environment_fingerprint(),
    )


# ---------------------------------------------------------------------------
# artifact writing


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def report_csv_body(report: RunReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["check_id", "claim", "measured", "bound", "passed"])
    for r in report.records:
        writer.writerow([
            r.check_id, r.claim, f"{r.measured:.12g}", f"{r.bound:.12g}",
            "pass" if r.passed else "fail",
        ])
    return buffer.getvalue()


def write_report(report: RunReport, out_dir: str) -> dict:
    """Write report.json, report.csv and meta.json under out_dir/<config hash>."""
    target = os.path.join(out_dir, report.config_hash)
    json_path = os.path.join(target, "report.json")
    csv_path = os.path.join(target, "report.csv")
    meta_path = os.path.join(target, "meta.json")
    _atomic_write(json_path, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    _atomic_write(csv_path, report_csv_body(report))
    meta = {
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": report.environment,
    }
    _atomic_write(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return {"json": json_path, "csv": csv_path, "meta": meta_path}
