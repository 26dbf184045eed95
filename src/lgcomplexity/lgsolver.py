"""Primal and dual programs for learning-graph complexity, with one solver for both.

The primal assigns per-certificate unit flows p_e(M) from the empty set to the
certificate's member sets, and arc weights w_e >= 0, minimizing
sqrt(sum_e w_e) subject to sum_e p_e(M)^2 / w_e <= 1 for every certificate
(0/0 reads as 0).  The dual assigns reals alpha_S(M), zero whenever S is in M,
maximizing sqrt(sum_M alpha_empty(M)^2) subject to a unit bound on every arc:
sum_M (alpha_source(M) - alpha_target(M))^2 <= 1.

Solvers:
  * solve_primal - alternating minimization.  Given weights, each certificate's
    minimum-energy unit flow is an electrical flow (weighted-Laplacian solve on
    the lattice with the certificate's member sets grounded as a super-sink).
    Given flows, weights take the stationary form w_e = sqrt(sum_M mu_M
    p_e(M)^2) with the multipliers mu fitted by multiplicative updates.
  * solve_dual - the witness carried by the solved primal: alpha_S(M) is the
    flow-conservation multiplier nu = 2 mu_M (potential at S), zero on member
    subsets, scaled down by the square root of its exhaustively measured arc-load
    margin (normalize_witness).  The scaled witness is feasible by construction,
    so by weak duality its objective is a certified lower bound whatever the
    primal's convergence; the primal's objective is the matching upper bound.

The primal is validated globally by the certified duality gap, not by a
convergence proof.  SolverParams.seed is accepted but no solver reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    CapacityError,
    ConsistencyError,
    InvariantViolation,
    ParameterError,
    StructuralError,
)
from .structures import (
    Arc,
    CertificateStructure,
    LATTICE_CAP,
    arc_arrays,
    arc_count,
    arc_index,
    as_mask,
    mask_members,
    membership_table,
)

_WEIGHT_FLOOR = 1e-14
_PRIMAL_TOLERANCE = 1e-9             # conservation residual and constraint excess


@dataclass(frozen=True)
class SolverParams:
    tolerance: float = 1e-6          # relative
    max_iterations: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ParameterError(f"tolerance must be positive, got {self.tolerance}")


def _coerce_arc(n: int, arc) -> tuple[int, int]:
    """Accept an Arc or a (source, j) pair; return (source_mask, j)."""
    if isinstance(arc, Arc):
        return arc.source.mask, arc.added
    source, j = arc
    return as_mask(source, n), int(j)


@dataclass(frozen=True)
class FlowAssignment:
    """Per-(arc, certificate) flows, stored dense in deterministic arc order."""

    n: int
    values: np.ndarray  # shape (num_certificates, arc_count(n))

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != arc_count(self.n):
            raise StructuralError(
                f"flow array must have shape (certificates, {arc_count(self.n)})"
            )
        if not np.all(np.isfinite(values)):
            raise InvariantViolation("flows must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, n: int, num_certificates: int) -> "FlowAssignment":
        return cls(n, np.zeros((num_certificates, arc_count(n))))

    @classmethod
    def from_entries(cls, n: int, num_certificates: int, entries: Mapping) -> "FlowAssignment":
        """entries maps (arc, certificate_index) -> flow; arc is an Arc or (source, j)."""
        values = np.zeros((num_certificates, arc_count(n)))
        for (arc, m), value in entries.items():
            source, j = _coerce_arc(n, arc)
            values[m, arc_index(n, source, j)] = value
        return cls(n, values)

    def value(self, arc, m: int) -> float:
        source, j = _coerce_arc(self.n, arc)
        return float(self.values[m, arc_index(self.n, source, j)])

    @property
    def num_certificates(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class WeightAssignment:
    """Nonnegative per-arc weights in deterministic arc order."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (arc_count(self.n),):
            raise StructuralError(f"weight array must have shape ({arc_count(self.n)},)")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise InvariantViolation("weights must be finite and nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_entries(cls, n: int, entries: Mapping, fill: float = 0.0) -> "WeightAssignment":
        values = np.full(arc_count(n), float(fill))
        for arc, value in entries.items():
            source, j = _coerce_arc(n, arc)
            values[arc_index(n, source, j)] = value
        return cls(n, values)

    def value(self, arc) -> float:
        source, j = _coerce_arc(self.n, arc)
        return float(self.values[arc_index(self.n, source, j)])

    @property
    def total(self) -> float:
        return float(self.values.sum())


@dataclass(frozen=True)
class SolveInfo:
    iterations: int
    converged: bool
    residual: float


@dataclass(frozen=True)
class PrimalSolution:
    flow: FlowAssignment
    weights: WeightAssignment
    objective: float
    mu: np.ndarray                 # per-certificate constraint multipliers, >= 0
    nu: np.ndarray                 # per-(certificate, subset) conservation multipliers
    iterations: int
    converged: bool
    residual: float

    def __post_init__(self):
        expected = math.sqrt(self.weights.total)
        if not math.isclose(self.objective, expected, rel_tol=1e-12, abs_tol=1e-12):
            raise InvariantViolation(
                f"objective {self.objective} != sqrt(total weight) {expected}"
            )


@dataclass(frozen=True)
class DualWitness:
    """Real assignment alpha[certificate, subset_mask] over the lattice."""

    n: int
    alpha: np.ndarray  # shape (num_certificates, 2^n)
    info: SolveInfo | None = field(default=None, compare=False)

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.ndim != 2 or alpha.shape[1] != (1 << self.n):
            raise StructuralError(f"alpha must have shape (certificates, {1 << self.n})")
        if not np.all(np.isfinite(alpha)):
            raise InvariantViolation("alpha values must be finite")
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def zeros(cls, n: int, num_certificates: int) -> "DualWitness":
        return cls(n, np.zeros((num_certificates, 1 << n)))

    @classmethod
    def from_entries(cls, n: int, num_certificates: int, entries: Mapping) -> "DualWitness":
        """entries maps (subset, certificate_index) -> alpha value."""
        alpha = np.zeros((num_certificates, 1 << n))
        for (subset, m), value in entries.items():
            alpha[m, as_mask(subset, n)] = value
        return cls(n, alpha)

    def value(self, subset, m: int) -> float:
        return float(self.alpha[m, as_mask(subset, self.n)])

    @property
    def num_certificates(self) -> int:
        return self.alpha.shape[0]

    def to_entries(self) -> list[dict]:
        ms, masks = np.nonzero(self.alpha)
        return [
            {"subset_mask": int(masks[i]), "cert_index": int(ms[i]),
             "alpha": float(self.alpha[ms[i], masks[i]])}
            for i in range(len(ms))
        ]

    def to_dict(self) -> dict:
        return {"n": self.n, "num_certificates": self.num_certificates,
                "entries": self.to_entries()}

    @classmethod
    def from_dict(cls, doc: dict) -> "DualWitness":
        witness = cls.zeros(int(doc["n"]), int(doc["num_certificates"]))
        alpha = witness.alpha.copy()
        for entry in doc["entries"]:
            alpha[entry["cert_index"], entry["subset_mask"]] = entry["alpha"]
        return cls(witness.n, alpha)


# ---------------------------------------------------------------------------
# feasibility

def flow_residuals(cert: CertificateStructure, flow: FlowAssignment) -> dict:
    """Conservation residuals per (certificate, subset).

    For S outside M (and not empty): inflow minus outflow.  At the empty set
    (when it is not itself in M): outflow minus one.  No entries for S in M.
    An all-zero map is exactly feasibility.
    """
    if flow.n != cert.n:
        raise StructuralError(f"flow is on n={flow.n}, structure on n={cert.n}")
    if flow.num_certificates != len(cert):
        raise StructuralError("flow certificate count does not match the structure")
    n = cert.n
    src, _, dst = arc_arrays(n)
    member = membership_table(cert)
    residuals: dict[tuple[int, int], float] = {}
    for m in range(len(cert)):
        p = flow.values[m]
        inflow = np.zeros(1 << n)
        outflow = np.zeros(1 << n)
        np.add.at(inflow, dst, p)
        np.add.at(outflow, src, p)
        if not member[m, 0]:
            residuals[(m, 0)] = float(outflow[0] - 1.0)
        interior = ~member[m]
        interior[0] = False
        for mask in np.flatnonzero(interior):
            residuals[(m, int(mask))] = float(inflow[mask] - outflow[mask])
    return residuals


def primal_constraint_values(flow: FlowAssignment, weights: WeightAssignment) -> np.ndarray:
    """Per-certificate sum of p_e^2 / w_e, with 0/0 read as 0 and x/0 as +inf."""
    if flow.n != weights.n:
        raise StructuralError("flow and weights live on different lattices")
    p2 = flow.values ** 2
    w = weights.values
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p2 / w
    terms[:, w == 0] = 0.0
    terms[(p2 > 0) & (w == 0)[None, :]] = np.inf
    return terms.sum(axis=1)


# ---------------------------------------------------------------------------
# dual-side operations

def _arc_load_max(alpha: np.ndarray, n: int) -> float:
    """Max over arcs of sum_M (alpha_S - alpha_{S+j})^2, streamed per direction."""
    masks = np.arange(1 << n)
    worst = 0.0
    for j in range(n):
        low = masks[(masks >> j) & 1 == 0]
        diff = alpha[:, low] - alpha[:, low | (1 << j)]
        loads = np.einsum("ms,ms->s", diff, diff)
        worst = max(worst, float(loads.max(initial=0.0)))
    return worst


def check_zero_condition(cert: CertificateStructure, witness: DualWitness) -> None:
    """Raise InvariantViolation naming (S, M) if alpha is nonzero inside some M."""
    member = membership_table(cert)
    bad = member & (witness.alpha != 0)
    if bad.any():
        m, mask = np.argwhere(bad)[0]
        raise InvariantViolation(
            f"alpha must vanish on member subsets: alpha_S(M) != 0 at "
            f"S={set(mask_members(int(mask))) or '{}'}, certificate index {int(m)}"
        )


def dual_objective(witness: DualWitness) -> float:
    """sqrt of the sum over certificates of alpha at the empty set, squared."""
    return float(np.sqrt(np.sum(witness.alpha[:, 0] ** 2)))


def dual_feasibility_margin(cert: CertificateStructure, witness: DualWitness) -> float:
    """Max arc load; the witness is feasible iff the margin is <= 1."""
    if witness.n != cert.n or witness.num_certificates != len(cert):
        raise StructuralError("witness shape does not match the structure")
    check_zero_condition(cert, witness)
    return _arc_load_max(witness.alpha, cert.n)


def normalize_witness(witness: DualWitness, cert: CertificateStructure) -> DualWitness:
    """Scale alpha down by sqrt(max(margin, 1)); a feasible witness is unchanged."""
    if not witness.alpha.any():
        return witness
    margin = dual_feasibility_margin(cert, witness)
    scale = math.sqrt(max(margin, 1.0))
    if scale == 1.0:
        return witness
    return DualWitness(witness.n, witness.alpha / scale, info=witness.info)


# ---------------------------------------------------------------------------
# primal solver

def _min_energy_flow(n: int, member_row: np.ndarray, w: np.ndarray):
    """Unit electrical flow from the empty set into the member super-sink.

    Returns (per-arc flow, per-subset potential); both zero when the empty set
    is itself a member.  Conductances are the weights; member nodes are
    grounded, so flow conservation holds exactly at every non-member node.
    """
    num_arcs = arc_count(n)
    if member_row[0]:
        return np.zeros(num_arcs), np.zeros(1 << n)
    src, _, dst = arc_arrays(n)
    nodes = np.flatnonzero(~member_row)
    pos = np.full(1 << n, -1, dtype=np.int64)
    pos[nodes] = np.arange(len(nodes))
    c = np.maximum(w, _WEIGHT_FLOOR * max(1.0, float(w.max(initial=0.0))))

    src_in = ~member_row[src]
    both = src_in & ~member_row[dst]
    size = len(nodes)
    diag = np.zeros(size)
    np.add.at(diag, pos[src[src_in]], c[src_in])
    np.add.at(diag, pos[dst[both]], c[both])
    rows = pos[src[both]]
    cols = pos[dst[both]]
    lap = scipy.sparse.coo_matrix(
        (
            np.concatenate([diag, -c[both], -c[both]]),
            (
                np.concatenate([np.arange(size), rows, cols]),
                np.concatenate([np.arange(size), cols, rows]),
            ),
        ),
        shape=(size, size),
    ).tocsc()
    b = np.zeros(size)
    b[pos[0]] = 1.0
    if size <= 1024:
        x = np.linalg.solve(lap.toarray(), b)
    else:
        x = scipy.sparse.linalg.spsolve(lap, b)
    potential = np.zeros(1 << n)
    potential[nodes] = x
    p = c * (potential[src] - potential[dst])
    return p, potential


def _optimize_weights(p2: np.ndarray, mu: np.ndarray, inner_iterations: int = 200):
    """Fit w_e = sqrt(sum_M mu_M p_e(M)^2) so every constraint value is <= 1, max tight.

    Multiplicative ascent on the concave multiplier dual; the final rescale
    makes the largest constraint exactly 1, which any optimal weighting must.
    """
    totals = p2.sum(axis=1)
    if not totals.any():
        return np.zeros(p2.shape[1]), mu
    mu = np.where(totals > 0, np.maximum(mu, 1e-300), 0.0)
    w = None
    for _ in range(inner_iterations):
        w = np.sqrt(mu @ p2)
        floor = _WEIGHT_FLOOR * max(1.0, float(w.max(initial=0.0)))
        w = np.maximum(w, floor)
        vals = (p2 / w).sum(axis=1)
        if np.all(np.abs(vals[totals > 0] - 1.0) < 1e-12):
            break
        mu = mu * np.where(totals > 0, vals, 1.0)
    vals = (p2 / w).sum(axis=1)
    top = float(vals.max())
    if top > 0:
        w = w * top
    return w, mu


def optimize_weights(flow: FlowAssignment, reference: WeightAssignment | None = None) -> WeightAssignment:
    """Weights minimizing the total subject to constraint values <= 1 for the flow.

    When a feasible reference weighting is supplied and the fit does not beat
    it, the reference is returned, so the result never increases the total.
    """
    p2 = flow.values ** 2
    w, _ = _optimize_weights(p2, np.ones(flow.num_certificates))
    candidate = WeightAssignment(flow.n, w)
    if reference is not None:
        ref_vals = primal_constraint_values(flow, reference)
        if np.all(ref_vals <= 1 + 1e-12) and reference.total < candidate.total:
            return reference
    return candidate


def solve_primal(cert: CertificateStructure, params: SolverParams = SolverParams()) -> PrimalSolution:
    """Alternating minimization for the flow/weight program; deterministic."""
    n = cert.n
    if n > LATTICE_CAP:
        raise CapacityError(f"primal solve needs n <= {LATTICE_CAP}, got {n}")
    member = membership_table(cert)
    num_certs = len(cert)
    num_arcs = arc_count(n)

    w = np.ones(num_arcs)
    mu = np.ones(num_certs)
    p = np.zeros((num_certs, num_arcs))
    potentials = np.zeros((num_certs, 1 << n))
    objective = math.sqrt(w.sum())
    residual = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iterations + 1):
        for m in range(num_certs):
            p[m], potentials[m] = _min_energy_flow(n, member[m], w)
        w, mu = _optimize_weights(p ** 2, mu)
        new_objective = math.sqrt(w.sum())
        residual = abs(new_objective - objective) / max(new_objective, 1e-30)
        objective = new_objective
        if residual < params.tolerance * 1e-2:
            converged = True
            break

    flow = FlowAssignment(n, p.copy())
    weights = WeightAssignment(n, w.copy())
    nu = 2.0 * mu[:, None] * potentials
    return PrimalSolution(
        flow=flow,
        weights=weights,
        objective=objective,
        mu=mu.copy(),
        nu=nu,
        iterations=iterations,
        converged=converged,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# dual witness


def _multiplier_witness(cert: CertificateStructure, primal: PrimalSolution) -> DualWitness:
    """The primal's conservation multipliers, zeroed on member subsets and normalized.

    The witness's info carries the primal's iterations and convergence flag, and
    as residual the certified relative gap (primal - dual) / primal.
    """
    alpha = np.where(membership_table(cert), 0.0, primal.nu)
    witness = normalize_witness(DualWitness(cert.n, alpha), cert)
    dual = dual_objective(witness)
    gap = (primal.objective - dual) / primal.objective if primal.objective > 0 else 0.0
    info = SolveInfo(iterations=primal.iterations, converged=primal.converged, residual=gap)
    return DualWitness(cert.n, witness.alpha, info=info)


def solve_dual(cert: CertificateStructure, params: SolverParams = SolverParams()) -> DualWitness:
    """Feasible witness from the multipliers of the solved primal; deterministic."""
    return _multiplier_witness(cert, solve_primal(cert, params))


@dataclass(frozen=True)
class DualityReport:
    primal_objective: float
    dual_objective: float
    relative_gap: float
    primal: PrimalSolution
    witness: DualWitness


def _check_primal(cert: CertificateStructure, primal: PrimalSolution) -> None:
    """Raise ConsistencyError unless the flows conserve and every constraint is <= 1."""
    for (m, mask), r in flow_residuals(cert, primal.flow).items():
        if not abs(r) <= _PRIMAL_TOLERANCE:
            raise ConsistencyError(
                f"primal flow conservation violated: certificate index {m}, "
                f"S={set(mask_members(mask)) or '{}'}, residual {r:.3e} "
                f"> {_PRIMAL_TOLERANCE:g}"
            )
    values = primal_constraint_values(primal.flow, primal.weights)
    for m, value in enumerate(values):
        if not value <= 1.0 + _PRIMAL_TOLERANCE:
            raise ConsistencyError(
                f"primal constraint violated: certificate index {m}, "
                f"sum p^2/w = {value:.12g}, residual {value - 1.0:.3e} "
                f"> {_PRIMAL_TOLERANCE:g}"
            )


def duality_report(cert: CertificateStructure, params: SolverParams = SolverParams()) -> DualityReport:
    """Solve the primal once, check it, take its witness, and report the gap."""
    primal = solve_primal(cert, params)
    _check_primal(cert, primal)
    witness = _multiplier_witness(cert, primal)
    dual = dual_objective(witness)
    if dual > primal.objective + max(params.tolerance, 1e-9):
        raise ConsistencyError(
            f"weak duality violated: dual {dual} > primal {primal.objective}"
        )
    return DualityReport(
        primal_objective=primal.objective,
        dual_objective=dual,
        relative_gap=witness.info.residual,
        primal=primal,
        witness=witness,
    )
