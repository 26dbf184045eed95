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
    The Laplacian patterns of all certificates are built once per solve_primal
    call, grouped by the number of non-member subsets.  Up to _DENSE_NODE_CUT
    of them a group is solved dense, by one stacked np.linalg.solve per
    array of at most _STACK_BYTES; above it each certificate is solved by
    Jacobi-preconditioned CG, whose answer is kept only when the recomputed
    residual max|L x - b| is at most 1e-12, else by sparse LU.
    Given flows, weights take the stationary form w_e = sqrt(sum_M mu_M
    p_e(M)^2) with the multipliers mu fitted by multiplicative updates.  Each
    update first sets mu's overall scale to its closed-form optimum, and the
    fit stops once its certified relative gap max_M sum_e p_e(M)^2 / w_e - 1
    is at most 1e-12 (at most 200 steps).
  * duality_report - the one checked route to both sides.  It solves the
    primal once, checks its conservation residuals and constraint values
    (_check_primal), takes the primal's witness, and refuses a dual objective
    above the primal's by more than SolverParams.weak_duality_slack;
    solve_dual returns that report's witness.  The witness's alpha_S(M) is
    sqrt(mu_M) times certificate M's potential at S (the flow-conservation
    multiplier nu = 2 mu_M (potential at S) divided by 2 sqrt(mu_M)), zero on
    member subsets, scaled down by the square root of its exhaustively measured
    arc-load margin (normalize_witness).  The scaled witness is feasible by
    construction, so by weak duality its objective is a certified lower bound
    whatever the primal's convergence; the primal's objective is the matching
    upper bound.

The primal is validated globally by the certified duality gap, not by a
convergence proof.  SolverParams.seed is accepted but no solver reads it;
SolverParams itself owns the validity of its values.  solve_primal refuses a
job whose M * n * 2^(n-1) (certificate, arc) pairs would need more than
PRIMAL_BYTE_CAP bytes, counted at _PAIR_BYTES per pair, before it builds any
table; the lattice-size rule itself belongs to structures.check_lattice.
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
    arc_arrays,
    arc_count,
    arc_index,
    as_mask,
    mask_members,
    membership_table,
)

_WEIGHT_FLOOR = 1e-14
_PRIMAL_TOLERANCE = 1e-9             # conservation residual and constraint excess
_SOLVE_RESIDUAL = 1e-12              # max |L x - b| accepted from CG
# measured per certificate on 2 cores, stacked dense vs Jacobi-CG on ksubset flows at random
# weights: 0.25-0.29 vs 1.2-1.6 ms at 128 nodes, 0.9-1.2 vs 1.4-1.9 ms at 256, 2.6-3.0 vs
# 1.4-2.1 ms at 384, 4.9-5.8 vs 1.6-2.1 ms at 512; the crossover lies between 256 and 384
# nodes, and the cut stays at 200 so that no structure changes path
_DENSE_NODE_CUT = 200
_STACK_BYTES = 32 << 20              # largest stacked dense Laplacian array
_WEIGHT_STEPS = 200                  # most multiplier steps in one weight fit
# peak RSS of solve_primal per (certificate, arc) pair, rounded up: 143 B on triangle(6)
# (4.9e6 pairs, 731 MB), 122 B on ksubset(12,2) and 157 B on triangle(5), on 2 cores
_PAIR_BYTES = 160
PRIMAL_BYTE_CAP = 2 << 30            # largest primal job, in bytes at _PAIR_BYTES per pair


@dataclass(frozen=True)
class SolverParams:
    tolerance: float = 1e-6          # relative
    max_iterations: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ParameterError(f"tolerance must be positive, got {self.tolerance}")
        iterations = self.max_iterations
        if isinstance(iterations, bool) or not isinstance(iterations, (int, np.integer)):
            raise ParameterError(f"max_iterations must be an integer, got {iterations!r}")
        if not iterations >= 1:
            raise ParameterError(f"max_iterations must be at least 1, got {iterations}")

    @property
    def weak_duality_slack(self) -> float:
        """How far the dual objective may exceed the primal's before duality_report refuses."""
        return max(self.tolerance, 1e-9)


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

class _LaplacianGroup:
    """Grounded Laplacians of certificates with equal numbers of non-member subsets.

    Certificate M's rows and columns are its non-member subsets in ascending
    mask order, so the empty set is node 0.  The pattern of every certificate
    (diagonal, off-diagonal and potential positions) is built once, with
    per-certificate offsets; each solve only refills the conductances.
    """

    def __init__(self, certs: np.ndarray, member: np.ndarray, src: np.ndarray, dst: np.ndarray):
        nonmember = ~member[certs]
        count = len(certs)
        self.size = size = int(nonmember[0].sum())
        self.count = count
        k_node, node = np.nonzero(nonmember)
        pos = np.zeros(nonmember.shape, dtype=np.int64)
        pos[k_node, node] = np.tile(np.arange(size), count)
        self.pot_at = certs[k_node] * member.shape[1] + node
        src_in = nonmember[:, src]
        k_out, out_arcs = np.nonzero(src_in)
        k_in, self.in_arcs = np.nonzero(src_in & nonmember[:, dst])
        # each node's diagonal sums the conductances of its out-arcs, then its in-arcs
        self.diag_arcs = np.concatenate([out_arcs, self.in_arcs])
        self.diag_at = np.concatenate([k_out * size + pos[k_out, src[out_arcs]],
                                       k_in * size + pos[k_in, dst[self.in_arcs]]])
        rows = k_in * size + pos[k_in, src[self.in_arcs]]
        cols = k_in * size + pos[k_in, dst[self.in_arcs]]
        nodes = np.arange(count * size)
        if size <= _DENSE_NODE_CUT:
            # flat positions in the stacked (count, size, size) array
            self.upper = rows * size + cols % size
            self.lower = cols * size + rows % size
            self.diagonal = nodes * size + nodes % size
            self.rhs = np.zeros((count, size, 1))
            self.rhs[:, 0] = 1.0
            return
        all_rows = np.concatenate([nodes, rows, cols])
        all_cols = np.concatenate([nodes, cols, rows]) % size
        self.order = np.argsort(all_rows * size + all_cols, kind="stable")
        self.indices = all_cols[self.order].astype(np.int32)
        self.indptr = np.zeros(count * size + 1, dtype=np.int64)
        np.cumsum(np.bincount(all_rows, minlength=count * size), out=self.indptr[1:])

    def solve(self, c: np.ndarray, potentials: np.ndarray) -> None:
        """Write every certificate's potentials into the flat per-(certificate, subset) array."""
        size, count = self.size, self.count
        diag = np.bincount(self.diag_at, weights=c[self.diag_arcs], minlength=count * size)
        off = -c[self.in_arcs]
        if size <= _DENSE_NODE_CUT:
            lap = np.zeros(count * size * size)
            lap[self.upper] = off
            lap[self.lower] = off
            lap[self.diagonal] = diag
            x = np.linalg.solve(lap.reshape(count, size, size), self.rhs)
            potentials[self.pot_at] = x.reshape(-1)
            return
        data = np.concatenate([diag, off, off])[self.order]
        b = np.zeros(size)
        b[0] = 1.0
        for k in range(count):
            lo, hi = self.indptr[k * size], self.indptr[(k + 1) * size]
            lap = scipy.sparse.csr_matrix(
                (data[lo:hi], self.indices[lo:hi],
                 (self.indptr[k * size:(k + 1) * size + 1] - lo).astype(np.int32)),
                shape=(size, size),
            )
            x, info = scipy.sparse.linalg.cg(
                lap, b, rtol=1e-13, atol=0.0, maxiter=size,
                M=scipy.sparse.diags(1.0 / diag[k * size:(k + 1) * size]),
            )
            # the conservation residual at a non-member node is exactly +-(L x - b)
            if info != 0 or not np.max(np.abs(lap @ x - b)) <= _SOLVE_RESIDUAL:
                x = scipy.sparse.linalg.spsolve(lap, b)
            potentials[self.pot_at[k * size:(k + 1) * size]] = x


class _StackedLaplacian:
    """Every certificate's weighted Laplacian with its member sets grounded.

    Certificates whose empty set is not a member are grouped by their number
    of non-member subsets.  Dense groups are split so that one stacked array
    holds at most _STACK_BYTES; certificates whose empty set is a member keep
    zero flow and potential.
    """

    def __init__(self, n: int, member: np.ndarray):
        self.src, _, self.dst = arc_arrays(n)
        self.shape = member.shape
        sizes = (~member).sum(axis=1)
        active = ~member[:, 0]
        self.groups = []
        for size in np.unique(sizes[active]):
            certs = np.flatnonzero(active & (sizes == size))
            step = (len(certs) if size > _DENSE_NODE_CUT
                    else max(1, _STACK_BYTES // (8 * int(size) ** 2)))
            self.groups += [_LaplacianGroup(certs[i:i + step], member, self.src, self.dst)
                            for i in range(0, len(certs), step)]

    def flow(self, w: np.ndarray):
        """Unit electrical flows from the empty set into each member super-sink.

        Returns (per-certificate, per-arc flows; per-certificate, per-subset
        potentials).  Conductances are the weights, floored; member nodes are
        grounded, so flow conservation holds at every non-member node.
        """
        c = np.maximum(w, _WEIGHT_FLOOR * max(1.0, float(w.max(initial=0.0))))
        potentials = np.zeros(self.shape)
        for group in self.groups:
            group.solve(c, potentials.reshape(-1))
        # np.take keeps the rows C-ordered, and so the weight step's sums bit-stable
        p = np.take(potentials, self.src, axis=1)
        p -= np.take(potentials, self.dst, axis=1)
        p *= c
        return p, potentials


def _optimize_weights(p2: np.ndarray, mu: np.ndarray):
    """Fit w_e = sqrt(sum_M mu_M p_e(M)^2) so every constraint value is <= 1, max tight.

    Multiplicative ascent on the concave multiplier dual
    2 sum_e sqrt(sum_M mu_M p_e(M)^2) - sum_M mu_M.  Its value at lambda*mu has
    a closed-form best lambda, so each step first sets mu's scale: with
    s = sqrt(mu @ p2) and c = sum(s) / sum(mu), mu becomes c^2 mu and w = c s.
    At that scale sum_M mu_M vals_M = sum_M mu_M = sum_e w_e, so max_M vals_M - 1
    is the certified relative gap of the fit for the given flows; the steps stop
    once it is at most 1e-12, or after _WEIGHT_STEPS steps.  The final
    rescale makes the largest constraint exactly 1, which any optimal weighting
    must.  Returns (w, mu, steps taken), with w before the rescale equal to
    sqrt(mu @ p2) up to the weight floor.
    """
    totals = p2.sum(axis=1)
    if not totals.any():
        return np.zeros(p2.shape[1]), mu, 0
    mu = np.where(totals > 0, np.maximum(mu, 1e-300), 0.0)
    for steps in range(1, _WEIGHT_STEPS + 1):
        s = np.sqrt(mu @ p2)
        scale = s.sum() / mu.sum()
        mu = mu * scale ** 2
        w = s * scale
        w = np.maximum(w, _WEIGHT_FLOOR * max(1.0, float(w.max(initial=0.0))))
        vals = (p2 / w).sum(axis=1)
        top = float(vals.max())
        if top <= 1.0 + 1e-12 or steps == _WEIGHT_STEPS:
            break
        mu = mu * vals           # a certificate without flow keeps mu = 0
    return w * top, mu, steps


def solve_primal(cert: CertificateStructure, params: SolverParams = SolverParams()) -> PrimalSolution:
    """Alternating minimization for the flow/weight program; deterministic."""
    n = cert.n
    num_certs = len(cert)
    num_arcs = arc_count(n)
    pairs = num_certs * num_arcs
    if pairs * _PAIR_BYTES > PRIMAL_BYTE_CAP:
        raise CapacityError(
            f"primal solve on {num_certs} certificates over n = {n} needs about "
            f"{pairs * _PAIR_BYTES} bytes ({pairs} certificate-arc pairs at {_PAIR_BYTES} B), "
            f"over the cap {PRIMAL_BYTE_CAP}"
        )
    member = membership_table(cert)

    laplacian = _StackedLaplacian(n, member)
    w = np.ones(num_arcs)
    mu = np.ones(num_certs)
    objective = math.sqrt(w.sum())
    residual = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iterations + 1):
        p, potentials = laplacian.flow(w)
        w, mu, _ = _optimize_weights(p ** 2, mu)
        new_objective = math.sqrt(w.sum())
        residual = abs(new_objective - objective) / max(new_objective, 1e-30)
        objective = new_objective
        if residual < params.tolerance * 1e-2:
            converged = True
            break

    flow = FlowAssignment(n, p)
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
    """Each certificate's potentials scaled by sqrt(mu_M), zeroed on member subsets, normalized.

    The potentials are phi = nu / (2 mu), and 0 where mu_M = 0.  At a fixed
    point of the alternation sum_M mu_M (phi_S(M) - phi_{S+j}(M))^2 = 1 on every
    arc with w_e > 0 and phi_empty(M) = 1 for every active M, so alpha =
    sqrt(mu) phi is feasible with objective sqrt(sum_M mu_M), the primal's;
    elsewhere the normalization keeps it feasible.  The witness's info carries
    the primal's iterations and convergence flag, and as residual the certified
    relative gap (primal - dual) / primal.
    """
    mu = primal.mu[:, None]
    phi = np.divide(primal.nu, 2.0 * mu, out=np.zeros_like(primal.nu), where=mu > 0)
    alpha = np.where(membership_table(cert), 0.0, np.sqrt(mu) * phi)
    witness = normalize_witness(DualWitness(cert.n, alpha), cert)
    dual = dual_objective(witness)
    gap = (primal.objective - dual) / primal.objective if primal.objective > 0 else 0.0
    info = SolveInfo(iterations=primal.iterations, converged=primal.converged, residual=gap)
    return DualWitness(cert.n, witness.alpha, info=info)


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
    if dual > primal.objective + params.weak_duality_slack:
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


def solve_dual(cert: CertificateStructure, params: SolverParams = SolverParams()) -> DualWitness:
    """The witness of duality_report: feasible, from the checked primal's multipliers."""
    return duality_report(cert, params).witness
