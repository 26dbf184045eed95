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
    The Laplacian patterns of the certificates solved (one per orbit, below)
    are built once per solve_primal call, grouped by the number of
    non-member subsets.  Up to _DENSE_NODE_CUT
    of them a group is solved dense, by one stacked np.linalg.solve per
    array of at most _STACK_BYTES.  Above it the group is one block-diagonal
    CSR matrix whose every row has n + 1 entries (the node and its n lattice
    neighbours, a grounded neighbour as a zero on the node itself), solved by
    Jacobi-preconditioned CG with the certificates' recurrences in lockstep:
    one sparse product per step for the whole group, a converged certificate
    frozen while the others go on.  A certificate's answer is kept only when
    it converged and its recomputed residual max|L x - b| is at most 1e-12;
    otherwise the refused certificates get one more PCG on their true
    residual b - L x, and a certificate still refused is solved alone by
    sparse LU.
    Symmetric structures are solved one certificate orbit at a time.
    structures.structure_symmetry checks the named kind's variable
    permutations against the certificate set; only the least certificate of
    each orbit gets a Laplacian, and every other certificate's potentials are
    its representative's, read through the permuted masks, by one gather at
    each gap evaluation and for the returned flows and mu.  This is exact
    because the weights are invariant by construction: they are fitted on one
    column per arc orbit (structures.arc_orbits) and copied to every arc of
    the orbit.  A structure without generators is the trivial group, every
    certificate and arc its own orbit, on the same code path.
    Given flows, weights take the stationary form w_e = sqrt(sum_M mu_M
    p_e(M)^2) with the multipliers mu, constant on certificate orbits, by
    one multiplicative step per iteration: mu's overall scale is set to its
    closed-form optimum, the weights are rescaled so the largest constraint
    is exactly 1, and mu, moved by the constraint values, is carried to the
    next iteration.  With one certificate orbit the move is by exactly 1.
    The alternation has restarted momentum: the flows are solved at the
    extrapolated weights w (w / w_prev)^_MOMENTUM, w_prev being the previous
    fitted weights, and whenever the fitted objective fails to fall, w_prev is
    dropped and the next step is a plain alternation (adaptive restart).  The
    reported weights are always the fit to the reported flows.  Every
    _GAP_EVERY iterations, and at max_iterations, the multiplier witness is
    built and normalized by its measured margin; the solve stops once the
    certified relative gap (primal - dual) / primal is at most
    SolverParams.tolerance, and reports that gap as its residual.
  * duality_report - the one checked route to both sides.  It solves the
    primal once, checks its conservation residuals and constraint values
    (_check_primal), takes the primal's witness and reports both objectives;
    solve_dual returns that report's witness.  The witness's alpha_S(M) is
    sqrt(mu_M) times certificate M's potential at S (the flow-conservation
    multiplier nu = 2 mu_M (potential at S) divided by 2 sqrt(mu_M)), zero on
    member subsets, scaled down by the square root of its exhaustively measured
    arc-load margin (normalize_witness); the report reuses the witness of
    solve_primal's last gap evaluation.  The scaled witness is feasible by
    construction, so by weak duality its objective is a certified lower bound
    whatever the primal's convergence; the primal's objective is the matching
    upper bound.  Weak duality is a verdict, not an exception: the /weak
    record of reporting.duality_records fails when the dual objective exceeds
    the primal's by more than SolverParams.weak_duality_slack.

Flows and weights are arrays over arcs in structures.arc_index order, which is
direction-major: they reshape without a copy to (..., n, 2^(n-1)), and alpha is
an array over subset bitmasks.  The kernels that walk the arcs every iteration
(_arc_flows, _arc_load_max, _node_degrees) and the conservation residuals read
one strided view of the subset axis per direction, through no index array.

The primal is validated globally by the certified duality gap, which is also
its stopping rule, not by a convergence proof.  SolverParams.seed is accepted
but no solver reads it; SolverParams itself owns the validity of its values.
solve_primal refuses a job whose M * n * 2^(n-1) (certificate, arc) pairs would
need more than PRIMAL_BYTE_CAP bytes, counted at _PAIR_BYTES per pair, before it
builds any table; the lattice-size rule itself belongs to structures.check_lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import (
    CapacityError,
    ConsistencyError,
    InvariantViolation,
    ParameterError,
    StructuralError,
)
from .structures import (
    CertificateStructure,
    arc_count,
    arc_orbits,
    arc_position,
    mask_members,
    membership_table,
    permute_masks,
    structure_symmetry,
)

_WEIGHT_FLOOR = 1e-14
_PRIMAL_TOLERANCE = 1e-9             # conservation residual and constraint excess
_SOLVE_RESIDUAL = 1e-12              # max |L x - b| accepted from CG
# measured per certificate on 2 cores, stacked dense vs batched Jacobi-PCG on whole ksubset
# groups at uniform(0.1, 2) weights (quartiles of 12 draws): 0.23-0.26 vs 0.25-0.28 ms at 128
# nodes (ksubset(8,1)), 0.92-1.01 vs 0.31-0.33 ms at 256 (ksubset(9,1)), 2.6-2.9 vs
# 0.36-0.40 ms at 384 (ksubset(9,2)), 4.3-5.4 vs 0.39-0.55 ms at 512 (ksubset(10,1)); the
# crossover lies near 128 nodes, and the cut stays at 200 so that no structure changes path
_DENSE_NODE_CUT = 200
_STACK_BYTES = 32 << 20              # largest stacked dense Laplacian array
# exponent of the weight-ratio extrapolation in solve_primal, measured to the 1e-6 certified
# gap on 2 cores: 0.8 takes the duality-ladder structures 40, 30, 170 and 30 iterations (1720,
# 40, 1410 and 30 without momentum) and certifies ksubset(n,1) up to n = 10, ksubset(5..6, 2..3),
# hidden_shift(4..5), collision(3), set_equality(3) and triangle(4) in at most 190; 0.85 ends
# ksubset(10,1) at gap 6e-5 after 3000 and 0.9 ksubset(6,1) at 1.8e-5 after 10 000; the
# Nesterov schedule (t-1)/(t+2) with the same restart takes 2010 on triangle(5) against 230
_MOMENTUM = 0.8
# iterations between certified-gap evaluations (witness and exhaustive margin); one costs
# about one iteration on the duality-ladder structures, whose four rungs took 250, 260, 270
# and 300 iterations at 1, 5, 10 and 20, and the whole in-process duality-ladder run 86, 62,
# 63 and 76 ms, on 2 cores
_GAP_EVERY = 10
# peak RSS of 3 solve_primal iterations per (certificate, arc) pair, above the RSS before
# the call, on 2 cores: 51 B on triangle(6) (4.9e6 pairs, 294 MB peak), 49 B on
# ksubset(12,2), 40 B on hidden_shift(8) and collision(5); the largest, 65 B, is
# triangle(5)'s, whose 5e4 pairs leave fixed costs dominant; rounded up
_PAIR_BYTES = 80
PRIMAL_BYTE_CAP = 2 << 30            # largest primal job, in bytes at _PAIR_BYTES per pair


@dataclass(frozen=True)
class SolverParams:
    tolerance: float = 1e-6          # certified relative duality gap at which the primal stops
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
        """How far the dual objective may exceed the primal's before the /weak record fails."""
        return max(self.tolerance, 1e-9)


@dataclass(frozen=True)
class FlowAssignment:
    """Per-(certificate, arc) flows, dense, arc (S, j) at structures.arc_index(n, S, j).

    The order is direction-major, so values.reshape(M, n, 2^(n-1))[:, j - 1]
    holds the flows on the arcs that add variable j, by source mask.
    """

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

    @property
    def num_certificates(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class WeightAssignment:
    """Nonnegative per-arc weights in FlowAssignment's arc order (structures.arc_index)."""

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
    iterations: int
    converged: bool                # the certified gap reached SolverParams.tolerance
    residual: float                # certified relative gap (primal - dual) / primal to witness
    witness: DualWitness           # normalized multiplier witness of the last gap evaluation

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
    residuals = _conservation_residuals(cert, flow)
    ms, masks = np.nonzero(~membership_table(cert))
    return dict(zip(zip(ms.tolist(), masks.tolist()), residuals[ms, masks].tolist()))


def _conservation_residuals(cert: CertificateStructure, flow: FlowAssignment) -> np.ndarray:
    """flow_residuals as a (certificate, subset) array, zero on member subsets."""
    if flow.n != cert.n:
        raise StructuralError(f"flow is on n={flow.n}, structure on n={cert.n}")
    if flow.num_certificates != len(cert):
        raise StructuralError("flow certificate count does not match the structure")
    n, count = cert.n, len(cert)
    flows = flow.values.reshape(count, n, -1)
    net = np.zeros((count, 1 << n))          # inflow minus outflow
    for j in range(n):
        ends = net.reshape(count, -1, 2, 1 << j)
        p = flows[:, j].reshape(count, -1, 1 << j)
        ends[:, :, 0] -= p
        ends[:, :, 1] += p
    net[:, 0] = -net[:, 0] - 1.0             # the empty set's outflow minus one
    net[membership_table(cert)] = 0.0
    return net


def primal_constraint_values(flow: FlowAssignment, weights: WeightAssignment) -> np.ndarray:
    """Per-certificate sum of p_e^2 / w_e, with 0/0 read as 0 and x/0 as +inf."""
    if flow.n != weights.n:
        raise StructuralError("flow and weights live on different lattices")
    p = flow.values
    zero = weights.values == 0
    inverse = np.divide(1.0, weights.values, out=np.zeros(zero.shape), where=~zero)
    # one pass each, with no (certificate, arc) temporary
    values = np.einsum("me,me,e->m", p, p, inverse)
    if zero.any():
        values[np.einsum("me,me,e->m", p, p, zero.astype(float)) > 0] = np.inf
    return values


# ---------------------------------------------------------------------------
# dual-side operations

def _arc_load_max(alpha: np.ndarray, n: int) -> float:
    """Max over arcs of sum_M (alpha_S - alpha_{S+j})^2, streamed per direction.

    Direction j's sources and targets are the two halves of alpha reshaped to
    (certificates, -1, 2, 2^(j-1)).
    """
    count, half = alpha.shape[0], 1 << (n - 1)
    diff = np.empty((count, half))
    loads = np.empty(half)
    top = np.zeros(half)
    for j in range(n):
        ends = alpha.reshape(count, -1, 2, 1 << j)
        np.subtract(ends[:, :, 0], ends[:, :, 1], out=diff.reshape(count, -1, 1 << j))
        np.maximum(top, np.einsum("ms,ms->s", diff, diff, out=loads), out=top)
    return float(top.max())


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
    is built once, with per-certificate offsets; each solve only refills the
    conductances.  Every lattice node has exactly n neighbours S ^ {j}, so
    row S holds n + 1 entries, S itself and then its neighbours in j order; a
    member neighbour is grounded, and its entry points back at S with value 0.
    The diagonal sums the conductances of all n incident arcs.  entry gives
    each entry's position in solve's table of values.

    Up to _DENSE_NODE_CUT nodes the group is one stacked (count, size, size)
    array, summed from the entries.  Above it the group is one block-diagonal
    CSR matrix of the fixed-width rows.  _jacobi_pcg runs the certificates'
    CG recurrences in lockstep on the stacked vector.  The certificates whose
    answer is unconverged or has max|L x - b| above _SOLVE_RESIDUAL are
    refined by one more _jacobi_pcg on their residual, and each one still
    refused is solved again alone by sparse LU.
    """

    def __init__(self, certs: np.ndarray, member: np.ndarray):
        nonmember = ~member[certs]
        lattice = nonmember.shape[1]
        n = lattice.bit_length() - 1
        self.count = count = len(certs)
        self.size = size = int(nonmember[0].sum())
        self.width = width = n + 1
        k_node, node = np.nonzero(nonmember)
        self.pot_at = certs[k_node] * lattice + node
        # int32: PRIMAL_BYTE_CAP keeps count * 2^n below 2^31
        rows = len(node)
        node = node.astype(np.int32)
        bits = np.arange(n, dtype=np.int32)
        # the row of each (certificate, subset) pair; read only at non-members
        row_of = np.cumsum(nonmember, dtype=np.int32) - 1
        flat = (k_node.astype(np.int32) * np.int32(lattice))[:, None] + (
            node[:, None] ^ (np.int32(1) << bits))
        grounded = ~nonmember.reshape(-1)[flat]
        indices = np.empty((rows, width), dtype=np.int32)
        indices[:, 0] = np.arange(rows, dtype=np.int32)
        indices[:, 1:] = np.where(grounded, indices[:, :1], row_of[flat])
        # each entry's position in [node degrees (2^n), -conductances (arcs), 0]
        entry = np.empty((rows, width), dtype=np.int32)
        entry[:, 0] = node
        entry[:, 1:] = np.where(grounded, lattice + arc_count(n),
                                lattice + arc_position(n, node[:, None], bits))
        self.entry = entry.reshape(-1)
        if size > _DENSE_NODE_CUT:
            self.indices = indices.reshape(-1)
            self.indptr = np.arange(0, rows * width + 1, width, dtype=np.int32)
            self.rhs = np.zeros((count, size))
        else:
            # flat positions in the stacked array; a grounded entry adds 0 to its diagonal
            self.dense_at = (np.arange(rows)[:, None] * size + indices % size).reshape(-1)
            self.rhs = np.zeros((count, size, 1))
        self.rhs[:, 0] = 1.0

    def solve(self, table: np.ndarray, potentials: np.ndarray) -> None:
        """Write every certificate's potentials into the flat per-(certificate, subset) array.

        table holds the node degrees, the negated conductances and a zero.
        """
        data = table[self.entry]
        if self.size > _DENSE_NODE_CUT:
            potentials[self.pot_at] = self._solve_sparse(data)
            return
        count, size = self.count, self.size
        lap = np.bincount(self.dense_at, weights=data, minlength=count * size * size)
        x = np.linalg.solve(lap.reshape(count, size, size), self.rhs)
        potentials[self.pot_at] = x.reshape(-1)

    def _solve_sparse(self, data: np.ndarray) -> np.ndarray:
        size, count, width, rhs = self.size, self.count, self.width, self.rhs
        diag = data[::width].reshape(count, size)
        lap = scipy.sparse.csr_matrix((data, self.indices, self.indptr),
                                      shape=(count * size, count * size))
        x, converged = _jacobi_pcg(lap, rhs, diag)
        # the conservation residual at a non-member node is exactly +-(L x - b)
        r = rhs - (lap @ x.reshape(-1)).reshape(count, size)
        refused = np.flatnonzero(~(converged & (np.abs(r).max(axis=1) <= _SOLVE_RESIDUAL)))
        if len(refused):
            # one refinement: PCG on the refused blocks' true residual b - L x
            lap = self._blocks(data, refused)
            dx, converged = _jacobi_pcg(lap, r[refused], diag[refused])
            x[refused] += dx
            r = rhs[refused] - (lap @ x[refused].reshape(-1)).reshape(len(refused), size)
            refused = refused[~(converged & (np.abs(r).max(axis=1) <= _SOLVE_RESIDUAL))]
        for k in refused:
            from scipy.sparse.linalg import spsolve  # imported only once a CG answer is refused

            x[k] = spsolve(self._blocks(data, [k]), rhs[k])
        return x.reshape(-1)

    def _blocks(self, data: np.ndarray, blocks) -> scipy.sparse.csr_matrix:
        """The CSR matrix of the given certificates' diagonal blocks, owning its arrays.

        spsolve sums the duplicate grounded entries in place, so no block may
        share its arrays with the whole group's.
        """
        size, width = self.size, self.width
        blocks = np.asarray(blocks)
        rows = (blocks[:, None] * size + np.arange(size)).reshape(-1)
        entries = (rows[:, None] * width + np.arange(width)).reshape(-1)
        shift = np.repeat(((blocks - np.arange(len(blocks))) * size).astype(np.int32),
                          size * width)
        return scipy.sparse.csr_matrix(
            (data[entries], self.indices[entries] - shift,
             np.arange(0, len(entries) + 1, width, dtype=np.int32)),
            shape=(len(rows), len(rows)),
        )


def _jacobi_pcg(lap, b: np.ndarray, diag: np.ndarray):
    """Jacobi-preconditioned CG on the diagonal blocks of lap, their recurrences in lockstep.

    b and diag are (blocks, size) arrays.  Each step takes one product lap @ p
    for the whole stack and keeps alpha and beta per block.  A block stops once
    its ||r||_2 is at most 1e-13 ||b||_2, or after size steps; a stopped block
    is frozen with alpha = beta = 0.  Returns (x, per-block converged flags).
    """
    count, size = b.shape
    tol = 1e-26 * np.einsum("ks,ks->k", b, b)          # on ||r||_2^2
    inverse = 1.0 / diag
    x = np.zeros_like(b)
    r = b.copy()
    p = np.zeros_like(b)
    z = np.empty_like(b)
    rz_old = np.ones(count)          # p starts at 0, so the first beta multiplies nothing
    active = np.einsum("ks,ks->k", r, r) > tol
    for _ in range(size):
        if not active.any():
            break
        np.multiply(inverse, r, out=z)
        rz = np.einsum("ks,ks->k", r, z)
        p *= np.divide(rz, rz_old, out=np.zeros(count), where=active)[:, None]
        p += z
        q = (lap @ p.reshape(-1)).reshape(count, size)
        alpha = np.divide(rz, np.einsum("ks,ks->k", p, q), out=np.zeros(count), where=active)
        x += alpha[:, None] * p
        r -= alpha[:, None] * q
        rz_old = rz
        active &= np.einsum("ks,ks->k", r, r) > tol
    return x, ~active


class _StackedLaplacian:
    """Every certificate's weighted Laplacian with its member sets grounded.

    Certificates whose empty set is not a member are grouped by their number
    of non-member subsets.  Dense groups are split so that one stacked array
    holds at most _STACK_BYTES; certificates whose empty set is a member keep
    zero flow and potential.
    """

    def __init__(self, n: int, member: np.ndarray):
        self.n = n
        self.shape = member.shape
        sizes = (~member).sum(axis=1)
        active = ~member[:, 0]
        self.groups = []
        for size in np.unique(sizes[active]):
            certs = np.flatnonzero(active & (sizes == size))
            step = (len(certs) if size > _DENSE_NODE_CUT
                    else max(1, _STACK_BYTES // (8 * int(size) ** 2)))
            self.groups += [_LaplacianGroup(certs[i:i + step], member)
                            for i in range(0, len(certs), step)]

    def flow(self, w: np.ndarray):
        """Unit electrical flows from the empty set into each member super-sink.

        Returns (per-certificate, per-arc flows; per-certificate, per-subset
        potentials).  Conductances are the weights, floored; member nodes are
        grounded, so flow conservation holds at every non-member node.
        """
        c = _conductances(w)
        potentials = np.zeros(self.shape)
        table = np.concatenate([_node_degrees(c, self.n), -c, [0.0]])
        for group in self.groups:
            group.solve(table, potentials.reshape(-1))
        return _arc_flows(potentials, c), potentials


def _conductances(w: np.ndarray) -> np.ndarray:
    return np.maximum(w, _WEIGHT_FLOOR * max(1.0, float(w.max(initial=0.0))))


def _node_degrees(c: np.ndarray, n: int) -> np.ndarray:
    """Each subset's sum of the conductances c on its n incident arcs, by view adds."""
    degree = np.zeros(1 << n)
    for j, cj in enumerate(c.reshape(n, -1)):
        ends = degree.reshape(-1, 2, 1 << j)
        ends += cj.reshape(-1, 1, 1 << j)
    return degree


def _arc_flows(potentials: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-certificate flows c_e (potential at the source - potential at the target).

    Direction j's sources and targets are the two halves of the potentials
    reshaped to (certificates, -1, 2, 2^(j-1)); one subtraction per direction
    writes its row of the (certificates, n, 2^(n-1)) output.
    """
    count, lattice = potentials.shape
    n = lattice.bit_length() - 1
    p = np.empty((count, n, lattice >> 1))
    for j in range(n):
        ends = potentials.reshape(count, -1, 2, 1 << j)
        np.subtract(ends[:, :, 0], ends[:, :, 1], out=p[:, j].reshape(count, -1, 1 << j))
    p *= c.reshape(n, -1)
    return p.reshape(count, -1)


class _CertificateOrbits:
    """One representative certificate per orbit of the structure's symmetry group.

    reps lists the representatives, the least index of each orbit; orbit[m]
    is the position in reps of certificate m's representative, and count[r]
    the size of its orbit.  arc_orbit labels every arc's orbit, and size
    holds the orbit sizes.  expand_at[m, S] is the position of certificate
    m's potential at S in the representatives' potentials, flattened, with
    one zero appended: the representative's potential at g^-1(S), for the
    group element g that carries the representative onto m, and the zero on
    m's member subsets.  A structure without generators has the trivial
    group: every certificate and every arc is its own orbit.
    """

    def __init__(self, cert: CertificateStructure, member: np.ndarray):
        n = cert.n
        symmetry = structure_symmetry(cert)
        self.reps, self.orbit, count = np.unique(
            symmetry.representative, return_inverse=True, return_counts=True)
        self.count = count.astype(float)
        self.arc_orbit = arc_orbits(n, symmetry.generators)
        self.size = np.bincount(self.arc_orbit).astype(float)
        self._arc_order = np.argsort(self.arc_orbit, kind="stable")
        self._starts = np.concatenate([[0], np.cumsum(self.size[:-1])]).astype(np.intp)
        lattice = 1 << n
        self.expand_at = (self.orbit[:, None] * lattice
                          + permute_masks(np.argsort(symmetry.carry, axis=1), n))
        self.expand_at[member] = len(self.reps) * lattice

    def fit(self, p: np.ndarray, mass: np.ndarray):
        """Orbit-invariant weights fitted to the representatives' flows p.

        mass[r] is N_r mu_r, the multiplier of representative r times its
        orbit size N_r.  With mu constant on certificate orbits, the coset sum
        sum_M mu_M p_e(M)^2 = sum_r N_r mu_r mean_{e' in orbit(e)} p_r(e')^2,
        so the fit runs on one column per arc orbit O, holding |O| times the
        orbit's sum of p_r^2.  Its weight for O is the orbit's total |O| w_O
        (so the weight floor applies to orbit totals), and its constraint
        values are the representatives'.  Every arc then takes its orbit's
        weight, which makes w exactly invariant.  Returns (w per arc, mass).
        """
        p2 = np.add.reduceat((p ** 2)[:, self._arc_order], self._starts, axis=1)
        fitted, mass = _optimize_weights(p2 * self.size, mass)
        return (fitted / self.size)[self.arc_orbit], mass

    def multipliers(self, mass: np.ndarray) -> np.ndarray:
        """Every certificate's mu, its representative's."""
        return (mass / self.count)[self.orbit]

    def potentials(self, potentials: np.ndarray) -> np.ndarray:
        """Every certificate's potentials from the representatives', by one gather."""
        return np.append(potentials, 0.0)[self.expand_at]


def _optimize_weights(p2: np.ndarray, mu: np.ndarray):
    """One step of w_e = sqrt(sum_M mu_M p_e(M)^2), rescaled so the largest constraint is 1.

    A multiplicative ascent step on the concave multiplier dual
    2 sum_e sqrt(sum_M mu_M p_e(M)^2) - sum_M mu_M.  Its value at lambda*mu has
    a closed-form best lambda, so the step first sets mu's scale: with
    s = sqrt(mu @ p2) and c = sum(s) / sum(mu), w = c s up to the weight floor.
    The rescale by the largest constraint value makes the weights feasible and
    tight.  Returns (w, c^2 mu vals / max(vals)): the multipliers moved by the
    constraint values, which solve_primal carries to its next iteration.  With
    a single certificate vals / max(vals) is exactly 1.
    """
    totals = p2.sum(axis=1)
    if not totals.any():
        return np.zeros(p2.shape[1]), mu
    mu = np.where(totals > 0, np.maximum(mu, 1e-300), 0.0)
    s = np.sqrt(mu @ p2)
    scale = s.sum() / mu.sum()
    w = _conductances(s * scale)
    vals = (p2 / w).sum(axis=1)
    top = float(vals.max())
    # a certificate without flow keeps mu = 0
    return w * top, mu * scale ** 2 * (vals / top)


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
    orbits = _CertificateOrbits(cert, member)
    laplacian = _StackedLaplacian(n, member[orbits.reps])
    w = np.ones(num_arcs)
    w_prev = None
    mass = orbits.count.copy()       # mu = 1 on every certificate
    objective = math.inf
    converged = False
    for iterations in range(1, params.max_iterations + 1):
        c = w if w_prev is None else w * (w / w_prev) ** _MOMENTUM
        p, potentials = laplacian.flow(c)
        fitted, mass = orbits.fit(p, mass)
        fitted_objective = math.sqrt(fitted.sum())
        # restart: unless the objective fell, the next flows are solved at the fitted weights
        # (a strict test, so an all-zero primal never divides by zero weights)
        w_prev = w if fitted_objective < objective else None
        w, objective = fitted, fitted_objective
        if iterations % _GAP_EVERY and iterations < params.max_iterations:
            continue
        mu = orbits.multipliers(mass)
        expanded = orbits.potentials(potentials)
        witness = _multiplier_witness(cert, mu, expanded)
        residual = _relative_gap(objective, dual_objective(witness))
        if residual <= params.tolerance:
            converged = True
            break

    info = SolveInfo(iterations=iterations, converged=converged, residual=residual)
    return PrimalSolution(
        flow=FlowAssignment(n, _arc_flows(expanded, _conductances(c))),
        weights=WeightAssignment(n, w.copy()),
        objective=objective,
        mu=mu,
        iterations=iterations,
        converged=converged,
        residual=residual,
        witness=DualWitness(n, witness.alpha, info=info),
    )


# ---------------------------------------------------------------------------
# dual witness


def _multiplier_witness(cert: CertificateStructure, mu: np.ndarray,
                        potentials: np.ndarray) -> DualWitness:
    """Each certificate's potentials scaled by sqrt(mu_M), normalized by the measured margin.

    The potentials phi are zero on member subsets.  At a fixed point of the
    alternation sum_M mu_M (phi_S(M) - phi_{S+j}(M))^2 = 1 on every arc with
    w_e > 0 and phi_empty(M) = 1 for every active M, so alpha = sqrt(mu) phi is
    feasible with objective sqrt(sum_M mu_M), the primal's; elsewhere the
    normalization keeps it feasible.
    """
    return normalize_witness(DualWitness(cert.n, np.sqrt(mu)[:, None] * potentials), cert)


def _relative_gap(primal: float, dual: float) -> float:
    """The certified relative gap (primal - dual) / primal, 0 for a zero primal."""
    return (primal - dual) / primal if primal > 0 else 0.0


@dataclass(frozen=True)
class DualityReport:
    primal_objective: float
    dual_objective: float
    relative_gap: float
    primal: PrimalSolution
    witness: DualWitness


def _check_primal(cert: CertificateStructure, primal: PrimalSolution) -> None:
    """Raise ConsistencyError unless the flows conserve and every constraint is <= 1."""
    residuals = _conservation_residuals(cert, primal.flow)
    m, mask = np.unravel_index(np.argmax(np.abs(residuals)), residuals.shape)
    r = residuals[m, mask]
    if not abs(r) <= _PRIMAL_TOLERANCE:
        raise ConsistencyError(
            f"primal flow conservation violated: certificate index {m}, "
            f"S={set(mask_members(int(mask))) or '{}'}, residual {r:.3e} "
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
    """Solve the primal once, check it, and report the gap to its last measured witness.

    The witness's info carries the primal's iterations, convergence flag and,
    as residual, the certified relative gap; unless the primal was altered
    after the solve, relative_gap equals primal.residual.
    """
    primal = solve_primal(cert, params)
    _check_primal(cert, primal)
    dual = dual_objective(primal.witness)
    return DualityReport(
        primal_objective=primal.objective,
        dual_objective=dual,
        relative_gap=_relative_gap(primal.objective, dual),
        primal=primal,
        witness=primal.witness,
    )


def solve_dual(cert: CertificateStructure, params: SolverParams = SolverParams()) -> DualWitness:
    """The witness of duality_report: feasible, from the checked primal's multipliers."""
    return duality_report(cert, params).witness
