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
    The weights are invariant under the structure's checked symmetry group
    (structures.structure_symmetry) by construction: they are fitted on one
    column per arc orbit (structures.arc_orbits) and held as one value per
    orbit.  So only the least certificate of each certificate orbit is solved,
    on the quotient of its lattice by its stabilizer (_Quotient): the nodes
    are the stabilizer's orbits of non-member subsets, the arc classes carry
    their arc counts, and an iteration costs one pass over the classes.
    Each representative's quotient is solved on its own: up to _DENSE_NODE_CUT
    nodes dense, above it by Jacobi-preconditioned CG with a residual check,
    one refinement and a sparse LU fallback; only that path imports
    scipy.sparse.  No full-lattice array is touched between gap evaluations:
    there every certificate's potentials are its representative's, lifted
    through the node labels and read through the permuted masks by one
    gather, for the witness, the returned flows and mu.  A structure without
    generators is the trivial group, every certificate, subset and arc its
    own orbit, on the same code path.
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
an array over subset bitmasks.  The kernels that walk the whole lattice at a gap
evaluation (_arc_flows, _arc_load_max) and the conservation residuals read one
strided view of the subset axis per direction, through no index array.

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

from .errors import (
    CapacityError,
    ConsistencyError,
    InvariantViolation,
    ParameterError,
    StructuralError,
)
from .structures import (
    CertificateStructure,
    arc_arrays,
    arc_count,
    arc_orbits,
    mask_members,
    membership_table,
    permute_masks,
    stabilizer_generators,
    structure_symmetry,
    subset_orbits,
)

_WEIGHT_FLOOR = 1e-14
_PRIMAL_TOLERANCE = 1e-9             # conservation residual and constraint excess
_SOLVE_RESIDUAL = 1e-12              # max |L x - b| accepted from CG
# one representative's trivial quotient solved dense vs by Jacobi-PCG, on 2 cores at
# uniform(0.1, 2) weights (quartiles of 12 draws): 0.26-0.30 vs 0.74-0.82 ms at 128 nodes
# (ksubset(8,1)), 2.1-2.3 vs 0.86-0.93 ms at 256 (ksubset(9,1)), 5.5-5.9 vs 0.63-0.65 ms at
# 384 (ksubset(9,2)), 9.1-9.3 vs 1.17-1.22 ms at 512 (ksubset(10,1)); the crossover lies
# between 128 and 256 nodes, and the cut stays at 200.  It counts quotient nodes, so every
# symmetric structure of the benchmark is solved dense
_DENSE_NODE_CUT = 200
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

class _Quotient:
    """Each representative's grounded lattice, collapsed to the orbits of its stabilizer.

    Row k of member is representative k's membership row, labels[k] the orbit
    of every subset under its stabilizer (structures.subset_orbits), and
    arc_orbit the orbit of every arc under the whole group.  The nodes are the
    orbits of non-member subsets, numbered representative by representative
    in the order of their least mask, so each one's empty set comes first;
    lift[k, S] is the node of S, or for a member S the ground, whose index is
    the node count.  An arc class is (tail node, head node or ground, arc
    orbit), with the number of its arcs.  With conductances constant on arc
    orbits the full lattice's potentials are constant on stabilizer orbits, so
    shorting each orbit leaves them unchanged (Doyle and Snell): the quotient
    Laplacian P^T L P, P the orbits' indicator, is the sum over the classes of
    count c_O times the class's edge Laplacian, and its solution lifted
    through P is the full lattice's.  Every arc of a class carries the flow
    c_O (phi_tail - phi_head).  The trivial group's quotient is the lattice
    itself, every node and class one subset or arc.

    Each representative with nodes is one _QuotientBlock, solved on its own:
    up to _DENSE_NODE_CUT nodes by one dense solve, above it by _jacobi_pcg.
    A PCG answer with max|L x - b| above _SOLVE_RESIDUAL is refined by one
    more _jacobi_pcg on its residual, and if still refused solved by sparse
    LU.  scipy.sparse is imported only above the cut.  A representative whose
    empty set is a member has no nodes and keeps zero flow and potential.
    Index arrays are int32: PRIMAL_BYTE_CAP keeps every count below 2^31.
    """

    def __init__(self, n: int, member: np.ndarray, labels, arc_orbit: np.ndarray):
        self.shape = (len(member), int(arc_orbit.max()) + 1)
        orbits = self.shape[1]
        tail, _, head = arc_arrays(n)
        self.lift = np.empty(member.shape, dtype=np.int32)
        sizes, starts, bounds, columns = [], [], [0], [[] for _ in range(5)]
        ground = 0
        for k, (row, label) in enumerate(zip(member, labels)):
            # the stabilizer fixes the membership row, so an orbit is all members or none
            outside = np.zeros(int(label.max()) + 1, dtype=bool)
            outside[label[~row]] = True
            size = int(outside.sum())
            lift = np.where(outside, np.cumsum(outside) - 1, -1)[label]    # -1 on members
            a, b = lift[tail], lift[head]
            # a member source has a member target: members are upward closed
            keep = np.flatnonzero(a >= 0)
            # (tail, head) ranked first, so that no key overflows int64
            ends, pair = np.unique(a[keep] * (size + 1) + np.where(b[keep] < 0, size, b[keep]),
                                   return_inverse=True)
            classes, count = np.unique(pair * orbits + arc_orbit[keep], return_counts=True)
            pair, orbit = np.divmod(classes, orbits)
            a, b = np.divmod(ends[pair], size + 1)
            for column, part in zip(columns, (
                    a + ground, np.where(b < size, b + ground, -1), orbit, k * orbits + orbit,
                    count)):
                column.append(part.astype(np.int32))
            self.lift[k] = np.where(lift < 0, -1, lift + ground)
            sizes.append(size)
            starts.append(ground)
            bounds.append(bounds[-1] + len(classes))
            ground += size
        self.ground = ground
        self.lift[self.lift < 0] = ground
        # popped, so that each column's parts are freed once copied
        (self.tail, self.head, self.orbit, self.slot,
         self.multiplicity) = (np.concatenate(columns.pop(0)) for _ in range(5))
        self.head[self.head < 0] = ground
        self.blocks = [_QuotientBlock(size, start, first, last, self) for size, start, first, last
                       in zip(sizes, starts, bounds, bounds[1:]) if size]

    def flow(self, w: np.ndarray):
        """Every representative's unit electrical flow from the empty set into its member ground.

        w holds one weight per arc orbit; the conductances are the weights,
        floored.  Returns (sum over each arc orbit of the squared per-arc flows,
        a (representatives, arc orbits) array; the quotient potentials, with
        the ground's zero last).
        """
        c = _conductances(w)
        nodes = self.ground + 1
        # every temporary over the classes is dropped once used: without symmetry the
        # classes are the arcs, and these arrays set the solve's peak memory
        class_c = c[self.orbit]
        class_c *= self.multiplicity
        # the node degrees, then the negated class conductances
        values = np.empty(nodes + len(class_c))
        values[:nodes] = np.bincount(self.tail, class_c, minlength=nodes)
        values[:nodes] += np.bincount(self.head, class_c, minlength=nodes)
        np.negative(class_c, out=values[nodes:])
        del class_c
        potentials = np.zeros(nodes)
        for block in self.blocks:
            potentials[block.nodes] = block.solve(values)
        del values
        # each class's flow c_O (phi_tail - phi_head), squared and counted per arc, in place
        p = potentials[self.tail]
        p -= potentials[self.head]
        p *= c[self.orbit]
        p *= p
        p *= self.multiplicity
        p2 = np.bincount(self.slot, p, minlength=math.prod(self.shape))
        return p2.reshape(self.shape), potentials


class _QuotientBlock:
    """One representative's quotient Laplacian, on the quotient's nodes start .. start + size - 1.

    Its classes are the quotient's first .. last - 1.  Each row holds its
    node's degree on the diagonal and minus the conductance of each class
    joining it to another node, columns ascending (classes of the same two
    nodes are repeated entries, which the product and the dense sum add); of
    gives each entry's position in solve's values (node degrees, then negated
    class conductances).  Up to _DENSE_NODE_CUT nodes at gives its position in
    the dense (size, size) array, above it indices and indptr the CSR pattern.
    """

    def __init__(self, size: int, start: int, first: int, last: int, quotient: _Quotient):
        self.size = size
        self.nodes = slice(start, start + size)
        # the classes joining two nodes of the block; the others end at the ground
        inner = first + np.flatnonzero(quotient.head[first:last] != quotient.ground)
        t, h = quotient.tail[inner] - start, quotient.head[inner] - start
        r = np.concatenate([np.arange(size), t, h])
        c = np.concatenate([np.arange(size), h, t])
        order = np.argsort(r * size + c)
        negated = quotient.ground + 1 + inner
        of = np.concatenate([start + np.arange(size), negated, negated])
        self.of = of[order].astype(np.int32)
        if size > _DENSE_NODE_CUT:
            self.indices = c[order].astype(np.int32)
            self.indptr = np.concatenate(
                [[0], np.cumsum(np.bincount(r, minlength=size))]).astype(np.int32)
        else:
            self.at = (r * size + c)[order].astype(np.int32)
        self.rhs = np.zeros(size)
        self.rhs[0] = 1.0

    def solve(self, values: np.ndarray) -> np.ndarray:
        """The block's quotient potentials, given flow's node degrees and negated conductances."""
        size, b = self.size, self.rhs
        if size <= _DENSE_NODE_CUT:
            lap = np.bincount(self.at, values[self.of], minlength=size * size)
            return np.linalg.solve(lap.reshape(size, size), b)
        import scipy.sparse  # only a quotient above _DENSE_NODE_CUT nodes needs it

        diag = values[self.nodes]
        lap = scipy.sparse.csr_matrix((values[self.of], self.indices, self.indptr),
                                      shape=(size, size))
        x = _jacobi_pcg(lap, b, diag)
        r = b - lap @ x
        if not np.abs(r).max() <= _SOLVE_RESIDUAL:
            # one refinement: PCG on the true residual b - L x
            x += _jacobi_pcg(lap, r, diag)
            if not np.abs(b - lap @ x).max() <= _SOLVE_RESIDUAL:
                from scipy.sparse.linalg import spsolve  # imported only once a CG answer is refused

                # a symmetric fill-reducing order: on 2 cores SuperLU's default COLAMD takes
                # the n = 12 lattice grounded at the full set (4095 nodes, log-uniform(-3, 0)
                # conductances) 7.4 s and 260 MB peak RSS, MMD_AT_PLUS_A 1.0 s and 103 MB.
                # spsolve sums repeated entries in place, and lap shares the block's pattern
                x = spsolve(lap.copy(), b, permc_spec="MMD_AT_PLUS_A")
        return x


def _jacobi_pcg(lap, b: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Jacobi-preconditioned CG on lap x = b from x = 0, diag being lap's diagonal.

    Stops once ||r||_2 is at most 1e-13 ||b||_2, or after len(b) steps; the
    caller checks the answer's true residual.
    """
    tol = 1e-26 * (b @ b)            # on ||r||_2^2
    inverse = 1.0 / diag
    x = np.zeros_like(b)
    r = b.copy()
    p = np.zeros_like(b)
    rz_old = 1.0                     # p starts at 0, so the first beta multiplies nothing
    for _ in range(len(b)):
        if not r @ r > tol:
            break
        z = inverse * r
        rz = r @ z
        p *= rz / rz_old
        p += z
        q = lap @ p
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
        rz_old = rz
    return x


def _conductances(w: np.ndarray) -> np.ndarray:
    return np.maximum(w, _WEIGHT_FLOOR * max(1.0, float(w.max(initial=0.0))))


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
    holds the orbit sizes.  laplacian is the representatives' _Quotient, each
    by its stabilizer in the group (structures.stabilizer_generators).
    expand_at[m, S] is the position of certificate m's potential at S in the
    quotient potentials: the node of g^-1(S) in its representative's
    quotient, for the group element g that carries the representative onto
    m, and the ground on m's member subsets.  A structure without generators
    has the trivial group: every certificate and every arc is its own orbit.
    """

    def __init__(self, cert: CertificateStructure, member: np.ndarray):
        n = cert.n
        symmetry = structure_symmetry(cert)
        self.reps, self.orbit, count = np.unique(
            symmetry.representative, return_inverse=True, return_counts=True)
        self.count = count.astype(float)
        self.arc_orbit = arc_orbits(n, symmetry.generators)
        self.size = np.bincount(self.arc_orbit).astype(float)
        self.laplacian = _Quotient(
            n, member[self.reps],
            [subset_orbits(n, stabilizer_generators(symmetry, r)) for r in self.reps],
            self.arc_orbit)
        lattice = 1 << n
        self.expand_at = self.laplacian.lift.reshape(-1)[
            self.orbit[:, None] * lattice + permute_masks(np.argsort(symmetry.carry, axis=1), n)]
        self.expand_at[member] = self.laplacian.ground

    def fit(self, p2: np.ndarray, mass: np.ndarray):
        """Orbit-invariant weights fitted to the representatives' per-orbit squared flows p2.

        p2[r, O] is the sum over arc orbit O of representative r's squared
        flows, and mass[r] is N_r mu_r, the multiplier of representative r
        times its orbit size N_r.  With mu constant on certificate orbits, the
        coset sum sum_M mu_M p_e(M)^2 = sum_r N_r mu_r mean_{e' in orbit(e)}
        p_r(e')^2, so the fit runs on one column per arc orbit O, holding |O|
        times p2[:, O].  Its weight for O is the orbit's total |O| w_O (so the
        weight floor applies to orbit totals), and its constraint values are
        the representatives'.  Returns (w_O, the weight of each arc of orbit O;
        mass).
        """
        fitted, mass = _optimize_weights(p2 * self.size, mass)
        return fitted / self.size, mass

    def multipliers(self, mass: np.ndarray) -> np.ndarray:
        """Every certificate's mu, its representative's."""
        return (mass / self.count)[self.orbit]

    def potentials(self, potentials: np.ndarray) -> np.ndarray:
        """Every certificate's potentials on the full lattice from the quotient's, by one gather."""
        return potentials[self.expand_at]


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
    w = np.ones(len(orbits.size))    # one weight per arc orbit, that of each of its arcs
    w_prev = None
    mass = orbits.count.copy()       # mu = 1 on every certificate
    objective = math.inf
    converged = False
    for iterations in range(1, params.max_iterations + 1):
        c = w if w_prev is None else w * (w / w_prev) ** _MOMENTUM
        p2, potentials = orbits.laplacian.flow(c)
        fitted, mass = orbits.fit(p2, mass)
        del p2                       # so that the next flow is not solved beside it
        fitted_objective = math.sqrt(fitted @ orbits.size)
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
        flow=FlowAssignment(n, _arc_flows(expanded, _conductances(c)[orbits.arc_orbit])),
        weights=WeightAssignment(n, w[orbits.arc_orbit]),
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
