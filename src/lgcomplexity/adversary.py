"""Adversary-matrix pipeline: projector algebra, block operators, spectral norms.

A witness with coefficients alpha_S(M) turns into a stacked operator with one
q^n x q^n block per certificate, each block sum_S alpha_S(M) E_S, where E_S is
the tensor projector with the all-ones-direction projector E_0 on coordinates
outside S and its complement E_1 on S.  Both depend only on the all-ones
direction, never on a basis completing it.  Restricting block rows to the
positive set X_M (scaled by sqrt(q^n/|X_M|)) and columns to the negative set Y
yields an adversary matrix whose spectral norm, against the norms of its
coordinate-masked versions, certifies a query lower bound.

Every block entry depends only on which coordinates of x and y agree:
E_S[x, y] = prod_{j in S} ([x_j = y_j] - 1/q) * q^-(n-|S|).  Three per-axis
2 x 2 transforms of the 2^n coefficients follow from that, and one
`BlockOperator` serves every norm of the pipeline:

- the pattern table g[e], the block entry for the equality bitmask e;
- the Moebius coefficients d with sum_S c_S E_S = sum_U d_U A_U, where A_U
  averages over the coordinates outside U and broadcasts back, which is how
  a block is applied in about 3n (q+1)^n flops;
- the inverse of the table, so the coordinate mask "x_j != y_j" (the table
  with bit j zeroed) is again a `BlockOperator`.

The blocks are real and symmetric, so the transpose applies the same blocks.
A `BlockOperator`'s norm comes from one Lanczos loop on the smaller Gram side
(`_lanczos_norm`) at every size: a seeded start, the full basis orthogonalized
twice per step, and a stop once the top Ritz pair's residual is within
4 eps of its value or the Krylov space holds the whole side.
It refuses, before allocating, a side whose first two basis vectors exceed
`LANCZOS_BYTE_CAP`, and fails loudly when the basis fills the cap
unconverged.  Dense matrices (`dense`, `block_dense`,
`pattern_projector`, `LabeledMatrix`) stay as the test oracle within
`DENSE_SIDE_CAP`; the tests take their norms with numpy.

Each distinct masked norm is taken once.  `_masked_norms` keeps a one-entry
memo keyed on the identity (`is`) of the instance and witness, which are both
immutable, so `adversary_ratio` and `bounded_norm_certificates` on the same
pair share one set of masked norms.  Within a set, the norm is taken once per
variable orbit of the structure's declared generators
(`structures.structure_symmetry`) that also map the witness and instance onto
themselves: a generator g with certificate permutation sigma is kept when
alpha[sigma(m)][g(S)] equals alpha[m][S] exactly and g maps every X_M onto
X_sigma(M) and Y onto Y, so the masked matrix at g(j) is a row and column
permutation of the one at j.  A structure of no named kind has the trivial
group and takes every masked norm; a dropped generator costs time, never
accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np
import numpy.random  # numpy loads it lazily: loaded here, the first seeded call does not pay it

from .errors import (
    CapacityError,
    ConsistencyError,
    InvariantViolation,
    ParameterError,
    StructuralError,
)
from .arrays import HardInstance, verify_orthogonality_property
from .indexing import ENUMERATION_CAP, check_enumerable, decode, encode
from .lgsolver import DualWitness, dual_feasibility_margin
from .structures import (
    CertificateStructure,
    mask_members,
    minimal_profile,
    permute_masks,
    structure_symmetry,
    variable_orbits,
)

DENSE_SIDE_CAP = 1 << 14
# bytes of one Lanczos basis: 2 vectors at the 2^24 enumeration cap
LANCZOS_BYTE_CAP = 1 << 28


def ones_projector(q: int) -> np.ndarray:
    """E_0: all entries 1/q."""
    return np.full((q, q), 1.0 / q)


def complement_projector(q: int) -> np.ndarray:
    """E_1 = I - E_0: 1 - 1/q on the diagonal, -1/q off it."""
    return np.eye(q) - ones_projector(q)


def pattern_projector(q: int, n: int, subset_mask: int) -> np.ndarray:
    """Dense E_S: tensor product with E_1 on the subset's coordinates, E_0 elsewhere."""
    if q ** n > DENSE_SIDE_CAP:
        raise CapacityError(f"dense projector needs q^n <= {DENSE_SIDE_CAP}")
    e0, e1 = ones_projector(q), complement_projector(q)
    factors = [e1 if (subset_mask >> (j - 1)) & 1 else e0 for j in range(1, n + 1)]
    return reduce(np.kron, factors)


def _pattern_matrix(q: int) -> np.ndarray:
    """f[b, s]: the entry of E_0 (s = 0) or E_1 (s = 1) where digits differ (b = 0) or agree."""
    return np.array([[1.0 / q, -1.0 / q],
                     [1.0 / q, 1.0 - 1.0 / q]])


# d_U = sum_{S >= U} (-1)^{|S - U|} c_S, from E_1 = I - E_0 on every coordinate of S
_MOEBIUS = np.array([[1.0, -1.0],
                     [0.0, 1.0]])


def _per_axis(mat: np.ndarray, coeffs: np.ndarray, n: int) -> np.ndarray:
    """mat applied to each of the n subset bits of coeffs' last axis (length 2^n).

    Applied with the pattern matrix f, this turns coefficients c into the
    pattern table g[e] = sum_S c_S E_S[x, y] for every x, y whose equality
    bitmask is e, in O(n 2^n); with f's inverse it turns a table back into
    coefficients; with _MOEBIUS it gives the Moebius coefficients d.  The
    matrix is the same on every bit, so the order of the axes is moot.
    """
    lead = coeffs.shape[:-1]
    t = coeffs.reshape(lead + (2,) * n)
    for axis in range(len(lead), len(lead) + n):
        t = np.moveaxis(np.tensordot(mat, t, axes=(1, axis)), 0, axis)
    return t.reshape(lead + (1 << n,))


def _average_out(x: np.ndarray, q: int, n: int) -> np.ndarray:
    """(..., q^n) -> (..., (q+1)^n): each variable's axis gains its mean as index q.

    Entry (i_1, .., i_n) is then (A_U x) at the digits i_j for j in U, where
    U = {j : i_j < q} and A_U averages over the variables outside U.
    """
    lead = x.shape[:-1]
    t = x.reshape(lead + (q,) * n)
    for axis in range(len(lead), len(lead) + n):
        t = np.concatenate([t, t.sum(axis=axis, keepdims=True) / q], axis=axis)
    return t


def _spread_back(t: np.ndarray, n: int) -> np.ndarray:
    """Adjoint gather of _average_out's layout: out[x] = sum_U t[x on U, mean elsewhere]."""
    lead = t.shape[:t.ndim - n]
    for axis in range(len(lead), len(lead) + n):
        head = (slice(None),) * axis
        t = t[head + (slice(-1),)] + t[head + (slice(-1, None),)]
    return t.reshape(lead + (-1,))


def _equality_masks(row_codes: np.ndarray, col_codes: np.ndarray, q: int, n: int) -> np.ndarray:
    """e[r, c] with bit j-1 set where row and column codes agree in variable j."""
    rows, cols = decode(row_codes, q, n), decode(col_codes, q, n)
    masks = np.zeros((len(rows), len(cols)), dtype=np.min_scalar_type((1 << n) - 1))
    for j in range(n):  # decode column j is variable j + 1, i.e. bit j
        masks |= (rows[:, j, None] == cols[None, :, j]).astype(masks.dtype) << j
    return masks


def _coefficients(witness_or_coeffs) -> tuple[np.ndarray, int]:
    """A witness's alpha, or a raw (certificates, 2^n) array, with its n."""
    if isinstance(witness_or_coeffs, DualWitness):
        return witness_or_coeffs.alpha, witness_or_coeffs.n
    coeffs = np.asarray(witness_or_coeffs, dtype=float)
    width = coeffs.shape[1] if coeffs.ndim == 2 else 0
    if width == 0 or width & (width - 1):
        raise StructuralError(f"coefficients must have shape (certificates, 2^n), "
                              f"got {coeffs.shape}")
    return coeffs, width.bit_length() - 1


def difference_coefficients(witness: DualWitness | np.ndarray, j: int) -> np.ndarray:
    """Per-(subset, certificate) drop across direction j: alpha_S - alpha_{S+j}.

    Zero automatically whenever j is in S or S is a member set (members of an
    upward-closed family keep zero alpha above them).
    """
    alpha, n = _coefficients(witness)
    if not 1 <= j <= n:
        raise ParameterError(f"j must be in [1, {n}], got {j}")
    masks = np.arange(1 << n)
    shifted = alpha[:, masks | (1 << (j - 1))]
    return alpha - shifted


@dataclass(frozen=True)
class SpectralReport:
    norm: float
    iterations: int
    residual: float
    method: str  # "lanczos"


@dataclass(frozen=True)
class LabeledMatrix:
    """A dense matrix whose rows and columns are labeled by input codes."""

    matrix: np.ndarray
    q: int
    n: int
    row_codes: np.ndarray
    col_codes: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (len(self.row_codes), len(self.col_codes)):
            raise StructuralError("label lengths must match the matrix shape")

    def digit(self, codes: np.ndarray, j: int) -> np.ndarray:
        return (codes // self.q ** (self.n - j)) % self.q


class BlockOperator:
    """sum_S coeff_S(M) E_S per certificate, stacked, optionally restricted/scaled.

    Rows are (input, certificate) pairs; when a hard instance is attached each
    block keeps only rows in X_M with scale sqrt(q^n/|X_M|), and columns are
    either all inputs or the negative set Y.

    Applied implicitly: block m is sum_U d_U A_U with d the Moebius
    coefficients, so one application averages the input over the variables
    outside every U at once (`_average_out`), weights each entry by its d_U
    and sums the broadcasts back (`_spread_back`).  Each block is real and
    symmetric, so `rmatvec` applies the same blocks.
    """

    def __init__(self, coeffs: np.ndarray, q: int, n: int,
                 row_sets: Sequence[np.ndarray] | None = None,
                 row_scales: Sequence[float] | None = None,
                 col_codes: np.ndarray | None = None):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] != (1 << n):
            raise StructuralError(f"coefficients must have shape (certificates, {1 << n})")
        side = check_enumerable(q, n)
        if (q + 1) ** n > ENUMERATION_CAP:
            raise CapacityError(f"applying blocks needs (q+1)^n = {q + 1}^{n} entries, "
                                f"over the enumeration cap {ENUMERATION_CAP}")
        self.coeffs = coeffs
        self.q = q
        self.n = n
        every = np.arange(side, dtype=np.int64)
        self.row_sets = ([every] * len(coeffs) if row_sets is None
                         else [np.asarray(r, dtype=np.int64) for r in row_sets])
        self.row_scales = ([1.0] * len(coeffs) if row_scales is None
                           else [float(s) for s in row_scales])
        self.col_codes = every if col_codes is None else np.asarray(col_codes, dtype=np.int64)
        # d_U per certificate on _average_out's layout: axis j is variable j
        # (bit j-1 of U, so the C-order bit axes are reversed), its digit
        # indices 0..q-1 have j in U and its mean index q has j outside U
        weights = _per_axis(_MOEBIUS, coeffs, n).reshape((len(coeffs),) + (2,) * n)
        weights = weights.transpose((0,) + tuple(range(n, 0, -1)))
        in_u = np.r_[np.ones(q, dtype=np.int64), 0]
        for axis in range(1, n + 1):
            weights = np.take(weights, in_u, axis=axis)
        self._weights = weights

    @property
    def num_certificates(self) -> int:
        return self.coeffs.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return sum(len(r) for r in self.row_sets), len(self.col_codes)

    def row_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated (input code, certificate index) labels in block order."""
        if not self.row_sets:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        certs = [np.full(len(r), m, dtype=np.int64) for m, r in enumerate(self.row_sets)]
        return np.concatenate(self.row_sets), np.concatenate(certs)

    def block_dense(self, m: int) -> np.ndarray:
        """Block m restricted to its rows and columns, as a real array (test oracle).

        Gathered from the equality-pattern table: entry (x, y) is
        g_m[e(x, y)] times the row scale, where e(x, y) is the bitmask of
        coordinates on which x and y agree.  The cost is O(n |rows| |cols|)
        with no q^n x q^n intermediate.
        """
        side = self.q ** self.n
        if side > DENSE_SIDE_CAP:
            raise CapacityError(f"dense block needs q^n <= {DENSE_SIDE_CAP}, got {side}")
        table = _per_axis(_pattern_matrix(self.q), self.coeffs[m], self.n)
        masks = _equality_masks(self.row_sets[m], self.col_codes, self.q, self.n)
        return table[masks] * self.row_scales[m]

    def dense(self) -> np.ndarray:
        return np.vstack([self.block_dense(m) for m in range(self.num_certificates)])

    def labeled(self) -> LabeledMatrix:
        codes, _ = self.row_labels()
        return LabeledMatrix(self.dense(), self.q, self.n, codes, self.col_codes.copy())

    def matvec(self, v: np.ndarray) -> np.ndarray:
        full = np.zeros(self.q ** self.n)
        full[self.col_codes] = v
        images = _spread_back(self._weights * _average_out(full, self.q, self.n), self.n)
        return np.concatenate([images[m, rows] * scale for m, (rows, scale)
                               in enumerate(zip(self.row_sets, self.row_scales))])

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        full = np.zeros((self.num_certificates, self.q ** self.n))
        offset = 0
        for m, (rows, scale) in enumerate(zip(self.row_sets, self.row_scales)):
            full[m, rows] = u[offset:offset + len(rows)] * scale
            offset += len(rows)
        t = (self._weights * _average_out(full, self.q, self.n)).sum(axis=0)
        return _spread_back(t, self.n)[self.col_codes]


def assemble(
    witness_or_coeffs,
    instance: HardInstance | None = None,
    *,
    q: int | None = None,
    restrict_columns: bool = True,
) -> BlockOperator:
    """Build the stacked operator for witness coefficients (or differences).

    Without an instance: the full operator on ([q]^n x certificates) x [q]^n;
    q is required.  With an instance: block rows restrict to X_M with scale
    sqrt(q^n/|X_M|), and columns restrict to Y unless restrict_columns=False.
    The instance's soundness is the caller's to check (`_require_sound`).
    """
    coeffs, wit_n = _coefficients(witness_or_coeffs)
    if instance is None:
        if q is None:
            raise ParameterError("q is required when no instance is given")
        return BlockOperator(coeffs, q, wit_n)

    if instance.n != wit_n:
        raise StructuralError(
            f"instance has n={instance.n} but the witness has n={wit_n}"
        )
    if q is not None and q != instance.q:
        raise StructuralError(f"explicit q={q} conflicts with instance q={instance.q}")
    if len(instance.cert) != coeffs.shape[0]:
        raise StructuralError("witness certificate count does not match the instance")
    total = instance.input_count
    scales = [math.sqrt(total / len(instance.x_sets[m])) for m in range(len(instance.cert))]
    col_codes = instance.y_codes if restrict_columns else None
    return BlockOperator(
        coeffs, instance.q, wit_n,
        row_sets=instance.x_sets, row_scales=scales, col_codes=col_codes,
    )


def _lanczos_norm(op: BlockOperator) -> SpectralReport:
    """sigma_max of a block operator by Lanczos on its smaller Gram side G.

    The loop keeps the whole basis V and starts from a fixed pseudo-random
    vector, because a structured start such as the all-ones vector can be
    orthogonal to the top singular subspace.  Step k applies G once (two
    applications), orthogonalizes the result against all of V twice and
    takes the top pair (theta, s) of the k x k tridiagonal T_k.  One
    classical Gram-Schmidt pass leaves a component of relative size about
    eps |G v| / beta along V, which is large exactly when beta is small, that
    is near an invariant Krylov space; a second pass brings it down to
    rounding, and twice is enough (Kahan's result in Parlett, "The Symmetric
    Eigenvalue Problem", 1998).  The loop stops at the first k where the Ritz
    residual |G V s - theta V s| = beta_k |s_k| is at most 4 eps |theta|,
    or at k = side, where T_k holds the whole spectrum.  The symmetric blocks make short invariant Krylov spaces
    common; beta_k is then about zero, and since the random start has a
    component along the top eigenvector, theta is the top eigenvalue.

    The basis is refused (`CapacityError`) before any application when two
    vectors of the side's length exceed LANCZOS_BYTE_CAP bytes, and a loop
    that fills the cap without converging raises `ConsistencyError`.
    `iterations` counts every application of A or A^T; `residual` is
    max(|A v - s u|, |A^T u - s v|) / s of the returned triple.  Without the
    loop: a zero operator or an empty side gives 0.0, and a side of length 1
    gives the norm of one application.
    """
    rows, cols = op.shape
    applications = 0

    def count(apply):
        def counted(x):
            nonlocal applications
            applications += 1
            return apply(x)
        return counted

    # the Gram side is the smaller one: A^T A on columns or A A^T on rows
    first, second = count(op.matvec), count(op.rmatvec)
    if rows < cols:
        first, second = second, first

    def triple(x):
        """sigma = |first(x)| for unit x, and the residual of (u, sigma, v) built from it."""
        x = x / np.linalg.norm(x)
        image = first(x)
        sigma = float(np.linalg.norm(image))
        misfit = float(np.linalg.norm(second(image) - sigma ** 2 * x))
        return sigma, misfit / sigma ** 2 if sigma else misfit

    side = min(rows, cols)
    if side == 0 or not op.coeffs.any():
        return SpectralReport(norm=0.0, iterations=0, residual=0.0, method="lanczos")
    if side == 1:
        norm = float(np.linalg.norm(first(np.ones(1))))
        return SpectralReport(norm=norm, iterations=1, residual=0.0, method="lanczos")
    steps = min(side, LANCZOS_BYTE_CAP // (8 * side))
    if steps < 2:
        raise CapacityError(f"a Lanczos basis of 2 vectors of length {side} needs "
                            f"{16 * side} bytes, over the cap of {LANCZOS_BYTE_CAP}")
    basis = np.empty((steps, side))
    diagonal, off_diagonal = [], []
    v = np.random.default_rng(0).standard_normal(side)
    v /= np.linalg.norm(v)
    stop = 4 * np.finfo(float).eps
    for k in range(1, steps + 1):
        basis[k - 1] = v
        w = second(first(v))
        diagonal.append(float(v @ w))
        for _ in range(2):
            w -= basis[:k].T @ (basis[:k] @ w)
        beta = float(np.linalg.norm(w))
        values, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(off_diagonal, 1)
                                         + np.diag(off_diagonal, -1))
        theta, s = values[-1], vectors[:, -1]
        if beta * abs(s[-1]) <= stop * abs(theta) or k == side:
            norm, residual = triple(basis[:k].T @ s)
            return SpectralReport(norm=norm, iterations=applications, residual=residual,
                                  method="lanczos")
        off_diagonal.append(beta)
        v = w / beta
    raise ConsistencyError(
        f"Lanczos did not converge on the {rows} x {cols} operator after {applications} "
        f"applications (last residual {beta * abs(s[-1]) / theta:.3g})"
    )


def spectral_norm(op: BlockOperator) -> SpectralReport:
    """Largest singular value of a block operator, by Lanczos (`_lanczos_norm`)."""
    if not isinstance(op, BlockOperator):
        raise ParameterError(f"cannot take the norm of {type(op).__name__}; "
                             "spectral_norm takes a BlockOperator")
    return _lanczos_norm(op)


def hadamard_mask(op, j: int):
    """Entrywise product with the indicator of rows and columns differing at j.

    A LabeledMatrix gives a LabeledMatrix.  A BlockOperator gives a
    BlockOperator at every size: its pattern table with bit j-1 (the
    "x_j = y_j" patterns) zeroed, mapped back to coefficients by f's inverse
    [[q-1, 1], [-1, 1]] (det f = 1/q).
    """
    if not isinstance(op, (BlockOperator, LabeledMatrix)):
        raise ParameterError(f"cannot mask a {type(op).__name__}")
    if not 1 <= j <= op.n:
        raise ParameterError(f"j must be in [1, {op.n}], got {j}")
    if isinstance(op, BlockOperator):
        table = _per_axis(_pattern_matrix(op.q), op.coeffs, op.n)
        table[:, (np.arange(1 << op.n) >> (j - 1)) & 1 == 1] = 0.0
        inverse = np.array([[op.q - 1.0, 1.0],
                            [-1.0, 1.0]])
        return BlockOperator(_per_axis(inverse, table, op.n), op.q, op.n, op.row_sets,
                             op.row_scales, op.col_codes)
    row_d = op.digit(op.row_codes, j)
    col_d = op.digit(op.col_codes, j)
    mask = row_d[:, None] != col_d[None, :]
    return LabeledMatrix(op.matrix * mask, op.q, op.n, op.row_codes, op.col_codes)


@dataclass(frozen=True)
class AdversaryReport:
    gamma_norm: float
    per_j_norms: tuple[float, ...]
    ratio: float
    witness_objective: float
    rayleigh_identity: float      # u* Gamma v for the structured test vectors
    rayleigh_predicted: float     # sqrt(|Y|/q^n * sum alpha_empty^2)
    instance_hash: str

    def to_dict(self, witness_hash: str | None = None) -> dict:
        doc = {
            "instance_hash": self.instance_hash,
            "witness_hash": witness_hash,
            "gamma_norm": self.gamma_norm,
            "per_j_norms": list(self.per_j_norms),
            "ratio": self.ratio,
            "witness_objective": self.witness_objective,
            "rayleigh_identity": self.rayleigh_identity,
            "rayleigh_predicted": self.rayleigh_predicted,
        }
        return doc


# a witness counts as feasible while its arc-load margin stays within 1 + this slack
FEASIBILITY_SLACK = 1e-6


def _require_sound(instance: HardInstance, witness: DualWitness) -> None:
    """The lower bound's two preconditions: a feasible witness, and positive sets
    X_M that project uniformly onto every subset outside their certificate."""
    margin = dual_feasibility_margin(instance.cert, witness)
    if margin > 1.0 + FEASIBILITY_SLACK:
        raise InvariantViolation(f"witness is infeasible (margin {margin} > 1); normalize it first")
    for m in range(len(instance.cert)):
        check = verify_orthogonality_property(instance, m)
        if not check.ok:
            raise InvariantViolation(
                f"X_M fails the uniform-projection property at certificate {m}, "
                f"S={check.subset}, assignment={check.assignment} "
                f"(count {check.count}, expected {check.expected})"
            )


def _instance_generators(instance: HardInstance, witness: DualWitness) -> list[tuple[int, ...]]:
    """The structure's declared generators that map the instance and witness onto themselves.

    A generator g of `structure_symmetry`, with certificate permutation sigma,
    is kept when alpha[sigma(m)][g(S)] equals alpha[m][S] exactly, and moving
    the digit of every variable i to variable g(i) maps each X_M onto
    X_sigma(M) and Y onto Y.  Then the mask at variable g(j) is a row and
    column permutation of the mask at j, so their norms are equal.
    """
    symmetry = structure_symmetry(instance.cert)
    if not symmetry.generators:
        return []
    n, q = instance.n, instance.q
    digits = decode(np.concatenate(instance.x_sets + (instance.y_codes,)), q, n)
    ends = np.cumsum([len(x) for x in instance.x_sets])
    kept = []
    for g, sigma, masks in zip(symmetry.generators, symmetry.images,
                               permute_masks(symmetry.generators, n)):
        if not np.array_equal(witness.alpha[sigma][:, masks], witness.alpha):
            continue
        moved = np.empty_like(digits)
        moved[:, list(g)] = digits
        images = [np.sort(codes) for codes in np.split(encode(moved, q), ends)]
        if (all(np.array_equal(image, instance.x_sets[s]) for image, s in zip(images, sigma))
                and np.array_equal(images[-1], instance.y_codes)):
            kept.append(g)
    return kept


# (instance, witness, norms) of the last _masked_norms call; both types are
# immutable, and the strong references keep their ids from being reused
_masked_memo: tuple[HardInstance, DualWitness, tuple[float, ...]] | None = None


def _masked_norms(gamma: BlockOperator, instance: HardInstance,
                  witness: DualWitness) -> tuple[float, ...]:
    """Norms of gamma = assemble(witness, instance) masked at each variable j = 1..n.

    A call with the same instance and witness objects (`is`) as the last one
    returns the stored tuple, so `adversary_ratio` and
    `bounded_norm_certificates` on one pair take these norms once.  Otherwise
    the norm is taken at the first variable of each orbit of the generators
    `_instance_generators` keeps, and copied to the rest of the orbit.
    """
    global _masked_memo
    if _masked_memo is not None and _masked_memo[0] is instance and _masked_memo[1] is witness:
        return _masked_memo[2]
    orbit = variable_orbits(instance.n, _instance_generators(instance, witness))
    norms: list[float] = []
    for j, label in enumerate(orbit, start=1):
        if label == len(norms):  # orbits are numbered by their first variable
            norms.append(spectral_norm(hadamard_mask(gamma, j)).norm)
    _masked_memo = (instance, witness, tuple(norms[label] for label in orbit))
    return _masked_memo[2]


def adversary_ratio(instance: HardInstance, witness: DualWitness) -> AdversaryReport:
    """Norm of the adversary matrix against its coordinate-masked norms.

    The ratio lower-bounds the quantum query cost of the instance's function
    up to a universal constant.  Requires a sound instance and witness
    (`_require_sound`) and a nonzero matrix.
    """
    _require_sound(instance, witness)
    op = assemble(witness, instance)
    gamma_norm = spectral_norm(op).norm
    if gamma_norm == 0.0:
        raise InvariantViolation("adversary matrix is zero; the witness gives no signal")

    alpha0 = witness.alpha[:, 0]
    obj2 = float(np.sum(alpha0 ** 2))
    sizes = np.array([len(instance.x_sets[m]) for m in range(len(instance.cert))], dtype=float)
    u_blocks = [
        np.full(int(sizes[m]), alpha0[m] / math.sqrt(sizes[m] * obj2))
        for m in range(len(instance.cert))
    ]
    u = np.concatenate(u_blocks)
    cols = op.shape[1]
    identity = float(u @ op.matvec(np.full(cols, 1.0 / math.sqrt(cols))))
    predicted = math.sqrt(instance.y_size() / instance.input_count * obj2)
    per_j = _masked_norms(op, instance, witness)
    ratio = gamma_norm / max(per_j)
    return AdversaryReport(
        gamma_norm=gamma_norm,
        per_j_norms=per_j,
        ratio=ratio,
        witness_objective=math.sqrt(obj2),
        rayleigh_identity=identity,
        rayleigh_predicted=predicted,
        instance_hash=instance.instance_hash(),
    )


def generator_partition(cert: CertificateStructure) -> np.ndarray:
    """Partition each certificate's non-member subsets by omitted generator element.

    Returns part[m, S] in {0, .., k}: 0 for member subsets, else the 1-based
    position i of the first generator element (ascending) missing from S; all
    subsets in part i omit that element.  Requires a single generator per
    certificate.
    """
    profile = minimal_profile(cert)
    if not profile.boundedly_generated:
        raise StructuralError("partition needs a single generator per certificate")
    masks = np.arange(1 << cert.n)
    part = np.zeros((len(cert), 1 << cert.n), dtype=np.int8)
    for m, certificate in enumerate(cert.certificates):
        members = mask_members(certificate.minimal_sets[0])
        assigned = np.zeros(1 << cert.n, dtype=bool)
        for i, a in enumerate(members, start=1):
            sel = ~assigned & ((masks >> (a - 1)) & 1 == 0)
            part[m, sel] = i
            assigned |= sel
    return part


@dataclass(frozen=True)
class BoundedNormReport:
    k: int
    hat_part_norms: tuple[float, ...]   # one per generator position, each <= 1
    hat_norm: float                     # <= k
    prime_norm: float                   # <= hat_norm
    masked_norms: tuple[float, ...]     # per-j norms of the masked adversary matrix
    j: int

    def bound_checks(self) -> list[dict]:
        """The chain's four claims, each as {claim, measured, bound, passed}."""
        checks = [
            ("part norms at most 1", max(self.hat_part_norms), 1.0 + 1e-6),
            ("stacked difference norm at most k", self.hat_norm, self.k + 1e-6),
            ("restricted norm below the unrestricted one", self.prime_norm,
             self.hat_norm + 1e-9),
            ("masked norms at most 2k", max(self.masked_norms), 2.0 * self.k + 1e-6),
        ]
        return [{"claim": claim, "measured": measured, "bound": bound,
                 "passed": measured <= bound} for claim, measured, bound in checks]


def bounded_norm_certificates(
    instance: HardInstance,
    witness: DualWitness,
    j: int,
) -> BoundedNormReport:
    """Per-part norms certifying the bounded-generation norm chain.

    Splitting the difference coefficients along the generator partition gives
    parts of norm at most 1 each, so the column-unrestricted operator has norm
    at most k and the masked adversary-matrix norms stay below 2k.
    """
    _require_sound(instance, witness)
    part = generator_partition(instance.cert)
    k = int(part.max())
    beta = difference_coefficients(witness, j)
    hat_parts = []
    for i in range(1, k + 1):
        coeffs_i = np.where(part == i, beta, 0.0)
        op_i = assemble(coeffs_i, instance, restrict_columns=False)
        hat_parts.append(spectral_norm(op_i).norm)
    hat_op = assemble(beta, instance, restrict_columns=False)
    hat_norm = spectral_norm(hat_op).norm
    prime_op = assemble(beta, instance, restrict_columns=True)
    prime_norm = spectral_norm(prime_op).norm

    return BoundedNormReport(
        k=k,
        hat_part_norms=tuple(hat_parts),
        hat_norm=hat_norm,
        prime_norm=prime_norm,
        masked_norms=_masked_norms(assemble(witness, instance), instance, witness),
        j=j,
    )
