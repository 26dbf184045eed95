"""Adversary-matrix pipeline: projector algebra, block operators, spectral norms.

A witness with coefficients alpha_S(M) turns into a stacked operator with one
q^n x q^n block per certificate, each block sum_S alpha_S(M) E_S, where E_S is
the tensor projector with the all-ones-direction projector E_0 on coordinates
outside S and its complement E_1 on S.  Restricting block rows to the positive
set X_M (scaled by sqrt(q^n/|X_M|)) and columns to the negative set Y yields an
adversary matrix whose spectral norm, against the norms of its coordinate-
masked versions, certifies a query lower bound.

Every block entry depends only on which coordinates of x and y agree:
E_S[x, y] = prod_{j in S} ([x_j = y_j] - 1/q) * q^-(n-|S|).  Three per-axis
2 x 2 transforms of the 2^n coefficients follow from that, and one
`BlockOperator` serves every norm of the pipeline:

- the pattern table g[e], the block entry for the equality bitmask e;
- the Moebius coefficients d with sum_S c_S E_S = sum_U d_U A_U, where A_U
  averages over the coordinates outside U and broadcasts back, which is how
  a block is applied without a basis in about 3n (q+1)^n flops;
- the inverse of the table, so the coordinate mask "x_j != y_j" (the table
  with bit j zeroed) is again a `BlockOperator`.

The blocks are real and symmetric, so the transpose applies the same blocks.
A `BlockOperator`'s norm comes from ARPACK (scipy's `eigsh` on the smaller
Gram side, as `svds` does, with seeded draws) at every size and fails loudly
when ARPACK does not converge.  Dense matrices (`dense`,
`block_dense`, `pattern_projector`, `LabeledMatrix`) stay as the test oracle
within `DENSE_SIDE_CAP`; their norm is sqrt(lambda_max) of the smaller Gram
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .errors import (
    CapacityError,
    ConsistencyError,
    InvariantViolation,
    ParameterError,
    StructuralError,
)
from .arrays import HardInstance, verify_orthogonality_property
from .indexing import ENUMERATION_CAP, check_enumerable, decode
from .lgsolver import DualWitness, dual_feasibility_margin
from .structures import (
    CertificateStructure,
    mask_members,
    minimal_profile,
)

DENSE_SIDE_CAP = 1 << 14
BASIS_FLAVORS = ("real_householder", "fourier")


@dataclass(frozen=True)
class UnitBasis:
    """An orthonormal basis of C^q whose first vector is the normalized all-ones."""

    q: int
    flavor: str
    matrix: np.ndarray  # columns are e_0 .. e_{q-1}

    def __post_init__(self):
        m = np.asarray(self.matrix)
        gram = m.conj().T @ m
        if not np.allclose(gram, np.eye(self.q), atol=1e-12):
            raise InvariantViolation("basis columns must be orthonormal to 1e-12")
        if not np.allclose(m[:, 0], np.full(self.q, 1 / math.sqrt(self.q)), atol=1e-12):
            raise InvariantViolation("e_0 must be the normalized all-ones vector")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def build_basis(q: int, flavor: str = "real_householder") -> UnitBasis:
    """Real Householder completion of the all-ones direction, or character basis."""
    if q < 2:
        raise ParameterError(f"need q >= 2, got {q}")
    if flavor == "real_householder":
        target = np.full(q, 1 / math.sqrt(q))
        v = np.zeros(q)
        v[0] = 1.0
        v -= target
        norm = np.linalg.norm(v)
        if norm < 1e-15:
            matrix = np.eye(q)
        else:
            v /= norm
            matrix = np.eye(q) - 2.0 * np.outer(v, v)
    elif flavor == "fourier":
        a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="xy")
        matrix = np.exp(2j * np.pi * a * b / q) / math.sqrt(q)
    else:
        raise ParameterError(f"flavor must be one of {BASIS_FLAVORS}, got {flavor!r}")
    return UnitBasis(q=q, flavor=flavor, matrix=matrix)


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


def difference_coefficients(witness: DualWitness | np.ndarray, j: int, n: int | None = None) -> np.ndarray:
    """Per-(subset, certificate) drop across direction j: alpha_S - alpha_{S+j}.

    Zero automatically whenever j is in S or S is a member set (members of an
    upward-closed family keep zero alpha above them).
    """
    if isinstance(witness, DualWitness):
        alpha, n = witness.alpha, witness.n
    else:
        alpha = np.asarray(witness, dtype=float)
        if n is None:
            raise ParameterError("n is required when passing a raw coefficient array")
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
    method: str  # "dense_eigen" | "arpack"


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

    Applied without a basis: block m is sum_U d_U A_U with d the Moebius
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
    n: int | None = None,
    restrict_columns: bool = True,
    verify_orthogonality: bool = True,
) -> BlockOperator:
    """Build the stacked operator for witness coefficients (or differences).

    Without an instance: the full operator on ([q]^n x certificates) x [q]^n;
    q is required.  With an instance: block rows restrict to X_M with scale
    sqrt(q^n/|X_M|), and columns restrict to Y unless restrict_columns=False.
    """
    if isinstance(witness_or_coeffs, DualWitness):
        coeffs, wit_n = witness_or_coeffs.alpha, witness_or_coeffs.n
    else:
        coeffs = np.asarray(witness_or_coeffs, dtype=float)
        wit_n = n if n is not None else (coeffs.shape[1].bit_length() - 1)
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
    if not instance.explicit:
        raise CapacityError("assembling restricted operators needs an explicit instance")
    if verify_orthogonality:
        for m in range(len(instance.cert)):
            check = verify_orthogonality_property(instance, m)
            if not check.ok:
                raise InvariantViolation(
                    f"X_M fails the uniform-projection property at certificate {m}, "
                    f"S={check.subset}, assignment={check.assignment} "
                    f"(count {check.count}, expected {check.expected})"
                )
    total = instance.input_count
    scales = [math.sqrt(total / len(instance.x_sets[m])) for m in range(len(instance.cert))]
    col_codes = instance.y_codes if restrict_columns else None
    return BlockOperator(
        coeffs, instance.q, wit_n,
        row_sets=instance.x_sets, row_scales=scales, col_codes=col_codes,
    )


def _dense_norm(a: np.ndarray) -> SpectralReport:
    """sigma_max(A) = sqrt(lambda_max) of the smaller Gram matrix, A A^H or A^H A.

    Forming the Gram matrix and eigvalsh each perturb lambda_max by a small
    multiple of eps * ||A||^2, so sigma_max keeps a relative error of order
    eps, as an SVD does (2e-15 apart on a 768 x 4096 block), at a fraction of
    the SVD's cost.  Smaller singular values lose accuracy this way; only the
    largest is returned.
    """
    if a.size == 0:
        norm = 0.0
    else:
        gram = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
        norm = math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    return SpectralReport(norm=norm, iterations=0, residual=0.0, method="dense_eigen")


def _arpack_norm(op: BlockOperator, tolerance: float) -> SpectralReport:
    """sigma_max of a block operator by ARPACK (scipy's eigsh) on its smaller Gram side.

    This is scipy's svds(k=1) with every random draw seeded.  The start vector
    is fixed pseudo-random, because a structured start such as the all-ones
    vector can be orthogonal to the top singular subspace.  ARPACK asks for a
    fresh random vector whenever the Krylov space turns invariant, which the
    symmetric blocks make common (8 to 13 times in one adversary report of
    ksubset(3,2) at q = 8 to 16), and svds draws it from an unseeded
    generator, so its results could differ from run to run.  `iterations`
    counts every application of A or A^T; `residual` is
    max(|A v - s u|, |A^T u - s v|) / s of the returned triple.  Without
    ARPACK: a zero operator or an empty side gives 0.0, and a side of length
    1 gives the norm of one application.
    """
    rows, cols = op.shape
    applications = 0
    last_input = None

    def count(apply):
        def counted(x):
            nonlocal applications
            applications += 1
            return apply(np.ravel(x))
        return counted

    # the Gram side is the smaller one: A^T A on columns or A A^T on rows
    first, second = count(op.matvec), count(op.rmatvec)
    if rows < cols:
        first, second = second, first

    def gram(x):
        nonlocal last_input
        last_input = np.ravel(x)
        return second(first(last_input))

    def triple(x):
        """sigma = |first(x)| for unit x, and the residual of (u, sigma, v) built from it."""
        x = x / np.linalg.norm(x)
        image = first(x)
        sigma = float(np.linalg.norm(image))
        misfit = float(np.linalg.norm(second(image) - sigma ** 2 * x))
        return sigma, misfit / sigma ** 2 if sigma else misfit

    side = min(rows, cols)
    if side == 0 or not op.coeffs.any():
        return SpectralReport(norm=0.0, iterations=0, residual=0.0, method="arpack")
    if side == 1:
        norm = float(np.linalg.norm(first(np.ones(1))))
        return SpectralReport(norm=norm, iterations=1, residual=0.0, method="arpack")
    linear = LinearOperator((side, side), matvec=gram, dtype=float)
    try:
        _, vectors = eigsh(linear, k=1, tol=tolerance ** 2,
                           v0=np.random.default_rng(0).standard_normal(side),
                           rng=np.random.default_rng(1))
    except (ArpackNoConvergence, ArpackError) as exc:
        used = applications
        last = math.inf if last_input is None else triple(last_input)[1]
        raise ConsistencyError(
            f"ARPACK did not converge on the {rows} x {cols} operator after "
            f"{used} applications (last residual {last:.3g}): {exc}"
        ) from exc
    norm, residual = triple(vectors[:, 0])
    return SpectralReport(norm=norm, iterations=applications, residual=residual, method="arpack")


def spectral_norm(op, tolerance: float = 1e-9) -> SpectralReport:
    """Largest singular value: dense Gram eigenvalue for arrays, ARPACK for block operators."""
    if isinstance(op, LabeledMatrix):
        op = op.matrix
    if isinstance(op, np.ndarray):
        return _dense_norm(op)
    if not isinstance(op, BlockOperator):
        raise ParameterError(f"cannot take the norm of {type(op).__name__}")
    return _arpack_norm(op, tolerance)


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


def adversary_ratio(
    instance: HardInstance,
    witness: DualWitness,
    tolerance: float = 1e-6,
    parallel: bool = False,
) -> AdversaryReport:
    """Norm of the adversary matrix against its coordinate-masked norms.

    The ratio lower-bounds the quantum query cost of the instance's function
    up to a universal constant.  Requires a feasible witness and a nonzero
    matrix.
    """
    margin = dual_feasibility_margin(instance.cert, witness)
    if margin > 1.0 + tolerance:
        raise InvariantViolation(
            f"witness is infeasible (margin {margin} > 1); normalize it first"
        )
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

    def masked_norm(j):
        return spectral_norm(hadamard_mask(op, j)).norm

    if parallel:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor() as pool:
            per_j = tuple(pool.map(masked_norm, range(1, instance.n + 1)))
    else:
        per_j = tuple(masked_norm(j) for j in range(1, instance.n + 1))
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


def bounded_norm_certificates(
    instance: HardInstance,
    witness: DualWitness,
    j: int,
    tolerance: float = 1e-6,
) -> BoundedNormReport:
    """Per-part norms certifying the bounded-generation norm chain.

    Splitting the difference coefficients along the generator partition gives
    parts of norm at most 1 each, so the column-unrestricted operator has norm
    at most k and the masked adversary-matrix norms stay below 2k.
    """
    margin = dual_feasibility_margin(instance.cert, witness)
    if margin > 1.0 + tolerance:
        raise InvariantViolation(
            f"witness is infeasible (margin {margin} > 1); normalize it first"
        )
    part = generator_partition(instance.cert)
    k = int(part.max())
    beta = difference_coefficients(witness, j)
    hat_parts = []
    for i in range(1, k + 1):
        coeffs_i = np.where(part == i, beta, 0.0)
        op_i = assemble(coeffs_i, instance, restrict_columns=False,
                        verify_orthogonality=False)
        hat_parts.append(spectral_norm(op_i).norm)
    hat_op = assemble(beta, instance, restrict_columns=False, verify_orthogonality=False)
    hat_norm = spectral_norm(hat_op).norm
    prime_op = assemble(beta, instance, restrict_columns=True, verify_orthogonality=False)
    prime_norm = spectral_norm(prime_op).norm

    gamma = assemble(witness, instance, verify_orthogonality=False)
    masked = tuple(
        spectral_norm(hadamard_mask(gamma, jj)).norm for jj in range(1, instance.n + 1)
    )
    return BoundedNormReport(
        k=k,
        hat_part_norms=tuple(hat_parts),
        hat_norm=hat_norm,
        prime_norm=prime_norm,
        masked_norms=masked,
        j=j,
    )
