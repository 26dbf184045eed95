"""Adversary-matrix pipeline: projector algebra, block operators, spectral norms.

A witness with coefficients alpha_S(M) turns into a stacked operator with one
q^n x q^n block per certificate, each block sum_S alpha_S(M) E_S, where E_S is
the tensor projector with the all-ones-direction projector E_0 on coordinates
outside S and its complement E_1 on S.  Restricting block rows to the positive
set X_M (scaled by sqrt(q^n/|X_M|)) and columns to the negative set Y yields an
adversary matrix whose spectral norm, against the norms of its coordinate-
masked versions, certifies a query lower bound.

Within the dense cap a block is gathered entry by entry: E_S[x, y] depends
only on which coordinates of x and y agree, E_S[x, y] = prod_{j in S}
([x_j = y_j] - 1/q) * q^-(n-|S|), so each block is a table over the 2^n
equality patterns indexed by the pattern of every (row, column) pair.  It is
real and independent of the basis flavor.  A dense norm is sigma_max =
sqrt(lambda_max) of the smaller Gram matrix, accurate to order eps relative
like an SVD.  Above the cap the implicit operators apply the blocks in the
unit basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .errors import (
    CapacityError,
    InvariantViolation,
    ParameterError,
    StructuralError,
)
from .arrays import HardInstance, verify_orthogonality_property
from .indexing import decode
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


@lru_cache(maxsize=16)
def _unit_basis(q: int, flavor: str) -> np.ndarray:
    """The read-only basis matrix of build_basis, built and checked once per (q, flavor)."""
    return build_basis(q, flavor).matrix


def _pattern_table(coeffs: np.ndarray, q: int, n: int) -> np.ndarray:
    """g[e] = sum_S coeffs[S] E_S[x, y] for any x, y whose equality bitmask is e.

    E_S[x, y] = prod_{j in S} ([x_j = y_j] - 1/q) * q^-(n-|S|): per coordinate
    the entry is E_1's if j is in S, E_0's otherwise, and both depend only on
    whether the digits agree.  So g is coeffs under the n-fold tensor power of
    f[b, s] (b the equality bit, s the membership bit), applied one axis at a
    time in O(n 2^n).  f is the same on every axis, so the axis order is moot.
    """
    f = np.array([[1.0 / q, -1.0 / q],
                  [1.0 / q, 1.0 - 1.0 / q]])
    t = coeffs.reshape((2,) * n)
    for axis in range(n):
        t = np.moveaxis(np.tensordot(f, t, axes=(1, axis)), 0, axis)
    return t.reshape(-1)


def _equality_masks(row_codes: np.ndarray, col_codes: np.ndarray, q: int, n: int) -> np.ndarray:
    """e[r, c] with bit j-1 set where row and column codes agree in variable j."""
    rows, cols = decode(row_codes, q, n), decode(col_codes, q, n)
    masks = np.zeros((len(rows), len(cols)), dtype=np.min_scalar_type((1 << n) - 1))
    for j in range(n):  # decode column j is variable j + 1, i.e. bit j
        masks |= (rows[:, j, None] == cols[None, :, j]).astype(masks.dtype) << j
    return masks


@lru_cache(maxsize=16)
def _eigen_subset_masks(q: int, n: int) -> np.ndarray:
    """For each eigen index v in [q]^n, the bitmask of coordinates with v_j != 0."""
    digits = decode(np.arange(q ** n), q, n)
    bits = (digits != 0).astype(np.int64)
    masks = np.zeros(q ** n, dtype=np.int64)
    for j in range(n):
        masks |= bits[:, j] << j
    masks.setflags(write=False)
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
    method: str  # "dense_eigen" | "power_iteration"


def _power_run(matvec, rmatvec, start: np.ndarray, tolerance: float, max_iterations: int):
    v = start / np.linalg.norm(start)
    sigma = 0.0
    stable = 0
    for it in range(1, max_iterations + 1):
        av = matvec(v)
        new_sigma = float(np.linalg.norm(av))
        if new_sigma == 0.0:
            return 0.0, it, 0.0
        w = rmatvec(av)
        wnorm = float(np.linalg.norm(w))
        if wnorm == 0.0:
            return new_sigma, it, abs(new_sigma - sigma)
        v = w / wnorm
        change = abs(new_sigma - sigma)
        sigma = new_sigma
        # demand sustained stability: a single tiny increment can just be slow
        # convergence towards a different singular value
        stable = stable + 1 if change <= tolerance * max(new_sigma, 1.0) else 0
        if stable >= 3 and it >= 10:
            return sigma, it, change
    return sigma, max_iterations, math.inf


def _power_iteration(matvec, rmatvec, num_cols: int, tolerance: float, max_iterations: int = 5000):
    """Largest singular value from two deterministic starts.

    The all-ones start alone is blind to top singular subspaces that are
    orthogonal to it (masked operators routinely have mean-zero singular
    vectors), so a fixed oscillating start is run as well and the larger
    estimate wins.
    """
    ones = np.ones(num_cols)
    ramp = np.sin(np.arange(1, num_cols + 1, dtype=float)) + 0.5
    best = (0.0, 0, 0.0)
    total_iterations = 0
    for start in (ones, ramp):
        norm, used, residual = _power_run(matvec, rmatvec, start, tolerance,
                                          max_iterations)
        total_iterations += used
        if norm > best[0]:
            best = (norm, used, residual)
    return best[0], total_iterations, best[2]


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
    """

    def __init__(self, coeffs: np.ndarray, q: int, n: int,
                 flavor: str = "real_householder",
                 row_sets: Sequence[np.ndarray] | None = None,
                 row_scales: Sequence[float] | None = None,
                 col_codes: np.ndarray | None = None):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] != (1 << n):
            raise StructuralError(f"coefficients must have shape (certificates, {1 << n})")
        self.coeffs = coeffs
        self.q = q
        self.n = n
        self.flavor = flavor
        self.row_sets = None if row_sets is None else [np.asarray(r, dtype=np.int64) for r in row_sets]
        self.row_scales = None if row_scales is None else [float(s) for s in row_scales]
        self.col_codes = (np.arange(q ** n, dtype=np.int64) if col_codes is None
                          else np.asarray(col_codes, dtype=np.int64))
        self._columns_restricted = col_codes is not None

    @property
    def num_certificates(self) -> int:
        return self.coeffs.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        if self.row_sets is None:
            rows = self.num_certificates * self.q ** self.n
        else:
            rows = sum(len(r) for r in self.row_sets)
        return rows, len(self.col_codes)

    def row_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated (input code, certificate index) labels in block order."""
        if self.row_sets is None:
            per = self.q ** self.n
            codes = np.tile(np.arange(per, dtype=np.int64), self.num_certificates)
            certs = np.repeat(np.arange(self.num_certificates), per)
        else:
            codes = np.concatenate(self.row_sets) if self.row_sets else np.empty(0, np.int64)
            certs = np.concatenate([
                np.full(len(r), m, dtype=np.int64) for m, r in enumerate(self.row_sets)
            ])
        return codes, certs

    def _eigenvalues(self, m: int) -> np.ndarray:
        return self.coeffs[m, _eigen_subset_masks(self.q, self.n)]

    def block_dense(self, m: int) -> np.ndarray:
        """Block m restricted to its rows and columns, as a real array.

        Gathered from the equality-pattern table: entry (x, y) is
        g_m[e(x, y)] times the row scale, where e(x, y) is the bitmask of
        coordinates on which x and y agree.  The cost is O(n |rows| |cols|)
        with no q^n x q^n intermediate, and the block is the same for every
        basis flavor.
        """
        side = self.q ** self.n
        if side > DENSE_SIDE_CAP:
            raise CapacityError(f"dense block needs q^n <= {DENSE_SIDE_CAP}, got {side}")
        table = _pattern_table(self.coeffs[m], self.q, self.n)
        if self.row_sets is None:
            rows, scale = np.arange(side, dtype=np.int64), 1.0
        else:
            rows, scale = self.row_sets[m], self.row_scales[m]
        return table[_equality_masks(rows, self.col_codes, self.q, self.n)] * scale

    def dense(self) -> np.ndarray:
        return np.vstack([self.block_dense(m) for m in range(self.num_certificates)])

    def labeled(self) -> LabeledMatrix:
        codes, _ = self.row_labels()
        return LabeledMatrix(self.dense(), self.q, self.n, codes, self.col_codes.copy())

    # implicit application, used above the dense cap
    def _apply_full(self, vec: np.ndarray, m: int) -> np.ndarray:
        u = _unit_basis(self.q, self.flavor)
        shape = (self.q,) * self.n
        t = vec.reshape(shape)
        for axis in range(self.n):
            t = np.moveaxis(np.tensordot(u.conj().T, t, axes=(1, axis)), 0, axis)
        t = (t.reshape(-1) * self._eigenvalues(m)).reshape(shape)
        for axis in range(self.n):
            t = np.moveaxis(np.tensordot(u, t, axes=(1, axis)), 0, axis)
        return t.reshape(-1)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        full = np.zeros(self.q ** self.n, dtype=complex if self.flavor == "fourier" else float)
        full[self.col_codes] = v
        out = []
        for m in range(self.num_certificates):
            img = self._apply_full(full, m)
            if self.row_sets is not None:
                img = img[self.row_sets[m]] * self.row_scales[m]
            out.append(img)
        return np.concatenate(out)

    def rmatvec(self, u_vec: np.ndarray) -> np.ndarray:
        acc = np.zeros(self.q ** self.n, dtype=complex if self.flavor == "fourier" else float)
        offset = 0
        for m in range(self.num_certificates):
            rows = (self.q ** self.n if self.row_sets is None else len(self.row_sets[m]))
            seg = u_vec[offset:offset + rows]
            offset += rows
            full = np.zeros_like(acc)
            if self.row_sets is None:
                full[:] = seg
            else:
                full[self.row_sets[m]] = seg * self.row_scales[m]
            acc += self._apply_full(full.conj(), m).conj()
        return acc[self.col_codes]


def assemble(
    witness_or_coeffs,
    instance: HardInstance | None = None,
    *,
    q: int | None = None,
    n: int | None = None,
    flavor: str = "real_householder",
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
        return BlockOperator(coeffs, q, wit_n, flavor=flavor)

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
        coeffs, instance.q, wit_n, flavor=flavor,
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


def spectral_norm(op, tolerance: float = 1e-9) -> SpectralReport:
    """Largest singular value: dense Gram eigenvalue when small, else power iteration."""
    if isinstance(op, LabeledMatrix):
        op = op.matrix
    if isinstance(op, np.ndarray):
        return _dense_norm(op)
    if isinstance(op, MaskedOperator):
        norm, iterations, residual = _power_iteration(
            op.matvec, op.rmatvec, op.shape[1], tolerance
        )
        return SpectralReport(norm=norm, iterations=iterations, residual=residual,
                              method="power_iteration")
    if not isinstance(op, BlockOperator):
        raise ParameterError(f"cannot take the norm of {type(op).__name__}")
    rows, cols = op.shape
    if max(rows, cols) <= DENSE_SIDE_CAP and op.q ** op.n <= DENSE_SIDE_CAP:
        return _dense_norm(op.dense())
    norm, iterations, residual = _power_iteration(op.matvec, op.rmatvec, cols, tolerance)
    # an infinite residual flags non-convergence; the best estimate is still returned
    return SpectralReport(norm=norm, iterations=iterations, residual=residual,
                          method="power_iteration")


class MaskedOperator:
    """Implicit entrywise mask A - sum_c P_{x_j=c} A P_{y_j=c}, matvec only.

    Used above the dense cap: each application costs q+1 applications of the
    underlying operator.
    """

    def __init__(self, op: BlockOperator, j: int):
        if not 1 <= j <= op.n:
            raise ParameterError(f"j must be in [1, {op.n}], got {j}")
        self.op = op
        self.j = j
        row_codes, _ = op.row_labels()
        scale = op.q ** (op.n - j)
        self.row_digit = (row_codes // scale) % op.q
        self.col_digit = (op.col_codes // scale) % op.q

    @property
    def shape(self) -> tuple[int, int]:
        return self.op.shape

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.op.matvec(v)
        for c in range(self.op.q):
            vc = np.where(self.col_digit == c, v, 0)
            out = out - np.where(self.row_digit == c, self.op.matvec(vc), 0)
        return out

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        out = self.op.rmatvec(u)
        for c in range(self.op.q):
            uc = np.where(self.row_digit == c, u, 0)
            out = out - np.where(self.col_digit == c, self.op.rmatvec(uc), 0)
        return out


def hadamard_mask(op, j: int):
    """Entrywise product with the indicator of rows and columns differing at j.

    Dense inputs (or block operators within the dense cap) give a
    LabeledMatrix; larger block operators give an implicit MaskedOperator.
    """
    if isinstance(op, BlockOperator):
        rows, cols = op.shape
        if max(rows, cols) <= DENSE_SIDE_CAP and op.q ** op.n <= DENSE_SIDE_CAP:
            op = op.labeled()
        else:
            return MaskedOperator(op, j)
    if not isinstance(op, LabeledMatrix):
        raise ParameterError(f"cannot mask a {type(op).__name__}")
    lm = op
    if not 1 <= j <= lm.n:
        raise ParameterError(f"j must be in [1, {lm.n}], got {j}")
    row_d = lm.digit(lm.row_codes, j)
    col_d = lm.digit(lm.col_codes, j)
    mask = row_d[:, None] != col_d[None, :]
    return LabeledMatrix(lm.matrix * mask, lm.q, lm.n, lm.row_codes, lm.col_codes)


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
    lm = op.labeled()
    if not np.any(lm.matrix):
        raise InvariantViolation("adversary matrix is zero; the witness gives no signal")
    gamma_norm = spectral_norm(lm).norm

    alpha0 = witness.alpha[:, 0]
    obj2 = float(np.sum(alpha0 ** 2))
    sizes = np.array([len(instance.x_sets[m]) for m in range(len(instance.cert))], dtype=float)
    u_blocks = [
        np.full(int(sizes[m]), alpha0[m] / math.sqrt(sizes[m] * obj2))
        for m in range(len(instance.cert))
    ]
    u = np.concatenate(u_blocks)
    v = np.full(lm.matrix.shape[1], 1.0 / math.sqrt(lm.matrix.shape[1]))
    identity = float(u @ lm.matrix @ v)
    predicted = math.sqrt(instance.y_size() / instance.input_count * obj2)

    def masked_norm(j):
        return spectral_norm(hadamard_mask(lm, j)).norm

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

    gamma = assemble(witness, instance, verify_orthogonality=False).labeled()
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
