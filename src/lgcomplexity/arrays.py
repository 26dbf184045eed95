"""Orthogonal arrays and the hard input instances they generate.

An orthogonal array here always has strength k-1: fixing any k-1 of the k
coordinates leaves exactly |T|/q^(k-1) completions inside T.  A hard instance
attaches one array per (certificate, minimal set); the positive set X_M
collects inputs whose projections hit every array of M, and the negative set Y
collects inputs that avoid every array of every certificate.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, ParameterError, StructuralError
from .indexing import all_inputs, check_enumerable, decode, encode
from .structures import (
    CertificateStructure,
    mask_members,
    membership_table,
    minimal_profile,
    structure_to_dict,
)

_VERIFY_CAP = 1 << 20


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class OrthogonalArray:
    """A subset of [q]^k stored as sorted rows."""

    q: int
    k: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not (_is_int(self.q) and _is_int(self.k)):
            raise ParameterError(f"q and k must be integers, got q={self.q!r}, k={self.k!r}")
        if self.q < 2 or self.k < 1:
            raise ParameterError(f"need q >= 2 and k >= 1, got q={self.q}, k={self.k}")
        if not isinstance(self.rows, (list, tuple)) or any(
            not isinstance(row, (list, tuple)) for row in self.rows
        ):
            raise ParameterError(f"rows must be a list of rows, got {self.rows!r}")
        for row in self.rows:
            for v in row:
                if not (_is_int(v) or isinstance(v, float) and v.is_integer()):
                    raise ParameterError(f"row {list(row)} has a non-integer entry {v!r}")
        rows = tuple(sorted(tuple(int(v) for v in row) for row in self.rows))
        if not rows:
            raise ParameterError("an orthogonal array needs at least one row")
        for row in rows:
            if len(row) != self.k:
                raise StructuralError(f"row {row} does not have length {self.k}")
            if any(not 0 <= v < self.q for v in row):
                raise StructuralError(f"row {row} has entries outside [0, {self.q})")
        if len(set(rows)) != len(rows):
            raise StructuralError("rows must be distinct")
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)

    def row_codes(self) -> np.ndarray:
        return np.sort(encode(np.array(self.rows, dtype=np.int64), self.q))


def sum_array(q: int, k: int) -> OrthogonalArray:
    """All rows of [q]^k whose entries sum to 0 mod q; size q^(k-1)."""
    if q < 2 or k < 1:
        raise ParameterError(f"need q >= 2 and k >= 1, got q={q}, k={k}")
    check_enumerable(q, k)
    prefix = all_inputs(q, k - 1) if k > 1 else np.zeros((1, 0), dtype=np.int64)
    last = (-prefix.sum(axis=1)) % q
    rows = np.concatenate([prefix, last[:, None]], axis=1)
    return OrthogonalArray(q, k, tuple(map(tuple, rows.tolist())))


@dataclass(frozen=True)
class OACounterexample:
    coordinate: int              # 1-based coordinate being completed
    partial: tuple[int, ...]     # values of the other k-1 coordinates, in order
    count: int
    expected: float


@dataclass(frozen=True)
class OAVerification:
    ok: bool
    completions: float           # |T| / q^(k-1)
    counterexample: OACounterexample | None = None
    note: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _first_nonuniform(digits: np.ndarray, q: int, column_sets: Sequence[list[int]]):
    """The first column set onto which the digit rows do not project uniformly.

    Returns (position in column_sets, assignment, count, expected) for the
    first set, and within it the lowest-coded assignment, whose count differs
    from len(digits) / q^|columns|; None when every projection is uniform.
    """
    for index, columns in enumerate(column_sets):
        buckets = q ** len(columns)
        expected = len(digits) / buckets
        counts = np.bincount(encode(digits[:, columns], q), minlength=buckets)
        bad = np.flatnonzero(counts != expected)
        if bad.size:
            code = int(bad[0])
            assignment = tuple(decode([code], q, len(columns))[0].tolist())
            return index, assignment, int(counts[code]), expected
    return None


def verify_orthogonal_array(array: OrthogonalArray) -> OAVerification:
    """Check the strength-(k-1) property; on failure return the first offender.

    Scans completion coordinates ascending and partial assignments in
    lexicographic order, so the counterexample is deterministic.
    """
    q, k = array.q, array.k
    denom = q ** (k - 1)
    if denom > _VERIFY_CAP:
        raise CapacityError(f"verification needs q^(k-1) <= {_VERIFY_CAP}, got {denom}")
    expected = len(array) / denom
    note = None
    if len(array) % denom != 0:
        note = (
            f"size {len(array)} is not divisible by q^(k-1) = {denom}; "
            "no uniform completion count exists"
        )
    rows = np.array(array.rows, dtype=np.int64)
    offender = _first_nonuniform(rows, q, [[j for j in range(k) if j != i] for i in range(k)])
    if offender is None:
        return OAVerification(ok=True, completions=expected, note=note)
    i, partial, count, _ = offender
    return OAVerification(
        ok=False,
        completions=expected,
        counterexample=OACounterexample(i + 1, partial, count, expected),
        note=note,
    )


# ---------------------------------------------------------------------------
# hard instances


def _read_only(codes) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.int64)
    codes.setflags(write=False)
    return codes


class FValue(enum.Enum):
    ONE = "one"
    ZERO = "zero"
    OUTSIDE_PROMISE = "outside_promise"


@dataclass(frozen=True)
class HardInstance:
    """Positive sets X_M, negative set Y, and the arrays that carved them.

    Inputs are identified by their big-endian mixed-radix codes, and X_M and Y
    list theirs strictly ascending, so membership is a binary search.  Both
    sets are always listed, so an instance exists only for q^n within the
    enumeration cap; the builders refuse anything larger before building it.
    """

    cert: CertificateStructure
    q: int
    arrays: tuple[tuple[OrthogonalArray, ...], ...]
    x_sets: tuple[np.ndarray, ...]
    y_codes: np.ndarray

    def __post_init__(self):
        if len(self.arrays) != len(self.cert):
            raise StructuralError("need one array tuple per certificate")
        for m, certificate in enumerate(self.cert.certificates):
            if len(self.arrays[m]) != len(certificate.minimal_sets):
                raise StructuralError(
                    f"certificate {m} has {len(certificate.minimal_sets)} minimal sets "
                    f"but {len(self.arrays[m])} arrays"
                )
            for mask, array in zip(certificate.minimal_sets, self.arrays[m]):
                if array.q != self.q:
                    raise StructuralError(f"array alphabet {array.q} != instance q {self.q}")
                if array.k != mask.bit_count():
                    raise StructuralError(
                        f"array length {array.k} != generator size {mask.bit_count()}"
                    )
        object.__setattr__(self, "x_sets", tuple(_read_only(xs) for xs in self.x_sets))
        object.__setattr__(self, "y_codes", _read_only(self.y_codes))
        for codes in (*self.x_sets, self.y_codes):
            if np.any(codes[1:] <= codes[:-1]):
                raise StructuralError("X_M and Y must list their input codes strictly ascending")

    @property
    def n(self) -> int:
        return self.cert.n

    @property
    def input_count(self) -> int:
        return self.q ** self.n

    def x_size(self, m: int) -> int:
        return len(self.x_sets[m])

    def y_size(self) -> int:
        return len(self.y_codes)

    def _code(self, x: Sequence[int]) -> int:
        """The code of an input of length n over [0, q); StructuralError otherwise."""
        digits = np.asarray(x, dtype=np.int64)
        if digits.shape != (self.n,):
            raise StructuralError(f"input must have length {self.n}")
        if np.any(digits < 0) or np.any(digits >= self.q):
            raise StructuralError(f"input entries must lie in [0, {self.q})")
        return int(encode(digits, self.q))

    def instance_hash(self) -> str:
        doc = {
            "structure": structure_to_dict(self.cert),
            "q": self.q,
            "arrays": [[list(map(list, a.rows)) for a in per_cert] for per_cert in self.arrays],
        }
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    def to_summary_dict(self, row_elision: int = 4096) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "cert": structure_to_dict(self.cert),
            "x_sizes": [self.x_size(m) for m in range(len(self.cert))],
            "y_size": self.y_size(),
            "arrays": [
                [
                    {"q": a.q, "k": a.k, "size": len(a),
                     "rows": [list(r) for r in a.rows] if len(a) <= row_elision else None}
                    for a in per_cert
                ]
                for per_cert in self.arrays
            ],
        }


def build_instance(
    cert: CertificateStructure,
    q: int,
    arrays: Sequence[Sequence[OrthogonalArray]],
) -> HardInstance:
    """Assemble an instance from explicit per-(certificate, minimal set) arrays.

    No bounded-generation hypothesis: X_M is the intersection over the
    certificate's arrays and Y collects the inputs avoiding every array.
    Requires q^n enumerable.
    """
    arrays = tuple(tuple(per) for per in arrays)
    digits = all_inputs(q, cert.n)
    x_sets = []
    avoid_all = np.ones(len(digits), dtype=bool)
    for m, certificate in enumerate(cert.certificates):
        hit_all = np.ones(len(digits), dtype=bool)
        for gen_mask, array in zip(certificate.minimal_sets, arrays[m]):
            members = [j - 1 for j in mask_members(gen_mask)]
            hit = np.isin(encode(digits[:, members], q), array.row_codes())
            hit_all &= hit
            avoid_all &= ~hit
        x_sets.append(np.flatnonzero(hit_all).astype(np.int64))
    y = np.flatnonzero(avoid_all).astype(np.int64)
    return HardInstance(cert=cert, q=q, arrays=arrays, x_sets=tuple(x_sets), y_codes=y)


def build_bounded_instance(
    cert: CertificateStructure,
    q: int,
    arrays: Sequence[OrthogonalArray] | None = None,
) -> HardInstance:
    """Instance for a boundedly generated structure; arrays default to sum arrays.

    Requires a single generator per certificate, alphabet q >= 2|C|, q^n
    enumerable, and each array of size q^(|A_M|-1).  Every |X_M| is then
    q^(n-1) and |Y| >= q^n/2.
    """
    profile = minimal_profile(cert)
    if not profile.boundedly_generated:
        raise StructuralError(
            "structure is not boundedly generated (some certificate has several "
            f"minimal sets: counts {profile.counts})"
        )
    if q < 2 * len(cert):
        raise ParameterError(
            f"alphabet too small: need q >= 2 * |C| = {2 * len(cert)}, got q = {q}"
        )
    check_enumerable(q, cert.n)
    generators = [c.minimal_sets[0] for c in cert.certificates]
    if arrays is None:
        arrays = [sum_array(q, g.bit_count()) for g in generators]
    arrays = list(arrays)
    if len(arrays) != len(cert):
        raise StructuralError(f"need one array per certificate, got {len(arrays)}")
    for g, array in zip(generators, arrays):
        k = g.bit_count()
        if array.k != k or array.q != q:
            raise StructuralError(
                f"array (q={array.q}, k={array.k}) does not fit generator "
                f"{mask_members(g)} over alphabet {q}"
            )
        if len(array) != q ** (k - 1):
            raise ParameterError(
                f"array size {len(array)} != q^(k-1) = {q ** (k - 1)}"
            )
        check = verify_orthogonal_array(array)
        if not check.ok:
            raise StructuralError(f"array fails the strength property: {check.counterexample}")
    return build_instance(cert, q, tuple((a,) for a in arrays))


@dataclass(frozen=True)
class OrthogonalityCheck:
    ok: bool
    subset: tuple[int, ...] | None = None   # members of the violating S
    assignment: tuple[int, ...] | None = None
    count: int | None = None
    expected: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_orthogonality_property(instance: HardInstance, m: int) -> OrthogonalityCheck:
    """Check that X_M projects uniformly onto every subset S outside M.

    For every S not in M and every assignment z in [q]^S the number of x in
    X_M with x_S = z must be |X_M| / q^|S|.  Scans subsets by ascending mask
    and assignments by ascending code; returns the first violation.
    """
    n, q = instance.n, instance.q
    outside = np.flatnonzero(~membership_table(instance.cert)[m]).tolist()
    offender = _first_nonuniform(
        decode(instance.x_sets[m], q, n), q,
        [[j - 1 for j in mask_members(mask)] for mask in outside],
    )
    if offender is None:
        return OrthogonalityCheck(ok=True)
    index, assignment, count, expected = offender
    return OrthogonalityCheck(
        ok=False,
        subset=mask_members(outside[index]),
        assignment=assignment,
        count=count,
        expected=expected,
    )


@dataclass(frozen=True)
class BoundedInstanceClaims:
    """A bounded instance's two claims: every X_M projects uniformly outside its
    certificate, and the negative set keeps |Y| >= q^n/2 of the inputs."""

    orthogonality: tuple[OrthogonalityCheck, ...]   # one per certificate
    y_size: int
    y_bound: float

    @property
    def orthogonal(self) -> bool:
        return all(check.ok for check in self.orthogonality)

    @property
    def y_bounded(self) -> bool:
        return self.y_size >= self.y_bound

    @property
    def ok(self) -> bool:
        return self.orthogonal and self.y_bounded


def bounded_instance_claims(instance: HardInstance) -> BoundedInstanceClaims:
    """Check both claims of a bounded instance."""
    return BoundedInstanceClaims(
        orthogonality=tuple(verify_orthogonality_property(instance, m)
                            for m in range(len(instance.cert))),
        y_size=instance.y_size(),
        y_bound=instance.input_count / 2,
    )


def _listed(sorted_codes: np.ndarray, code: int) -> bool:
    i = int(np.searchsorted(sorted_codes, code))
    return i < len(sorted_codes) and int(sorted_codes[i]) == code


def evaluate_f(instance: HardInstance, x) -> FValue:
    """Classify an input: ONE in some X_M, ZERO in Y, otherwise outside the promise."""
    code = instance._code(x)
    if any(_listed(xs, code) for xs in instance.x_sets):
        return FValue.ONE
    if _listed(instance.y_codes, code):
        return FValue.ZERO
    return FValue.OUTSIDE_PROMISE
