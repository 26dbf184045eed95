"""Certificate structures over the subset lattice of [n], with bitmask subsets.

Variables are indexed 1..n and subsets of [n] are bitmasks (bit j-1 holds
variable j), so n is capped at 32.  Full-lattice enumerations (all 2^n
subsets, all n*2^(n-1) arcs) are additionally capped at n <= 22.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, ParameterError, StructuralError

VARIABLE_CAP = 32
LATTICE_CAP = 22
CERTIFICATE_CAP = 100_000

STRUCTURE_KINDS = ("ksubset", "triangle", "collision", "set_equality", "hidden_shift")


def as_mask(subset, n: int | None = None) -> int:
    """Coerce a Subset, bitmask int, or iterable of 1-based indices to a bitmask."""
    if isinstance(subset, Subset):
        mask = subset.mask
    elif isinstance(subset, (int, np.integer)):
        mask = int(subset)
        if mask < 0:
            raise ParameterError(f"bitmask must be non-negative, got {mask}")
    else:
        mask = 0
        for j in subset:
            j = int(j)
            if j < 1:
                raise ParameterError(f"variable indices are 1-based, got {j}")
            mask |= 1 << (j - 1)
    if n is not None and mask >> n:
        raise ParameterError(f"subset {bin(mask)} has members outside [1, {n}]")
    return mask


def mask_members(mask: int) -> tuple[int, ...]:
    """1-based indices of the set bits, ascending."""
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


@dataclass(frozen=True, order=True)
class Subset:
    """An immutable subset of [n] with bitmask semantics."""

    mask: int = 0

    def __post_init__(self):
        if self.mask < 0 or self.mask >> VARIABLE_CAP:
            raise ParameterError(f"subset mask out of range for {VARIABLE_CAP} variables")

    @classmethod
    def from_members(cls, members: Iterable[int]) -> "Subset":
        return cls(as_mask(members))

    @property
    def members(self) -> tuple[int, ...]:
        return mask_members(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, j: int) -> bool:
        return bool((self.mask >> (j - 1)) & 1)

    def union(self, j: int) -> "Subset":
        return Subset(self.mask | (1 << (j - 1)))

    def issubset(self, other: "Subset") -> bool:
        return self.mask & ~other.mask == 0

    def __repr__(self):
        return f"Subset{{{','.join(map(str, self.members))}}}"


@dataclass(frozen=True)
class Arc:
    """A lattice arc S -> S + {j}; target adds exactly one new variable."""

    source: Subset
    target: Subset

    def __post_init__(self):
        added = self.target.mask & ~self.source.mask
        if self.source.mask & ~self.target.mask or added.bit_count() != 1:
            raise StructuralError(
                f"arc target must add exactly one variable to the source "
                f"(source={self.source!r}, target={self.target!r})"
            )

    @property
    def added(self) -> int:
        """The 1-based index of the variable the arc queries."""
        return (self.target.mask & ~self.source.mask).bit_length()


@dataclass(frozen=True)
class Certificate:
    """An upward-closed family of subsets, given by its inclusion-minimal sets.

    Membership is "contains some minimal set".  Minimal sets are stored as
    bitmasks, sorted, pairwise inclusion-incomparable.
    """

    minimal_sets: tuple[int, ...]

    def __post_init__(self):
        if not self.minimal_sets:
            raise ParameterError("a certificate needs at least one minimal set")
        sets = tuple(sorted(int(m) for m in self.minimal_sets))
        if len(set(sets)) != len(sets):
            raise ParameterError("minimal sets must be distinct")
        for a, b in itertools.combinations(sets, 2):
            if a & ~b == 0 or b & ~a == 0:
                raise ParameterError(
                    f"minimal sets must be pairwise incomparable: "
                    f"{mask_members(a)} vs {mask_members(b)}"
                )
        object.__setattr__(self, "minimal_sets", sets)

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]]) -> "Certificate":
        return cls(tuple(as_mask(s) for s in sets))

    def contains(self, subset) -> bool:
        mask = as_mask(subset)
        return any(m & ~mask == 0 for m in self.minimal_sets)

    @property
    def minimal_members(self) -> tuple[tuple[int, ...], ...]:
        return tuple(mask_members(m) for m in self.minimal_sets)

    def __len__(self) -> int:
        return len(self.minimal_sets)


@dataclass(frozen=True)
class CertificateStructure:
    """A nonempty collection of certificates on n variables."""

    n: int
    certificates: tuple[Certificate, ...]
    kind: str | None = None
    params: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 1 <= self.n <= VARIABLE_CAP:
            raise ParameterError(f"n must be in [1, {VARIABLE_CAP}], got {self.n}")
        if not self.certificates:
            raise ParameterError("a certificate structure needs at least one certificate")
        object.__setattr__(self, "certificates", tuple(self.certificates))
        for c, cert in enumerate(self.certificates):
            for m in cert.minimal_sets:
                if m >> self.n:
                    raise ParameterError(
                        f"certificate {c} has minimal set {mask_members(m)} "
                        f"outside [1, {self.n}]"
                    )

    def __len__(self) -> int:
        return len(self.certificates)

    def contains(self, cert_index: int, subset) -> bool:
        return self.certificates[cert_index].contains(subset)


def contains(certificate: Certificate, subset) -> bool:
    """True iff the subset includes some minimal set of the certificate."""
    return certificate.contains(subset)


@dataclass(frozen=True)
class MinimalProfile:
    """Per-certificate minimal-set counts and the bounded-generation summary."""

    counts: tuple[int, ...]
    max_count: int
    boundedly_generated: bool
    generator_bound: int | None  # max generator size when every count is 1


def minimal_profile(cert: CertificateStructure) -> MinimalProfile:
    counts = tuple(len(c) for c in cert.certificates)
    bounded = all(k == 1 for k in counts)
    bound = None
    if bounded:
        bound = max(m.bit_count() for c in cert.certificates for m in c.minimal_sets)
    return MinimalProfile(counts, max(counts), bounded, bound)


# ---------------------------------------------------------------------------
# named builders


def check_lattice(n: int) -> None:
    """Raise CapacityError unless the full lattice of [n] may be enumerated (n <= LATTICE_CAP)."""
    if n > LATTICE_CAP:
        raise CapacityError(
            f"full-lattice enumeration needs n <= {LATTICE_CAP}, got n = {n}"
        )


def ksubset_structure(n: int, k: int) -> CertificateStructure:
    """One certificate per k-element subset A, generated by A alone."""
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > VARIABLE_CAP:
        raise CapacityError(f"builders support at most {VARIABLE_CAP} variables, got n={n}")
    if math.comb(n, k) > CERTIFICATE_CAP:
        raise CapacityError(
            f"C({n},{k}) = {math.comb(n, k)} certificates exceeds cap {CERTIFICATE_CAP}"
        )
    certs = tuple(
        Certificate((as_mask(a),))
        for a in itertools.combinations(range(1, n + 1), k)
    )
    return CertificateStructure(n, certs, kind="ksubset", params=(n, k))


@lru_cache(maxsize=None)
def triangle_edge_map(n: int) -> tuple[tuple[int, int], ...]:
    """Edge variable index map: variable i+1 is the i-th pair (u,v), u<v, lexicographic."""
    return tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))


def triangle_edge_index(n: int, u: int, v: int) -> int:
    """1-based edge variable index of the pair {u, v}."""
    if u > v:
        u, v = v, u
    if not 1 <= u < v <= n:
        raise ParameterError(f"need 1 <= u < v <= {n}, got ({u},{v})")
    # pairs (1,2)..(1,n), (2,3)..(2,n), ...
    return (u - 1) * n - (u - 1) * u // 2 + (v - u)


def triangle_structure(n: int) -> CertificateStructure:
    """Certificates are vertex triples; variables are the C(n,2) vertex pairs."""
    if n < 3:
        raise ParameterError(f"triangle structure needs n >= 3 vertices, got {n}")
    nvars = math.comb(n, 2)
    if nvars > VARIABLE_CAP:
        raise CapacityError(
            f"triangle on {n} vertices has C({n},2) = {nvars} > {VARIABLE_CAP} variables"
        )
    certs = []
    for a, b, c in itertools.combinations(range(1, n + 1), 3):
        edges = (
            triangle_edge_index(n, a, b),
            triangle_edge_index(n, a, c),
            triangle_edge_index(n, b, c),
        )
        certs.append(Certificate((as_mask(edges),)))
    return CertificateStructure(nvars, tuple(certs), kind="triangle", params=(n,))


def _matchings(elements: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All decompositions of the elements into unordered pairs, deterministic order."""
    if not elements:
        yield ()
        return
    a, rest = elements[0], elements[1:]
    for i, b in enumerate(rest):
        sub = rest[:i] + rest[i + 1:]
        for tail in _matchings(sub):
            yield ((a, b),) + tail


def _matching_certificate(pairs) -> Certificate:
    return Certificate(tuple(sorted(as_mask(p) for p in pairs)))


def collision_structure(n: int) -> CertificateStructure:
    """One certificate per perfect matching of [2n]; membership is "covers some pair"."""
    if n < 1:
        raise ParameterError(f"collision structure needs n >= 1, got {n}")
    if n > 5:
        raise CapacityError(
            f"collision structure refuses n > 5 ((2n-1)!! certificates), got n = {n}"
        )
    certs = tuple(_matching_certificate(m) for m in _matchings(tuple(range(1, 2 * n + 1))))
    return CertificateStructure(2 * n, certs, kind="collision", params=(n,))


def set_equality_structure(n: int) -> CertificateStructure:
    """Matchings pairing [n] with [n+1, 2n]: one certificate per bijection."""
    if n < 1:
        raise ParameterError(f"set-equality structure needs n >= 1, got {n}")
    if n > 5:
        raise CapacityError(
            f"set-equality structure refuses n > 5 (n! certificates), got n = {n}"
        )
    certs = []
    for perm in itertools.permutations(range(n + 1, 2 * n + 1)):
        pairs = tuple((a, perm[a - 1]) for a in range(1, n + 1))
        certs.append(_matching_certificate(pairs))
    return CertificateStructure(2 * n, tuple(certs), kind="set_equality", params=(n,))


def hidden_shift_structure(n: int) -> CertificateStructure:
    """The n cyclic-shift matchings: pairs {a, n+1+((a+d) mod n)} for d in [n]."""
    if n < 1:
        raise ParameterError(f"hidden-shift structure needs n >= 1, got {n}")
    if 2 * n > VARIABLE_CAP:
        raise CapacityError(f"hidden-shift on 2n = {2*n} > {VARIABLE_CAP} variables")
    certs = []
    for d in range(1, n + 1):
        pairs = tuple((a, n + 1 + ((a + d) % n)) for a in range(1, n + 1))
        certs.append(_matching_certificate(pairs))
    return CertificateStructure(2 * n, tuple(certs), kind="hidden_shift", params=(n,))


_BUILDERS = {
    "ksubset": ksubset_structure,
    "triangle": triangle_structure,
    "collision": collision_structure,
    "set_equality": set_equality_structure,
    "hidden_shift": hidden_shift_structure,
}


def build_named_structure(kind: str, params: Sequence[int]) -> CertificateStructure:
    """Build one of the named structures; params is the builder's integer tuple."""
    if kind not in _BUILDERS:
        raise ParameterError(f"unknown structure kind {kind!r}, expected one of {STRUCTURE_KINDS}")
    names = tuple(inspect.signature(_BUILDERS[kind]).parameters)
    if len(params) != len(names):
        raise ParameterError(f"structure kind {kind!r} takes {len(names)} parameter(s) "
                             f"({', '.join(names)}), got {len(params)}")
    return _BUILDERS[kind](*(int(p) for p in params))


# ---------------------------------------------------------------------------
# subset lattice

def subset_sizes(n: int) -> np.ndarray:
    """Popcount of every mask 0..2^n-1 as uint8."""
    check_lattice(n)
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.uint8)


@lru_cache(maxsize=8)
def _arc_offsets(n: int) -> np.ndarray:
    counts = n - subset_sizes(n).astype(np.int64)
    offsets = np.zeros(1 << n, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return offsets


def arc_count(n: int) -> int:
    return n * (1 << (n - 1))


def arc_index(n: int, source, j: int) -> int:
    """Position of the arc (source, source+{j}) in the deterministic arc order."""
    mask = as_mask(source, n)
    if not 1 <= j <= n:
        raise StructuralError(f"arc variable j = {j} outside [1, {n}]")
    if (mask >> (j - 1)) & 1:
        raise StructuralError(f"arc variable {j} already in source {mask_members(mask)}")
    below = mask & ((1 << (j - 1)) - 1)
    return int(_arc_offsets(n)[mask]) + (j - 1) - below.bit_count()


def arc_arrays(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(source_mask, added_j, target_mask) arrays in the deterministic arc order."""
    check_lattice(n)
    masks = np.arange(1 << n, dtype=np.int64)
    js = np.arange(1, n + 1, dtype=np.int64)
    free = (masks[:, None] >> (js - 1)[None, :]) & 1 == 0
    src = np.repeat(masks, free.sum(axis=1))
    jj = np.broadcast_to(js, (1 << n, n))[free]
    dst = src | (1 << (jj - 1))
    return src, jj, dst


class ArcSequence(Sequence):
    """The lattice arcs of [n] in deterministic order, generated lazily."""

    def __init__(self, n: int):
        check_lattice(n)
        self.n = n
        self._len = arc_count(n)

    def __len__(self) -> int:
        return self._len

    def _arc_at(self, mask: int, rank: int) -> Arc:
        free = [j for j in range(1, self.n + 1) if not (mask >> (j - 1)) & 1]
        j = free[rank]
        return Arc(Subset(mask), Subset(mask | (1 << (j - 1))))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(self._len))]
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(i)
        offsets = _arc_offsets(self.n)
        mask = int(np.searchsorted(offsets, i, side="right")) - 1
        return self._arc_at(mask, i - int(offsets[mask]))

    def __iter__(self) -> Iterator[Arc]:
        for mask in range(1 << self.n):
            for j in range(1, self.n + 1):
                if not (mask >> (j - 1)) & 1:
                    yield Arc(Subset(mask), Subset(mask | (1 << (j - 1))))


def lattice_arcs(n: int) -> ArcSequence:
    """All arcs (S, S+{j}), ordered by source bitmask then j.  Count n*2^(n-1)."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    return ArcSequence(n)


@lru_cache(maxsize=6)
def _membership_cached(cert: CertificateStructure) -> np.ndarray:
    masks = np.arange(1 << cert.n, dtype=np.int64)
    table = np.zeros((len(cert), 1 << cert.n), dtype=bool)
    for c, certificate in enumerate(cert.certificates):
        for m in certificate.minimal_sets:
            table[c] |= masks & m == m
    table.setflags(write=False)
    return table


def membership_table(cert: CertificateStructure) -> np.ndarray:
    """Boolean table [certificate, mask] of lattice membership; read-only view."""
    check_lattice(cert.n)
    return _membership_cached(cert)


def is_upward_closed(member_row: np.ndarray, n: int) -> bool:
    """Exhaustive check that a boolean membership row is closed under supersets."""
    masks = np.arange(1 << n)
    for j in range(n):
        lower = masks[(masks >> j) & 1 == 0]
        if np.any(member_row[lower] & ~member_row[lower | (1 << j)]):
            return False
    return True


# ---------------------------------------------------------------------------
# serialization

def structure_to_dict(cert: CertificateStructure) -> dict:
    return {
        "kind": cert.kind,
        "params": list(cert.params) if cert.params is not None else None,
        "n": cert.n,
        "certificates": [
            {"minimal_sets": [list(mask_members(m)) for m in c.minimal_sets]}
            for c in cert.certificates
        ],
    }


def structure_to_json(cert: CertificateStructure) -> str:
    return json.dumps(structure_to_dict(cert), indent=2)


def structure_from_dict(doc: dict) -> CertificateStructure:
    certs = tuple(
        Certificate.from_sets(entry["minimal_sets"]) for entry in doc["certificates"]
    )
    params = tuple(doc["params"]) if doc.get("params") is not None else None
    return CertificateStructure(int(doc["n"]), certs, kind=doc.get("kind"), params=params)


def structure_from_json(text: str) -> CertificateStructure:
    return structure_from_dict(json.loads(text))
