"""Certificate structures over the subset lattice of [n], with bitmask subsets.

Variables are indexed 1..n and subsets of [n] are bitmasks (bit j-1 holds
variable j), so n is capped at 32.  An arc S -> S+{j} is the pair
(source mask, j), or its position (j-1) 2^(n-1) + (S with bit j-1 removed)
(arc_index; arc_position is the same closed form on arrays); the lattice has no
other encoding.  Arcs are direction-major: an array over arcs reshapes without
a copy to (n, 2^(n-1)), row j-1 holding direction j's arcs in source order, and
those arcs' sources and targets are the [..., 0, :] and [..., 1, :] halves of an
array over subsets reshaped to (..., 2, 2^(j-1)).  Full-lattice enumerations
(all 2^n subsets, all n*2^(n-1) arcs) are additionally capped at n <= 22.

Each named kind declares generators of a symmetry group, variable
permutations derived from its kind and params (_SYMMETRIES, next to the
builders): S_n for ksubset, S_2n for collision, S_v acting on the edge
variables for triangle(v), S_n x S_n for set_equality and the cyclic shift of
each side for hidden_shift.  This module alone decides symmetry:
structure_symmetry checks the generators against the certificate set before
any use and gives each one's certificate permutation and the certificate
orbits; a structure of no named kind has the trivial group.  permute_masks,
subset_orbits, arc_orbits and variable_orbits carry a group to the
lattice's subsets, its arcs and the variables, and stabilizer_generators
gives the subgroup fixing one representative certificate.  The primal
solver's per-orbit solve on its stabilizer quotient and the adversary's
per-orbit masked norms both read them.
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
    """Coerce a bitmask int or an iterable of 1-based indices to a bitmask."""
    if isinstance(subset, (int, np.integer)):
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


def _symmetric_group(points: int) -> list[list[int]]:
    """A transposition and a cycle of range(points), which generate its symmetric group."""
    if points < 2:
        return []
    swap = [1, 0, *range(2, points)]
    cycle = [(i + 1) % points for i in range(points)]
    return [swap, cycle] if points > 2 else [swap]


def _triangle_symmetries(n: int) -> list[list[int]]:
    """S_n on the vertices, acting on the edge variables."""
    edges = triangle_edge_map(n)
    return [[triangle_edge_index(n, g[u - 1] + 1, g[v - 1] + 1) - 1 for u, v in edges]
            for g in _symmetric_group(n)]


def _two_sided(left: list[list[int]], right: list[list[int]], n: int) -> list[list[int]]:
    """Permutations of [n] on the variables 1..n, and of [n] on n+1..2n."""
    return ([g + list(range(n, 2 * n)) for g in left]
            + [list(range(n)) + [n + i for i in g] for g in right])


def _hidden_shift_symmetries(n: int) -> list[list[int]]:
    """The cyclic shift of each side."""
    shift = [[(i + 1) % n for i in range(n)]] if n > 1 else []
    return _two_sided(shift, shift, n)


# variable permutations generating a symmetry group of each named structure; entry i of a
# generator is the 0-based image of variable i + 1.  structure_symmetry checks them before use.
_SYMMETRIES = {
    "ksubset": lambda n, k: _symmetric_group(n),
    "triangle": _triangle_symmetries,
    "collision": lambda n: _symmetric_group(2 * n),
    "set_equality": lambda n: _two_sided(_symmetric_group(n), _symmetric_group(n), n),
    "hidden_shift": _hidden_shift_symmetries,
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


@dataclass(frozen=True, eq=False)
class Symmetry:
    """Checked variable permutations of a structure and the certificate orbits they generate.

    generators is empty for the trivial group; g[i] is the 0-based image of
    variable i + 1.  images[i, m] is the index of the certificate that
    generator i maps certificate m onto, so row i is the generator's
    certificate permutation sigma.  representative[m] is the least
    certificate index in certificate m's orbit, and carry[m] a group element
    mapping the representative's certificate onto certificate m.
    """

    generators: tuple[tuple[int, ...], ...]
    images: np.ndarray
    representative: np.ndarray
    carry: np.ndarray

    @property
    def orbit_count(self) -> int:
        # each orbit's least certificate is its own representative (np.unique would load numpy.ma)
        return int(np.count_nonzero(self.representative == np.arange(len(self.representative))))


def _permute_mask(mask: int, g: Sequence[int]) -> int:
    image = 0
    for j in mask_members(mask):
        image |= 1 << g[j - 1]
    return image


def structure_symmetry(cert: CertificateStructure) -> Symmetry:
    """The named kind's generators, checked against the certificate set, and their orbits.

    A structure of no named kind has the trivial group.  Raises StructuralError
    unless every generator permutes the n variables and maps the set of
    certificates, which must be distinct, onto itself.
    """
    n, count = cert.n, len(cert)
    generators = ()
    derive = _SYMMETRIES.get(cert.kind)
    if derive is not None:
        arity = len(inspect.signature(_BUILDERS[cert.kind]).parameters)
        if cert.params is None or len(cert.params) != arity:
            raise StructuralError(f"{cert.kind} structure has parameters {cert.params}, "
                                  f"expected {arity}")
        generators = tuple(tuple(g) for g in derive(*cert.params))
    index = {c.minimal_sets: m for m, c in enumerate(cert.certificates)}
    if generators and len(index) != count:
        raise StructuralError(f"{cert.kind} structure repeats a certificate")
    images = []
    for g in generators:
        if sorted(g) != list(range(n)):
            raise StructuralError(f"{cert.kind} symmetry {g} does not permute the {n} variables")
        image = []
        for m, c in enumerate(cert.certificates):
            key = tuple(sorted(_permute_mask(s, g) for s in c.minimal_sets))
            if key not in index:
                raise StructuralError(f"{cert.kind} symmetry {g} maps certificate {m} "
                                      f"outside the structure")
            image.append(index[key])
        images.append(image)
    images = np.array(images, dtype=np.int64).reshape(len(generators), count)
    representative = np.full(count, -1)
    carry = np.empty((count, n), dtype=np.int64)
    for first in range(count):
        if representative[first] >= 0:
            continue
        representative[first] = first
        carry[first] = np.arange(n)
        queue = [first]
        for m in queue:
            for g, image in zip(generators, images):
                if representative[image[m]] < 0:
                    representative[image[m]] = first
                    carry[image[m]] = np.asarray(g)[carry[m]]
                    queue.append(image[m])
    return Symmetry(generators, images, representative, carry)


# ---------------------------------------------------------------------------
# subset lattice

def subset_sizes(n: int) -> np.ndarray:
    """Popcount of every mask 0..2^n-1 as uint8."""
    check_lattice(n)
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.uint8)


def arc_count(n: int) -> int:
    return n * (1 << (n - 1))


def arc_position(n: int, masks, bit):
    """Position of the arc joining S and S ^ {bit + 1}: bit 2^(n-1) + S with that bit removed.

    The closed form behind arc_index, unchecked, on ints or broadcasting
    integer arrays; either end of the arc gives its position.
    """
    return (bit << (n - 1)) | ((masks >> (bit + 1)) << bit) | (masks & ((1 << bit) - 1))


def arc_index(n: int, source, j: int) -> int:
    """Position of the arc (source, source+{j}): (j - 1) 2^(n-1) + source without bit j - 1."""
    mask = as_mask(source, n)
    if not 1 <= j <= n:
        raise StructuralError(f"arc variable j = {j} outside [1, {n}]")
    if (mask >> (j - 1)) & 1:
        raise StructuralError(f"arc variable {j} already in source {mask_members(mask)}")
    return arc_position(n, mask, j - 1)


def _arc_sources(n: int) -> np.ndarray:
    """int64 (n, 2^(n-1)) table: row j - 1 lists the masks without variable j, ascending."""
    check_lattice(n)
    rest = np.arange(1 << (n - 1), dtype=np.int64)
    bits = np.arange(n, dtype=np.int64)[:, None]
    return ((rest >> bits) << (bits + 1)) | (rest & ((1 << bits) - 1))


def arc_arrays(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(source_mask, added_j, target_mask) arrays in arc_index order."""
    sources = _arc_sources(n)
    bits = np.arange(n, dtype=np.int64)
    targets = sources | (np.int64(1) << bits[:, None])
    return sources.ravel(), np.repeat(bits + 1, 1 << (n - 1)), targets.ravel()


def permute_masks(g, n: int) -> np.ndarray:
    """int64 image g(S) of every mask S, g[i] the 0-based image of variable i + 1.

    g may stack permutations along leading axes, (..., n) giving (..., 2^n).
    Built from one table per half of the variables, so a mask's image is one OR.
    """
    check_lattice(n)
    g = np.asarray(g, dtype=np.int64)

    def images(variables) -> np.ndarray:
        out = np.zeros(g.shape[:-1] + (1 << len(variables),), dtype=np.int64)
        for b, v in enumerate(variables):
            out[..., 1 << b:2 << b] = out[..., :1 << b] | (np.int64(1) << g[..., v, None])
        return out

    low = n // 2
    high = images(range(low, n))[..., :, None] | images(range(low))[..., None, :]
    return high.reshape(g.shape[:-1] + (1 << n,))


def _orbit_labels(size: int, generators: Sequence[Sequence[int]],
                  moves: Sequence[np.ndarray]) -> np.ndarray:
    """Orbit of every point of range(size) under the group the permutations moves generate.

    moves[i] is generators[i]'s action on the points, so its order divides the
    generator's.  Orbits are numbered 0, 1, ... in the order of their first
    point.  Union-find by minimum-label propagation: a round takes every label
    to the least label on its whole cycle under each move (by the move's
    powers 1, 2, 4, ... up to the generator's order), then jumps every label
    to its label's label.
    """
    label = np.arange(size, dtype=np.int32)
    powers = []
    for g, move in zip(generators, moves):
        for _ in range((_order(g) - 1).bit_length()):
            powers.append(move)
            move = move[move]
    if not powers:
        return label
    while True:
        before = label
        label = label.copy()
        for move in powers:
            np.minimum(label, label[move], out=label)
        label = label[label]
        if np.array_equal(label, before):
            first = label == np.arange(len(label), dtype=np.int32)
            return (np.cumsum(first, dtype=np.int32) - 1)[label]


def arc_orbits(n: int, generators: Sequence[Sequence[int]]) -> np.ndarray:
    """Orbit of every arc, in arc_index order, under the group the generators generate.

    Each generator moves arc (S, j) to (g(S), g(j)).  Orbits are numbered in
    the order of their first arc.
    """
    moves = []
    if generators:
        sources = _arc_sources(n)
        moves = [arc_position(n, images[sources], np.asarray(g)[:, None]).astype(np.int32).ravel()
                 for g, images in zip(generators, permute_masks(generators, n))]
    return _orbit_labels(arc_count(n), generators, moves)


def subset_orbits(n: int, generators: Sequence[Sequence[int]]) -> np.ndarray:
    """Orbit of every subset mask under the group the generators generate.

    Orbits are numbered in the order of their least mask, so the empty set's is 0.
    """
    moves = []
    if generators:
        moves = [images.astype(np.int32) for images in permute_masks(generators, n)]
    return _orbit_labels(1 << n, generators, moves)


def stabilizer_generators(symmetry: Symmetry, r: int) -> tuple[tuple[int, ...], ...]:
    """Schreier generators of representative certificate r's stabilizer in the declared group.

    For every certificate m of r's orbit and every generator g, the element
    carry[g m]^-1 g carry[m] maps r onto itself; by Schreier's lemma they
    generate the stabilizer.  The identity and repeats are dropped, and the
    rest sorted.
    """
    if symmetry.representative[r] != r:
        raise ParameterError(f"certificate {r} is not the representative of its orbit")
    orbit = np.flatnonzero(symmetry.representative == r)
    carry = symmetry.carry
    found = set()
    for g, image in zip(symmetry.generators, symmetry.images):
        moved = np.asarray(g)[carry[orbit]]                 # g carry[m]
        back = np.argsort(carry[image[orbit]], axis=1)      # carry[g m]^-1
        found.update(map(tuple, np.take_along_axis(back, moved, axis=1).tolist()))
    found.discard(tuple(range(carry.shape[1])))
    return tuple(sorted(found))


def variable_orbits(n: int, generators: Sequence[Sequence[int]]) -> np.ndarray:
    """Orbit of every variable (0-based) under the group the generators generate.

    Orbits are numbered in the order of their least variable.
    """
    return _orbit_labels(n, generators, [np.asarray(g, dtype=np.int32) for g in generators])


def _order(g: Sequence[int]) -> int:
    """Order of the permutation g: the lcm of its cycle lengths."""
    lengths, seen = [], set()
    for start in range(len(g)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = g[i]
            length += 1
        if length:
            lengths.append(length)
    return math.lcm(*lengths)


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
