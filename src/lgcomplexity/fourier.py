"""Character sums over Z_p, low-bias sets, and the product-alphabet construction.

For certificate structures whose certificates have several minimal sets, hard
instances live over the product alphabet Z_p^ell (ell = the largest minimal-set
count): each minimal set A gets a sum-in-U constraint on its own component, so
the constraints stay independent even when the sets overlap.  The quality of
the construction is controlled by the Fourier bias of U: the stacked
difference operator restricted to the positive rows is, in the character
basis, block diagonal with blocks indexed by shift-equivalence classes of
size at most n^ell, diagonal entries matching the unrestricted operator
exactly, and off-diagonal entries at most bias/density times the coefficient
products.  restriction_gap measures the worst block deviation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
# numpy loads these two lazily: loaded here, the first transform or seeded draw does not pay it
import numpy.fft
import numpy.random

from .arrays import HardInstance, OrthogonalArray
from .errors import CapacityError, ParameterError, StructuralError
from .indexing import all_inputs, check_enumerable, decode
from .lgsolver import DualWitness
from .adversary import difference_coefficients
from .structures import (
    CertificateStructure,
    as_mask,
    mask_members,
    minimal_profile,
    subset_sizes,
)

_BRUTE_CAP = 1 << 20
# draws per build_general_instance: with one, the default ladder's gaps tie or rise at 30 of
# seeds 0-199 (a U in a coset of a subgroup); with 8, at none of seeds 0-1999
_GENERAL_DRAWS = 8


def fourier_bias(elements: Iterable[int], p: int) -> float:
    """Largest nontrivial character-sum magnitude of U, normalized by p.

    Computed from the full discrete transform of the indicator vector; exact
    up to float rounding.  Zero for the full group, |U|/p at a singleton.
    """
    if p < 1:
        raise ParameterError(f"need p >= 1, got {p}")
    indicator = np.zeros(p)
    for u in elements:
        u = int(u)
        if not 0 <= u < p:
            raise ParameterError(f"element {u} outside Z_{p}")
        indicator[u] = 1.0
    if p == 1:
        return 0.0
    size = int(indicator.sum())
    if size == p:
        return 0.0          # every nontrivial character sums to zero over the full group
    if size == 1:
        return 1.0 / p      # a single unit-magnitude term
    spectrum = np.fft.fft(indicator)
    return float(np.abs(spectrum[1:]).max() / p)


@dataclass(frozen=True)
class BiasedSet:
    """A subset of Z_p with its cached Fourier bias."""

    p: int
    elements: tuple[int, ...]
    bias: float

    def __post_init__(self):
        elements = tuple(sorted(set(int(u) for u in self.elements)))
        object.__setattr__(self, "elements", elements)
        if any(not 0 <= u < self.p for u in elements):
            raise ParameterError(f"elements must lie in Z_{self.p}")
        if not -1e-12 <= self.bias <= len(elements) / self.p + 1e-12:
            raise ParameterError(
                f"bias {self.bias} outside [0, |U|/p = {len(elements) / self.p}]"
            )

    @classmethod
    def from_elements(cls, elements: Iterable[int], p: int) -> "BiasedSet":
        elements = tuple(elements)
        return cls(p=p, elements=elements, bias=fourier_bias(elements, p))

    @property
    def density(self) -> float:
        return len(self.elements) / self.p

    def __len__(self) -> int:
        return len(self.elements)

    def indicator(self) -> np.ndarray:
        out = np.zeros(self.p, dtype=bool)
        out[list(self.elements)] = True
        return out

    def character_sums(self) -> np.ndarray:
        """sum_{u in U} e^(2 pi i a u / p) / p for every a in Z_p."""
        indicator = self.indicator().astype(float)
        return np.conj(np.fft.fft(indicator)) / self.p


def _draw_biased_set(rng: np.random.Generator, p: int, delta: float) -> BiasedSet:
    """round(delta*p) elements of Z_p, uniform without replacement from rng."""
    if not 0 < delta < 1 + 1e-12:
        raise ParameterError(f"need 0 < delta <= 1, got {delta}")
    size = int(math.floor(delta * p + 0.5))  # half-up, so delta*p = 0.5 keeps one element
    if size < 1:
        raise ParameterError(
            f"round(delta*p) = round({delta * p:.4f}) < 1; increase p or delta"
        )
    elements = rng.choice(p, size=min(size, p), replace=False)
    return BiasedSet.from_elements(elements.tolist(), p)


def _seeded(seed: int) -> np.random.Generator:
    if not seed >= 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def random_low_bias_set(p: int, delta: float, seed: int = 0) -> BiasedSet:
    """round(delta*p) elements uniform without replacement; bias cached."""
    return _draw_biased_set(_seeded(seed), p, delta)


def random_bias_bound(p: int) -> float:
    """4*sqrt(ln p / p), the bias bound checked for a random half-density subset of Z_p."""
    return 4.0 * math.sqrt(math.log(p) / p)


def shift(w: Sequence[int], subset, c: int, p: int) -> tuple[int, ...]:
    """Add c (mod p) on the coordinates of the subset, identity elsewhere."""
    w = tuple(int(v) % p for v in w)
    mask = as_mask(subset, len(w))
    return tuple(
        (v + c) % p if (mask >> j) & 1 else v for j, v in enumerate(w)
    )


# ---------------------------------------------------------------------------
# the product-alphabet instance


@dataclass(frozen=True)
class GeneralInstance:
    """Hard instance over the alphabet Z_p^ell with sum-in-U component arrays.

    Component i of certificate M carries the constraint "the i-th components
    of the entries on the minimal set A_M^(i) sum into U"; components beyond
    the certificate's minimal-set count are unconstrained.
    """

    cert: CertificateStructure
    p: int
    ell: int
    biased_set: BiasedSet

    def __post_init__(self):
        if self.biased_set.p != self.p:
            raise StructuralError("biased set modulus must equal p")
        profile = minimal_profile(self.cert)
        if profile.max_count > self.ell:
            raise StructuralError(
                f"ell = {self.ell} below the largest minimal-set count {profile.max_count}"
            )

    @property
    def n(self) -> int:
        return self.cert.n

    @property
    def q(self) -> int:
        return self.p ** self.ell

    @property
    def delta(self) -> float:
        return self.biased_set.density

    def minimal_count(self, m: int) -> int:
        return len(self.cert.certificates[m].minimal_sets)

    def generator_mask(self, m: int, i: int) -> int:
        """Minimal set A of certificate m, component i (1-based, i <= minimal_count)."""
        return self.cert.certificates[m].minimal_sets[i - 1]

    def x_size(self, m: int) -> int:
        lm = self.minimal_count(m)
        return (len(self.biased_set) * self.p ** (self.n - 1)) ** lm * \
            self.p ** (self.n * (self.ell - lm))

    def y_size(self) -> int:
        """Exact count of inputs avoiding every component constraint.

        The constraints act on disjoint components of the product alphabet, so
        the negative set factorizes: per component i, count the Z_p^n vectors
        whose sums on every certificate's i-th minimal set miss U, then take
        the product.  Needs p^n enumerable (streamed in batches), not q^n.
        """
        total_codes = check_enumerable(self.p, self.n)
        in_u = self.biased_set.indicator()
        counts = []
        batch = 1 << 20
        for i in range(1, self.ell + 1):
            member_cols = [
                [j - 1 for j in mask_members(self.generator_mask(m, i))]
                for m in range(len(self.cert))
                if i <= self.minimal_count(m)
            ]
            kept = 0
            for start in range(0, total_codes, batch):
                grid = decode(np.arange(start, min(start + batch, total_codes)), self.p, self.n)
                avoid = np.ones(len(grid), dtype=bool)
                for cols in member_cols:
                    avoid &= ~in_u[grid[:, cols].sum(axis=1) % self.p]
                kept += int(avoid.sum())
            counts.append(kept)
        total = 1
        for c in counts:
            total *= c
        return total

    def to_hard_instance(self) -> HardInstance:
        """Materialize over the product alphabet q = p^ell; needs q^n enumerable."""
        from .arrays import build_instance

        check_enumerable(self.q, self.n)
        arrays = []
        for m, certificate in enumerate(self.cert.certificates):
            per = []
            for i, gmask in enumerate(certificate.minimal_sets, start=1):
                k = gmask.bit_count()
                grid = all_inputs(self.q, k)
                comp = (grid // self.p ** (self.ell - i)) % self.p
                in_u = self.biased_set.indicator()
                keep = in_u[comp.sum(axis=1) % self.p]
                rows = tuple(map(tuple, grid[keep].tolist()))
                per.append(OrthogonalArray(self.q, k, rows))
            arrays.append(tuple(per))
        return build_instance(self.cert, self.q, arrays)


def build_general_instance(cert: CertificateStructure, p: int, seed: int = 0) -> GeneralInstance:
    """Product-alphabet instance with density 1/(2 * ell * |C|) and a low-bias random U.

    U is the lowest-bias set among _GENERAL_DRAWS draws from one seeded stream;
    the first draw is random_low_bias_set's set for the same seed.
    """
    profile = minimal_profile(cert)
    ell = profile.max_count
    delta_target = 1.0 / (2.0 * ell * len(cert))
    if math.floor(p * delta_target + 0.5) < 1:
        raise ParameterError(
            f"p = {p} too small: round(p/(2*{ell}*{len(cert)})) < 1; "
            f"need p >= {math.ceil(1.0 / (2 * delta_target))}"
        )
    rng = _seeded(seed)
    draws = [_draw_biased_set(rng, p, delta_target) for _ in range(_GENERAL_DRAWS)]
    biased = min(draws, key=lambda b: b.bias)   # the first of equal biases
    return GeneralInstance(cert=cert, p=p, ell=ell, biased_set=biased)


# ---------------------------------------------------------------------------
# character overlaps on component sets


def character_overlap(
    w: Sequence[int],
    w_prime: Sequence[int],
    m: int,
    i: int,
    instance: GeneralInstance,
    method: str = "fast",
) -> complex:
    """Inner product of the w and w' character vectors restricted to X_M^(i).

    Equals the density when w = w'; vanishes unless w' is a constant shift of
    w on the component's minimal set; otherwise its magnitude is at most the
    Fourier bias of U.
    """
    p, n = instance.p, instance.n
    w = tuple(int(v) % p for v in w)
    w_prime = tuple(int(v) % p for v in w_prime)
    if len(w) != n or len(w_prime) != n:
        raise StructuralError(f"vectors must have length {n}")
    if i > instance.minimal_count(m):
        return 1.0 + 0.0j if w == w_prime else 0.0 + 0.0j
    mask = instance.generator_mask(m, i)
    members = mask_members(mask)
    if method == "fast":
        a = members[0]
        wbar = shift(w, mask, -w[a - 1], p)
        wbar_prime = shift(w_prime, mask, -w_prime[a - 1], p)
        if wbar != wbar_prime:
            return 0.0 + 0.0j
        phase = (w_prime[a - 1] - w[a - 1]) % p
        sums = instance.biased_set.character_sums()
        return complex(sums[phase])
    if method == "brute":
        grid = all_inputs(p, n, _BRUTE_CAP)
        sums = grid[:, [j - 1 for j in members]].sum(axis=1) % p
        keep = instance.biased_set.indicator()[sums]
        diff = np.array(w_prime) - np.array(w)
        phases = (grid[keep] @ diff) % p
        return complex(np.exp(2j * np.pi * phases / p).sum() / p ** n)
    raise ParameterError(f"method must be 'fast' or 'brute', got {method!r}")


# ---------------------------------------------------------------------------
# equivalence classes and the restriction gap


def _vector_support_mask(v: tuple[tuple[int, ...], ...]) -> int:
    mask = 0
    for j, symbol in enumerate(v):
        if any(symbol):
            mask |= 1 << j
    return mask


@dataclass(frozen=True)
class EquivalenceClass:
    """A maximal set of mutually shift-equivalent coefficient indices.

    Members are vectors over Z_p^ell given coordinate-major: member[j] is the
    ell-tuple at coordinate j+1.  shifts[r][i-1] is the component-i shift
    taking the representative to member r.
    """

    representative: tuple[tuple[int, ...], ...]
    members: tuple[tuple[tuple[int, ...], ...], ...]
    shifts: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.members)


def _class_of(instance: GeneralInstance, m: int, v, support_ok) -> EquivalenceClass:
    """Build the equivalence class of v; support_ok(subset_mask) gates members."""
    p, ell = instance.p, instance.ell
    lm = instance.minimal_count(m)
    candidate_lists = []
    for i in range(1, ell + 1):
        if i > lm:
            candidate_lists.append((0,))
            continue
        members = mask_members(instance.generator_mask(m, i))
        cands = sorted({(-v[j - 1][i - 1]) % p for j in members})
        candidate_lists.append(tuple(cands))
    seen = {}
    for combo in itertools.product(*candidate_lists):
        shifted = []
        for j in range(instance.n):
            symbol = list(v[j])
            for i in range(1, lm + 1):
                if (instance.generator_mask(m, i) >> j) & 1:
                    symbol[i - 1] = (symbol[i - 1] + combo[i - 1]) % p
            shifted.append(tuple(symbol))
        shifted = tuple(shifted)
        if support_ok(_vector_support_mask(shifted)) and shifted not in seen:
            seen[shifted] = combo
    members = tuple(sorted(seen.keys()))
    shifts = tuple(seen[member] for member in members)
    return EquivalenceClass(representative=v, members=members, shifts=shifts)


def equivalence_classes(
    instance: GeneralInstance,
    m: int,
    beta: np.ndarray,
    cap: int = _BRUTE_CAP,
) -> list[EquivalenceClass]:
    """Exhaustive partition of the nonzero-coefficient index vectors.

    Enumerates, for each subset S with beta_S != 0, the (q-1)^|S| digit
    vectors whose support is exactly S, so the cost is the sum of (q-1)^|S|
    over those subsets, not q^n; cap bounds that count and is checked before
    anything is allocated.  Classes come in code order of their first member.
    Each class has at most n^ell members because a member must keep a zero
    somewhere on every minimal set.
    """
    q, n = instance.q, instance.n
    beta_row = np.asarray(beta)[m]
    supports = [int(mask) for mask in np.flatnonzero(beta_row)]
    total = sum((q - 1) ** mask.bit_count() for mask in supports)
    if total > cap:
        raise CapacityError(
            f"{total} index vectors with nonzero coefficient exceed the enumeration cap {cap}"
        )

    def support_ok(mask: int) -> bool:
        return beta_row[mask] != 0

    blocks = [np.zeros((0, n), dtype=np.int64)]
    for mask in supports:
        cols = [j for j in range(n) if (mask >> j) & 1]
        count = (q - 1) ** len(cols)
        block = np.zeros((count, n), dtype=np.int64)
        block[:, cols] = decode(np.arange(count), q - 1, len(cols)) + 1
        blocks.append(block)
    digits = np.concatenate(blocks)
    # lexicographic on the digits, i.e. code order, without forming codes:
    # sum_j d_j q^(n-1-j) may overflow int64 once q^n no longer bounds the call
    digits = digits[np.lexsort(digits.T[::-1])]
    symbols = list(map(tuple, decode(np.arange(q), instance.p, instance.ell).tolist()))
    classes = []
    done = set()
    for row in digits.tolist():
        v = tuple(symbols[d] for d in row)
        if v in done:
            continue
        cls = _class_of(instance, m, v, support_ok)
        done.update(cls.members)
        classes.append(cls)
    return classes


def _class_gap_matrix(instance: GeneralInstance, m: int, beta_row: np.ndarray,
                      cls: EquivalenceClass) -> np.ndarray:
    """The class block of the restricted gram minus its diagonal idealization."""
    p = instance.p
    lm = instance.minimal_count(m)
    delta = instance.delta
    sums = instance.biased_set.character_sums()
    size = len(cls)
    out = np.zeros((size, size), dtype=complex)
    betas = [beta_row[_vector_support_mask(member)] for member in cls.members]
    scale = delta ** (-lm)
    for r in range(size):
        for s in range(size):
            if r == s:
                continue
            prod = 1.0 + 0.0j
            for i in range(lm):
                dc = (cls.shifts[s][i] - cls.shifts[r][i]) % p
                prod *= delta if dc == 0 else complex(sums[dc])
            out[r, s] = scale * betas[r] * betas[s] * prod
    return out


def restriction_gap_bound(instance: GeneralInstance, beta: np.ndarray, m: int) -> float:
    """Closed-form ceiling n^ell * (bias/density) * max beta^2."""
    beta_row = np.asarray(beta)[m]
    peak = float(np.max(np.abs(beta_row))) ** 2
    return instance.n ** instance.ell * (instance.biased_set.bias / instance.delta) * peak


def restriction_gap(
    instance: GeneralInstance,
    witness: DualWitness,
    j: int,
    m: int,
) -> float:
    """Worst-class norm of (restricted gram) - (diagonal idealization) for one block.

    Diagonal entries agree exactly by construction, so the gap is the largest
    spectral norm over equivalence-class blocks with the diagonal removed.
    When every subset with a nonzero coefficient has at most one element, the
    gap has a closed form: classes then pair a coordinate with its partner on
    a two-element minimal set, and the worst shift difference is the bias
    maximizer.  Otherwise every class block is measured, and
    equivalence_classes refuses supports too large to enumerate.
    """
    if witness.n != instance.n:
        raise StructuralError(f"witness n={witness.n} != instance n={instance.n}")
    beta = difference_coefficients(witness, j)
    beta_row = beta[m]
    if np.any(subset_sizes(instance.n)[np.flatnonzero(beta_row)] > 1):
        worst = 0.0
        for cls in equivalence_classes(instance, m, beta):
            if len(cls) == 1:
                continue
            block = _class_gap_matrix(instance, m, beta_row, cls)
            worst = max(worst, float(np.linalg.norm(block, 2)))
        return worst

    # pair classes: a singleton coordinate and its partner across a 2-element
    # minimal set; the off-diagonal factor is maximized at the bias argmax
    bias = instance.biased_set.bias
    worst = 0.0
    lm = instance.minimal_count(m)
    for i in range(1, lm + 1):
        members = mask_members(instance.generator_mask(m, i))
        if len(members) != 2:
            continue
        j0, j1 = members
        b0 = beta_row[1 << (j0 - 1)]
        b1 = beta_row[1 << (j1 - 1)]
        if b0 == 0 or b1 == 0:
            continue
        worst = max(worst, abs(b0) * abs(b1) * bias / instance.delta)
    return worst


def restriction_gap_ladder(cert: CertificateStructure, witness: DualWitness, ps: Iterable[int],
                           j: int, seed: int) -> Iterator[tuple[int, int, float, float]]:
    """Yield (p, m, gap, bound) across direction j per p in ps, then per certificate m.

    Each p runs on build_general_instance(cert, p, seed); bound is restriction_gap_bound.
    """
    beta = difference_coefficients(witness, j)
    for p in ps:
        inst = build_general_instance(cert, p, seed)
        for m in range(len(cert)):
            yield p, m, restriction_gap(inst, witness, j, m), restriction_gap_bound(inst, beta, m)
