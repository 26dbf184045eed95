"""Closed-form dual witnesses.

Three constructions:
  * ksubset_witness  - uniform linear decay in |S|, objective exactly n^(k/(k+1)).
  * hidden_shift_witness - the same decay profile placed on the n cyclic-shift
    certificates of a hidden-shift / set-equality / collision structure,
    objective exactly n^(1/3) (n is the half size; subsets live on 2n variables).
  * triangle_witness - decay n^(-3/14) - n^(-3/2)|S| corrected by per-degree-level
    terms g_i built from the clipped-median and a trapezoid degree profile, so
    that certificates whose triangle is one edge short of completion are
    discounted.  Feasibility degrades only by a log factor, which is measured,
    not assumed.

All witnesses satisfy the zero condition exactly: alpha_S(M) = 0 whenever S is
a member of M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError
from .lgsolver import DualWitness
from .structures import (
    collision_structure,
    hidden_shift_structure,
    ksubset_structure,
    mask_members,
    membership_table,
    set_equality_structure,
    subset_sizes,
    triangle_edge_index,
    triangle_edge_map,
    triangle_structure,
)

def clip01(x):
    """Median of 0, x and 1 (elementwise)."""
    return np.clip(x, 0.0, 1.0)


def tau(x, d: float):
    """Trapezoid degree profile: 0 below d/2, ramps to 1 on [d, 2d), 0 past 5d/2.

    Piecewise linear and continuous with breakpoints exactly d/2, d, 2d, 5d/2;
    range [0, 1].
    """
    if d <= 0:
        raise ParameterError(f"tau needs d > 0, got {d}")
    x = np.asarray(x, dtype=float)
    up = (2.0 * x - d) / d
    down = (5.0 * d - 2.0 * x) / d
    out = np.minimum(clip01(up), clip01(down))
    if out.ndim == 0:
        return float(out)
    return out


def ksubset_witness(n: int, k: int) -> DualWitness:
    """alpha_S(M) = C(n,k)^(-1/2) * max(n^(k/(k+1)) - |S|, 0) off M, else 0."""
    cert = ksubset_structure(n, k)
    member = membership_table(cert)
    sizes = subset_sizes(n).astype(float)
    reach = float(n) ** (k / (k + 1.0))
    scale = 1.0 / math.sqrt(math.comb(n, k))
    profile = scale * np.maximum(reach - sizes, 0.0)
    alpha = np.where(member, 0.0, profile[None, :])
    return DualWitness(n, alpha)


HIDDEN_SHIFT_TARGETS = {
    "hidden_shift": hidden_shift_structure,
    "set_equality": set_equality_structure,
    "collision": collision_structure,
}


def hidden_shift_witness(n: int, target: str = "hidden_shift") -> DualWitness:
    """Decay witness on the n cyclic-shift certificates of the target structure.

    Certificates of the target that are not cyclic-shift matchings get zero;
    the objective is n^(1/3) regardless of the target.
    """
    if target not in HIDDEN_SHIFT_TARGETS:
        raise ParameterError(
            f"target must be one of {sorted(HIDDEN_SHIFT_TARGETS)}, got {target!r}"
        )
    structure = HIDDEN_SHIFT_TARGETS[target](n)
    shift_keys = {c.minimal_sets for c in hidden_shift_structure(n).certificates}
    member = membership_table(structure)
    sizes = subset_sizes(structure.n).astype(float)
    profile = np.maximum(float(n) ** (1.0 / 3.0) - sizes, 0.0) / math.sqrt(n)
    alpha = np.zeros((len(structure), 1 << structure.n))
    for m, certificate in enumerate(structure.certificates):
        if certificate.minimal_sets in shift_keys:
            alpha[m] = np.where(member[m], 0.0, profile)
    return DualWitness(structure.n, alpha)


@dataclass(frozen=True)
class EdgeSubset:
    """A subset of the C(n,2) edge variables with an adjacency view."""

    vertices: int
    mask: int

    def has_edge(self, u: int, v: int) -> bool:
        bit = triangle_edge_index(self.vertices, u, v) - 1
        return bool((self.mask >> bit) & 1)

    def degree(self, v: int) -> int:
        return sum(1 for u in range(1, self.vertices + 1) if u != v and self.has_edge(u, v))

    def common_neighbors(self, u: int, v: int) -> tuple[int, ...]:
        return tuple(
            w for w in range(1, self.vertices + 1)
            if w not in (u, v) and self.has_edge(w, u) and self.has_edge(w, v)
        )

    def __len__(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class TriangleWitnessConfig:
    """Degree levels for the triangle witness.

    Level 1 covers degrees [0, t) with t = n^(3/7); level i >= 2 covers
    [t*2^(i-2), t*2^(i-1)) (half-open, the last one closed at the top).  The
    levels cover every possible degree up to n.
    """

    n: int
    threshold: float
    level_ds: tuple[float, ...]   # the d parameter of each level i >= 2
    level_count: int

    def __post_init__(self):
        top = self.level_ds[-1] * 2.0 if self.level_ds else self.threshold
        if top < self.n:
            raise ParameterError(
                f"degree levels top out at {top}, below the vertex count {self.n}"
            )
        if self.level_count != 1 + len(self.level_ds):
            raise ParameterError("level_count must count the first level plus the rest")

    @property
    def interval_bounds(self) -> tuple[float, ...]:
        bounds = [0.0, self.threshold]
        bounds.extend(2.0 * d for d in self.level_ds)
        return tuple(bounds)

    @classmethod
    def for_vertices(cls, n: int) -> "TriangleWitnessConfig":
        threshold = float(n) ** (3.0 / 7.0)
        doublings = max(1, math.ceil(math.log2(n / threshold)))
        ds = tuple(threshold * 2.0 ** m for m in range(doublings))
        return cls(n=n, threshold=threshold, level_ds=ds, level_count=1 + doublings)


def triangle_witness(n: int) -> DualWitness:
    """The degree-leveled triangle witness on C(n,2) edge variables.

    For a pair (S, M) with exactly one of M's three edges missing from S, the
    vertex opposite the missing edge is the "third vertex" a; the correction
    g_1 fades in once deg(a) passes the threshold, and each higher level adds
    n^(-3/14) * clip01(min(2 deg(a)/d, nu/t) - 1) where nu counts common
    neighbors of the missing edge's endpoints weighted by the trapezoid
    profile at that level.  If two or more of M's edges are missing every g_i
    is zero.
    """
    if n < 3:
        raise CapacityError(f"triangle witness needs n >= 3 vertices, got {n}")
    structure = triangle_structure(n)
    member = membership_table(structure)  # refuses an over-cap edge lattice first
    nvars = structure.n
    config = TriangleWitnessConfig.for_vertices(n)
    t = config.threshold
    height = float(n) ** (-3.0 / 14.0)
    slope = float(n) ** (-1.5)

    def edge(u: int, v: int) -> int:
        return 1 << (triangle_edge_index(n, u, v) - 1)

    masks = np.arange(1 << nvars, dtype=np.int64)
    sizes = subset_sizes(nvars)
    degree = np.zeros((n + 1, 1 << nvars), dtype=np.uint8)
    for v in range(1, n + 1):
        degree[v] = sizes[masks & sum(edge(u, v) for u in range(1, n + 1) if u != v)]
    base = height - slope * sizes.astype(np.float64)

    edge_map = triangle_edge_map(n)
    alpha = np.zeros(member.shape)
    for ci, certificate in enumerate(structure.certificates):
        (triangle,) = certificate.minimal_sets
        a, b, c = sorted({v for j in mask_members(triangle) for v in edge_map[j - 1]})
        held = masks & triangle
        gsum = np.zeros(len(masks))
        # roles: the third vertex, and the endpoints of the missing edge opposite it
        for third, e1, e2 in ((a, b, c), (b, a, c), (c, a, b)):
            sel = held == (triangle ^ edge(e1, e2))
            if not sel.any():
                continue
            sub = masks[sel]
            dega = degree[third][sel].astype(float)
            g = height * clip01(2.0 - dega / t)
            for d in config.level_ds:
                nu = np.zeros(sel.sum())
                for v in range(1, n + 1):
                    if v in (e1, e2):
                        continue
                    both = edge(v, e1) | edge(v, e2)
                    joined = (sub & both) == both
                    if not joined.any():
                        continue
                    nu += joined * tau(degree[v][sel].astype(float), d)
                g = g + height * clip01(np.minimum(2.0 * dega / d, nu / t) - 1.0)
            gsum[sel] = g
        values = np.maximum(base - gsum, 0.0)
        values[member[ci]] = 0.0
        alpha[ci] = values
    return DualWitness(nvars, alpha)
