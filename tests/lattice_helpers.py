"""Builders that name arcs and subsets by their lattice coordinates, for tests.

An arc is its (source, j) pair and a subset its bitmask or its 1-based members;
each builder places the given values at structures.arc_index or the subset's
bitmask and leaves every other entry zero (or fill).  EdgeSubset reads a
subset of triangle edge variables as a graph, an oracle for the triangle
witness.
"""

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from lgcomplexity import lgsolver as lg
from lgcomplexity import structures as st


def flow_from_entries(n: int, num_certificates: int, entries: Mapping) -> lg.FlowAssignment:
    """entries maps (arc, certificate_index) -> flow; arc is a (source, j) pair."""
    values = np.zeros((num_certificates, st.arc_count(n)))
    for ((source, j), m), value in entries.items():
        values[m, st.arc_index(n, source, int(j))] = value
    return lg.FlowAssignment(n, values)


def weights_from_entries(n: int, entries: Mapping, fill: float = 0.0) -> lg.WeightAssignment:
    """entries maps (source, j) -> weight."""
    values = np.full(st.arc_count(n), float(fill))
    for (source, j), value in entries.items():
        values[st.arc_index(n, source, int(j))] = value
    return lg.WeightAssignment(n, values)


def witness_from_entries(n: int, num_certificates: int, entries: Mapping) -> lg.DualWitness:
    """entries maps (subset, certificate_index) -> alpha value."""
    alpha = np.zeros((num_certificates, 1 << n))
    for (subset, m), value in entries.items():
        alpha[m, st.as_mask(subset, n)] = value
    return lg.DualWitness(n, alpha)


def is_upward_closed(member_row: np.ndarray, n: int) -> bool:
    """Exhaustive check that a boolean membership row is closed under supersets."""
    masks = np.arange(1 << n)
    for j in range(n):
        lower = masks[(masks >> j) & 1 == 0]
        if np.any(member_row[lower] & ~member_row[lower | (1 << j)]):
            return False
    return True


@dataclass(frozen=True)
class EdgeSubset:
    """A subset of the C(n,2) edge variables with an adjacency view."""

    vertices: int
    mask: int

    def has_edge(self, u: int, v: int) -> bool:
        bit = st.triangle_edge_index(self.vertices, u, v) - 1
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
