"""Builders that name arcs and subsets by their lattice coordinates, for tests.

An arc is its (source, j) pair and a subset its bitmask or its 1-based members;
each builder places the given values at structures.arc_index or the subset's
bitmask and leaves every other entry zero (or fill).
"""

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
