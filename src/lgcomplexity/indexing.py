"""Mixed-radix codecs for input strings x in [q]^n.

Inputs are encoded big-endian: variable 1 is the most significant digit, so
the code of x is sum_j x_j * q^(n-j).  This matches the row ordering of
n-fold Kronecker products of q x q factors taken in variable order.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError

ENUMERATION_CAP = 1 << 24


def check_enumerable(q: int, n: int, cap: int = ENUMERATION_CAP) -> int:
    total = q ** n
    if total > cap:
        raise CapacityError(f"q^n = {q}^{n} = {total} exceeds the enumeration cap {cap}")
    return total


def encode(digits: np.ndarray, q: int) -> np.ndarray:
    """Codes of rows of a (..., n) digit array."""
    digits = np.asarray(digits)
    n = digits.shape[-1]
    weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return digits @ weights


def decode(codes, q: int, n: int) -> np.ndarray:
    """(len(codes), n) digit array for the given codes."""
    codes = np.atleast_1d(np.asarray(codes, dtype=np.int64))
    out = np.empty((len(codes), n), dtype=np.int64)
    rest = codes.copy()
    for j in range(n - 1, -1, -1):
        out[:, j] = rest % q
        rest //= q
    return out


def all_inputs(q: int, n: int, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """All of [q]^n as a (q^n, n) digit array in code order."""
    total = check_enumerable(q, n, cap)
    return decode(np.arange(total), q, n)
