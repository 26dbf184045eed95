"""Exception taxonomy shared by all modules."""


class LgError(Exception):
    """Base class for library errors."""


class ParameterError(LgError, ValueError):
    """A parameter violates a stated precondition (the message names the bound)."""


class CapacityError(LgError, ValueError):
    """An enumeration would exceed the desk-scale capacity caps."""


class StructuralError(LgError, ValueError):
    """Structurally inconsistent inputs (arc outside lattice, shape mismatch, ...)."""


class InvariantViolation(LgError, ValueError):
    """A required invariant of the input object does not hold (names the witness)."""


class ConsistencyError(LgError, RuntimeError):
    """An internal cross-check failed (a primal breaking conservation, Lanczos not converging).

    Checks that a report row decides, such as weak duality, fail their row instead.
    """
