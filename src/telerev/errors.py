"""Shared exception types, the integer check that raises one, and the package's one
table of tolerances."""

import operator
from types import MappingProxyType

# Every tolerance of the package, named once by its purpose; none is settable, and each
# run's manifest records the table as ``tolerances``.
TOLERANCES = MappingProxyType({
    # a norm or a Gram sum within working precision of 1 or of I: a state's Tr(E^dag E),
    # a measurement's orthonormality, an instrument's completeness
    "unit": 1e-10,
    # a value this close to an end of its domain counts as that end: the domain check's
    # clip, the alignment's snap onto +-1 (computed concurrences pass 1 by <= 8.9e-16)
    "domain_end": 1e-12,
    "sigma_floor": 1e-12,  # singular values below are exact zeros: not reversible
    "direction_floor": 1e-9,  # Bloch radii below have no direction; the alignment is 0
    "reversal_gate": 1e-9,  # the worst |R_r M_r - sigma_min I| of a run with residual_ok
    "newton_stop": 1e-7,  # Theorem 2's root stops at Newton steps in log(d t) below this
})


class TelerevError(Exception):
    """Base class for all telerev errors."""


class DimensionError(TelerevError, ValueError):
    """Operands have incompatible or unsupported dimensions."""


class DomainError(TelerevError, ValueError):
    """A numeric argument lies outside its mathematical domain."""


class OutcomeError(TelerevError, IndexError):
    """An outcome index lies outside a measurement's outcomes."""


def check_integer(value, name: str, low: int | None = None) -> None:
    """Refuse a count, key or dimension below ``low`` or not an integer as ``operator.index``
    reads it (numpy integers pass, bools do not), before numpy fails on it with a bare error."""
    try:
        operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise DomainError(f"{name} {value!r} is not an integer") from None
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
