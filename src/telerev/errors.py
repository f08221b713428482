"""Shared exception types and the integer check that raises one."""

import operator


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
