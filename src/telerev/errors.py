"""Shared exception types and the integer check that raises one."""

import operator


class TelerevError(Exception):
    """Base class for all telerev errors."""


class DimensionError(TelerevError, ValueError):
    """Operands have incompatible or unsupported dimensions."""


class DomainError(TelerevError, ValueError):
    """A numeric argument lies outside its mathematical domain."""


def check_integer(value, name: str) -> None:
    """Refuse a count, key or dimension that is not an integer (numpy integers pass),
    as ``operator.index`` reads it, before numpy fails on it with a bare TypeError."""
    try:
        operator.index(value)
    except TypeError:
        raise DomainError(f"{name} {value!r} is not an integer") from None
