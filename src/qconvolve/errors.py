"""Shared exception types and the checked division used by the recursion kernels."""

from __future__ import annotations


class DivisibilityViolation(ArithmeticError):
    """A coefficient recursion produced a sum its index does not divide.

    Products with integer exponents always divide exactly, so this firing
    signals an internal bug rather than bad input.
    """


class ParseError(ValueError):
    """Text does not match the product-spec grammar."""


class PreconditionNotMet(ValueError):
    """A verifier input fails its stated arithmetic precondition."""


def checked_div(total: int, n: int) -> int:
    """Exact integer division; raises DivisibilityViolation on a remainder."""
    q, r = divmod(total, n)
    if r:
        raise DivisibilityViolation(f"{n} does not divide {total}")
    return q
