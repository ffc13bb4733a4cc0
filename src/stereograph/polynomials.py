"""Exact integer polynomials in one variable.

Coefficients are arbitrary-precision integers stored degree-descending,
so for a polynomial of degree d written sum(c_i * x^(d-i)), entry i of
the coefficient tuple is c_i. No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence

from .errors import DomainError, InternalInvariant


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial, coefficients degree-descending."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        # type() rather than isinstance(): True would print as "True".
        cs = self.coefficients
        if type(cs) is not tuple or not cs or any(type(c) is not int for c in cs):
            raise DomainError(f"coefficients must be a non-empty tuple of ints, got {cs!r}")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, i: int) -> int:
        """The coefficient c_i of x^(degree - i); 0 when i exceeds the degree."""
        if i < 0:
            raise IndexError(i)
        if i > self.degree:
            return 0
        return self.coefficients[i]

    def evaluate(self, x: int) -> int:
        value = 0
        for c in self.coefficients:
            value = value * x + c
        return value

    def __call__(self, x: int) -> int:
        return self.evaluate(x)

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.coefficients)


def interpolate_integer_polynomial(points: Sequence[tuple[int, int]]) -> IntPolynomial:
    """Exact polynomial of degree at most d through (x, y) for x = 0..d.

    Newton's forward-difference form p(x) = sum_k D^k p(0) x(x-1)...(x-k+1) / k!
    is expanded times d! in integers and divided back exactly; a remainder
    means the values do not define an integer polynomial, and an
    InternalInvariant is raised.
    """
    degree = len(points) - 1
    if [x for x, _ in points] != list(range(degree + 1)):
        raise ValueError("interpolation nodes must be 0, 1, ..., d in order")
    scale = factorial(degree)
    differences = [y for _, y in points]
    scaled = [0] * (degree + 1)
    for k in range(degree + 1):
        weight = differences[0] * (scale // factorial(k))
        for power, coeff in enumerate(falling_factorial_coefficients(k)):
            scaled[power] += weight * coeff
        differences = [b - a for a, b in zip(differences, differences[1:])]
    coeffs = []
    for c in reversed(scaled):
        quotient, remainder = divmod(c, scale)
        if remainder:
            raise InternalInvariant("interpolation did not yield integer coefficients")
        coeffs.append(quotient)
    return IntPolynomial(tuple(coeffs))


def falling_factorial_coefficients(k: int) -> list[int]:
    """Ascending integer coefficients of x(x-1)...(x-k+1); [1] for k=0."""
    coeffs = [1]
    for step in range(k):
        shifted = [0] + coeffs
        coeffs = [shifted[t] - step * (coeffs[t] if t < len(coeffs) else 0) for t in range(len(shifted))]
    return coeffs


__all__ = [
    "IntPolynomial",
    "falling_factorial_coefficients",
    "interpolate_integer_polynomial",
]
