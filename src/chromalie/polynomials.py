"""Exact univariate polynomial arithmetic over rationals.

Dense coefficient representation, constant term first.  No floating point
anywhere; everything is fractions.Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Iterable

from .graphs import Value


def _trim(coeffs: Iterable[Fraction]) -> tuple[Fraction, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class QPolynomial(Value):
    """Compared and hashed by its trimmed coefficient tuple."""

    __slots__ = ("coeffs",)
    _fields = __slots__
    _key = lambda self: (self.coeffs,)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        self.coeffs = coeffs

    @classmethod
    def of(cls, coeffs) -> "QPolynomial":
        return cls(_trim(Fraction(c) for c in coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    @property
    def linear_coefficient(self) -> Fraction:
        return self.coefficient(1)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial(_trim(
            self.coefficient(i) + other.coefficient(i) for i in range(n)))

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if self.is_zero or other.is_zero:
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPolynomial(_trim(out))

    def scale(self, c) -> "QPolynomial":
        c = Fraction(c)
        if c == 0:
            return ZERO
        return QPolynomial(tuple(a * c for a in self.coeffs))

    def eval(self, x) -> Fraction:
        a, b = Fraction(x).as_integer_ratio()
        d = lcm(*(c.denominator for c in self.coeffs))
        acc, power = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * a + c.numerator * (d // c.denominator) * power
            power *= b
        return Fraction(acc * b, d * power)

    def to_json_list(self) -> list[str]:
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]


ZERO = QPolynomial(())
ONE = QPolynomial((Fraction(1),))


def falling_binomial(offset: int, k: int) -> QPolynomial:
    """Binomial coefficient C(q + offset, k) as a degree-k polynomial in q."""
    if k < 0:
        raise ValueError("k must be non-negative")
    p = ONE
    for j in range(k):
        p = p * QPolynomial.of([offset - j, 1])
    return p.scale(Fraction(1, factorial(k)))


def times_scaled_falling(coeffs: list[int], m: int, r: int) -> list[int]:
    """Integer coefficients (constant first) of coeffs(q) times the falling
    factorial (m*q)(m*q - 1)...(m*q - r + 1)."""
    for j in range(r):
        coeffs = [m * b - j * a for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def scaled_binomial(m: int, k: int) -> QPolynomial:
    """Binomial coefficient C(m*q, k) as a degree-k polynomial in q."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return QPolynomial.of(times_scaled_falling([1], m, k)).scale(
        Fraction(1, factorial(k)))

