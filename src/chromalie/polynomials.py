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
    def of(cls, coeffs, denominator: int = 1) -> "QPolynomial":
        """The polynomial with coefficients c / denominator, constant first."""
        return cls(_trim(Fraction(c, denominator) for c in coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> Fraction:
        return self.coeffs[power] if 0 <= power < len(self.coeffs) \
            else Fraction(0)

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


def times_scaled_falling(coeffs: list[int], m: int, r: int,
                         offset: int = 0) -> list[int]:
    """Integer coefficients (constant first) of coeffs(q) times the falling
    factorial (m*q + offset)(m*q + offset - 1)...(m*q + offset - r + 1)."""
    for j in range(r):
        coeffs = [m * b + (offset - j) * a
                  for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def binomial_product(factors) -> QPolynomial:
    """The product of C(q + offset, size) over the (offset, size) factors,
    assembled in integers over the one denominator, the product of size!."""
    coeffs, denominator = [1], 1
    for offset, size in factors:
        coeffs = times_scaled_falling(coeffs, 1, size, offset)
        denominator *= factorial(size)
    return QPolynomial.of(coeffs, denominator)


def falling_binomial(offset: int, k: int) -> QPolynomial:
    """Binomial coefficient C(q + offset, k) as a degree-k polynomial in q;
    a negative k raises ValueError, from factorial."""
    return binomial_product([(offset, k)])


def scaled_binomial(m: int, k: int) -> QPolynomial:
    """Binomial coefficient C(m*q, k) as a degree-k polynomial in q;
    a negative k raises ValueError, from factorial."""
    return QPolynomial.of(times_scaled_falling([1], m, k), factorial(k))
