from fractions import Fraction
from math import comb

from hypothesis import given, strategies as st

from chromalie import QPolynomial, falling_binomial
from chromalie.polynomials import ZERO, binomial_product, scaled_binomial, \
    times_scaled_falling

from helpers import ONE, degree, has_integer_coefficients, \
    polynomial_from_json_list, scale


def test_trim_and_degree():
    p = QPolynomial.of([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert degree(p) == 1
    assert degree(ZERO) == -1 and ZERO.is_zero


def test_common_denominator():
    p = QPolynomial.of([6, -3, 0, 0], 4)
    assert p.coeffs == (Fraction(3, 2), Fraction(-3, 4))
    assert QPolynomial.of([1, 2], -2) == QPolynomial.of([Fraction(-1, 2), -1])
    assert QPolynomial.of([Fraction(1, 3)], 2) == QPolynomial.of(
        [Fraction(1, 6)])
    assert QPolynomial.of([0, 0], 5) == ZERO


def test_arithmetic():
    p = QPolynomial.of([1, 1])
    q = QPolynomial.of([-1, 1])
    assert p * q == QPolynomial.of([-1, 0, 1])
    assert p + q == QPolynomial.of([0, 2])
    assert scale(p, Fraction(1, 2)).eval(3) == 2
    assert scale(p, 0) == ZERO


def test_eval_horner():
    p = QPolynomial.of([2, 0, 1])
    assert p.eval(-3) == 11
    assert p.eval(Fraction(1, 2)) == Fraction(9, 4)


@given(st.lists(st.fractions(max_denominator=40), max_size=8),
       st.one_of(st.integers(-30, 30), st.fractions(max_denominator=20)))
def test_eval_matches_fraction_horner(coeffs, x):
    p = QPolynomial.of(coeffs)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * Fraction(x) + c
    value = p.eval(x)
    assert value == acc and type(value) is Fraction
    assert ZERO.eval(x) == 0 and type(ZERO.eval(x)) is Fraction


def test_eval_exact_at_negative_and_rational_points():
    p = QPolynomial.of([Fraction(1, 3), Fraction(-5, 6), Fraction(7, 4)])
    assert p.eval(-2) == Fraction(1, 3) + Fraction(5, 3) + 7
    assert p.eval(Fraction(-3, 2)) == \
        Fraction(1, 3) + Fraction(5, 4) + Fraction(63, 16)


@given(st.integers(-20, 20), st.integers(0, 6), st.integers(-5, 5))
def test_falling_binomial_values(q, k, offset):
    assert falling_binomial(offset, k).eval(q) == \
        (comb(q + offset, k) if q + offset >= 0 else
         falling_binomial(offset, k).eval(q))
    # the polynomial identity C(x,k) = x(x-1)..(x-k+1)/k! holds everywhere
    x = Fraction(q + offset)
    prod = Fraction(1)
    for j in range(k):
        prod *= x - j
    from math import factorial
    assert falling_binomial(offset, k).eval(q) == prod / factorial(k)


def test_scaled_binomial():
    p = scaled_binomial(3, 2)
    for q in range(-3, 5):
        assert p.eval(q) == Fraction(3 * q * (3 * q - 1), 2)


def test_times_scaled_falling():
    for m in range(4):
        for r in range(5):
            for offset in range(-4, 5):
                coeffs = times_scaled_falling([2, -1], m, r, offset)
                for q in range(-3, 4):
                    falling = 1
                    for j in range(r):
                        falling *= m * q + offset - j
                    assert sum(c * q ** p for p, c in enumerate(coeffs)) == \
                        (2 - q) * falling, (m, r, offset, q)
            assert scaled_binomial(m, r).eval(5) == comb(5 * m, r)


def test_binomial_product():
    # product of C(q + offset, size), checked at integer points
    factors = [(0, 2), (-2, 1), (3, 3), (-1, 0)]
    p = binomial_product(factors)
    assert degree(p) == 6 and binomial_product([]) == ONE
    for q in range(-6, 8):
        expected = Fraction(1)
        for offset, size in factors:
            x = Fraction(q + offset)
            for j in range(size):
                expected *= (x - j) / (j + 1)
        assert p.eval(q) == expected


def test_linear_coefficient():
    p = QPolynomial.of([5, 7, 9])
    assert p.linear_coefficient == 7
    assert ZERO.linear_coefficient == 0


def test_integer_coefficient_flag():
    assert has_integer_coefficients(QPolynomial.of([1, 2]))
    assert not has_integer_coefficients(QPolynomial.of([Fraction(1, 2)]))


def test_json_round_trip():
    p = QPolynomial.of([Fraction(1, 2), -3, 0, 5])
    assert polynomial_from_json_list(p.to_json_list()) == p


def test_one_is_multiplicative_identity():
    p = QPolynomial.of([3, 0, 2])
    assert p * ONE == p and ONE * p == p
    assert p * ZERO == ZERO


def test_value_semantics():
    p = QPolynomial.of([1, Fraction(1, 2), 0])
    q = QPolynomial((Fraction(1), Fraction(1, 2)))
    assert p == q and hash(p) == hash(q) and len({p, q, ZERO}) == 2
    assert p != QPolynomial.of([1]) and p != p.coeffs and ZERO != ()
    assert repr(p) == "QPolynomial(coeffs=(Fraction(1, 1), Fraction(1, 2)))"
