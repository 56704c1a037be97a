"""Reference answers computed without the chromalie package.

Graphs here are plain ``(vertices, edges)`` pairs: a tuple of integer ids and
a set of ``(u, v)`` pairs with ``u < v``.  Weights are dicts vertex -> count.
Everything is exact integer or Fraction arithmetic.

The general multiplicity and tensor-dimension oracles use the Cartier-Foata
identity: the generating series of trace words is 1/D with
D = sum over independent sets T of (-1)^|T| x^T, and (all-imaginary case)
1/D = prod_k (1 - x^k)^(-mult(k)).  This shares no code path with the
chromatic-polynomial, orientation or trace-word routes the program uses.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, gcd, prod


def moebius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def independent_sets(vertices, edges) -> list[tuple[int, ...]]:
    """Nonempty independent sets, as sorted vertex tuples."""
    return [s for r in range(1, len(vertices) + 1)
            for s in combinations(sorted(vertices), r)
            if not any((min(a, b), max(a, b)) in edges
                       for a, b in combinations(s, 2))]


def _box(bounds: tuple[int, ...]):
    """All integer vectors 0 <= m <= bounds, in order of increasing height."""
    return sorted(product(*(range(b + 1) for b in bounds)), key=sum)


def _log_d(vertices, edges, k: dict[int, int]) -> dict[tuple, Fraction]:
    """Coefficients of log D on the box below k (support of k only), from the
    Euler-operator recurrence ht(m) D(m) = sum_j ht(j) l(j) D(m - j)."""
    support = tuple(sorted(k))
    sub_edges = {e for e in edges if e[0] in k and e[1] in k}
    terms = [(tuple(int(v in s) for v in support), (-1) ** len(s))
             for s in independent_sets(support, sub_edges)]
    log: dict[tuple, Fraction] = {}
    for m in _box(tuple(k[v] for v in support)):
        h = sum(m)
        if h == 0:
            continue
        acc = Fraction(0)
        for t, sign in terms:
            rest = tuple(a - b for a, b in zip(m, t))
            if min(rest) < 0:
                continue
            if sum(rest) == 0:
                acc += h * sign
            else:
                acc -= sum(rest) * log[rest] * sign
        log[m] = acc / h
    return log


def multiplicity(vertices, edges, k: dict[int, int]) -> int:
    """Root multiplicity of weight k (all vertices imaginary), by Moebius
    inversion of the logarithm of the trace-word series."""
    k = {v: c for v, c in k.items() if c}
    support = tuple(sorted(k))
    log = _log_d(vertices, edges, k)
    g = gcd(*k.values())
    total = Fraction(0)
    for d in divisors(g):
        m = tuple(k[v] // d for v in support)
        total += Fraction(moebius(d), d) * -log[m]
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral multiplicity {total}")
    return int(total)


def witt(k: dict[int, int]) -> int:
    """Witt's formula: the multiplicity on a complete graph, where the
    algebra is free."""
    counts = [c for c in k.values() if c]
    n = sum(counts)
    total = sum(moebius(d) * factorial(n // d)
                // prod(factorial(c // d) for c in counts)
                for d in divisors(gcd(*counts)))
    return total // n


def ia_word_count(vertices, edges, k: dict[int, int], i: int) -> int:
    """Number of weight-k trace words with initial alphabet {i}:
    sum over l dividing k of (k_i / l) * mult(k / l)."""
    g = gcd(*(c for c in k.values() if c))
    return sum((k[i] // ell) * multiplicity(
        vertices, edges, {v: c // ell for v, c in k.items()})
        for ell in divisors(g))


def tensor_dimensions(vertices, edges, q: int,
                      max_ht: int) -> dict[tuple, int]:
    """Graded dimensions of the q-fold tensor power of the trace algebra, as
    coefficients of D^-q, for every weight (aligned with sorted vertices) of
    height <= max_ht, the zero weight included."""
    support = tuple(sorted(vertices))
    n = len(support)
    terms = [((0,) * n, 1)] + [
        (tuple(int(v in s) for v in support), (-1) ** len(s))
        for s in independent_sets(support, edges)]
    power = {(0,) * n: 1}
    for _ in range(q):
        nxt: dict[tuple, int] = {}
        for a, ca in power.items():
            for t, sign in terms:
                m = tuple(x + y for x, y in zip(a, t))
                if sum(m) <= max_ht:
                    nxt[m] = nxt.get(m, 0) + ca * sign
        power = {m: c for m, c in nxt.items() if c}
    series: dict[tuple, int] = {}
    for m in _box((max_ht,) * n):
        h = sum(m)
        if h > max_ht:
            continue
        if h == 0:
            series[m] = 1
            continue
        acc = 0
        for a, c in power.items():
            if sum(a) and all(x <= y for x, y in zip(a, m)):
                acc -= c * series[tuple(y - x for x, y in zip(a, m))]
        series[m] = acc
    return series


def weight_vector_count(n: int, max_ht: int) -> int:
    """Nonzero weight vectors on n vertices with height <= max_ht."""
    return comb(n + max_ht, n) - 1


def reciprocity_pairs(shape: str, n: int, q: int) -> int:
    """(-1)^n * chromatic(-q) in closed form for K_n and C_n."""
    if shape == "complete":
        return prod(range(q, q + n))
    if shape == "cycle":
        return (q + 1) ** n - (q + 1)
    raise ValueError(f"no closed form for shape {shape!r}")


def orientation_counts(shape: str, n: int) -> tuple[int, int]:
    """(acyclic orientations, unique-sink orientations for a fixed sink)."""
    if shape == "complete":
        return factorial(n), factorial(n - 1)
    if shape == "cycle":
        return 2 ** n - 2, n - 1
    raise ValueError(f"no closed form for shape {shape!r}")


def lucas_ranks(n_vertices: int, n_edges: int,
                max_k: int) -> list[tuple[Fraction, int]]:
    """(N_k, M_k) for k = 1..max_k when the complement graph (n_vertices,
    n_edges) is triangle free: N_k = <k>/k and M_k = (1/k) sum mu(k/d) <d>,
    with <l> = s<l-1> + t<l-2>, <0> = 2, <1> = s, where s = n_vertices and
    t = -n_edges."""
    lucas = [2, n_vertices]
    while len(lucas) <= max_k:
        lucas.append(n_vertices * lucas[-1] - n_edges * lucas[-2])
    return [(Fraction(lucas[k], k),
             sum(moebius(k // d) * lucas[d] for d in divisors(k)) // k)
            for k in range(1, max_k + 1)]
