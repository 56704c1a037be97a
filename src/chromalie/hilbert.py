"""Graded dimensions, reciprocity checks and lower-central-series ranks.

Everything here lives in the all-imaginary regime, where the enveloping
algebra of the positive part has the trace monoid as a linear basis.  The
graded dimensions of its q-fold tensor power are chromatic-polynomial values
at -q (up to sign), which is what Stanley-style reciprocity rests on.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import sub

from .chromatic import chromatic_poly
from .graphs import Graph, GraphError, WeightVector, complement, \
    is_triangle_free, weight_box
from .multiplicity import acyclic_counts, moebius_invert
from .polynomials import QPolynomial


def uq_dimension(g: Graph, k: WeightVector, q: int) -> int:
    """Dimension of the weight-k component of the q-fold tensor power of the
    enveloping algebra: (-1)^ht(k) * chromatic_poly(k) evaluated at -q."""
    g.check_imaginary()
    if q < 1:
        raise GraphError("q must be a positive integer")
    value = (-1) ** k.height * chromatic_poly(g, k).eval(-q)
    if value.denominator != 1 or value < 0:
        raise GraphError(f"dimension {value} is not a non-negative integer")
    return int(value)


def trace_dimension_oracle(g: Graph, k: WeightVector) -> int:
    """Independent count of weight-k trace words (the q=1 dimension)."""
    from .trace import enumerate_weight_words  # only verify needs trace
    g.check_imaginary()
    return len(enumerate_weight_words(g, k))


def _ordered_weight_partitions(k: WeightVector, q: int):
    """All ordered q-tuples of (possibly zero) weight vectors summing to k."""
    support = k.support
    per_vertex = []
    for v in support:
        per_vertex.append([comp for comp in _compositions(k.get(v), q)])
    for combo in product(*per_vertex):
        yield tuple(
            WeightVector.of({v: combo[vi][j] for vi, v in enumerate(support)})
            for j in range(q))


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def ordered_partition_identity_check(g: Graph, k: WeightVector, q: int) -> bool:
    """Brute-force check that chromatic_poly(k) at -q equals the sum over
    ordered q-part decompositions of products of values at -1 (empty parts
    contribute a factor 1)."""
    g.check_imaginary()
    if q < 1:
        raise GraphError("q must be a positive integer")
    lhs = chromatic_poly(g, k).eval(-q)
    rhs = Fraction(0)
    for decomposition in _ordered_weight_partitions(k, q):
        term = Fraction(1)
        for part in decomposition:
            if not part.is_zero:
                term *= chromatic_poly(g, part).eval(-1)
        rhs += term
    return lhs == rhs


def count_compatible_pairs(g: Graph, q: int) -> int:
    """Number of pairs (vertex labeling into {1..q}, acyclic orientation) with
    labels non-increasing along every directed edge.  Edges between label
    classes are forced downward, so the count is the q-fold subset
    convolution f_1 = a, f_{j+1}[S] = sum over T within S of f_j[T] * a[S - T]
    of the acyclic-orientation counts a, read at the full vertex set."""
    if q < 1:
        raise GraphError("q must be a positive integer")
    a = acyclic_counts(g)
    f = a
    for _ in range(q - 2):
        f = [_convolve_at(f, a, s) for s in range(len(a))]
    return a[-1] if q == 1 else _convolve_at(f, a, len(a) - 1)


def _convolve_at(f: list[int], a: list[int], s: int) -> int:
    total = f[0] * a[s]
    t = s
    while t:
        total += f[t] * a[s ^ t]
        t = (t - 1) & s
    return total


def independent_set_polynomial(g: Graph) -> QPolynomial:
    """Counts of independent sets by size, as a polynomial (constant term 1)."""
    counts = [0] * (len(g.vertices) + 1)
    for s, sign in enumerate(g.independent_signs):
        counts[s.bit_count()] += abs(sign)
    return QPolynomial.of(counts)


def _log_series(coeffs: list[Fraction], max_k: int) -> list[Fraction]:
    """Coefficients 1..max_k of L = -log(U), U = 1 + sum coeffs[j] X^j, by
    U L' = -U': n L_n = -(n u_n + sum over 0 < j < n of j L_j u_(n-j))."""
    u = [Fraction(c) for c in coeffs[:max_k + 1]]
    u += [Fraction(0)] * (max_k + 1 - len(u))
    log = [Fraction(0)] * (max_k + 1)
    for n in range(1, max_k + 1):
        log[n] = -(n * u[n] + sum(j * log[j] * u[n - j]
                                  for j in range(1, n))) / n
    return log[1:]


def lcs_ranks(g: Graph, max_k: int) -> list[tuple[Fraction, int]]:
    """Pairs (N_k, M_k) for k = 1..max_k from the alternating independent-set
    polynomial: N_k are the coefficients of its negated logarithm, and the
    integers M_k follow by Moebius inversion (graded ranks by bracket length)."""
    g.check_imaginary()
    if max_k < 1:
        raise GraphError("max_k must be positive")
    isp = independent_set_polynomial(g)
    alternating = [((-1) ** j) * isp.coefficient(j)
                   for j in range(isp.degree + 1)]
    return _ranks(_log_series(alternating, max_k))


def _ranks(n_values: list[Fraction]) -> list[tuple[Fraction, int]]:
    """Pairs (N_k, M_k) with M_k = sum over d | k of mu(d)/d * N_{k/d}."""
    return [(n_values[k - 1],
             moebius_invert(k, lambda d: n_values[k // d - 1]))
            for k in range(1, len(n_values) + 1)]


def lucas_value(ell: int, s: int, t: int) -> int:
    """Two-variable Lucas value by the recurrence <l> = s<l-1> + t<l-2>,
    <0> = 2, <1> = s."""
    if ell < 0:
        raise GraphError("ell must be non-negative")
    prev, cur = 2, s
    if ell == 0:
        return prev
    for _ in range(ell - 1):
        prev, cur = cur, s * cur + t * prev
    return cur


def lcs_ranks_triangle_free(g: Graph, max_k: int) -> list[tuple[Fraction, int]]:
    """Lucas-polynomial closed form for the ranks, valid when the complement
    graph is triangle free: N_k = <k>_{v,-e}/k with v, e the complement's
    vertex and edge counts."""
    g.check_imaginary()
    if max_k < 1:
        raise GraphError("max_k must be positive")
    comp = complement(g)
    if not is_triangle_free(comp):
        raise GraphError("complement graph has a triangle")
    v, e = len(comp.vertices), len(comp.edges)
    return _ranks([Fraction(lucas_value(k, v, -e), k)
                   for k in range(1, max_k + 1)])


def series_table(g: Graph, q: int, max_height: int) -> dict[WeightVector, int]:
    """Graded dimensions of the q-fold tensor power for every weight vector of
    height at most the bound (the zero weight included, with dimension 1).

    They are the coefficients F_m of F = D^-q, D = sum over independent S of
    (-1)^|S| x^S (Cartier & Foata 1969).  The Euler operator E = sum of
    x_v d/dx_v gives D * E(F) = -q F * E(D), whose coefficient at m != 0 is
    the integer recurrence
    ht(m) F_m = sum over nonempty independent S within supp(m) of
    (-1)^(|S|+1) (ht(m) + (q-1)|S|) F_(m-S),
    solved over the box in order of height on tuples aligned to g.vertices.
    """
    g.check_imaginary()
    if q < 1:
        raise GraphError("q must be a positive integer")
    if max_height < 0:
        raise GraphError("height bound must be non-negative")
    n = len(g.vertices)
    sign = g.independent_signs
    bits = {s: tuple(s >> j & 1 for j in range(n))
            for s in range(1, 1 << n) if sign[s]}
    box = sorted(weight_box(dict.fromkeys(g.vertices, max_height), max_height),
                 key=lambda k: k.height)
    dims: dict[tuple[int, ...], int] = {}
    table: dict[WeightVector, int] = {}
    for k in box:
        weights = k.as_dict()
        m = tuple(weights.get(v, 0) for v in g.vertices)
        ht = k.height
        if not ht:
            dims[m] = table[k] = 1
            continue
        total = 0
        alive = sum(1 << j for j, c in enumerate(m) if c)
        s = alive
        while s:
            if sign[s]:
                total += sign[s] * (ht + (q - 1) * s.bit_count()) * \
                    dims[tuple(map(sub, m, bits[s]))]
            s = (s - 1) & alive
        value, rest = divmod(total, ht)
        if rest or value < 0:
            raise GraphError(f"weight {k.as_dict()}: {total}/{ht} is not a "
                             f"non-negative integer dimension")
        dims[m] = table[k] = value
    return table
