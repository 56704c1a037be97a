"""Graded dimensions, reciprocity checks and lower-central-series ranks.

Everything here lives in the all-imaginary regime, where the enveloping
algebra of the positive part has the trace monoid as a linear basis.  The
graded dimensions of its q-fold tensor power are chromatic-polynomial values
at -q (up to sign), which is what Stanley-style reciprocity rests on.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import Graph, GraphError, WeightVector, coded_box, complement, \
    is_triangle_free, weight_box


def uq_dimension(g: Graph, k: WeightVector, q: int) -> int:
    """Dimension of the weight-k component of the q-fold tensor power of the
    enveloping algebra: (-1)^ht(k) * chromatic_poly(k) evaluated at -q."""
    from .chromatic import chromatic_poly  # series_table needs no chromatic
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
    if q == 1:
        yield (k,)
        return
    for first in weight_box(k.as_dict()):
        rest = WeightVector.of({v: c - first.get(v) for v, c in k.counts})
        for tail in _ordered_weight_partitions(rest, q - 1):
            yield (first,) + tail


def ordered_partition_identity_check(g: Graph, k: WeightVector, q: int) -> bool:
    """Brute-force check that chromatic_poly(k) at -q equals the sum over
    ordered q-part decompositions of products of values at -1 (empty parts
    contribute a factor 1)."""
    from .chromatic import chromatic_poly
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
    from .multiplicity import acyclic_counts  # series_table needs neither
    if q < 1:
        raise GraphError("q must be a positive integer")
    f = a = acyclic_counts(g)
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


def lcs_ranks(g: Graph, max_k: int) -> list[tuple[Fraction, int]]:
    """Pairs (N_k, M_k) for k = 1..max_k from the alternating independent-set
    polynomial U = sum over independent S of (-X)^|S|: N_k are the
    coefficients of -log U, and the integers M_k follow by Moebius inversion
    (graded ranks by bracket length).  U L' = -U' for L = -log U gives
    Newton's identities for a_n = n N_n,
    a_n = -(n u_n + sum over 0 < j < n of u_j a_(n-j)),
    with u_j = 0 above the independence number alpha: O(max_k * alpha)."""
    g.check_imaginary()
    if max_k < 1:
        raise GraphError("max_k must be positive")
    u: dict[int, int] = {}  # the nonzero u_j, j > 0
    for s in g.independent_subsets[-1]:
        j = s.bit_count()
        u[j] = u.get(j, 0) + (-1) ** j
    a = [0]
    for n in range(1, max_k + 1):
        a.append(-n * u.get(n, 0) - sum(c * a[n - j] for j, c in u.items()
                                        if j < n))
    return _ranks(a)


def lcs_ranks_triangle_free(g: Graph, max_k: int) -> list[tuple[Fraction, int]]:
    """Lucas-polynomial closed form for the ranks, valid when the complement
    graph is triangle free: a_k = k N_k = <k>_{v,-e} with v, e the
    complement's vertex and edge counts, from one pass of the recurrence
    <l> = v<l-1> - e<l-2>, <0> = 2, <1> = v."""
    g.check_imaginary()
    if max_k < 1:
        raise GraphError("max_k must be positive")
    comp = complement(g)
    if not is_triangle_free(comp):
        raise GraphError("complement graph has a triangle")
    v, e = len(comp.vertices), len(comp.edges)
    a = [2, v]
    while len(a) <= max_k:
        a.append(v * a[-1] - e * a[-2])
    return _ranks(a)


def _ranks(a: list[int]) -> list[tuple[Fraction, int]]:
    """Pairs (N_k, M_k) for k = 1..len(a) - 1 from a_k = k N_k (a[0] is not
    read), with M_k = sum over d | k of mu(d)/d * N_(k/d)."""
    from .multiplicity import moebius_invert
    values = [Fraction(x, k) for k, x in enumerate(a) if k]
    return [(values[k - 1], moebius_invert(k, lambda d: values[k // d - 1]))
            for k in range(1, len(a))]


def series_table(g: Graph, q: int, max_height: int) -> dict[WeightVector, int]:
    """Graded dimensions of the q-fold tensor power for every weight vector of
    height at most the bound (the zero weight included, with dimension 1).

    They are the coefficients F_m of F = D^-q, D = sum over independent S of
    (-1)^|S| x^S (Cartier & Foata 1969).  The Euler operator E = sum of
    x_v d/dx_v gives D * E(F) = -q F * E(D), whose coefficient at m != 0 is
    the integer recurrence
    ht(m) F_m = sum over nonempty independent S within supp(m) of
    (-1)^(|S|+1) (ht(m) + (q-1)|S|) F_(m-S),
    solved over the box on the codes, heights and support masks of
    graphs.coded_box.
    """
    g.check_imaginary()
    if q < 1:
        raise GraphError("q must be a positive integer")
    if max_height < 0:
        raise GraphError("height bound must be non-negative")
    subsets = g.independent_subsets
    place, box = coded_box(dict.fromkeys(g.vertices, max_height), max_height)
    step = {s: sum(place[v] for j, v in enumerate(g.vertices) if s >> j & 1)
            for s in subsets[-1]}
    # The box is in lexicographic order of the counts aligned to g.vertices,
    # so m - S, below m in every count, is solved before m.
    dims: dict[int, int] = {}
    table: dict[WeightVector, int] = {}
    for k, m, ht, alive in box:
        if not ht:
            dims[m] = table[k] = 1
            continue
        total = 0
        for s in subsets[alive]:
            n = s.bit_count()
            term = (ht + (q - 1) * n) * dims[m - step[s]]
            total += term if n & 1 else -term
        value, rest = divmod(total, ht)
        if rest or value < 0:
            raise GraphError(f"weight {k.as_dict()}: {total}/{ht} is not a "
                             f"non-negative integer dimension")
        dims[m] = table[k] = value
    return table
