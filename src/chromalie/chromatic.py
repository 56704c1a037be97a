"""Generalized chromatic polynomials for vertex multicolorings.

A multicoloring assigns to each vertex v a set of k_v colors from {1..q} such
that adjacent vertices get disjoint sets.  The count is a polynomial in q,
computed here from the numbers of ordered partitions into independent sets,
with closed forms for complete graphs and trees and a brute-force oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from operator import sub
from typing import Callable

from .graphs import Graph, GraphError, WeightVector
from .polynomials import ONE, QPolynomial, falling_binomial, \
    times_scaled_falling


@lru_cache(maxsize=32)
def _partition_dp(g: Graph) -> Callable[[tuple[int, ...]], list[int]]:
    """A function from a residual weight, as a tuple aligned to g.vertices,
    to the number of ordered l-tuples of nonempty independent sets whose
    disjoint union realizes it, at list index l.  Its residual memo lives as
    long as the graph's cache entry, so every weight of a box shares it."""
    parts = [(s, tuple(s >> j & 1 for j in range(len(g.vertices))))
             for s, sign in enumerate(g.independent_signs) if s and sign]
    memo: dict[tuple[int, ...], list[int]] = {(0,) * len(g.vertices): [1]}

    def counts(residual: tuple[int, ...]) -> list[int]:
        out = memo.get(residual)
        if out is None:
            alive = sum(1 << j for j, c in enumerate(residual) if c)
            out = [0] * (sum(residual) + 1)
            for mask, bits in parts:
                if not mask & ~alive:
                    for length, n in enumerate(
                            counts(tuple(map(sub, residual, bits))), 1):
                        out[length] += n
            memo[residual] = out
        return out

    return counts


def ordered_partition_counts(g: Graph, k: WeightVector) -> dict[int, int]:
    """Number of ordered l-tuples of nonempty independent vertex sets whose
    disjoint union realizes the weight multiset, for each tuple length l.

    Parts are sets, so a vertex with k_v >= 2 lands in k_v distinct parts.
    Zero weight yields {0: 1} (the empty tuple).
    """
    k.check_support(g)
    weights = k.as_dict()
    counts = _partition_dp(g)(tuple(weights.get(v, 0) for v in g.vertices))
    return {length: n for length, n in enumerate(counts) if n}


@lru_cache(maxsize=4096)
def chromatic_poly(g: Graph, k: WeightVector) -> QPolynomial:
    """The multicoloring-counting polynomial in the number of colors q:
    sum over l of n_l * C(q, l), assembled in integers as
    n_l * (ht!/l!) * q(q-1)...(q-l+1) and divided by ht! once."""
    ht = k.height
    total = [0] * (ht + 1)
    for length, n in ordered_partition_counts(g, k).items():
        term = times_scaled_falling(
            [n * (factorial(ht) // factorial(length))], 1, length)
        for power, c in enumerate(term):
            total[power] += c
    return QPolynomial.of([Fraction(c, factorial(ht)) for c in total])


def chromatic_complete(k: list[int]) -> QPolynomial:
    """Closed form for a complete graph: colors for each vertex must avoid
    everything already used, so the factors are C(q - partial sum, k_j)."""
    if not k:
        raise GraphError("complete-graph weight list must be nonempty")
    if any(c <= 0 for c in k):
        raise GraphError("complete-graph weights must be positive")
    total = ONE
    used = 0
    for c in k:
        total = total * falling_binomial(-used, c)
        used += c
    return total


def chromatic_tree(g: Graph, k: WeightVector) -> QPolynomial:
    """Closed form when the induced support subgraph is a tree: eliminate a
    leaf at a time, each contributing C(q - k_parent, k_leaf)."""
    k.check_support(g)
    sub = g.induced(k.support)
    n = len(sub.vertices)
    if n == 0:
        raise GraphError("tree closed form needs nonempty support")
    if len(sub.edges) != n - 1:
        raise GraphError("support subgraph is not a tree")
    remaining = set(sub.vertices)
    total = ONE
    while len(remaining) > 1:
        leaves = sorted(v for v in remaining
                        if sum(u in remaining for u in sub.neighbors(v)) == 1)
        if not leaves:
            raise GraphError("support subgraph is not a tree")
        leaf = leaves[0]
        parent = next(u for u in sub.neighbors(leaf) if u in remaining)
        total = total * falling_binomial(-k.get(parent), k.get(leaf))
        remaining.remove(leaf)
    last = remaining.pop()
    return total * falling_binomial(0, k.get(last))


def coloring_count_oracle(g: Graph, k: WeightVector, q: int) -> int:
    """Brute-force multicoloring count; independent of the polynomial route.
    Color sets are bitmasks over {0..q-1}, chosen vertex by vertex in support
    order, each avoiding the colors of its earlier neighbours; the last
    vertex's choices are counted rather than listed."""
    if q < 0:
        raise GraphError("q must be non-negative")
    k.check_support(g)
    support = k.support
    if not support:
        return 1
    sizes = [k.get(v) for v in support]
    earlier = [[j for j, u in enumerate(support[:idx]) if g.adjacent(u, v)]
               for idx, v in enumerate(support)]
    used = [0] * len(support)

    def rec(idx: int) -> int:
        forbidden = 0
        for j in earlier[idx]:
            forbidden |= used[j]
        free = [1 << c for c in range(q) if not forbidden >> c & 1]
        if idx == len(support) - 1:
            return comb(len(free), sizes[idx])
        total = 0
        for choice in combinations(free, sizes[idx]):
            used[idx] = sum(choice)
            total += rec(idx + 1)
        return total

    return rec(0)
