"""Generalized chromatic polynomials for vertex multicolorings.

A multicoloring assigns to each vertex v a set of k_v colors from {1..q} such
that adjacent vertices get disjoint sets.  The count is a polynomial in q,
computed here from the numbers of ordered partitions into independent sets,
with closed forms for complete graphs and trees and a brute-force oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .graphs import Graph, GraphError, WeightVector, \
    enumerate_independent_sets
from .polynomials import ONE, QPolynomial, falling_binomial


def ordered_partition_counts(g: Graph, k: WeightVector) -> dict[int, int]:
    """Number of ordered l-tuples of nonempty independent vertex sets whose
    disjoint union realizes the weight multiset, for each tuple length l.

    Parts are sets, so a vertex with k_v >= 2 lands in k_v distinct parts.
    Zero weight yields {0: 1} (the empty tuple).
    """
    k.check_support(g)
    if k.is_zero:
        return {0: 1}
    support = k.support
    parts = [p for p in enumerate_independent_sets(g.induced(support)) if p]
    memo: dict[tuple[int, ...], dict[int, int]] = {}

    def rec(residual: tuple[int, ...]) -> dict[int, int]:
        if not any(residual):
            return {0: 1}
        if residual in memo:
            return memo[residual]
        alive = {v for v, c in zip(support, residual) if c > 0}
        out: dict[int, int] = {}
        for p in parts:
            if p <= alive:
                rest = tuple(c - (v in p) for v, c in zip(support, residual))
                for length, n in rec(rest).items():
                    out[length + 1] = out.get(length + 1, 0) + n
        memo[residual] = out
        return out

    return dict(sorted(rec(tuple(k.get(v) for v in support)).items()))


@lru_cache(maxsize=4096)
def chromatic_poly(g: Graph, k: WeightVector) -> QPolynomial:
    """The multicoloring-counting polynomial in the number of colors q."""
    counts = ordered_partition_counts(g, k)
    total = QPolynomial.of([])
    for length, n in counts.items():
        total = total + falling_binomial(0, length).scale(n)
    return total


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
    """Brute-force multicoloring count; independent of the polynomial route."""
    if q < 0:
        raise GraphError("q must be non-negative")
    k.check_support(g)
    support = k.support
    colors = range(q)

    def rec(idx: int, assigned: dict[int, frozenset[int]]) -> int:
        if idx == len(support):
            return 1
        v = support[idx]
        forbidden = frozenset().union(
            *(assigned[u] for u in assigned if g.adjacent(u, v)), frozenset())
        total = 0
        for choice in combinations([c for c in colors if c not in forbidden],
                                   k.get(v)):
            assigned[v] = frozenset(choice)
            total += rec(idx + 1, assigned)
            del assigned[v]
        return total

    return rec(0, {})
