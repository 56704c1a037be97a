"""Root multiplicities by independent routes, plus acyclic orientations.

Routes implemented here:
  * Moebius inversion over the linear coefficient of the chromatic polynomial,
  * the weighted bond-lattice expansion of the chromatic polynomial,
  * counting acyclic orientations with a unique sink on the join graph.
A third combinatorial route (aperiodic trace words) lives in trace.py.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import add
from typing import Callable, Mapping

from .graphs import (Graph, GraphError, REAL, WeightVector, coded_box,
                     is_connected_sub, join_graph)
from .polynomials import QPolynomial, times_scaled_falling


def moebius_invert(n: int, f: Callable[[int], Fraction | int]) -> int:
    """Sum of mu(d)/d * f(d) over the divisors d of n, which must come out a
    non-negative integer.  mu(d) is 0 unless d is a product of distinct
    primes p of n, where it is (-1)^(number of primes); so n is factored once,
    by trial division, and f is called only at those products."""
    if n < 1:
        raise ValueError("moebius_invert needs a positive integer")
    signed, rest, p = [(1, 1)], n, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left is prime
        if rest % p == 0:
            signed += [(d * p, -mu) for d, mu in signed]
            while rest % p == 0:
                rest //= p
        p += 1
    total = sum((Fraction(mu, d) * f(d) for d, mu in signed), Fraction(0))
    if total.denominator != 1 or total < 0:
        raise GraphError(f"Moebius inversion over the divisors of {n} gave "
                         f"{total}, not a non-negative integer")
    return int(total)


def tuple_divisors(k: WeightVector) -> list[int]:
    """Ascending divisors of gcd of the nonzero entries ("l divides k")."""
    if k.is_zero:
        raise GraphError("zero weight vector has no tuple divisors")
    g = k.gcd()
    return [d for d in range(1, g + 1) if g % d == 0]


def real_overweight(g: Graph, k: WeightVector) -> int | None:
    """A real vertex weighted above 1 in k (no route accepts it), or None."""
    return next((v for v, c in k.counts if g.kind(v) == REAL and c > 1), None)


def _check_real_constraint(g: Graph, k: WeightVector) -> None:
    if (v := real_overweight(g, k)) is not None:
        raise GraphError(f"real vertex {v} carries weight {k.get(v)} > 1")


@lru_cache(maxsize=4096)
def root_multiplicity(g: Graph, k: WeightVector) -> int:
    """Moebius-inversion formula over |linear coefficient of chromatic_poly|.

    Returns 0 on disconnected support (the root space vanishes there).
    """
    from .chromatic import chromatic_poly  # orientations needs no chromatic
    if k.is_zero:
        raise GraphError("zero weight vector")
    k.check_support(g)
    _check_real_constraint(g, k)
    if not is_connected_sub(g, k.support):
        return 0
    return moebius_invert(k.gcd(), lambda ell: abs(
        chromatic_poly(g, k.divide(ell)).linear_coefficient))


def bond_lattice(g: Graph, k: WeightVector) -> list[tuple[WeightVector, ...]]:
    """All multisets of connected-support weight vectors that sum to k, each
    as a tuple of parts in descending order, repeats allowed.  Depth-first
    over descending candidates on the codes of coded_box(k): a candidate fits
    a residual code when the difference is again a box code, and each
    residual carries the candidates from the current one on that fit."""
    k.check_support(g)
    box = [(w, code) for w, code, _, _ in coded_box(k.as_dict())[1]]
    codes = {code for _, code in box}
    candidates = sorted(((w, code) for w, code in box
                         if is_connected_sub(g, w.support)), reverse=True)
    results: list[tuple[WeightVector, ...]] = []

    def rec(residual: int, fitting: list[tuple[WeightVector, int]],
            acc: tuple[WeightVector, ...]):
        if not residual:
            results.append(acc)
            return
        for pos, (part, step) in enumerate(fitting):
            rest = residual - step
            rec(rest, [c for c in fitting[pos:] if rest - c[1] in codes],
                acc + (part,))

    rec(box[-1][1], candidates, ())  # the box ends at k itself
    del rec  # break rec's cycle through its cell, so the candidates free now
    return results


def bond_table(g: Graph, bounds: Mapping[int, int],
               max_height: int | None = None) -> dict[WeightVector, QPolynomial]:
    """pi_w for each w of the box that real_overweight accepts, by the knapsack
    sum (-1)^ht(w) pi_w x^w = prod over connected alpha of (1 - x^alpha)^
    (q*mult(alpha)) (Cartier & Foata 1969), tallest state first, times ht!."""
    box = [(w, code, ht) for w, code, ht, _ in coded_box(bounds, max_height)[1]
           if real_overweight(g, w) is None]
    height = {code: ht for _, code, ht in box}
    fact = [factorial(h) for h in range(max(height.values(), default=0) + 1)]
    by_height = [[m for m in height if height[m] == h] for h in range(len(fact))]
    table = {0: [1]}
    for part, step, ht in box:
        if not is_connected_sub(g, part.support) or \
                not (mult := root_multiplicity(g, part)):
            continue
        for h in range(len(fact) - 1 - ht, -1, -1):
            for m in filter(table.__contains__, by_height[h]):
                coeffs, r, t = table[m], 1, m + step
                while t in height:  # (-1)^r (h + r*ht alpha)! / (h! r!)
                    scale = (-1) ** r * fact[height[t]] // (fact[h] * fact[r])
                    term = times_scaled_falling(coeffs, mult, r)
                    acc = table.setdefault(t, [0] * (height[t] + 1))
                    acc[:len(term)] = map(add, acc, [scale * c for c in term])
                    r, t = r + 1, t + step
    return {w: QPolynomial.of(table.get(code, ()), (-1) ** ht * fact[ht])
            for w, code, ht in box}


def chromatic_via_bond_lattice(g: Graph, k: WeightVector) -> QPolynomial:
    """Chromatic polynomial rebuilt from root multiplicities: a signed sum over
    the weighted bond lattice of products C(q*mult(part), part repetition)."""
    k.check_support(g)
    _check_real_constraint(g, k)
    return bond_table(g, k.as_dict())[k]


def enumerate_acyclic_orientations(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """All acyclic orientations, deterministic order, each a (tail, head) pair
    per edge in sorted edge order.  Directions are assigned edge by edge,
    pruning as soon as a cycle appears."""
    edges = sorted(g.edges)
    out: list[tuple[tuple[int, int], ...]] = []
    succ: dict[int, set[int]] = {v: set() for v in g.vertices}

    def reaches(a: int, b: int) -> bool:
        stack, seen = [a], {a}
        while stack:
            u = stack.pop()
            if u == b:
                return True
            for w in succ[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def rec(idx: int, acc: list[tuple[int, int]]):
        if idx == len(edges):
            out.append(tuple(acc))
            return
        u, v = edges[idx]
        for tail, head in ((u, v), (v, u)):
            if not reaches(head, tail):  # adding tail->head stays acyclic
                succ[tail].add(head)
                acc.append((tail, head))
                rec(idx + 1, acc)
                acc.pop()
                succ[tail].remove(head)

    rec(0, [])
    del rec  # break rec's cycle through its cell, so succ frees now
    return out


def acyclic_counts(g: Graph) -> list[int]:
    """a[S], the number of acyclic orientations of the subgraph induced by
    the bitmask S over g.vertices, for every S (Stanley 1973): a[0] = 1 and
    a[S] = sum over nonempty independent T within S of
    (-1)^(|T|+1) * a[S - T], inclusion-exclusion over a set T of sinks."""
    subsets = g.independent_subsets
    a = [1] * len(subsets)
    for s in range(1, len(a)):
        a[s] = sum(a[s ^ t] if t.bit_count() & 1 else -a[s ^ t]
                   for t in subsets[s])
    return a


def _unique_sink_counts(g: Graph) -> dict[int, int]:
    """Acyclic orientations whose only sink is v, for each vertex v: u_v =
    sum over independent T containing v of (-1)^(|T|-1) * a[V - T], because
    making every vertex of T a sink leaves any acyclic orientation on V - T."""
    a = acyclic_counts(g)
    full = len(a) - 1
    counts = dict.fromkeys(g.vertices, 0)
    for t in g.independent_subsets[full]:
        term = a[full ^ t] if t.bit_count() & 1 else -a[full ^ t]
        for j, v in enumerate(g.vertices):
            if t >> j & 1:
                counts[v] += term
    return counts


def count_unique_sink(g: Graph, sink: int) -> int:
    if not g.has_vertex(sink):
        raise GraphError(f"unknown sink {sink}")
    if not is_connected_sub(g, g.vertices):
        raise GraphError("unique-sink counting needs a connected graph")
    return _unique_sink_counts(g)[sink]


@lru_cache(maxsize=4096)
def _first_clone_counts(g: Graph, k: WeightVector) -> dict[int, int]:
    """Unique-sink counts of join_graph(g, k) at each vertex's first clone."""
    jg, clone_map = join_graph(g, k)
    counts = _unique_sink_counts(jg)
    return {v: counts[c] for c, (v, copy) in clone_map.items() if copy == 1}


def mult_via_orientations(g: Graph, k: WeightVector, i: int) -> int:
    """Multiplicity from unique-sink acyclic orientation counts on join graphs.

    The sink is the first clone of i: a join-graph automorphism swaps any two
    clones of i, so all have the same count (tested per clone).
    """
    if i not in k.support:
        raise GraphError(f"vertex {i} not in the support of k")
    _check_real_constraint(g, k)
    if not is_connected_sub(g, k.support):
        return 0
    return moebius_invert(k.gcd(), lambda ell: Fraction(
        _first_clone_counts(g, k.divide(ell))[i],
        prod(factorial(c // ell) for _, c in k.counts)))
