"""Root multiplicities by independent routes, plus acyclic orientations.

Routes implemented here:
  * Moebius inversion over the linear coefficient of the chromatic polynomial,
  * the weighted bond-lattice expansion of the chromatic polynomial,
  * counting acyclic orientations with a unique sink on the join graph.
A third combinatorial route (aperiodic trace words) lives in trace.py.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import add, le, sub
from typing import Callable, Mapping

from .graphs import (Graph, GraphError, REAL, Value, WeightVector,
                     is_connected_sub, join_graph, weight_box)
from .polynomials import QPolynomial, times_scaled_falling


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius needs a positive integer")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def moebius_invert(n: int, f: Callable[[int], Fraction | int]) -> int:
    """Sum of mu(d)/d * f(d) over the divisors d of n, which must come out a
    non-negative integer; f is only called where mu(d) != 0."""
    total = Fraction(0)
    for d in range(1, n + 1):
        mu = moebius(d) if n % d == 0 else 0
        if mu:
            total += Fraction(mu, d) * f(d)
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
    v = real_overweight(g, k)
    if v is not None:
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


class BondPartition(Value):
    """Multiset of connected-support weight vectors summing to an ambient one."""

    __slots__ = ("parts",)
    _fields = __slots__
    _key = lambda self: (self.parts,)

    def __init__(self, parts: tuple[WeightVector, ...]):
        self.parts = parts  # sorted descending, repeats allowed

    def multiplicities(self) -> Counter:
        return Counter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def bond_lattice(g: Graph, k: WeightVector) -> list[BondPartition]:
    """All multisets of connected-support weight vectors that sum to k.
    Depth-first over descending candidates on tuples aligned to k.support;
    each residual carries the candidates from the current one on that fit."""
    k.check_support(g)
    if k.is_zero:
        return [BondPartition(())]
    candidates = sorted((w for w in weight_box(k.as_dict())
                         if is_connected_sub(g, w.support)), reverse=True)
    vectors = [tuple(w.get(v) for v in k.support) for w in candidates]
    results: list[BondPartition] = []

    def rec(residual: tuple[int, ...], fitting: list[int],
            acc: tuple[WeightVector, ...]):
        if not any(residual):
            results.append(BondPartition(acc))
            return
        for pos, idx in enumerate(fitting):
            rest = tuple(map(sub, residual, vectors[idx]))
            rec(rest, [j for j in fitting[pos:]
                       if all(map(le, vectors[j], rest))],
                acc + (candidates[idx],))

    rec(tuple(k.get(v) for v in k.support), list(range(len(candidates))), ())
    return results


def bond_table(g: Graph, bounds: Mapping[int, int],
               max_height: int | None = None) -> dict[WeightVector, QPolynomial]:
    """pi_w for each w of the box that real_overweight accepts, by the knapsack
    sum (-1)^ht(w) pi_w x^w = prod over connected alpha of (1 - x^alpha)^
    (q*mult(alpha)) (Cartier & Foata 1969), tallest state first, times ht!."""
    box = [w for w in weight_box(bounds, max_height)
           if real_overweight(g, w) is None]
    radix = 2 * max(bounds.values(), default=0) + 1  # box sums never carry
    place = {v: radix ** j for j, v in enumerate(sorted(bounds))}
    codes = [sum(c * place[v] for v, c in w.counts) for w in box]
    height = {code: w.height for code, w in zip(codes, box)}
    fact = [factorial(h) for h in range(max(height.values(), default=0) + 1)]
    by_height = [[m for m in codes if height[m] == h] for h in range(len(fact))]
    table = {0: [1]}
    for part, step in zip(box, codes):
        if not is_connected_sub(g, part.support) or \
                not (mult := root_multiplicity(g, part)):
            continue
        for h in range(len(fact) - 1 - part.height, -1, -1):
            for m in filter(table.__contains__, by_height[h]):
                coeffs, r, t = table[m], 1, m + step
                while t in height:  # (-1)^r (h + r*ht alpha)! / (h! r!)
                    scale = (-1) ** r * fact[height[t]] // (fact[h] * fact[r])
                    term = times_scaled_falling(coeffs, mult, r)
                    acc = table.setdefault(t, [0] * (height[t] + 1))
                    acc[:len(term)] = map(add, acc, [scale * c for c in term])
                    r, t = r + 1, t + step
    return {w: QPolynomial.of([Fraction((-1) ** w.height * c, fact[w.height])
                               for c in table.get(code, ())])
            for w, code in zip(box, codes)}


def chromatic_via_bond_lattice(g: Graph, k: WeightVector) -> QPolynomial:
    """Chromatic polynomial rebuilt from root multiplicities: a signed sum over
    the weighted bond lattice of products C(q*mult(part), part repetition)."""
    k.check_support(g)
    _check_real_constraint(g, k)
    return bond_table(g, k.as_dict())[k]


class Orientation(Value):
    """Assignment of a direction to every edge; (tail, head) per sorted edge."""

    __slots__ = ("directions",)
    _fields = __slots__
    _key = lambda self: (self.directions,)

    def __init__(self, directions: tuple[tuple[int, int], ...]):
        self.directions = directions

    def sinks(self, g: Graph) -> tuple[int, ...]:
        tails = {t for t, _ in self.directions}
        return tuple(v for v in g.vertices if v not in tails)


def enumerate_acyclic_orientations(g: Graph) -> list[Orientation]:
    """All acyclic orientations, deterministic order.  Directions are assigned
    edge by edge (sorted edge order), pruning as soon as a cycle appears."""
    edges = sorted(g.edges)
    out: list[Orientation] = []
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
            out.append(Orientation(tuple(acc)))
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
    return out


def acyclic_counts(g: Graph) -> list[int]:
    """a[S], the number of acyclic orientations of the subgraph induced by
    the bitmask S over g.vertices, for every S (Stanley 1973): a[0] = 1 and
    a[S] = sum over nonempty independent T within S of
    (-1)^(|T|+1) * a[S - T], inclusion-exclusion over a set T of sinks."""
    sign = g.independent_signs
    a = [1] * len(sign)
    for s in range(1, len(sign)):
        total = 0
        t = s
        while t:
            if sign[t]:
                total += sign[t] * a[s ^ t]
            t = (t - 1) & s
        a[s] = total
    return a


def _unique_sink_counts(g: Graph) -> dict[int, int]:
    """Acyclic orientations whose only sink is v, for each vertex v: u_v =
    sum over independent T containing v of (-1)^(|T|-1) * a[V - T], because
    making every vertex of T a sink leaves any acyclic orientation on V - T."""
    sign = g.independent_signs
    a = acyclic_counts(g)
    full = len(a) - 1
    counts = dict.fromkeys(g.vertices, 0)
    for t in range(1, len(a)):
        if sign[t]:
            for j, v in enumerate(g.vertices):
                if t >> j & 1:
                    counts[v] += sign[t] * a[full ^ t]
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
