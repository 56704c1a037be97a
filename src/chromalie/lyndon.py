"""Lyndon words over single-marker trace words, bracketings and basis checks.

For a fixed vertex i, the alphabet consists of trace words containing exactly
one i whose initial alphabet is {i}.  Letters compare by their canonical forms
(tuple comparison, so a proper prefix sorts first).  Lyndon sequences over
this alphabet index bases of the corresponding graded components; expanding
the bracketings inside the trace algebra lets us verify independence exactly.
"""

from __future__ import annotations

from math import gcd
from operator import le, sub

from .graphs import Graph, GraphError, Value, WeightVector, weight_box
from .multiplicity import root_multiplicity
from .trace import (TraceWord, b_tilde, canonicalize, enumerate_weight_words,
                    initial_alphabet)

LyndonSeq = tuple[TraceWord, ...]
# A bracket tree is either a leaf (a trace word, i.e. tuple of ints) or a
# pair (left, right) of bracket trees.
LieExpr = dict[TraceWord, int]


def x_i_alphabet(g: Graph, k: WeightVector, i: int) -> list[TraceWord]:
    """All words of weight <= k componentwise that contain exactly one i and
    have initial alphabet multiset {i}; sorted by canonical form."""
    if i not in k.support:
        raise GraphError(f"vertex {i} not in the support of k")
    return sorted(word for w in weight_box({**k.as_dict(), i: 1})
                  if w.get(i) == 1 for word in b_tilde(g, w, i))


def is_lyndon(seq: LyndonSeq) -> bool:
    """Strictly smaller than every proper cyclic rotation."""
    if not seq:
        return False
    return all(seq < seq[r:] + seq[:r] for r in range(1, len(seq)))


def standard_factorization(seq: LyndonSeq) -> tuple[LyndonSeq, LyndonSeq]:
    """Split a Lyndon sequence as u*v with v the longest proper Lyndon suffix."""
    if len(seq) < 2 or not is_lyndon(seq):
        raise GraphError("standard factorization needs a Lyndon word of length >= 2")
    # The last letter alone is a Lyndon suffix, so a split always exists.
    j = next(j for j in range(1, len(seq)) if is_lyndon(seq[j:]))
    u, v = seq[:j], seq[j:]
    if not (is_lyndon(u) and u < v):
        raise GraphError(f"standard factorization broke at position {j}")
    return u, v


def bracket_tree(seq: LyndonSeq):
    """Nested-pair bracketing following the standard factorization."""
    if len(seq) == 1:
        return seq[0]
    u, v = standard_factorization(seq)
    return (bracket_tree(u), bracket_tree(v))


def c_i_set(g: Graph, k: WeightVector, i: int) -> list[LyndonSeq]:
    """All Lyndon sequences over the i-marked alphabet with total weight k."""
    if k.get(i) < 1:
        raise GraphError(f"vertex {i} needs positive weight")
    support = k.support
    marker = support.index(i)
    # Each letter's weight as a count tuple aligned to k.support.
    letters = [(w, tuple(w.count(v) for v in support))
               for w in x_i_alphabet(g, k, i)]
    results = []

    def rec(residual: tuple[int, ...], acc: list[TraceWord]):
        if not any(residual):
            if is_lyndon(tuple(acc)):
                results.append(tuple(acc))
            return
        if residual[marker] < 1:
            return
        for w, wt in letters:
            if all(map(le, wt, residual)):
                acc.append(w)
                rec(tuple(map(sub, residual, wt)), acc)
                acc.pop()

    rec(tuple(k.get(v) for v in support), [])
    return sorted(results)


def right_normed_nonzero(letters, g: Graph) -> bool:
    """Whether the right-normed Lie word on these letters is nonzero: the
    initial alphabet must be a single occurrence of a single letter."""
    ia = initial_alphabet(letters, g)
    return sum(ia.values()) == 1


def _mul(a: LieExpr, b: LieExpr, g: Graph) -> LieExpr:
    out: LieExpr = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            key = canonicalize(wa + wb, g)
            out[key] = out.get(key, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def _commutator(a: LieExpr, b: LieExpr, g: Graph) -> LieExpr:
    ab = _mul(a, b, g)
    ba = _mul(b, a, g)
    out = dict(ab)
    for w, c in ba.items():
        out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c}


def expand_right_normed(word, g: Graph) -> LieExpr:
    """Expansion of [e_{i1},[e_{i2},...[e_{i_{r-1}},e_{ir}]..]] in the trace
    algebra (valid model of the enveloping algebra when all vertices are
    imaginary)."""
    g.check_imaginary()
    expr: LieExpr = {canonicalize((word[-1],), g): 1}
    for letter in reversed(word[:-1]):
        expr = _commutator({(letter,): 1}, expr, g)
    return expr


def expand_bracket(tree, g: Graph) -> LieExpr:
    """Expand a bracket tree (leaves expand as right-normed Lie words)."""
    g.check_imaginary()
    if isinstance(tree[0], int):  # leaf: a trace word
        return expand_right_normed(tree, g)
    left, right = tree
    return _commutator(expand_bracket(left, g), expand_bracket(right, g), g)


def exact_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free
    elimination: each row is reduced against the pivot rows kept so far by
    cross-multiplication and then divided by the gcd of its entries."""
    pivots: list[tuple[int, dict[int, int]]] = []
    for row in rows:
        r = {j: x for j, x in enumerate(row) if x}
        for col, p in pivots:
            a, b = r.get(col), p[col]
            if a:
                r = {j: b * r.get(j, 0) - a * p.get(j, 0)
                     for j in r.keys() | p.keys()}
                d = gcd(*r.values())
                r = {j: x // d for j, x in r.items() if x}
        if r:
            pivots.append((min(r), r))
    return len(pivots)


class BasisReport(Value):
    """What verify_basis found; a record, read but never modified.  Its key
    holds a list, so reports compare but do not hash."""

    __slots__ = ("lyndon", "multiplicity", "lyndon_count", "counts_match",
                 "rank", "rank_matches", "right_normed_checked",
                 "right_normed_consistent")
    _fields = __slots__

    def __init__(self, lyndon: list[LyndonSeq], multiplicity: int,
                 lyndon_count: int, counts_match: bool, rank: int,
                 rank_matches: bool, right_normed_checked: bool,
                 right_normed_consistent: bool):
        self.lyndon = lyndon                  # c_i_set(g, k, i)
        self.multiplicity = multiplicity
        self.lyndon_count = lyndon_count
        self.counts_match = counts_match
        self.rank = rank
        self.rank_matches = rank_matches
        self.right_normed_checked = right_normed_checked  # only when k_i = 1
        self.right_normed_consistent = right_normed_consistent


def _expr_vector(expr: LieExpr, basis_words: list[TraceWord]) -> list[int]:
    return [expr.get(w, 0) for w in basis_words]


def verify_basis(g: Graph, k: WeightVector, i: int) -> BasisReport:
    """Check that the expanded Lyndon bracketings form a basis of the graded
    component: cardinality equals the root multiplicity and the expansions
    have full rank over the rationals."""
    lyndon = c_i_set(g, k, i)
    g.check_imaginary()
    mult = root_multiplicity(g, k)
    basis_words = list(enumerate_weight_words(g, k))
    rows = [_expr_vector(expand_bracket(bracket_tree(seq), g), basis_words)
            for seq in lyndon]
    rank = exact_rank(rows) if rows else 0

    rn_checked = k.get(i) == 1
    rn_consistent = True
    if rn_checked:
        nonzero_words = []
        for w in b_tilde(g, k, i):
            expr = expand_right_normed(w, g)
            if bool(expr) != right_normed_nonzero(w, g):
                rn_consistent = False
            if expr:
                nonzero_words.append(_expr_vector(expr, basis_words))
        if exact_rank(nonzero_words) != len(nonzero_words) or \
                len(nonzero_words) != mult:
            rn_consistent = False

    return BasisReport(
        lyndon=lyndon,
        multiplicity=mult,
        lyndon_count=len(lyndon),
        counts_match=len(lyndon) == mult,
        rank=rank,
        rank_matches=rank == mult,
        right_normed_checked=rn_checked,
        right_normed_consistent=rn_consistent,
    )


def render_bracket(tree) -> str:
    """Right-normed rendering, e.g. [e4,[e3,[e1,[e1,e2]]]]."""
    if isinstance(tree[0], int):  # leaf trace word, rendered right-normed
        if len(tree) == 1:
            return f"e{tree[0]}"
        return f"[e{tree[0]},{render_bracket(tree[1:])}]"
    left, right = tree
    return f"[{render_bracket(left)},{render_bracket(right)}]"
