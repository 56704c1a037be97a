"""Lyndon words over single-marker trace words, bracketings and basis checks.

For a fixed vertex i, the alphabet consists of trace words containing exactly
one i whose initial alphabet is {i}.  Letters compare by their canonical forms
(tuple comparison, so a proper prefix sorts first).  Lyndon sequences over
this alphabet index bases of the corresponding graded components; expanding
the bracketings inside the trace algebra lets us verify independence exactly.
"""

from __future__ import annotations

from math import gcd
from operator import add
from types import SimpleNamespace

from .graphs import Graph, GraphError, WeightVector, coded_box
from .multiplicity import _check_real_constraint, root_multiplicity
from .trace import TraceWord, b_tilde, canonicalize, initial_alphabet

LyndonSeq = tuple[TraceWord, ...]
# A bracket tree is either a leaf (a trace word, i.e. tuple of ints) or a
# pair (left, right) of bracket trees.
LieExpr = dict[TraceWord, int]
# A trace keyed by its projections onto the parts of _projection_keys.
Key = tuple[tuple[int, ...], ...]


def is_lyndon(seq: LyndonSeq) -> bool:
    """Strictly smaller than every proper cyclic rotation."""
    return bool(seq) and all(seq < seq[r:] + seq[:r]
                             for r in range(1, len(seq)))


def standard_factorization(seq: LyndonSeq) -> tuple[LyndonSeq, LyndonSeq]:
    """Split a Lyndon sequence as u*v with v the longest proper Lyndon suffix,
    which is its least proper suffix (Chen, Fox & Lyndon 1958)."""
    if len(seq) < 2 or not is_lyndon(seq):
        raise GraphError("standard factorization needs a Lyndon word of length >= 2")
    j = min(range(1, len(seq)), key=lambda j: seq[j:])
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
    """All Lyndon sequences over the i-marked alphabet with total weight k.
    The letters of each weight w of coded_box(k) with w_i = 1 are
    b_tilde(g, w, i), grouped under w's code: a group fits the residual code
    when the difference is again a box code, and no letter below the first
    one is tried, since a Lyndon sequence starts with its least letter."""
    if k.get(i) < 1:
        raise GraphError(f"vertex {i} needs positive weight")
    _check_real_constraint(g, k)
    box = [(w, code) for w, code, _, _ in coded_box(k.as_dict())[1]]
    codes = {code for _, code in box}
    groups = {code: words for w, code in box  # k_i letters, one i each
              if w.get(i) == 1 and (k.get(i) > 1 or w == k)
              and (words := b_tilde(g, w, i))}
    results = []

    def rec(residual: int, acc: list[TraceWord]):
        if not residual:
            if is_lyndon(tuple(acc)):
                results.append(tuple(acc))
            return
        for step, words in groups.items():
            rest = residual - step
            if rest in codes:
                for w in words:
                    if not acc or w >= acc[0]:
                        acc.append(w)
                        rec(rest, acc)
                        acc.pop()

    rec(box[-1][1], [])  # the box ends at k itself
    del rec  # break rec's cycle through its cell, so the groups free now
    return sorted(results)


def right_normed_nonzero(letters, g: Graph) -> bool:
    """Whether the right-normed Lie word on these letters is nonzero: the
    initial alphabet must be a single occurrence of a single letter."""
    return sum(initial_alphabet(letters, g).values()) == 1


def _projection_keys(letters, g: Graph
                     ) -> tuple[dict[int, Key], list[tuple[int, ...]]]:
    """Key each trace over `letters` by its projections onto every edge of g
    between them and onto each of them with no neighbour among them.  Two
    words are the same trace iff their keys agree (the projection lemma:
    Cori & Perrin 1985), and a product's key is the componentwise
    concatenation of its factors' keys.  Stars would not do: a star's
    projection orders two neighbours of its centre that commute."""
    present = set(letters)
    for c in present:
        if c not in g.dependence:
            raise GraphError(f"unknown letter {c}")
    parts = [e for e in sorted(g.edges) if present.issuperset(e)]
    covered = {v for e in parts for v in e}
    parts += [(v,) for v in sorted(present - covered)]
    return {c: tuple((c,) if c in p else () for p in parts)
            for c in present}, parts


def _commutator(a: dict[Key, int], b: dict[Key, int]) -> dict[Key, int]:
    """ab - ba on projection keys, both products summed in one pass."""
    out: dict[Key, int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            ab, ba = tuple(map(add, ka, kb)), tuple(map(add, kb, ka))
            out[ab] = out.get(ab, 0) + ca * cb
            out[ba] = out.get(ba, 0) - ca * cb
    return {w: c for w, c in out.items() if c}


def _expand(tree, key: dict[int, Key]) -> dict[Key, int]:
    """A bracket tree expanded on the keys of its letters (projection keys,
    or one-part keys, which are plain words); a leaf trace word is the
    right-normed Lie word on its letters."""
    if isinstance(tree[0], int):
        expr = {key[tree[-1]]: 1}
        for letter in reversed(tree[:-1]):
            expr = _commutator({key[letter]: 1}, expr)
        return expr
    left, right = tree
    return _commutator(_expand(left, key), _expand(right, key))


def expand_right_normed(word, g: Graph) -> LieExpr:
    """Expansion of [e_{i1},[e_{i2},...[e_{i_{r-1}},e_{ir}]..]] in the trace
    algebra (valid model of the enveloping algebra when all vertices are
    imaginary), keyed by canonical forms."""
    return expand_bracket(tuple(word), g)


def expand_bracket(tree, g: Graph) -> LieExpr:
    """Expand a bracket tree (leaves expand as right-normed Lie words) on
    words, each a one-part key, then merge the words by canonical form."""
    g.check_imaginary()
    try:
        expr = _expand(tree, {c: ((c,),) for c in g.dependence})
    except KeyError as exc:
        raise GraphError(f"unknown letter {exc.args[0]}") from None
    out: LieExpr = {}
    for (word,), coeff in expr.items():
        w = canonicalize(word, g)
        out[w] = out.get(w, 0) + coeff
    return {w: c for w, c in out.items() if c}


def exact_rank(rows: list[dict]) -> int:
    """Rank over the rationals of an integer matrix given as sparse rows
    {column key: entry}: fraction-free elimination, columns in sorted key
    order (first-seen order fills rows in); each row is reduced against the
    pivots so far by cross-multiplication, then divided by its entries' gcd."""
    column = {key: j for j, key in enumerate(sorted(set().union(*rows)))}
    pivots: list[tuple[int, dict[int, int]]] = []
    for row in rows:
        r = {column[key]: x for key, x in row.items() if x}
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


def verify_basis(g: Graph, k: WeightVector, i: int) -> SimpleNamespace:
    """Check that the expanded Lyndon bracketings form a basis of the graded
    component: cardinality equals the root multiplicity and the expansions
    have full rank over the rationals.  When k_i = 1 each sequence is one
    letter of b_tilde(g, k, i), bracketed as its right-normed Lie word, so
    the same rows check right_normed_nonzero and that the nonzero words
    are independent and as many as the multiplicity."""
    g.check_imaginary()
    lyndon = c_i_set(g, k, i)
    mult = root_multiplicity(g, k)
    key, _ = _projection_keys(k.support, g)
    shared: dict[Key, Key] = {}  # one object per distinct key of a call
    rows = [{shared.setdefault(w, w): c
             for w, c in _expand(bracket_tree(seq), key).items()}
            for seq in lyndon]
    rank = exact_rank(rows)
    rn_checked = k.get(i) == 1
    rn_consistent = not rn_checked or (
        all(bool(r) == right_normed_nonzero(seq[0], g)
            for r, seq in zip(rows, lyndon))
        and rank == sum(map(bool, rows)) == mult)
    counts_match, rank_matches = len(lyndon) == mult, rank == mult
    return SimpleNamespace(
        lyndon=lyndon, multiplicity=mult, lyndon_count=len(lyndon),
        counts_match=counts_match, rank=rank, rank_matches=rank_matches,
        right_normed_checked=rn_checked, right_normed_consistent=rn_consistent,
        ok=counts_match and rank_matches and rn_consistent)


def render_bracket(tree) -> str:
    """Right-normed rendering, e.g. [e4,[e3,[e1,[e1,e2]]]]."""
    if isinstance(tree[0], int):  # leaf trace word, rendered right-normed
        if len(tree) == 1:
            return f"e{tree[0]}"
        return f"[e{tree[0]},{render_bracket(tree[1:])}]"
    left, right = tree
    return f"[{render_bracket(left)},{render_bracket(right)}]"
