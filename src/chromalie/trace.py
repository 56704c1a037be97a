"""The free partially commutative monoid of a graph.

Letters are vertex ids; two letters commute exactly when they are distinct
and non-adjacent.  Every element is represented by its canonical form: the
lexicographically maximal word in its commutation class (as a tuple of ints).
Equal letters are treated as dependent, so a swap of equal letters is a no-op.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Sequence

from .graphs import Graph, GraphError, WeightVector

TraceWord = tuple[int, ...]
IForm = tuple[TraceWord, ...]
MAX_WORD_HEIGHT = 12  # enumerate_weight_words refuses taller weights


def canonicalize(letters: Sequence[int], g: Graph) -> TraceWord:
    """Lexicographically maximal representative of the commutation class.

    Builds the word's heap of pieces (Cartier & Foata 1969; Viennot 1986),
    each position resting on the last earlier occurrence of every letter it
    does not commute with, then repeatedly emits the largest letter whose
    position rests on nothing left; equal letters are dependent, so there is
    at most one such position per letter.  O(L * deg) for L letters.
    """
    dep = g.dependence
    last: dict[int, int] = {}
    above: list[list[int]] = []   # positions resting directly on each one
    under: list[int] = []         # how many positions each one still rests on
    for p, c in enumerate(letters):
        if c not in dep:
            raise GraphError(f"unknown letter {c}")
        n = 0
        for d in dep[c]:
            q = last.get(d)
            if q is not None:
                above[q].append(p)
                n += 1
        above.append([])
        under.append(n)
        last[c] = p
    ready = {c: p for p, c in enumerate(letters) if not under[p]}
    out = []
    while ready:
        c = max(ready)
        out.append(c)
        for p in above[ready.pop(c)]:
            under[p] -= 1
            if not under[p]:
                ready[letters[p]] = p
    return tuple(out)


def initial_alphabet(w: Sequence[int], g: Graph) -> Counter:
    """Multiset IA_m: letter i has multiplicity m iff w = u * i^m with m
    maximal, i.e. m occurrences of i follow the last occurrence of any
    neighbour of i.  One backward scan."""
    dep = g.dependence
    ia: Counter = Counter()
    blocked: set[int] = set()   # letters with a neighbour later in w
    for c in reversed(w):
        if c not in dep:
            raise GraphError(f"unknown letter {c}")
        free = c not in blocked
        blocked |= dep[c]
        if free:
            ia[c] += 1
            blocked.discard(c)
    return ia


def initial_alphabet_set(w: Sequence[int], g: Graph) -> frozenset[int]:
    return frozenset(initial_alphabet(w, g))


def i_form(w: Sequence[int], i: int, g: Graph) -> IForm:
    """Unique factorization w = w_1 ... w_m (m = number of i's) with every
    factor containing one i and having initial alphabet exactly {i}.

    The last factor is maximal: it consists of every position not forced
    (through the dependence order) to precede the second-to-last i.
    """
    if initial_alphabet_set(w, g) != frozenset({i}):
        raise GraphError(f"word does not have initial alphabet {{{i}}}")
    return _i_form(w, i, g)


def _i_form(w: Sequence[int], i: int, g: Graph) -> IForm:
    """i_form without the initial-alphabet check, for words of b_tilde."""
    dep = g.dependence
    seq = list(canonicalize(w, g))
    factors: list[TraceWord] = []
    while True:
        positions = [p for p, c in enumerate(seq) if c == i]
        if len(positions) <= 1:
            break
        # Scan back from the second-to-last i, collecting every position
        # that does not commute with one already collected.
        below = [positions[-2]]
        reach = set(dep[i])
        for j in range(below[0] - 1, -1, -1):
            if seq[j] in reach:
                below.append(j)
                reach |= dep[seq[j]]
        below.reverse()
        kept = set(below)
        factors.append(canonicalize(
            [c for j, c in enumerate(seq) if j not in kept], g))
        seq = [seq[j] for j in below]
    factors.append(canonicalize(seq, g))
    return tuple(reversed(factors))


def concat(factors: Iterable[Sequence[int]], g: Graph) -> TraceWord:
    return canonicalize([c for f in factors for c in f], g)


def _class_rep(f: IForm, g: Graph,
               rotations: set[TraceWord] | None = None) -> IForm | None:
    """The rotation of f whose concatenated canonical form is least, or None
    when two rotations concatenate to the same trace (f is periodic).  The
    concatenated rotations are added to `rotations` when it is given."""
    words = [concat(f[r:] + f[:r], g) for r in range(len(f))]
    if rotations is not None:
        rotations.update(words)
    if len(set(words)) < len(words):
        return None
    r = words.index(min(words))
    return f[r:] + f[:r]


@lru_cache(maxsize=256)
def enumerate_weight_words(g: Graph, k: WeightVector) -> tuple[TraceWord, ...]:
    """All trace-monoid elements of the given weight, as sorted canonical forms.

    Depth-first generation with canonical-prefix pruning: a letter may be
    appended only if the extended word is still its class's canonical form.
    """
    k.check_support(g)
    if k.height > MAX_WORD_HEIGHT:
        raise GraphError(f"height {k.height} exceeds limit {MAX_WORD_HEIGHT}")
    out: list[TraceWord] = []
    residual = k.as_dict()
    prefix: list[int] = []
    support = k.support
    dep = g.dependence

    def extension_canonical(c: int) -> bool:
        # c may not be movable before any smaller letter: scan back while
        # independent; hitting a smaller independent letter breaks canonicity.
        for m in range(len(prefix) - 1, -1, -1):
            if prefix[m] in dep[c]:
                return True
            if c > prefix[m]:
                return False
        return True

    def rec(left: int):
        if not left:
            out.append(tuple(prefix))
            return
        for c in support:
            if residual[c] and extension_canonical(c):
                residual[c] -= 1
                prefix.append(c)
                rec(left - 1)
                prefix.pop()
                residual[c] += 1

    rec(k.height)
    return tuple(sorted(out))


@lru_cache(maxsize=256)
def _words_by_initial_letter(g: Graph, k: WeightVector
                             ) -> dict[int, tuple[TraceWord, ...]]:
    """The weight-k words whose initial alphabet is a single letter, grouped
    by that letter; one initial_alphabet scan per word."""
    groups: dict[int, list[TraceWord]] = {}
    for w in enumerate_weight_words(g, k):
        ia = initial_alphabet(w, g)
        if len(ia) == 1:
            groups.setdefault(next(iter(ia)), []).append(w)
    return {i: tuple(ws) for i, ws in groups.items()}


def b_tilde(g: Graph, k: WeightVector, i: int) -> list[TraceWord]:
    """Weight-k words whose initial alphabet (as a set) is exactly {i}."""
    if i not in k.support:
        raise GraphError(f"vertex {i} not in the support of k")
    return list(_words_by_initial_letter(g, k).get(i, ()))


def b_set(g: Graph, k: WeightVector, i: int) -> list[IForm]:
    """Aperiodic members of b_tilde, one i-form per cyclic rotation class.
    Rotations of an i-form concatenate to words of b_tilde with that rotation
    as i-form, so words already produced as a rotation are skipped."""
    reps = set()
    seen: set[TraceWord] = set()
    for w in b_tilde(g, k, i):
        if w not in seen:
            rep = _class_rep(_i_form(w, i, g), g, seen)
            if rep is not None:
                reps.add(rep)
    return sorted(reps)
