"""The free partially commutative monoid of a graph.

Letters are vertex ids; two letters commute exactly when they are distinct
and non-adjacent.  Every element is represented by its canonical form: the
lexicographically maximal word in its commutation class (as a tuple of ints).
Equal letters are treated as dependent, so a swap of equal letters is a no-op.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Sequence

from .graphs import MAX_HEIGHT, Graph, GraphError, WeightVector

TraceWord = tuple[int, ...]
IForm = tuple[TraceWord, ...]


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


def i_form(w: Sequence[int], i: int, g: Graph) -> IForm:
    """Unique factorization w = w_1 ... w_m (m = number of i's) with every
    factor containing one i and having initial alphabet exactly {i}; each
    factor in canonical form.  Works on any representative of the trace."""
    return tuple(canonicalize(part, g) for part in _i_factors(w, i, g))


def _i_factors(w: Sequence[int], i: int, g: Graph) -> IForm:
    """The i-form's factors as subwords of w, before canonicalization.

    Factor j holds the positions below the j-th i in the heap order but not
    below the (j-1)-th.  One backward scan gives each i its own index and
    every other position the least index among the later letters it does
    not commute with (no position below another has the larger index, so a
    running minimum per letter suffices); a position with none is a final
    letter other than i.
    """
    dep = g.dependence
    n = w.count(i)
    factors: list[list[int]] = [[] for _ in range(n)]
    low = dict.fromkeys(dep, n)  # n: no later letter it does not commute with
    f = top = n
    for c in reversed(w):
        if c not in dep:
            raise GraphError(f"unknown letter {c}")
        if c == i:
            top -= 1
            f = top
        else:
            f = low[c]
            if f == n:
                break
        for d in dep[c]:
            if f < low[d]:
                low[d] = f
        factors[f].append(c)
    if f == n:
        raise GraphError(f"word does not have initial alphabet {{{i}}}")
    return tuple(tuple(part[::-1]) for part in factors)


@lru_cache(maxsize=1)  # each caller reads one weight's words in one stretch
def _search(g: Graph, k: WeightVector
            ) -> tuple[tuple[TraceWord, ...], dict[int, tuple[TraceWord, ...]]]:
    """All weight-k words as sorted canonical forms, and those whose initial
    alphabet is a single letter, grouped by that letter.

    Depth-first over the support in ascending order, so the words come out
    sorted.  Two bitmasks over the support ride along: `blocked`, the letters
    that would leave the canonical form if appended (a smaller letter stands
    after their last dependent one), and `final`, the letters whose last
    occurrence has no dependent letter after it.  Appending c unblocks and
    unfinalizes its dependence set, and blocks every larger letter; a word's
    last letter is its single final one when no earlier final letter
    survives.  A third mask holds the letters with copies left.
    """
    k.check_support(g)
    if k.height > MAX_HEIGHT:
        raise GraphError(f"height {k.height} exceeds limit {MAX_HEIGHT}")
    letters = k.support
    bit = {v: 1 << j for j, v in enumerate(letters)}
    residual = {bit[v]: c for v, c in k.counts}
    # each letter's bit -> (letter, dependence mask, mask of larger letters)
    step = {b: (v, sum(bit.get(d, 0) for d in g.dependence[v]), -2 * b)
            for v, b in bit.items()}
    words: list[TraceWord] = []
    groups: dict[int, list[TraceWord]] = {}
    prefix: list[int] = []

    def rec(left: int, blocked: int, final: int, remaining: int):
        free = remaining & ~blocked
        while free:
            b = free & -free   # the least letter not yet tried
            free ^= b
            c, dep, larger = step[b]
            prefix.append(c)
            if left == 1:
                w = tuple(prefix)
                words.append(w)
                if not final & ~dep:
                    groups.setdefault(c, []).append(w)
            else:
                r = residual[b] = residual[b] - 1
                rec(left - 1, (blocked | larger) & ~dep, final & ~dep | b,
                    remaining if r else remaining ^ b)
                residual[b] = r + 1
            prefix.pop()

    if k.height:
        rec(k.height, 0, 0, sum(residual))
    else:
        words.append(())
    del rec  # break rec's cycle through its cell, so the lists free now
    return tuple(words), {i: tuple(ws) for i, ws in groups.items()}


@lru_cache(maxsize=1)
def enumerate_weight_words(g: Graph, k: WeightVector) -> tuple[TraceWord, ...]:
    """All trace-monoid elements of the given weight, as sorted canonical
    forms."""
    return _search(g, k)[0]


def b_tilde(g: Graph, k: WeightVector, i: int) -> list[TraceWord]:
    """Weight-k words whose initial alphabet (as a set) is exactly {i}."""
    if i not in k.support:
        raise GraphError(f"vertex {i} not in the support of k")
    return list(_search(g, k)[1].get(i, ()))


def b_set(g: Graph, k: WeightVector, i: int) -> list[IForm]:
    """Aperiodic members of b_tilde, one i-form per cyclic rotation class.
    The rotations of an i-form are the i-forms of the other words in its
    class, so the first word of a class in ascending order stands for it,
    and the class is aperiodic when its m rotations are distinct tuples.
    Each distinct factor is canonicalized once per call."""
    reps = []
    seen: set[IForm] = set()
    canonical: dict[TraceWord, TraceWord] = {}
    for w in b_tilde(g, k, i):
        f = tuple(canonical.get(part) or  # factors are never empty
                  canonical.setdefault(part, canonicalize(part, g))
                  for part in _i_factors(w, i, g))
        if f not in seen:
            rotations = {f[r:] + f[:r] for r in range(len(f))}
            seen |= rotations
            if len(rotations) == len(f):
                reps.append(f)
    return sorted(reps)
