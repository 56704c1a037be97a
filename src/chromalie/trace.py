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


def i_form(w: Sequence[int], i: int, g: Graph) -> IForm:
    """Unique factorization w = w_1 ... w_m (m = number of i's) with every
    factor containing one i and having initial alphabet exactly {i}.

    Factor j holds the positions below the j-th i in the heap order but not
    below the (j-1)-th.  One backward scan gives each i its own index and
    every other position the least index among the next later occurrences
    of the letters it does not commute with; a position with none is a final
    letter other than i.  Works on any representative of the trace.
    """
    dep = g.dependence
    factors: list[list[int]] = [[] for _ in range(w.count(i))]
    nxt: dict[int, int] = {}   # factor of the next later occurrence of a letter
    f = None
    for c in reversed(w):
        if c not in dep:
            raise GraphError(f"unknown letter {c}")
        if c == i:
            f = nxt.get(i, len(factors)) - 1
        else:
            f = min((nxt[d] for d in dep[c] if d in nxt), default=None)
            if f is None:
                break
        nxt[c] = f
        factors[f].append(c)
    if f is None:
        raise GraphError(f"word does not have initial alphabet {{{i}}}")
    return tuple(canonicalize(part[::-1], g) for part in factors)


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
    The rotations of an i-form are the i-forms of the other words in its
    class, so the first word of a class in ascending order stands for it,
    and the class is aperiodic when its m rotations are distinct tuples."""
    reps = []
    seen: set[IForm] = set()
    for w in b_tilde(g, k, i):
        f = i_form(w, i, g)
        if f not in seen:
            rotations = {f[r:] + f[:r] for r in range(len(f))}
            seen |= rotations
            if len(rotations) == len(f):
                reps.append(f)
    return sorted(reps)
