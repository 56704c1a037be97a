"""Shared graph families and independent oracles for the test suite."""

import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, gcd

from hypothesis import strategies as st

from chromalie import Graph, GraphError, WeightVector, b_tilde, \
    canonicalize, enumerate_independent_sets, initial_alphabet, \
    is_connected_sub, is_lyndon, new_graph, root_multiplicity
from chromalie.graphs import weight_box
from chromalie.polynomials import QPolynomial, falling_binomial, \
    scaled_binomial


def path_graph(n: int) -> Graph:
    return new_graph(range(1, n + 1), edges=[(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return new_graph(range(1, n + 1), edges=edges)


def complete_graph(n: int) -> Graph:
    return new_graph(range(1, n + 1), edges=combinations(range(1, n + 1), 2))


def graph_to_json(g: Graph) -> str:
    """The graph in the JSON format that graph_from_json reads."""
    return json.dumps({
        "vertices": [{"id": v, "kind": g.kind(v)} for v in g.vertices],
        "edges": [list(e) for e in sorted(g.edges)],
    })


def is_independent(g: Graph, s) -> bool:
    """Reference independence test: no two members of s are adjacent."""
    s = list(s)
    for v in s:
        if not g.has_vertex(v):
            raise GraphError(f"unknown vertex {v}")
    return not any(g.adjacent(u, v) for u, v in combinations(s, 2))


def _canonical_edges(n: int, edges: frozenset) -> tuple:
    best = None
    for perm in permutations(range(1, n + 1)):
        relabel = dict(zip(range(1, n + 1), perm))
        key = tuple(sorted((min(relabel[u], relabel[v]),
                            max(relabel[u], relabel[v])) for u, v in edges))
        if best is None or key < best:
            best = key
    return best


@st.composite
def small_graphs(draw):
    """Hypothesis strategy: graphs on vertices 1..n, n <= 6, any edge set."""
    n = draw(st.integers(min_value=1, max_value=6))
    verts = list(range(1, n + 1))
    pairs = [(u, v) for u in verts for v in verts if u < v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return new_graph(verts, edges=edges)


def random_graphs(seed: int, count: int, max_n: int) -> list[Graph]:
    """Seeded random graphs on 1..max_n vertices with scattered ids and edge
    densities from edgeless to complete, so disconnected graphs occur."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ids = rng.sample(range(30), rng.randint(1, max_n))
        density = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
        out.append(new_graph(ids, edges=[
            (u, v) for u, v in combinations(ids, 2) if rng.random() < density]))
    return out


@lru_cache(maxsize=None)
def connected_graphs_upto(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of connected graphs on at most
    n vertices (vertices labeled 1..m)."""
    out = []
    for m in range(1, n + 1):
        pairs = list(combinations(range(1, m + 1), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = new_graph(range(1, m + 1), edges=edges)
            if not is_connected_sub(g, g.vertices):
                continue
            key = _canonical_edges(m, g.edges)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return tuple(out)


@lru_cache(maxsize=None)
def all_graphs_upto(n: int) -> tuple[Graph, ...]:
    """Isomorphism-class representatives of all graphs on at most n vertices."""
    out = []
    for m in range(1, n + 1):
        pairs = list(combinations(range(1, m + 1), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = new_graph(range(1, m + 1), edges=edges)
            key = _canonical_edges(m, g.edges)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return tuple(out)


def full_support_weights(g: Graph, max_ht: int):
    """Weight vectors with every vertex weighted at least once, height bounded."""
    verts = g.vertices

    def rec(idx, acc, used):
        if idx == len(verts):
            yield WeightVector.of(dict(acc))
            return
        v = verts[idx]
        remaining_min = len(verts) - idx - 1
        for c in range(1, max_ht - used - remaining_min + 1):
            acc.append((v, c))
            yield from rec(idx + 1, acc, used + c)
            acc.pop()

    if len(verts) <= max_ht:
        yield from rec(0, [], 0)


ONE = QPolynomial((Fraction(1),))


def moebius(n: int) -> int:
    """The Moebius function, by trial division."""
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


def scale(p: QPolynomial, c) -> QPolynomial:
    """The polynomial p times the number c."""
    return QPolynomial.of([a * Fraction(c) for a in p.coeffs])


def degree(p: QPolynomial) -> int:
    """Degree, with the zero polynomial assigned -1."""
    return len(p.coeffs) - 1


def witt_mult(k: list[int]) -> Fraction:
    """Classical Witt formula for the free Lie algebra (complete graph case)."""
    ht = sum(k)
    g = k[0]
    for c in k[1:]:
        g = gcd(g, c)
    total = Fraction(0)
    for ell in range(1, g + 1):
        if g % ell:
            continue
        kk = [c // ell for c in k]
        denom = 1
        for c in kk:
            denom *= factorial(c)
        total += Fraction(moebius(ell) * factorial(sum(kk)), denom)
    return total / ht


def lyndon_content_count(k: list[int]) -> int:
    """Brute-force count of Lyndon words over {1..n} with letter i used k_i
    times: enumerate all distinct arrangements, keep those strictly smaller
    than every proper rotation."""
    letters = []
    for i, c in enumerate(k, start=1):
        letters.extend([i] * c)
    count = 0
    for w in set(permutations(letters)):
        if all(w < w[r:] + w[:r] for r in range(1, len(w))):
            count += 1
    return count


def _dependent(g: Graph, a: int, b: int) -> bool:
    return a == b or g.adjacent(a, b)


def greedy_canonicalize(letters, g: Graph) -> tuple[int, ...]:
    """Reference lexicographically maximal form, O(L^3): repeatedly emit the
    largest letter among the positions with no earlier dependent position
    left."""
    remaining = list(letters)
    out = []
    while remaining:
        best_idx = -1
        for j, c in enumerate(remaining):
            if any(_dependent(g, remaining[m], c) for m in range(j)):
                continue
            if best_idx < 0 or c > remaining[best_idx]:
                best_idx = j
        out.append(remaining.pop(best_idx))
    return tuple(out)


def strip_initial_alphabet(w, g: Graph) -> Counter:
    """Reference initial alphabet: for each letter i, strip copies of i from
    the end one at a time while nothing after them depends on i."""
    ia: Counter = Counter()
    for i in set(w):
        seq = list(w)
        m = 0
        while True:
            try:
                p = len(seq) - 1 - seq[::-1].index(i)
            except ValueError:
                break
            if any(_dependent(g, i, seq[j]) for j in range(p + 1, len(seq))):
                break
            del seq[p]
            m += 1
        if m:
            ia[i] = m
    return ia


def initial_alphabet_set(w, g: Graph) -> frozenset[int]:
    """The letters of the initial alphabet of w, without multiplicities."""
    return frozenset(initial_alphabet(w, g))


def peel_i_form(w, i: int, g: Graph) -> tuple[tuple[int, ...], ...]:
    """Reference i-form: check the initial alphabet, canonicalize the whole
    word, then peel off the last factor (every position not forced below the
    second-to-last i) and canonicalize it, until one i is left."""
    if initial_alphabet_set(w, g) != {i}:
        raise GraphError(f"word does not have initial alphabet {{{i}}}")
    dep = g.dependence
    seq = list(canonicalize(w, g))
    factors = []
    while True:
        positions = [p for p, c in enumerate(seq) if c == i]
        if len(positions) <= 1:
            break
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


def backward_scan_words(g: Graph, k: WeightVector) -> tuple[tuple[int, ...], ...]:
    """Reference weight-k word list: depth-first with canonical-prefix
    pruning, where a letter may be appended unless a backward scan over the
    letters it commutes with meets a smaller one; sorted at the end."""
    out = []
    residual = k.as_dict()
    prefix: list[int] = []
    dep = g.dependence

    def extension_canonical(c: int) -> bool:
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
        for c in k.support:
            if residual[c] and extension_canonical(c):
                residual[c] -= 1
                prefix.append(c)
                rec(left - 1)
                prefix.pop()
                residual[c] += 1

    rec(k.height)
    return tuple(sorted(out))


def initial_letter_groups(g: Graph, k: WeightVector) -> dict[int, list]:
    """Reference grouping: the backward-scan words whose initial alphabet is
    one letter, by that letter, found by one initial_alphabet scan each."""
    groups: dict[int, list] = {}
    for w in backward_scan_words(g, k):
        ia = initial_alphabet(w, g)
        if len(ia) == 1:
            groups.setdefault(next(iter(ia)), []).append(w)
    return groups


def canonical_commutator(a: dict, b: dict, g: Graph) -> dict:
    """Reference ab - ba with every product canonicalized."""
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            for w, sign in ((canonicalize(wa + wb, g), 1),
                            (canonicalize(wb + wa, g), -1)):
                out[w] = out.get(w, 0) + sign * ca * cb
    return {w: c for w, c in out.items() if c}


def canonical_expand(tree, g: Graph) -> dict:
    """Reference bracket expansion keyed by canonical words; a leaf trace
    word expands as the right-normed Lie word on its letters."""
    if isinstance(tree[0], int):
        expr = {(tree[-1],): 1}
        for letter in reversed(tree[:-1]):
            expr = canonical_commutator({(letter,): 1}, expr, g)
        return expr
    return canonical_commutator(canonical_expand(tree[0], g),
                                canonical_expand(tree[1], g), g)


def projection_key(w, parts) -> tuple:
    """A word's projections onto each part, a tuple of letters."""
    return tuple(tuple(c for c in w if c in p) for p in parts)


def orientation_sinks(o, g: Graph) -> tuple[int, ...]:
    """The vertices of g that are the tail of no directed edge of the
    orientation o, a tuple of (tail, head) pairs."""
    tails = {t for t, _ in o}
    return tuple(v for v in g.vertices if v not in tails)


def fraction_rank(rows) -> int:
    """Reference rank over the rationals: Gauss-Jordan over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    col = 0
    ncols = len(m[0]) if m else 0
    while rank < len(m) and col < ncols:
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def weight_leq(a: WeightVector, b: WeightVector) -> bool:
    """Reference componentwise order: a_v <= b_v at every vertex."""
    o = b.as_dict()
    return all(c <= o.get(v, 0) for v, c in a.counts)


def weight_minus(a: WeightVector, b: WeightVector) -> WeightVector:
    """Reference difference a - b; raises when an entry goes negative."""
    d = a.as_dict()
    for v, c in b.counts:
        d[v] = d.get(v, 0) - c
    if any(c < 0 for c in d.values()):
        raise GraphError("weight subtraction went negative")
    return WeightVector.of(d)


def weight_plus(a: WeightVector, b: WeightVector) -> WeightVector:
    """Reference sum a + b."""
    d = a.as_dict()
    for v, c in b.counts:
        d[v] = d.get(v, 0) + c
    return WeightVector.of(d)


def recursive_bond_lattice(g: Graph, k: WeightVector) -> list[tuple]:
    """Reference bond lattice: the same depth-first search over the connected
    candidates in descending order, on weight_leq and weight_minus."""
    if k.is_zero:
        return [()]
    candidates = sorted((w for w in weight_box(k.as_dict())
                         if is_connected_sub(g, w.support)), reverse=True)
    results = []

    def rec(residual, start, acc):
        if residual.is_zero:
            results.append(tuple(acc))
            return
        for idx in range(start, len(candidates)):
            j = candidates[idx]
            if weight_leq(j, residual):
                acc.append(j)
                rec(weight_minus(residual, j), idx, acc)
                acc.pop()

    rec(k, 0, [])
    return results


def x_i_alphabet(g: Graph, k: WeightVector, i: int) -> list[tuple]:
    """Reference i-marked alphabet: all words of weight <= k componentwise
    that contain exactly one i and have initial alphabet multiset {i},
    sorted by canonical form."""
    if i not in k.support:
        raise GraphError(f"vertex {i} not in the support of k")
    return sorted(word for w in weight_box({**k.as_dict(), i: 1})
                  if w.get(i) == 1 for word in b_tilde(g, w, i))


def suffix_scan_factorization(seq: tuple) -> tuple[tuple, tuple]:
    """Reference standard factorization of a Lyndon sequence of length >= 2:
    v is the first proper suffix, scanning from the left, that is Lyndon,
    so the longest one."""
    j = next(j for j in range(1, len(seq)) if is_lyndon(seq[j:]))
    return seq[:j], seq[j:]


def letter_scan_c_i_set(g: Graph, k: WeightVector, i: int) -> list[tuple]:
    """Reference Lyndon sequences of weight k over the i-marked alphabet:
    every letter is tried at every node, on count tuples aligned to
    k.support, and the search stops once no i is left to place."""
    support = k.support
    marker = support.index(i)
    letters = [(w, tuple(w.count(v) for v in support))
               for w in x_i_alphabet(g, k, i)]
    results = []

    def rec(residual, acc):
        if not any(residual):
            if is_lyndon(tuple(acc)):
                results.append(tuple(acc))
            return
        if residual[marker] < 1:
            return
        for w, wt in letters:
            if all(a <= b for a, b in zip(wt, residual)):
                acc.append(w)
                rec(tuple(b - a for a, b in zip(wt, residual)), acc)
                acc.pop()

    rec(tuple(k.get(v) for v in support), [])
    return sorted(results)


def partition_product_expansion(g: Graph, k: WeightVector) -> QPolynomial:
    """Reference bond expansion: one Fraction polynomial product of
    C(q*mult(part), repetition) per partition of the reference lattice."""
    total = QPolynomial.of([])
    for partition in recursive_bond_lattice(g, k):
        term = QPolynomial.of([(-1) ** (k.height + len(partition))])
        for part, rep in sorted(Counter(partition).items()):
            term = term * scaled_binomial(root_multiplicity(g, part), rep)
        total = total + term
    return total


def support_partition_counts(g: Graph, k: WeightVector) -> dict[int, int]:
    """Reference ordered-partition counts: a fresh memo per call over the
    independent sets of the support subgraph, on residuals aligned to it."""
    if k.is_zero:
        return {0: 1}
    support = k.support
    parts = [p for p in enumerate_independent_sets(g.induced(support)) if p]
    memo = {}

    def rec(residual):
        if not any(residual):
            return {0: 1}
        if residual not in memo:
            alive = {v for v, c in zip(support, residual) if c > 0}
            out = Counter()
            for p in parts:
                if p <= alive:
                    rest = tuple(c - (v in p) for v, c in zip(support, residual))
                    for length, n in rec(rest).items():
                        out[length + 1] += n
            memo[residual] = dict(out)
        return memo[residual]

    return dict(sorted(rec(tuple(k.get(v) for v in support)).items()))


def partition_sum_chromatic(g: Graph, k: WeightVector) -> QPolynomial:
    """Reference chromatic polynomial: sum of n_l * C(q, l) as Fraction
    polynomials, over the reference partition counts."""
    total = QPolynomial.of([])
    for length, n in support_partition_counts(g, k).items():
        total = total + scale(falling_binomial(0, length), n)
    return total


def polynomial_from_json_list(items: list[str]) -> QPolynomial:
    """Inverse of QPolynomial.to_json_list."""
    return QPolynomial.of([Fraction(s) for s in items])


def has_integer_coefficients(p: QPolynomial) -> bool:
    return all(c.denominator == 1 for c in p.coeffs)


def lucas_value_closed(ell: int, s: int, t: int) -> int:
    """Closed-sum form of the two-variable Lucas value <l>_{s,t}; reference
    for the recurrence <l> = s<l-1> + t<l-2>, <0> = 2, <1> = s, that
    hilbert.lcs_ranks_triangle_free runs."""
    if ell < 0:
        raise GraphError("ell must be non-negative")
    if ell == 0:
        return 2
    total = Fraction(0)
    for j in range(ell // 2 + 1):
        total += (Fraction(ell, ell - j) * comb(ell - j, j)
                  * Fraction(t) ** j * Fraction(s) ** (ell - 2 * j))
    if total.denominator != 1:
        raise GraphError(f"non-integral Lucas value {total}")
    return int(total)


def independent_set_counts(g: Graph) -> list[int]:
    """Number of independent sets of each size 0..n, by testing every
    vertex subset."""
    n = len(g.vertices)
    return [sum(is_independent(g, s) for s in combinations(g.vertices, j))
            for j in range(n + 1)]


def log_series(coeffs: list, max_k: int) -> list[Fraction]:
    """Coefficients 1..max_k of L = -log(U), U = 1 + sum coeffs[j] X^j, by
    U L' = -U': n L_n = -(n u_n + sum over 0 < j < n of j L_j u_(n-j))."""
    u = [Fraction(c) for c in coeffs[:max_k + 1]]
    u += [Fraction(0)] * (max_k + 1 - len(u))
    log = [Fraction(0)] * (max_k + 1)
    for n in range(1, max_k + 1):
        log[n] = -(n * u[n] + sum(j * log[j] * u[n - j]
                                  for j in range(1, n))) / n
    return log[1:]


def moebius_sum(n: int, f) -> Fraction:
    """Sum of mu(d)/d * f(d) over every d in 1..n that divides n."""
    return sum((Fraction(moebius(d), d) * f(d)
                for d in range(1, n + 1) if n % d == 0), Fraction(0))


def log_series_ranks(g: Graph, max_k: int) -> list[tuple[Fraction, int]]:
    """Reference (N_k, M_k), k = 1..max_k: N_k the coefficients of -log of
    the alternating independent-set polynomial, M_k = moebius_sum over
    N_(k/d)."""
    alternating = [(-1) ** j * c
                   for j, c in enumerate(independent_set_counts(g))]
    values = log_series(alternating, max_k)
    ranks = []
    for k in range(1, max_k + 1):
        m = moebius_sum(k, lambda d: values[k // d - 1])
        if m.denominator != 1:
            raise GraphError(f"non-integral rank {m} at k = {k}")
        ranks.append((values[k - 1], int(m)))
    return ranks
