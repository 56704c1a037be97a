import random
from itertools import product

import pytest

from chromalie import (GraphError, WeightVector, b_set, b_tilde, bracket_tree,
                       c_i_set, expand_bracket, expand_right_normed, is_lyndon,
                       new_graph, render_bracket, right_normed_nonzero,
                       root_multiplicity, standard_factorization,
                       verify_basis, weight_box)
from chromalie import lyndon, trace
from chromalie.lyndon import exact_rank

from helpers import canonical_expand, complete_graph, cycle_graph, \
    fraction_rank, letter_scan_c_i_set, path_graph, projection_key, \
    random_graphs, suffix_scan_factorization, x_i_alphabet

SHOWCASE = new_graph([1, 2, 3, 4], edges=[(1, 2), (2, 3), (2, 4), (3, 4)])
SHOWCASE_K = WeightVector.of({1: 2, 2: 1, 3: 1, 4: 1})


def test_x_i_alphabet_showcase():
    letters = x_i_alphabet(SHOWCASE, SHOWCASE_K, 2)
    assert (2,) in letters
    assert all(w.count(2) == 1 for w in letters)
    assert len(letters) == 15
    with pytest.raises(GraphError):
        x_i_alphabet(SHOWCASE, SHOWCASE_K, 9)


def test_is_lyndon():
    a, b = (1,), (2,)
    assert is_lyndon((a,))
    assert is_lyndon((a, b))
    assert not is_lyndon((b, a))
    assert not is_lyndon((a, a))
    assert not is_lyndon(())
    assert is_lyndon((a, a, b))


def test_standard_factorization():
    a, b = (1,), (2,)
    assert standard_factorization((a, b)) == ((a,), (b,))
    assert standard_factorization((a, a, b)) == ((a,), (a, b))
    assert standard_factorization((a, b, b)) == ((a, b), (b,))
    with pytest.raises(GraphError):
        standard_factorization((a,))
    with pytest.raises(GraphError):
        standard_factorization((b, a))


def test_standard_factorization_matches_suffix_scan():
    # every Lyndon sequence of length 2-7 over letters that include proper
    # prefixes of each other: the least proper suffix is the longest
    # proper Lyndon suffix
    letters = [(0,), (0, 1), (1,), (1, 0, 2)]
    checked = 0
    for n in range(2, 8):
        for seq in product(letters, repeat=n):
            if is_lyndon(seq):
                assert standard_factorization(seq) == \
                    suffix_scan_factorization(seq), seq
                checked += 1
    assert checked == 3300


def test_bracket_tree_and_render():
    a, b = (1,), (2,)
    assert bracket_tree((a,)) == a
    assert render_bracket(bracket_tree((a,))) == "e1"
    assert render_bracket(bracket_tree((a, b))) == "[e1,e2]"
    assert render_bracket(bracket_tree((a, a, b))) == "[e1,[e1,e2]]"
    # a multi-letter leaf renders right-normed
    assert render_bracket((3, 1, 2)) == "[e3,[e1,e2]]"


def test_c_i_set_showcase_brackets():
    words = c_i_set(SHOWCASE, SHOWCASE_K, 2)
    rendered = [render_bracket(bracket_tree(w)) for w in words]
    assert rendered == ["[e3,[e4,[e1,[e1,e2]]]]", "[e4,[e3,[e1,[e1,e2]]]]"]
    words1 = c_i_set(SHOWCASE, SHOWCASE_K, 1)
    rendered1 = [render_bracket(bracket_tree(w)) for w in words1]
    assert rendered1 == ["[e1,[e3,[e4,[e2,e1]]]]", "[e1,[e4,[e3,[e2,e1]]]]"]


def test_c_i_set_matches_letter_scan():
    # scattered vertex ids (0 among them), disconnected supports and every
    # support vertex as the marked one; the lists must agree in order
    rng = random.Random(12)
    seen = set()
    for g in random_graphs(seed=12, count=30, max_n=5):
        for _ in range(2):
            k = WeightVector.of({v: rng.randint(0, 3) for v in g.vertices})
            if k.is_zero or k.height > 7:
                continue
            seen.add("vertex 0" if 0 in k.support else "no vertex 0")
            for i in k.support:
                words = c_i_set(g, k, i)
                assert words == letter_scan_c_i_set(g, k, i), (g, k, i)
                seen.add("nonempty" if words else "empty")
    assert seen == {"vertex 0", "no vertex 0", "nonempty", "empty"}


def test_c_i_set_is_least_rotation_of_b_set():
    # Lyndon sequences and aperiodic i-form classes are in bijection: each
    # Lyndon sequence is the least rotation of its class's i-form
    triples = 0
    for g in random_graphs(seed=40, count=40, max_n=5):
        for k in weight_box(dict.fromkeys(g.vertices, 3), 6):
            for i in k.support:
                assert c_i_set(g, k, i) == sorted(
                    min(f[r:] + f[:r] for r in range(len(f)))
                    for f in b_set(g, k, i)), (g, k, i)
                triples += 1
    assert triples == 9828


def test_c_i_set_refuses_overweight_real_vertex(monkeypatch):
    def unreached(g, k, i):
        raise AssertionError("b_tilde ran on an overweight real vertex")

    monkeypatch.setattr(lyndon, "b_tilde", unreached)
    g = new_graph([1, 2], kinds={1: "re"}, edges=[(1, 2)])
    with pytest.raises(GraphError, match="real vertex 1 carries weight 2"):
        c_i_set(g, WeightVector.of({1: 2, 2: 1}), 2)


def test_right_normed_nonzero_classification():
    g = path_graph(2)
    assert right_normed_nonzero((1, 2, 1), g)
    assert not right_normed_nonzero((2, 1, 1), g)
    # expansion agrees
    assert expand_right_normed((1, 2, 1), g)
    assert not expand_right_normed((2, 1, 1), g)


def test_expand_right_normed_basic():
    g = path_graph(2)
    # [e1, e2] = 12 - 21
    expr = expand_right_normed((1, 2), g)
    assert expr == {(1, 2): 1, (2, 1): -1}
    # on an edgeless graph the letters commute, so the bracket vanishes
    e2 = new_graph([1, 2])
    assert expand_right_normed((1, 2), e2) == {}


def test_expand_bracket_matches_right_normed_on_combs():
    g = complete_graph(3)
    seq = ((1,), (1,), (2,))
    tree = bracket_tree(seq)
    # [e1,[e1,e2]] both as a tree and as a flat right-normed word
    assert expand_bracket(tree, g) == expand_right_normed((1, 1, 2), g)


def test_keyed_expansion_matches_canonical():
    # every Lyndon bracketing and right-normed b_tilde word on random
    # graphs: the expansion on projection keys equals the canonical-word
    # expansion re-keyed, and the public expansions are the canonical ones
    seen = set()
    for g in random_graphs(seed=33, count=30, max_n=5):
        for k in weight_box(dict.fromkeys(g.vertices, 2), 5):
            if k.is_zero:
                continue
            key, parts = lyndon._projection_keys(k.support, g)
            i = k.support[-1]
            trees = [bracket_tree(seq) for seq in c_i_set(g, k, i)]
            for tree in trees + b_tilde(g, k, i):
                expected = canonical_expand(tree, g)
                public = expand_right_normed(tree, g) \
                    if isinstance(tree[0], int) else expand_bracket(tree, g)
                assert public == expected, (g, k, tree)
                assert lyndon._expand(tree, key) == {
                    projection_key(w, parts): c
                    for w, c in expected.items()}, (g, k, tree)
                seen.add("nonzero" if expected else "zero")
    assert seen == {"nonzero", "zero"}


def test_verify_basis_rank_matches_canonical_rows(monkeypatch):
    # the rank of the keyed rows is that of the canonical-word rows, and
    # each distinct key is one object across the rows of a call
    rank = lyndon.exact_rank
    shared = []

    def spy(rows):
        keys = [key for row in rows for key in row]
        shared.append(len({id(key) for key in keys}) == len(set(keys)))
        return rank(rows)

    monkeypatch.setattr(lyndon, "exact_rank", spy)
    checked = 0
    for g in random_graphs(seed=34, count=25, max_n=4):
        for k in weight_box(dict.fromkeys(g.vertices, 2), 6):
            for i in k.support:
                report = verify_basis(g, k, i)
                assert report.rank == rank([
                    canonical_expand(bracket_tree(seq), g)
                    for seq in report.lyndon]), (g, k, i)
                checked += report.rank > 0
    assert checked and all(shared)


def _sparse(rows):
    return [dict(enumerate(row)) for row in rows]


def test_exact_rank():
    assert exact_rank(_sparse([[1, 0], [0, 1]])) == 2
    assert exact_rank(_sparse([[1, 2], [2, 4]])) == 1
    assert exact_rank(_sparse([[0, 0]])) == 0
    assert exact_rank([]) == 0


def test_exact_rank_matches_fraction_rank():
    # small integer matrices with zero rows, duplicate and negated rows,
    # negative entries, and more rows than columns
    rng = random.Random(6)
    for _ in range(400):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3, 7)) for _ in range(ncols)]
                for _ in range(nrows)]
        extra = rng.choice(["zero", "duplicate", "negated", "combination"])
        if extra == "zero":
            rows.append([0] * ncols)
        elif extra == "duplicate":
            rows.append(list(rng.choice(rows)))
        elif extra == "negated":
            rows.append([-x for x in rng.choice(rows)])
        else:
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([3 * x - 2 * y for x, y in zip(a, b)])
        rng.shuffle(rows)
        assert exact_rank(_sparse(rows)) == fraction_rank(rows), rows


def test_exact_rank_ignores_key_order():
    # The same sparse rows with word-like keys, each row's keys inserted in
    # sorted, reversed and shuffled order, give the same rank.
    rng = random.Random(9)
    keys = [(1,), (1, 2), (2,), (2, 1, 3), (3,), (3, 3)]
    for _ in range(200):
        rows = [{key: rng.choice((0, 1, -1, 2, -3)) for key in keys}
                for _ in range(rng.randint(1, 6))]
        rows.append({key: 2 * x for key, x in rng.choice(rows).items()})
        expected = fraction_rank([[row[key] for key in keys] for row in rows])
        for order in (sorted, lambda ks: sorted(ks, reverse=True),
                      lambda ks: rng.sample(list(ks), len(ks))):
            reordered = [{key: row[key] for key in order(row)} for row in rows]
            assert exact_rank(reordered) == expected, rows


def test_verify_basis_showcase():
    report = verify_basis(SHOWCASE, SHOWCASE_K, 2)
    assert report.multiplicity == 2
    assert report.counts_match and report.rank_matches
    assert report.right_normed_checked and report.right_normed_consistent


def test_verify_basis_refuses_before_searching(monkeypatch):
    def unreached(g, k, i):
        raise AssertionError("c_i_set ran on a graph with a real vertex")

    monkeypatch.setattr(lyndon, "c_i_set", unreached)
    g = new_graph([1, 2], kinds={1: "re"}, edges=[(1, 2)])
    with pytest.raises(GraphError):
        verify_basis(g, WeightVector.ones([1, 2]), 2)


def test_verify_basis_lists_no_full_weight_words(monkeypatch):
    # With k_i >= 2 the alphabet and b_tilde stay below k, and the rank rows
    # are sparse, so the word search never runs at weight k.  Every word
    # list, grouped or not, comes from trace._search.
    g, k = cycle_graph(4), WeightVector.of({1: 1, 2: 2, 3: 1, 4: 1})
    seen = []
    search = trace._search

    def spy(g, w):
        seen.append(w)
        return search(g, w)

    monkeypatch.setattr(trace, "_search", spy)
    report = verify_basis(g, k, 2)
    assert report.counts_match and report.rank_matches
    assert seen and k not in seen


def test_c_i_set_with_k_i_one_reads_only_k(monkeypatch):
    # every letter holds one i, so with k_i = 1 the only letter weight is k
    g, k = cycle_graph(4), WeightVector.of({1: 1, 2: 2, 3: 1, 4: 1})
    seen = []

    def spy(graph, w, i):
        seen.append(w)
        return b_tilde(graph, w, i)

    monkeypatch.setattr(lyndon, "b_tilde", spy)
    assert c_i_set(g, k, 1) == [(w,) for w in b_tilde(g, k, 1)]
    assert seen == [k]


def test_verify_basis_small_family():
    for g in (path_graph(3), cycle_graph(4), complete_graph(3)):
        for extra in g.vertices:
            counts = dict.fromkeys(g.vertices, 1)
            counts[extra] += 1
            k = WeightVector.of(counts)
            for i in k.support:
                report = verify_basis(g, k, i)
                assert report.counts_match, (g.edges, k, i)
                assert report.rank_matches, (g.edges, k, i)
                assert report.lyndon_count == root_multiplicity(g, k)


def test_verify_basis_ranks_once_when_k_i_is_one(monkeypatch):
    # With k_i = 1 each Lyndon sequence is one letter whose bracketing is its
    # right-normed word, so the right-normed check reads the same rows: one
    # rank over lyndon_count rows, one expansion per sequence.
    rank, expand = lyndon.exact_rank, lyndon._expand
    ranked, expanded = [], []

    def rank_spy(rows):
        ranked.append(len(rows))
        return rank(rows)

    def expand_spy(tree, key):
        expanded.append(tree)
        return expand(tree, key)

    monkeypatch.setattr(lyndon, "exact_rank", rank_spy)
    monkeypatch.setattr(lyndon, "_expand", expand_spy)
    for g, counts in ((cycle_graph(4), {1: 1, 2: 2, 3: 1, 4: 1}),
                      (complete_graph(4), {1: 1, 2: 2, 3: 2, 4: 2})):
        ranked.clear()
        expanded.clear()
        report = verify_basis(g, WeightVector.of(counts), 1)
        assert report.right_normed_checked and report.right_normed_consistent
        assert report.ok and report.rank == report.lyndon_count > 0
        assert ranked == [report.lyndon_count]
        assert expanded == [seq[0] for seq in report.lyndon]
