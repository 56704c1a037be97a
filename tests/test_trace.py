import gc
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from chromalie import (GraphError, WeightVector, b_set, b_tilde, canonicalize,
                       chromatic, enumerate_weight_words, i_form,
                       initial_alphabet, is_connected_sub, lyndon,
                       multiplicity, new_graph, trace, weight_box)
from chromalie.cli import main

from helpers import (backward_scan_words, complete_graph, cycle_graph,
                     graph_to_json, greedy_canonicalize, initial_alphabet_set,
                     initial_letter_groups, path_graph, peel_i_form,
                     random_graphs, strip_initial_alphabet)

SHOWCASE = new_graph([1, 2, 3, 4], edges=[(1, 2), (2, 3), (2, 4), (3, 4)])


def test_canonicalize_fixed_points():
    g = path_graph(3)
    # 1 and 3 commute; the larger letter moves first
    assert canonicalize((1, 3), g) == (3, 1)
    assert canonicalize((3, 1), g) == (3, 1)
    assert canonicalize((1, 2), g) == (1, 2)
    assert canonicalize((), g) == ()


def test_canonicalize_showcase():
    assert canonicalize((1, 3, 4, 2, 1), SHOWCASE) == (3, 4, 1, 2, 1)


def test_canonicalize_rejects_unknown_letters():
    with pytest.raises(GraphError):
        canonicalize((9,), path_graph(2))
    with pytest.raises(GraphError):
        canonicalize((1, 9, 2), path_graph(2))
    with pytest.raises(GraphError):
        initial_alphabet((1, 9), path_graph(2))


def test_word_layer_matches_references():
    # words of 0-12 letters on random graphs with 1-7 vertices, against the
    # greedy O(L^3) normal form and the strip-loop initial alphabet
    rng = random.Random(5)
    shapes = set()
    for g in random_graphs(seed=4, count=120, max_n=7):
        n, m = len(g.vertices), len(g.edges)
        shapes.add("edgeless" if not m else
                   "complete" if 2 * m == n * (n - 1) else
                   "connected" if is_connected_sub(g, g.vertices) else
                   "disconnected")
        for _ in range(8):
            w = [rng.choice(g.vertices) for _ in range(rng.randint(0, 12))]
            assert canonicalize(w, g) == greedy_canonicalize(w, g), (g, w)
            assert initial_alphabet(w, g) == strip_initial_alphabet(w, g), \
                (g, w)
    assert shapes == {"edgeless", "complete", "connected", "disconnected"}


@given(st.lists(st.integers(1, 4), max_size=7), st.randoms())
def test_canonicalize_commutation_invariant(word, rng):
    g = cycle_graph(4)
    base = canonicalize(word, g)
    # apply random swaps of adjacent independent letters; the class must not move
    w = list(word)
    for _ in range(10):
        if len(w) < 2:
            break
        j = rng.randrange(len(w) - 1)
        a, b = w[j], w[j + 1]
        if a != b and not g.adjacent(a, b):
            w[j], w[j + 1] = b, a
    assert canonicalize(w, g) == base


@given(st.lists(st.integers(1, 4), max_size=7))
def test_canonicalize_idempotent(word):
    g = cycle_graph(4)
    once = canonicalize(word, g)
    assert canonicalize(once, g) == once


def test_initial_alphabet_multiplicities():
    k3 = complete_graph(3)
    assert dict(initial_alphabet((1, 2, 3, 3), k3)) == {3: 2}
    assert dict(initial_alphabet((2, 1, 1), k3)) == {1: 2}
    g2 = path_graph(2)
    assert dict(initial_alphabet((1, 2, 1), g2)) == {1: 1}
    assert dict(initial_alphabet((2, 1, 1), g2)) == {1: 2}
    # commuting letters can both be final
    p3 = path_graph(3)
    assert initial_alphabet_set((2, 1, 3), p3) == frozenset({1, 3})


def test_i_form_showcase():
    f = i_form((1, 3, 4, 2, 1), 1, SHOWCASE)
    assert f == ((1,), (3, 4, 2, 1))


def test_i_form_concat_round_trip():
    g = SHOWCASE
    k = WeightVector.of({1: 2, 2: 1, 3: 1, 4: 1})
    for w in b_tilde(g, k, 1):
        f = i_form(w, 1, g)
        assert len(f) == 2
        assert canonicalize(sum(f, ()), g) == w
        for factor in f:
            assert initial_alphabet_set(factor, g) == frozenset({1})
            assert factor.count(1) == 1


def test_i_form_requires_single_initial_letter():
    # also the empty word, a word with no i and unknown letters
    for w in ((1, 2), (), (2, 2), (9, 1), (1, 9), (1, 9, 1)):
        with pytest.raises(GraphError):
            i_form(w, 1, path_graph(2))


def test_i_form_matches_peel_reference():
    # every word up to height 5 and its reverse (a non-canonical
    # representative), with every vertex as i; both raise on the same inputs
    def outcome(form, w, i, g):
        try:
            return form(w, i, g)
        except GraphError:
            return None

    outcomes = Counter()
    for g in random_graphs(seed=3, count=60, max_n=5):
        for k in weight_box(dict.fromkeys(g.vertices, 3), 5):
            for w in enumerate_weight_words(g, k):
                for rep in (w, w[::-1]):
                    for i in g.vertices:
                        expected = outcome(peel_i_form, rep, i, g)
                        assert outcome(i_form, rep, i, g) == expected, \
                            (g, rep, i)
                        outcomes[expected is None] += 1
    assert outcomes[True] and outcomes[False]


def test_enumerate_weight_words_path():
    g = path_graph(3)
    words = enumerate_weight_words(g, WeightVector.ones([1, 2, 3]))
    assert words == ((1, 2, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))


def test_enumerate_weight_words_counts():
    # complete graph: all arrangements are distinct traces
    g = complete_graph(3)
    k = WeightVector.of({1: 2, 2: 1, 3: 1})
    assert len(enumerate_weight_words(g, k)) == 12
    # edgeless graph: one trace per weight
    e3 = new_graph([1, 2, 3])
    assert len(enumerate_weight_words(e3, k)) == 1


def test_enumerate_weight_words_all_canonical():
    g = cycle_graph(4)
    k = WeightVector.of({1: 1, 2: 2, 3: 1, 4: 1})
    words = enumerate_weight_words(g, k)
    assert len(set(words)) == len(words)
    for w in words:
        assert canonicalize(w, g) == w


def test_search_matches_backward_scan():
    # the two-mask search against the backward-scan search and the per-word
    # initial_alphabet filter: the same words, groups and order, the zero
    # weight included
    weights = 0
    for g in random_graphs(seed=21, count=40, max_n=5):
        for k in weight_box(dict.fromkeys(g.vertices, 3), 6):
            words, groups = trace._search(g, k)
            assert words == backward_scan_words(g, k), (g, k)
            assert {i: list(ws) for i, ws in groups.items()} == \
                initial_letter_groups(g, k), (g, k)
            weights += 1
    assert weights > 1000


def test_b_tilde_showcase():
    k = WeightVector.of({1: 2, 2: 1, 3: 1, 4: 1})
    assert len(b_tilde(SHOWCASE, k, 1)) == 4


def test_aperiodicity():
    g = path_graph(2)
    k = WeightVector.of({1: 2, 2: 2})
    forms = sorted({i_form(w, 1, g) for w in b_tilde(g, k, 1)})
    # (21)(21) is periodic, so it has no class representative
    assert [f for f in forms if f[1:] + f[:1] == f] == [((2, 1), (2, 1))]
    reps = b_set(g, k, 1)
    assert ((2, 1), (2, 1)) not in reps
    assert ((1,), (2, 2, 1)) in reps and ((2, 2, 1), (1,)) not in reps
    # each representative is the rotation whose concatenation is least
    for f in reps:
        words = [canonicalize(sum(f[r:] + f[:r], ()), g) for r in range(len(f))]
        assert len(set(words)) == len(words)
        assert min(words) == words[0]


def test_b_set_counts_match_multiplicity():
    from chromalie import root_multiplicity
    for g in (path_graph(3), cycle_graph(4), complete_graph(3)):
        for k in (WeightVector.ones(g.vertices),
                  WeightVector.of({**dict.fromkeys(g.vertices, 1), 1: 2})):
            m = root_multiplicity(g, k)
            for i in k.support:
                assert len(b_set(g, k, i)) == m


def test_b_set_single_factor_matches_general_path():
    # with k_i = 1, b_set returns b_tilde's words as one-factor i-forms; the
    # general path (i-forms, rotation classes, first word of a class in
    # ascending order, distinct rotations) gives the same list
    for g in random_graphs(seed=27, count=12, max_n=5):
        for k in weight_box(dict.fromkeys(g.vertices, 6), 6):
            for i in k.support:
                if k.get(i) != 1:
                    continue
                reps, seen = [], set()
                for w in b_tilde(g, k, i):
                    f = i_form(w, i, g)
                    if f not in seen:
                        rotations = {f[r:] + f[:r] for r in range(len(f))}
                        seen |= rotations
                        if len(rotations) == len(f):
                            reps.append(f)
                assert b_set(g, k, i) == sorted(reps), (g, k, i)


def test_b_tilde_matches_filter_definition():
    for g in random_graphs(seed=8, count=40, max_n=5):
        for k in weight_box(dict.fromkeys(g.vertices, 3), 4):
            for i in k.support:
                assert b_tilde(g, k, i) == [
                    w for w in enumerate_weight_words(g, k)
                    if initial_alphabet_set(w, g) == frozenset({i})], (g, k, i)


def test_verify_scans_each_word_once(monkeypatch, tmp_path, capsys):
    # the three-routes, b-recursion and tensor checks ask for b_tilde, b_set
    # and the word list of every weight, sink and divisor; each weight's
    # words are still searched once, and that search also groups them by
    # initial letter, so no word's initial alphabet is scanned.  P10 at
    # height 3 has 285 weights, more than a 256-entry cache would hold.
    search = trace._search

    def counted(graph, k):
        calls[k] += 1
        return search(graph, k)

    def unreached(w, graph):
        raise AssertionError("initial_alphabet ran during verify")

    monkeypatch.setattr(trace, "_search", counted)
    monkeypatch.setattr(trace, "initial_alphabet", unreached)
    for g, max_ht in ((cycle_graph(4), 5), (path_graph(10), 3)):
        path = tmp_path / "g.json"
        path.write_text(graph_to_json(g))
        trace.enumerate_weight_words.cache_clear()
        search.cache_clear()
        calls: Counter = Counter()
        assert main(["verify", "--graph", str(path),
                     "--max-ht", str(max_ht)]) == 0
        weights = {k for k in weight_box(dict.fromkeys(g.vertices, max_ht),
                                         max_ht) if not k.is_zero}
        assert set(calls) == weights
        assert search.cache_info().misses == len(weights)


def test_search_leaves_no_cycle():
    # the search's recursive closure would hold itself through its cell, so
    # its word lists would wait for a collection after the call returned
    gc.collect()
    gc.disable()
    try:
        trace._search.__wrapped__(cycle_graph(4),
                                  WeightVector.of({1: 2, 2: 2, 3: 1, 4: 1}))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _unreachable_after(call) -> int:
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


C4_WEIGHT = WeightVector.of({1: 2, 2: 2, 3: 2, 4: 1})


@pytest.mark.parametrize("call, box_walks", [
    (lambda: chromatic.coloring_count_oracle(cycle_graph(4), C4_WEIGHT, 3), 0),
    (lambda: lyndon.c_i_set(cycle_graph(4), C4_WEIGHT, 4), 1),
    (lambda: multiplicity.enumerate_acyclic_orientations(cycle_graph(4)), 0),
    (lambda: multiplicity.bond_lattice(cycle_graph(4), C4_WEIGHT), 1),
], ids=["coloring_count_oracle", "c_i_set", "enumerate_acyclic_orientations",
        "bond_lattice"])
def test_recursive_searches_leave_no_cycle(call, box_walks):
    # as in the word search, each recursive closure would hold itself through
    # its cell until a collection; the only cycle left is that of the box
    # walk a search reads, whose generator needs its cell
    box = _unreachable_after(lambda: list(weight_box(C4_WEIGHT.as_dict())))
    assert _unreachable_after(call) == box_walks * box
