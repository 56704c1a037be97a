import random
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from chromalie import (GraphError, WeightVector, complement,
                       count_compatible_pairs, enumerate_acyclic_orientations,
                       enumerate_weight_words, is_triangle_free, lcs_ranks,
                       lcs_ranks_triangle_free, new_graph,
                       ordered_partition_identity_check, series_table,
                       trace_dimension_oracle, uq_dimension, weight_box)

from chromalie.hilbert import _ordered_weight_partitions

from helpers import complete_graph, cycle_graph, independent_set_counts, \
    log_series_ranks, lucas_value_closed, path_graph, random_graphs, \
    small_graphs


def test_uq_dimension_q1_is_trace_count():
    for g in (path_graph(3), cycle_graph(4), complete_graph(3)):
        for k in (WeightVector.ones(g.vertices),
                  WeightVector.of({**dict.fromkeys(g.vertices, 1), 2: 3})):
            assert uq_dimension(g, k, 1) == trace_dimension_oracle(g, k)


def test_uq_dimension_validation():
    g = path_graph(2)
    with pytest.raises(GraphError):
        uq_dimension(g, WeightVector.ones([1, 2]), 0)
    real = new_graph([1, 2], kinds={1: "re"}, edges=[(1, 2)])
    with pytest.raises(GraphError):
        uq_dimension(real, WeightVector.ones([1, 2]), 1)


def test_convolution_identity():
    g = path_graph(3)
    k = WeightVector.of({1: 2, 2: 1, 3: 1})
    for q in (2, 3):
        assert ordered_partition_identity_check(g, k, q)


def test_ordered_weight_partitions_count_and_sums():
    for counts in ({}, {1: 1}, {1: 2, 3: 1}, {1: 1, 2: 2, 4: 3}):
        k = WeightVector.of(counts)
        for q in (1, 2, 3):
            parts = list(_ordered_weight_partitions(k, q))
            assert len(parts) == len(set(parts)) == \
                prod(comb(c + q - 1, q - 1) for c in counts.values())
            for decomposition in parts:
                assert len(decomposition) == q
                assert {v: sum(p.get(v) for p in decomposition)
                        for v in counts} == counts


def test_compatible_pairs_q1_counts_orientations():
    for g in (path_graph(3), cycle_graph(4)):
        assert count_compatible_pairs(g, 1) == \
            len(enumerate_acyclic_orientations(g))


def _compatible_pairs_brute_force(g, q):
    orientations = enumerate_acyclic_orientations(g)
    total = 0
    for labels in product(range(1, q + 1), repeat=len(g.vertices)):
        sigma = dict(zip(g.vertices, labels))
        total += sum(all(sigma[t] >= sigma[h] for t, h in o)
                     for o in orientations)
    return total


def test_compatible_pairs_match_brute_force():
    for g in random_graphs(seed=4, count=60, max_n=5):
        for q in (1, 2, 3):
            assert count_compatible_pairs(g, q) == \
                _compatible_pairs_brute_force(g, q), (g, q)


def test_reciprocity_small():
    from chromalie import chromatic_poly
    for g in (path_graph(3), cycle_graph(4), complete_graph(3)):
        k = WeightVector.ones(g.vertices)
        for q in (1, 2, 3):
            signed = (-1) ** len(g.vertices) * chromatic_poly(g, k).eval(-q)
            assert count_compatible_pairs(g, q) == signed


def test_independent_set_counts():
    # sizes: 1 empty, 3 singletons, one pair {1,3}, no triple
    assert independent_set_counts(path_graph(3)) == [1, 3, 1, 0]


def test_lcs_ranks_path():
    ranks = lcs_ranks(path_graph(3), 3)
    assert ranks[0] == (Fraction(3), 3)
    assert ranks[1] == (Fraction(7, 2), 2)
    assert all(isinstance(m, int) for _, m in ranks)


def test_lcs_ranks_triangle_free_route_agrees():
    for g in (path_graph(3), complete_graph(3), cycle_graph(4)):
        if not is_triangle_free(complement(g)):
            continue
        assert lcs_ranks(g, 6) == lcs_ranks_triangle_free(g, 6)


def test_lcs_ranks_triangle_free_requires_it():
    g = new_graph([1, 2, 3])  # complement is a triangle
    with pytest.raises(GraphError):
        lcs_ranks_triangle_free(g, 3)


def test_lucas_values():
    # <l>_{1,1} are the classical Lucas numbers
    assert [lucas_value_closed(l, 1, 1) for l in range(8)] == \
        [2, 1, 3, 4, 7, 11, 18, 29]
    with pytest.raises(GraphError):
        lucas_value_closed(-1, 1, 1)
    # the Lucas pass of lcs_ranks_triangle_free: k N_k = <k>_{v,-e}
    graphs = [complete_graph(1), complete_graph(4), path_graph(3),
              cycle_graph(4), cycle_graph(5), path_graph(4)]
    for g in graphs:
        comp = complement(g)
        v, e = len(comp.vertices), len(comp.edges)
        ranks = lcs_ranks_triangle_free(g, 40)
        assert [k * n for k, (n, _) in enumerate(ranks, 1)] == \
            [lucas_value_closed(k, v, -e) for k in range(1, 41)], g.edges


def test_lcs_ranks_match_log_series_reference():
    # Newton's identities and the Lucas pass against the Fraction series
    # of -log U, with the ranks inverted over every d in 1..k
    triangle_free = 0
    for g in random_graphs(seed=19, count=30, max_n=8):
        expected = log_series_ranks(g, 60)
        assert lcs_ranks(g, 60) == expected, g
        if is_triangle_free(complement(g)):
            triangle_free += 1
            assert lcs_ranks_triangle_free(g, 60) == expected, g
    assert triangle_free >= 5


def test_series_table():
    g = path_graph(2)
    table = series_table(g, 2, 2)
    zero = WeightVector.of({})
    assert table[zero] == 1
    assert table[WeightVector.of({1: 1})] == 2
    # one of each letter, q=2: pi(q(q-1)) at -2 with sign = 6
    assert table[WeightVector.ones([1, 2])] == 6
    assert len(table) == 6


@settings(max_examples=40)
@given(small_graphs(), st.integers(1, 3), st.integers(0, 5))
def test_series_table_matches_uq_dimension(g, q, max_ht):
    _check_series_table(g, q, max_ht)


def test_series_table_matches_uq_dimension_on_scattered_ids():
    # vertex ids need not be 1..n, and 0 may be one of them
    rng = random.Random(14)
    for g in random_graphs(seed=14, count=40, max_n=6):
        _check_series_table(g, rng.randint(1, 3), rng.randint(0, 5))


def _check_series_table(g, q, max_ht):
    table = series_table(g, q, max_ht)
    box = list(weight_box(dict.fromkeys(g.vertices, max_ht), max_ht))
    assert table[WeightVector.of({})] == 1
    assert table == {k: 1 if k.is_zero else uq_dimension(g, k, q)
                     for k in box}, (g, q, max_ht)
    if q == 1:
        assert table == {k: len(enumerate_weight_words(g, k)) for k in box}


def test_series_table_validation():
    with pytest.raises(GraphError):
        series_table(path_graph(2), 0, 2)
    with pytest.raises(GraphError):
        series_table(path_graph(2), 1, -1)
    with pytest.raises(GraphError):
        series_table(new_graph([1, 2], kinds={1: "re"}), 1, 2)
