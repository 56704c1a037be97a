import random
from itertools import zip_longest

import pytest

from chromalie import (GraphError, WeightVector, chromatic_complete,
                       chromatic_poly, chromatic_tree, coloring_count_oracle,
                       complement, new_graph, ordered_partition_counts,
                       weight_box)
from chromalie import chromatic

from helpers import complete_graph, cycle_graph, full_support_weights, \
    partition_sum_chromatic, path_graph, random_graphs, \
    support_partition_counts


def test_single_vertex():
    g = new_graph([1])
    k = WeightVector.of({1: 2})
    # choosing 2 colors out of q: the single tuple ({1},{1}) gives C(q,2)
    assert chromatic_poly(g, k).eval(5) == 10
    assert ordered_partition_counts(g, k) == {2: 1}


def test_zero_weight():
    g = path_graph(2)
    assert ordered_partition_counts(g, WeightVector.of({})) == {0: 1}
    assert chromatic_poly(g, WeightVector.of({})).eval(7) == 1


def test_edge_simple_coloring():
    g = path_graph(2)
    k = WeightVector.ones([1, 2])
    p = chromatic_poly(g, k)
    for q in range(6):
        assert p.eval(q) == q * (q - 1)


def test_partition_counts_example():
    g = new_graph([1, 2, 3, 4], edges=[(1, 2), (2, 3), (2, 4), (3, 4)])
    k = WeightVector.of({1: 2, 2: 1, 3: 1, 4: 1})
    assert ordered_partition_counts(g, k) == {3: 6, 4: 48, 5: 60}
    assert chromatic_poly(g, k).eval(3) == 6


def test_oracle_agreement_small_family():
    gs = [path_graph(3), cycle_graph(4), complete_graph(3)]
    for g in gs:
        for k in full_support_weights(g, 4):
            p = chromatic_poly(g, k)
            for q in range(k.height + 1):
                assert p.eval(q) == coloring_count_oracle(g, k, q)


def test_complete_closed_form():
    for weights in ([1, 1], [2, 1], [2, 2, 1], [3, 1, 2]):
        g = complete_graph(len(weights))
        k = WeightVector.of(dict(enumerate(weights, start=1)))
        assert chromatic_complete(weights) == chromatic_poly(g, k)
    # K2-K5 with the weight list shuffled, so the factor order changes
    rng = random.Random(5)
    for n in range(2, 6):
        for _ in range(6):
            weights = [rng.randint(1, 3) for _ in range(n)]
            k = WeightVector.of(dict(enumerate(weights, start=1)))
            rng.shuffle(weights)
            assert chromatic_complete(weights) == \
                chromatic_poly(complete_graph(n), k), weights


def test_complete_closed_form_validation():
    with pytest.raises(GraphError):
        chromatic_complete([])
    with pytest.raises(GraphError):
        chromatic_complete([1, 0])


def test_tree_closed_form():
    g = path_graph(4)
    for k in full_support_weights(g, 6):
        assert chromatic_tree(g, k) == chromatic_poly(g, k)
    # trees with scattered ids, each vertex attached to a random earlier
    # one, so leaves, parents and the last vertex fall anywhere
    rng = random.Random(20)
    for _ in range(30):
        ids = rng.sample(range(40), rng.randint(1, 7))
        g = new_graph(ids, edges=[(v, rng.choice(ids[:j]))
                                  for j, v in enumerate(ids) if j])
        k = WeightVector.of({v: rng.randint(1, 3) for v in ids})
        assert chromatic_tree(g, k) == chromatic_poly(g, k), (g, k)


def test_tree_closed_form_rejects_cycles():
    with pytest.raises(GraphError):
        chromatic_tree(cycle_graph(3), WeightVector.ones([1, 2, 3]))


def test_values_are_integral():
    g = cycle_graph(4)
    k = WeightVector.of({1: 2, 2: 1, 3: 2, 4: 1})
    p = chromatic_poly(g, k)
    for q in range(8):
        v = p.eval(q)
        assert v.denominator == 1 and v >= 0


def test_disconnected_support_factorizes():
    g = path_graph(3)
    k = WeightVector.of({1: 1, 3: 2})
    lhs = chromatic_poly(g, k)
    rhs = chromatic_poly(g, WeightVector.of({1: 1})) * \
        chromatic_poly(g, WeightVector.of({3: 2}))
    assert lhs == rhs


def test_oracle_validation():
    g = path_graph(2)
    with pytest.raises(GraphError):
        coloring_count_oracle(g, WeightVector.ones([1, 2]), -1)
    assert coloring_count_oracle(g, WeightVector.ones([1, 2]), 0) == 0


def test_whole_boxes_match_reference():
    # each graph interleaved with its complement (same vertices, other
    # edges) from empty caches, so a residual memo leaking across graphs
    # or weights would show
    chromatic.chromatic_poly.cache_clear()
    chromatic._partition_dp.cache_clear()
    for g in random_graphs(seed=6, count=12, max_n=5):
        h = complement(g)
        boxes = [[(x, k) for k in weight_box(dict.fromkeys(x.vertices, 3), 4)]
                 for x in (g, h)]
        assert boxes[0][0][1].is_zero
        for pair in zip_longest(*boxes):
            for x, k in pair:
                assert ordered_partition_counts(x, k) == \
                    support_partition_counts(x, k), (x, k)
                assert chromatic_poly(x, k) == partition_sum_chromatic(x, k), \
                    (x, k)
