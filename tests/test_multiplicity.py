import random

import pytest

from chromalie import (GraphError, WeightVector, acyclic_counts, bond_lattice,
                       chromatic_poly, chromatic_via_bond_lattice,
                       count_unique_sink, enumerate_acyclic_orientations,
                       is_connected_sub, moebius_invert,
                       mult_via_orientations, new_graph,
                       root_multiplicity, tuple_divisors)

from chromalie import multiplicity
from chromalie.graphs import join_graph, weight_box
from chromalie.multiplicity import _unique_sink_counts

from helpers import complete_graph, cycle_graph, full_support_weights, \
    moebius, moebius_sum, orientation_sinks, partition_product_expansion, \
    path_graph, random_graphs, recursive_bond_lattice, witt_mult


def test_moebius_values():
    expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert [moebius(n) for n in range(1, 13)] == expected
    with pytest.raises(ValueError):
        moebius(0)


def test_moebius_invert():
    # sum over d | 12 of mu(d)/d * 12 = 12 * (1 - 1/2) * (1 - 1/3) = 4
    assert moebius_invert(12, lambda d: 12) == 4
    assert moebius_invert(1, lambda d: 7) == 7
    with pytest.raises(GraphError):
        moebius_invert(2, lambda d: 1)  # 1 - 1/2
    with pytest.raises(GraphError):
        moebius_invert(2, lambda d: 2 * d * d)  # 2 - 4
    for n in (0, -6):
        with pytest.raises(ValueError):
            moebius_invert(n, lambda d: 1)


def test_moebius_invert_matches_brute_force():
    # the sum over squarefree divisors against the sum over every d in 1..n,
    # with f called once at each squarefree divisor; past 60, prime powers
    # (64, 81), products of the first primes (210, 2310) and n with a
    # large prime factor (3999 = 3 * 31 * 43) or mixed powers (3600, 4000)
    rng = random.Random(60)
    for n in [*range(1, 61), 64, 81, 210, 2310, 3600, 3999, 4000]:
        for f in ({d: d * rng.randint(-3, 9) for d in range(1, n + 1)},
                  {d: rng.randint(0, 2 * n) for d in range(1, n + 1)}):
            calls = []

            def value(d):
                calls.append(d)
                return f[d]

            expected = moebius_sum(n, f.__getitem__)
            if expected.denominator == 1 and expected >= 0:
                assert moebius_invert(n, value) == expected, (n, f)
            else:
                with pytest.raises(GraphError):
                    moebius_invert(n, value)
            assert sorted(calls) == [d for d in range(1, n + 1)
                                     if n % d == 0 and moebius(d)], n


def test_tuple_divisors():
    assert tuple_divisors(WeightVector.of({1: 4, 2: 6})) == [1, 2]
    assert tuple_divisors(WeightVector.of({1: 4})) == [1, 2, 4]
    with pytest.raises(GraphError):
        tuple_divisors(WeightVector.of({}))


def test_multiplicity_matches_witt_on_complete_graphs():
    for n in (2, 3):
        g = complete_graph(n)
        for k in full_support_weights(g, 6):
            counts = [k.get(v) for v in g.vertices]
            assert root_multiplicity(g, k) == witt_mult(counts)


def test_multiplicity_disconnected_support():
    g = path_graph(3)
    assert root_multiplicity(g, WeightVector.of({1: 1, 3: 1})) == 0


def test_real_vertex_constraint():
    g = new_graph([1, 2], kinds={1: "re"}, edges=[(1, 2)])
    assert root_multiplicity(g, WeightVector.ones([1, 2])) == 1
    with pytest.raises(GraphError):
        root_multiplicity(g, WeightVector.of({1: 2, 2: 1}))


def test_bond_lattice_single_vertex():
    g = new_graph([1])
    k = WeightVector.of({1: 2})
    parts = bond_lattice(g, k)
    # {1:2} and {1:1}+{1:1}
    assert sorted(len(p) for p in parts) == [1, 2]
    assert chromatic_via_bond_lattice(g, k) == chromatic_poly(g, k)


def test_bond_lattice_identity_small():
    for g in (path_graph(3), cycle_graph(4), complete_graph(3)):
        for k in full_support_weights(g, 5):
            assert chromatic_via_bond_lattice(g, k) == chromatic_poly(g, k)


def test_bond_lattice_matches_reference():
    # real vertices (weight at most 1 there), zero entries and disconnected
    # supports all occur; lists must agree part for part and in order
    rng = random.Random(5)
    seen = set()
    for g in random_graphs(seed=5, count=80, max_n=5):
        real = {v for v in g.vertices if rng.random() < 0.3}
        g = new_graph(g.vertices, dict.fromkeys(real, "re"), g.edges)
        for _ in range(3):
            k = WeightVector.of({v: rng.randint(0, 1 if v in real else 3)
                                 for v in g.vertices})
            if k.height > 7:
                continue
            seen.add("real" if real & set(k.support) else "imaginary")
            seen.add("zero entry" if len(k.support) < len(g.vertices)
                     else "full support")
            if k.support and not is_connected_sub(g, k.support):
                seen.add("disconnected")
            assert bond_lattice(g, k) == recursive_bond_lattice(g, k), (g, k)
            assert chromatic_via_bond_lattice(g, k) == \
                partition_product_expansion(g, k), (g, k)
    assert seen == {"real", "imaginary", "zero entry", "full support",
                    "disconnected"}


def test_bond_table_matches_reference_on_every_weight():
    # the knapsack over the box against the partition-by-partition sum over
    # the reference lattice; weights with a real vertex above 1 are skipped
    rng = random.Random(8)
    seen = set()
    for g in random_graphs(seed=8, count=30, max_n=4):
        real = {v for v in g.vertices if rng.random() < 0.3}
        g = new_graph(g.vertices, dict.fromkeys(real, "re"), g.edges)
        bounds = {v: rng.randint(1, 3) for v in g.vertices}
        max_ht = rng.randint(2, 5)
        table = multiplicity.bond_table(g, bounds, max_ht)
        assert list(table) == [k for k in weight_box(bounds, max_ht)
                               if multiplicity.real_overweight(g, k) is None]
        for k, poly in table.items():
            assert poly == partition_product_expansion(g, k), (g, k)
        seen.add("real" if real else "imaginary")
    assert seen == {"real", "imaginary"}


def test_acyclic_orientation_counts():
    # trees: 2^(edges); cycles: 2^n - 2; complete: n!
    assert len(enumerate_acyclic_orientations(path_graph(4))) == 8
    assert len(enumerate_acyclic_orientations(cycle_graph(4))) == 14
    assert len(enumerate_acyclic_orientations(complete_graph(4))) == 24


def test_unique_sink_counts():
    # every acyclic orientation of a tree has at least one sink; for a path
    # the unique-sink ones are the two "flows toward v" orientations
    g = path_graph(3)
    assert [count_unique_sink(g, v) for v in g.vertices] == [1, 1, 1]
    c4 = cycle_graph(4)
    assert [count_unique_sink(c4, v) for v in c4.vertices] == [3, 3, 3, 3]
    with pytest.raises(GraphError):
        count_unique_sink(new_graph([1, 2]), 1)


def test_subset_dp_matches_enumeration():
    # edgeless and disconnected graphs included; the sink of a unique-sink
    # orientation is read off the enumerated orientation itself
    for g in random_graphs(seed=3, count=150, max_n=7):
        orientations = enumerate_acyclic_orientations(g)
        assert acyclic_counts(g)[-1] == len(orientations)
        expected = dict.fromkeys(g.vertices, 0)
        for o in orientations:
            sinks = orientation_sinks(o, g)
            if len(sinks) == 1:
                expected[sinks[0]] += 1
        assert _unique_sink_counts(g) == expected, g


def test_orientation_sinks():
    g = path_graph(3)
    for o in enumerate_acyclic_orientations(g):
        sinks = orientation_sinks(o, g)
        assert 1 <= len(sinks) <= 2


def test_mult_via_orientations_matches_moebius():
    for g in (path_graph(3), cycle_graph(4), complete_graph(3)):
        for k in full_support_weights(g, 4):
            expected = root_multiplicity(g, k)
            for i in k.support:
                assert mult_via_orientations(g, k, i) == expected


def test_bond_linear_term_inverts_to_root_multiplicity(monkeypatch):
    # Only the partitions (k/l)^l have a q^1 term, (-1)^(ht-1) mult(k/l)/l,
    # so Moebius inversion of its size returns whatever root_multiplicity
    # returns, here an arbitrary non-negative function of the weight.
    def arbitrary(g, w):
        return sum(v * c * c for v, c in w.counts) % 5

    monkeypatch.setattr(multiplicity, "root_multiplicity", arbitrary)
    diamond = new_graph([1, 2, 3, 4], edges=[(1, 2), (2, 3), (2, 4), (3, 4)])
    checked = 0
    for g in (diamond, cycle_graph(4), path_graph(3)):
        for k in weight_box(dict.fromkeys(g.vertices, 4), 5):
            if is_connected_sub(g, k.support):
                assert moebius_invert(k.gcd(), lambda ell: abs(
                    chromatic_via_bond_lattice(
                        g, k.divide(ell)).linear_coefficient)) == \
                    arbitrary(g, k), (g, k)
                checked += 1
    assert checked > 100


def test_unique_sink_counts_agree_across_clones():
    # A join-graph automorphism swaps any two clones of a vertex, which is
    # why mult_via_orientations reads the first clone only.
    for g in (path_graph(3), cycle_graph(4), complete_graph(3)):
        for k in full_support_weights(g, 5):
            jg, clone_map = join_graph(g, k)
            for i in k.support:
                counts = {count_unique_sink(jg, c)
                          for c, (orig, _) in clone_map.items() if orig == i}
                assert len(counts) == 1, (g, k, i)


def test_mult_via_orientations_showcase():
    g = new_graph([1, 2, 3, 4], edges=[(1, 2), (2, 3), (2, 4), (3, 4)])
    k = WeightVector.of({1: 2, 2: 1, 3: 1, 4: 1})
    assert root_multiplicity(g, k) == 2
    for i in (1, 2, 3, 4):
        assert mult_via_orientations(g, k, i) == 2

