import json
from itertools import combinations, product

import pytest
from hypothesis import given

from chromalie import (GraphError, WeightVector, complement,
                       enumerate_independent_sets, graph_from_json,
                       graph_to_json, is_connected_sub, is_independent,
                       is_triangle_free, join_graph, new_graph, weight_box)

from helpers import complete_graph, cycle_graph, full_support_weights, \
    path_graph, small_graphs, weight_leq, weight_minus, weight_plus


graphs = small_graphs()


def test_vertex_validation():
    with pytest.raises(GraphError):
        new_graph([1, 1])
    with pytest.raises(GraphError):
        new_graph([1, 2], edges=[(1, 1)])
    with pytest.raises(GraphError):
        new_graph([1, 2], edges=[(1, 3)])
    with pytest.raises(GraphError):
        new_graph([1], kinds={1: "weird"})
    with pytest.raises(GraphError):
        new_graph([1], kinds={2: "re"})


def test_kinds_default_imaginary():
    g = new_graph([1, 2], kinds={1: "re"})
    assert g.kind(1) == "re" and g.kind(2) == "im"
    assert not g.all_imaginary


def test_adjacency_and_neighbors():
    g = path_graph(3)
    assert g.adjacent(1, 2) and g.adjacent(2, 1)
    assert not g.adjacent(1, 3)
    assert g.neighbors(2) == (1, 3)
    assert g.neighbors(1) == (2,)
    with pytest.raises(GraphError):
        g.neighbors(9)


@given(graphs)
def test_neighbors_match_adjacent(g):
    for v in g.vertices:
        assert g.neighbors(v) == tuple(
            u for u in g.vertices if u != v and g.adjacent(u, v))
        assert g.dependence[v] == {v, *g.neighbors(v)}


def test_induced_subgraph():
    g = cycle_graph(4)
    h = g.induced([1, 2, 3])
    assert h.vertices == (1, 2, 3)
    assert sorted(h.edges) == [(1, 2), (2, 3)]


@given(graphs)
def test_complement_involution(g):
    assert complement(complement(g)) == g


def test_independence():
    g = cycle_graph(4)
    assert is_independent(g, [1, 3])
    assert not is_independent(g, [1, 2])
    assert is_independent(g, [])


def test_connectivity():
    g = path_graph(4)
    assert is_connected_sub(g, [1, 2, 3])
    assert not is_connected_sub(g, [1, 3])
    assert not is_connected_sub(g, [])
    assert is_connected_sub(g, [2])


def test_independent_sets_order():
    g = path_graph(3)
    sets = enumerate_independent_sets(g)
    assert sets[0] == frozenset()
    assert frozenset({1, 3}) in sets
    assert len(sets) == 1 + 3 + 1


@given(graphs)
def test_independent_signs_match_is_independent(g):
    sign = g.independent_signs
    assert len(sign) == 2 ** len(g.vertices)
    for s, value in enumerate(sign):
        members = [v for j, v in enumerate(g.vertices) if s >> j & 1]
        expected = (-1) ** (len(members) + 1) \
            if is_independent(g, members) else 0
        assert value == expected, (g, members)
    # the list view keeps the size-then-lex order of the pairwise filter
    assert enumerate_independent_sets(g) == [
        frozenset(c) for r in range(len(g.vertices) + 1)
        for c in combinations(g.vertices, r) if is_independent(g, c)]


def test_triangle_free():
    assert is_triangle_free(cycle_graph(4))
    assert not is_triangle_free(complete_graph(3))


def test_weight_vector_basics():
    k = WeightVector.of({2: 1, 1: 3, 5: 0})
    assert k.counts == ((1, 3), (2, 1))
    assert k.get(5) == 0 and k.get(1) == 3
    assert k.height == 4
    assert k.support == (1, 2)
    assert k.gcd() == 1
    with pytest.raises(GraphError):
        WeightVector.of({1: -1})


def test_weight_vector_arithmetic():
    a = WeightVector.of({1: 2, 2: 2})
    b = WeightVector.of({1: 1, 2: 2})
    assert weight_minus(a, b) == WeightVector.of({1: 1})
    assert weight_plus(b, WeightVector.of({1: 1})) == a
    assert weight_leq(b, a) and not weight_leq(a, b)
    assert a.divide(2) == WeightVector.of({1: 1, 2: 1})
    with pytest.raises(GraphError):
        a.divide(3)


def test_join_graph_structure():
    g = path_graph(2)
    k = WeightVector.of({1: 2, 2: 1})
    jg, cm = join_graph(g, k)
    assert len(jg.vertices) == 3
    # two clones of vertex 1 form a clique, both joined to the clone of 2
    assert len(jg.edges) == 3
    originals = sorted(cm.values())
    assert originals == [(1, 1), (1, 2), (2, 1)]


def test_join_graph_drops_unweighted():
    g = path_graph(3)
    jg, cm = join_graph(g, WeightVector.of({1: 1, 3: 1}))
    assert len(jg.vertices) == 2 and not jg.edges


def test_join_graph_inherits_kinds():
    g = new_graph([1, 2], kinds={1: "re"}, edges=[(1, 2)])
    jg, cm = join_graph(g, WeightVector.of({1: 1, 2: 2}))
    kinds = {cm[c][0]: jg.kind(c) for c in jg.vertices}
    assert kinds == {1: "re", 2: "im"}


def test_json_round_trip():
    g = new_graph([1, 2, 3], kinds={2: "re"}, edges=[(1, 2), (2, 3)])
    assert graph_from_json(graph_to_json(g)) == g


def test_json_errors():
    with pytest.raises(GraphError):
        graph_from_json("not json")
    with pytest.raises(GraphError):
        graph_from_json("[1,2]")
    with pytest.raises(GraphError):
        graph_from_json(json.dumps({"vertices": [{"id": "a"}]}))
    with pytest.raises(GraphError):
        graph_from_json(json.dumps({"vertices": [{"id": 1}], "edges": [[1]]}))
    with pytest.raises(GraphError):
        graph_from_json(json.dumps({"vertices": [{"id": True}]}))
    with pytest.raises(GraphError):
        graph_from_json(json.dumps({"vertices": [{"id": 1}, {"id": 2}],
                                    "edges": [[True, 2]]}))


@pytest.mark.parametrize("bounds, max_height", [
    ({}, None), ({3: 2}, None), ({1: 2, 2: 0, 5: 3}, None),
    ({1: 2, 2: 1, 3: 2}, 3), ({0: 4, 1: 4, 2: 4}, 4), ({1: 1, 2: 1}, 0),
    ({1: 1, 2: 1}, -1)])
def test_weight_box_matches_product_filter(bounds, max_height):
    verts = sorted(bounds)
    cap = sum(bounds.values()) if max_height is None else max_height
    expected = [WeightVector.of(zip(verts, counts))
                for counts in product(*(range(bounds[v] + 1) for v in verts))
                if sum(counts) <= cap]
    assert list(weight_box(bounds, max_height)) == expected


@pytest.mark.parametrize("g", [path_graph(1), path_graph(3), cycle_graph(4)])
def test_weight_box_full_support_slice(g):
    box = weight_box(dict.fromkeys(g.vertices, 6), 6)
    assert [w for w in box if len(w.support) == len(g.vertices)] == \
        list(full_support_weights(g, 6))


def test_weight_vector_value_semantics():
    a = WeightVector.of({2: 1, 1: 3})
    b = WeightVector(((1, 3), (2, 1)))
    c = WeightVector.of({1: 3, 2: 2})
    assert repr(a) == "WeightVector(counts=((1, 3), (2, 1)))"
    assert a == b and hash(a) == hash(b) and len({a, b, c}) == 2
    assert a != c and a < c and a <= c and c > a and c >= a
    assert a <= b and a >= b and not a < b and not a > b
    assert sorted([c, WeightVector(()), a]) == [WeightVector(()), a, c]
    # Only weight vectors compare with weight vectors.
    assert WeightVector(()) != () and a != a.counts
    for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        assert getattr(a, op)(a.counts) is NotImplemented
    with pytest.raises(TypeError):
        a < a.counts
    with pytest.raises(AttributeError):
        a.extra = 1  # __slots__


def test_graph_value_semantics():
    g = new_graph([1, 2, 3], edges=[(2, 1), (2, 3)])
    h = new_graph([3, 2, 1], edges=[(3, 2), (1, 2)])
    assert g is not h and g == h and hash(g) == hash(h) and len({g, h}) == 1
    assert g != new_graph([1, 2, 3], edges=[(1, 2)])
    assert g != new_graph([1, 2, 3], kinds={1: "re"},
                          edges=[(1, 2), (2, 3)])
    assert g != (g.vertices, g.kinds, g.edges)
    assert repr(new_graph([1, 2], edges=[(1, 2)])) == (
        "Graph(vertices=(1, 2), kinds=('im', 'im'), "
        "edges=frozenset({(1, 2)}))")
