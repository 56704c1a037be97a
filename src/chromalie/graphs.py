"""Finite simple graphs with real/imaginary vertex kinds, and weight vectors.

Vertices are non-negative integers; the ascending numeric order of the
vertex ids is the single total order used everywhere downstream (alphabet
order for trace words, lexicographic comparisons, deterministic output).
"""

from __future__ import annotations

import json
import math
from functools import cached_property, total_ordering
from itertools import combinations
from typing import Iterable, Iterator, Mapping

REAL = "re"
IMAGINARY = "im"
MAX_HEIGHT = 12  # the tallest weight or height bound any command accepts


class GraphError(ValueError):
    """Raised on malformed graph or weight-vector input."""


class Value:
    """An immutable value: repr from `_fields`; == and hash from `_key`, a
    tuple compared only with the same class (hash(_key()) is the dataclass
    formula).  Single-field classes, which are hashed and compared most,
    define `_key` directly rather than through the getattr loop."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Graph(Value):
    """An immutable graph.  It keeps a __dict__ for its cached_property
    tables, and computes its hash once."""

    _fields = ("vertices", "kinds", "edges")

    def __init__(self, vertices: tuple[int, ...], kinds: tuple[str, ...],
                 edges: frozenset[tuple[int, int]]):
        self.vertices = vertices    # strictly increasing
        self.kinds = kinds          # aligned with vertices, "re" or "im"
        self.edges = edges          # each pair stored as (min, max)
        self._hash = hash(self._key())

    def __hash__(self) -> int:
        return self._hash

    def kind(self, v: int) -> str:
        try:
            return self.kinds[self.vertices.index(v)]
        except ValueError:
            raise GraphError(f"unknown vertex {v}") from None

    @property
    def all_imaginary(self) -> bool:
        return all(k == IMAGINARY for k in self.kinds)

    def check_imaginary(self) -> None:
        if not self.all_imaginary:
            raise GraphError("this computation requires an all-imaginary graph")

    def has_vertex(self, v: int) -> bool:
        return v in self.vertices

    def adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        return {v: tuple(u for u in self.vertices
                         if u != v and self.adjacent(u, v))
                for v in self.vertices}

    @cached_property
    def dependence(self) -> dict[int, frozenset[int]]:
        """Each vertex mapped to itself plus its neighbours: the letters it
        does not commute with in the trace monoid."""
        return {v: frozenset((v, *nbrs)) for v, nbrs in self._adjacency.items()}

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adjacency[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    @cached_property
    def independent_subsets(self) -> list[list[int]]:
        """For every bitmask S over the vertices (bit j is the j-th vertex),
        the nonempty independent sets inside S, as bitmasks.  With v the
        lowest vertex of S, they are those of S - v, {v}, and v joined to
        each of those of S - v - N(v): time linear in the output."""
        index = {v: j for j, v in enumerate(self.vertices)}
        adj = [0] * len(self.vertices)
        for u, v in self.edges:
            adj[index[u]] |= 1 << index[v]
            adj[index[v]] |= 1 << index[u]
        subsets: list[list[int]] = [[]]
        for s in range(1, 1 << len(self.vertices)):
            low = s & -s
            rest = s ^ low
            apart = subsets[rest & ~adj[low.bit_length() - 1]]
            subsets.append([*subsets[rest], low, *[low | t for t in apart]])
        return subsets

    def induced(self, s: Iterable[int]) -> "Graph":
        keep = set(s)
        if unknown := keep - set(self.vertices):
            raise GraphError(f"unknown vertices {sorted(unknown)}")
        verts = tuple(v for v in self.vertices if v in keep)
        kinds = tuple(self.kind(v) for v in verts)
        edges = frozenset(e for e in self.edges if e[0] in keep and e[1] in keep)
        return Graph(verts, kinds, edges)


def new_graph(vertices: Iterable[int],
              kinds: Mapping[int, str] | None = None,
              edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Build a validated graph; kinds default to imaginary for every vertex."""
    verts = sorted(vertices)
    if len(verts) != len(set(verts)):
        raise GraphError("duplicate vertex id")
    if any(v < 0 for v in verts):
        raise GraphError("vertex ids must be non-negative")
    vset = set(verts)
    kinds = dict(kinds or {})
    for v, k in kinds.items():
        if v not in vset:
            raise GraphError(f"kind given for undeclared vertex {v}")
        if k not in (REAL, IMAGINARY):
            raise GraphError(f"unknown vertex kind {k!r}")
    edge_set = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop edge at vertex {u}")
        if u not in vset or v not in vset:
            raise GraphError(f"edge ({u},{v}) references undeclared vertex")
        edge_set.add((min(u, v), max(u, v)))
    return Graph(tuple(verts), tuple(kinds.get(v, IMAGINARY) for v in verts),
                 frozenset(edge_set))


def complement(g: Graph) -> Graph:
    edges = frozenset((u, v) for u, v in combinations(g.vertices, 2)
                      if not g.adjacent(u, v))
    return Graph(g.vertices, g.kinds, edges)


def is_connected_sub(g: Graph, s: Iterable[int]) -> bool:
    """Connectivity of the induced subgraph; empty set counts as disconnected."""
    s = set(s)
    for v in s:
        if not g.has_vertex(v):
            raise GraphError(f"unknown vertex {v}")
    if not s:
        return False
    stack = [next(iter(s))]
    seen = set(stack)
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w in s and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == s


def enumerate_independent_sets(g: Graph) -> list[frozenset[int]]:
    """All independent vertex sets including the empty set, size-then-lex
    order: the empty set and the last entry of g.independent_subsets."""
    sets = [(), *(tuple(v for j, v in enumerate(g.vertices) if s >> j & 1)
                  for s in g.independent_subsets[-1])]
    return [frozenset(s) for s in sorted(sets, key=lambda s: (len(s), s))]


def is_triangle_free(g: Graph) -> bool:
    return not any(g.adjacent(a, b) and g.adjacent(b, c) and g.adjacent(a, c)
                   for a, b, c in combinations(g.vertices, 3))


@total_ordering
class WeightVector(Value):
    """Finitely supported map vertex -> positive count, zeros dropped.
    Equality, hashing and the orderings are those of `counts`, and only
    between weight vectors."""

    __slots__ = ("counts",)
    _fields = __slots__
    _key = lambda self: (self.counts,)

    def __init__(self, counts: tuple[tuple[int, int], ...]):
        self.counts = counts  # (vertex, count), vertex ascending

    def __lt__(self, other):
        if other.__class__ is not WeightVector:
            return NotImplemented
        return self.counts < other.counts

    @classmethod
    def of(cls, mapping: Mapping[int, int] | Iterable[tuple[int, int]]) -> "WeightVector":
        items = dict(mapping)
        if any(c < 0 for c in items.values()):
            raise GraphError("negative weight entry")
        return cls(tuple(sorted((v, c) for v, c in items.items() if c > 0)))

    @classmethod
    def ones(cls, vertices: Iterable[int]) -> "WeightVector":
        return cls.of({v: 1 for v in vertices})

    def get(self, v: int) -> int:
        return dict(self.counts).get(v, 0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.counts)

    @property
    def height(self) -> int:
        return sum(c for _, c in self.counts)

    @property
    def is_zero(self) -> bool:
        return not self.counts

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def gcd(self) -> int:
        return math.gcd(*(c for _, c in self.counts)) if self.counts else 0

    def divide(self, ell: int) -> "WeightVector":
        if any(c % ell for _, c in self.counts):
            raise GraphError(f"{ell} does not divide every entry")
        return WeightVector(tuple((v, c // ell) for v, c in self.counts))

    def check_support(self, g: Graph) -> None:
        for v in self.support:
            if not g.has_vertex(v):
                raise GraphError(f"weight vector references unknown vertex {v}")


def weight_box(bounds: Mapping[int, int],
               max_height: int | None = None) -> Iterator[WeightVector]:
    """The weights of coded_box(bounds, max_height), without their codes."""
    return (w for w, _, _, _ in coded_box(bounds, max_height)[1])


def coded_box(bounds: Mapping[int, int], max_height: int | None = None
              ) -> tuple[dict[int, int],
                         Iterator[tuple[WeightVector, int, int, int]]]:
    """Every w with 0 <= w_v <= bounds[v] and height at most max_height, the
    zero vector included, yielded lazily as (w, code, height, mask).
    Vertices ascend, the last varying fastest.  Bit j of mask is set when
    the j-th vertex is in the support, and code is the sum of w_v * place[v],
    place[v] = radix^j at the j-th vertex.  radix = 2 * max bound + 1, so no
    sum or difference of two box weights carries: codes add and subtract as
    the weights do, and b fits inside a exactly when code[a] - code[b] is
    again a box code."""
    verts = sorted(bounds)
    radix = 2 * max(bounds.values(), default=0) + 1
    place = [radix ** j for j in range(len(verts))]
    cap = sum(bounds.values()) if max_height is None else max_height
    acc: list[tuple[int, int]] = []

    def rec(idx: int, room: int, code: int, mask: int):
        if idx == len(verts):
            yield WeightVector(tuple(acc)), code, cap - room, mask
            return
        v = verts[idx]
        yield from rec(idx + 1, room, code, mask)
        for c in range(1, min(bounds[v], room) + 1):
            acc.append((v, c))
            yield from rec(idx + 1, room - c, code + c * place[idx],
                           mask | 1 << idx)
            acc.pop()

    return dict(zip(verts, place)), rec(0, cap, 0, 0) if cap >= 0 \
        else iter(())


def join_graph(g: Graph, k: WeightVector) -> tuple[Graph, dict[int, tuple[int, int]]]:
    """Replace vertex j by a clique of k_j clones; cliques of adjacent originals
    fully joined.  Vertices outside support(k) are dropped.

    Clone ids are fresh consecutive integers; the clone map sends each new id to
    (original vertex, copy index starting at 1).
    """
    k.check_support(g)
    if k.is_zero:
        raise GraphError("join graph needs nonempty support")
    clone_map = dict(enumerate((v, r) for v, c in k.counts
                               for r in range(1, c + 1)))
    edges = [(a, b) for a, b in combinations(clone_map, 2)
             if clone_map[b][0] in g.dependence[clone_map[a][0]]]
    kinds = {c: g.kind(orig) for c, (orig, _) in clone_map.items()}
    return new_graph(clone_map.keys(), kinds, edges), clone_map


def _is_id(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_json(text: str) -> Graph:
    """Parse {"vertices":[{"id":int,"kind":"re"|"im"},...],"edges":[[u,v],...]}."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise GraphError("graph JSON must be an object")
    raw_vertices = data.get("vertices")
    raw_edges = data.get("edges", [])
    if not isinstance(raw_vertices, list):
        raise GraphError('graph JSON needs a "vertices" list')
    if not isinstance(raw_edges, list):
        raise GraphError('"edges" must be a list')
    ids, kinds = [], {}
    for entry in raw_vertices:
        if not isinstance(entry, dict) or not _is_id(entry.get("id")):
            raise GraphError('each vertex needs an integer "id"')
        ids.append(entry["id"])
        kinds[entry["id"]] = entry.get("kind", IMAGINARY)
    edges = []
    for e in raw_edges:
        if (not isinstance(e, list) or len(e) != 2
                or not all(_is_id(x) for x in e)):
            raise GraphError(f"edge {e!r} must be a pair of integer vertex ids")
        edges.append((e[0], e[1]))
    return new_graph(ids, kinds, edges)
