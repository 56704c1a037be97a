"""Seeded request lists for the benchmark workloads, with expected answers.

A workload is a fixed list of slots.  Each slot fixes a graph shape, its size,
a weight vector, the command and, by position, the sink and any real vertex;
the seed only draws the vertex id of each position.  So a seed relabels the
vertices, which may change the order the program visits them in, but every
seed gives the same instances up to isomorphism.  Every request carries a
check: the expected answer comes from ``oracles`` (computed here, not by the
program) and is compared with what the program prints.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import oracles

SHAPES = {
    "complete": lambda n: list(combinations(range(n), 2)),
    "cycle": lambda n: [(i, (i + 1) % n) for i in range(n)],
    "path": lambda n: [(i, i + 1) for i in range(n - 1)],
    "diamond": lambda n: [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
}

# Slots per workload.  A slot is (command, shape, n, weights, extra):
# weights gives the weight of each shape position ("re" marks position 0 as
# a real vertex instead); extra is the method, q, height bound or, for
# sink-taking commands, ALL_SINKS to send one request per support vertex.
# Otherwise the sink is the vertex at position 0.  Slots are repeated (each
# copy draws its own labels) so that the median and the tail rank of each
# list fall inside a group of requests of like cost, not on a gap between
# two groups, where host noise would swap which group they read.  The tail
# rank is the eleventh sample from the top of three passes, so each list
# ends in a group of six like slots, or five below one dearer slot; the
# median group has as many slots below it as above it.
ALL_SINKS = "all sinks"
WORKLOADS = {
    "mult": [
        *[("mult", shape, n, w, method)
          for shape, n, w in [("complete", 3, (3, 3, 2)),
                              ("complete", 4, (2, 2, 2, 2)),
                              ("cycle", 4, (2, 2, 2, 2)),
                              ("diamond", 4, (2, 2, 2, 2))]
          for method in ("moebius", "bond", "orientations")],
        ("mult", "complete", 3, (3, 3, 2), "orientations"),
        ("mult", "complete", 4, (2, 2, 2, 2), "orientations"),
        ("reciprocity", "cycle", 6, None, 3),
        *[("reciprocity", "complete", 7, None, 2)] * 2,
        ("orientations", "complete", 7, None, None),
        ("orientations", "cycle", 7, None, None),
    ],
    "basis": [
        ("basis", "path", 4, (2, 2, 2, 2), ALL_SINKS),
        ("basis", "cycle", 5, (2, 2, 1, 1, 1), None),
        ("basis", "complete", 3, (3, 3, 1), None),
        *[("basis", "complete", 3, (2, 2, 2), None)] * 3,
        *[("basis", "cycle", 4, (2, 2, 1, 1), None)] * 2,
        ("basis", "cycle", 5, (2, 1, 1, 1, 1), None),
        ("classes", "complete", 4, (2, 3, 2, 2), None),
        *[("classes", "cycle", 4, (2, 3, 3, 2), None)] * 5,
        ("classes", "cycle", 5, (2, 3, 2, 2, 1), None),
        ("ia", "cycle", 4, (3, 2, 2, 2), None),
    ],
    "sweep": [
        *[("verify", "cycle", 4, None, 5)] * 6,
        ("verify", "cycle", 5, "re", 4),
        *[("verify", "cycle", 5, None, 4)] * 2,
        ("verify", "path", 5, None, 4),
        ("hilbert", "cycle", 5, None, (2, 6)),
        ("hilbert", "complete", 4, None, (3, 8)),
        ("hilbert", "path", 4, None, (2, 6)),
        ("hilbert", "cycle", 4, None, (2, 6)),
        ("lcs", "cycle", 5, None, 12),
        ("lcs", "complete", 6, None, 12),
        ("lcs", "complete", 5, None, 12),
        ("lcs", "complete", 4, None, 12),
    ],
    # A few-second list covering every command, for the harness self-check.
    "tiny": [
        ("mult", "complete", 3, (2, 1, 1), "moebius"),
        ("mult", "cycle", 4, (1, 1, 1, 1), "bond"),
        ("mult", "diamond", 4, (2, 1, 1, 1), "orientations"),
        ("reciprocity", "cycle", 5, None, 2),
        ("orientations", "complete", 5, None, None),
        ("basis", "cycle", 4, (2, 1, 1, 1), None),
        ("classes", "complete", 3, (2, 2, 1), None),
        ("ia", "path", 4, (2, 1, 1, 1), None),
        ("verify", "cycle", 4, "re", 3),
        ("hilbert", "complete", 3, None, (2, 4)),
        ("lcs", "cycle", 5, None, 6),
    ],
}


class Graph:
    """A seeded instance of a shape: vertex ids, edges and kinds."""

    def __init__(self, shape: str, n: int, rng: random.Random,
                 real: bool = False):
        self.shape, self.n = shape, n
        self.ids = rng.sample(range(100), n)  # position -> vertex id
        self.edges = {tuple(sorted((self.ids[a], self.ids[b])))
                      for a, b in SHAPES[shape](n)}
        self.real = {self.ids[0]} if real else set()

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.ids))

    def to_json(self) -> str:
        return json.dumps({
            "vertices": [{"id": v, "kind": "re" if v in self.real else "im"}
                         for v in self.vertices],
            "edges": [list(e) for e in sorted(self.edges)]})

    def complement_edges(self) -> int:
        return self.n * (self.n - 1) // 2 - len(self.edges)


def _spec(k: dict[int, int]) -> str:
    return ",".join(f"{v}:{c}" for v, c in sorted(k.items()))


def _mult(g: Graph, k: dict[int, int]) -> int:
    if g.shape == "complete":
        return oracles.witt(k)
    return oracles.multiplicity(g.vertices, g.edges, k)


def generate(workload: str, seed: int, graph_dir: Path) -> list[dict]:
    """The workload's request list for this seed.  Writes one graph file per
    slot under graph_dir, which the requests' argv names."""
    rng = random.Random(f"{workload}:{seed}")
    graph_dir.mkdir(parents=True, exist_ok=True)
    requests = []
    for idx, (cmd, shape, n, weights, extra) in enumerate(WORKLOADS[workload]):
        g = Graph(shape, n, rng, real=weights == "re")
        path = graph_dir / f"g{idx:02d}.json"
        path.write_text(g.to_json())
        k = dict(zip(g.ids, weights)) if isinstance(weights, tuple) else None
        sinks = sorted(k) if extra == ALL_SINKS else [g.ids[0]]
        for sink in sinks:
            argv, check = _request(cmd, g, str(path), k, sink, extra)
            if cmd != "verify":  # verify prints text only
                argv.append("--json")
            requests.append({"id": f"{workload}-{len(requests):02d}",
                             "argv": argv, "check": check})
    return requests


def _request(cmd: str, g: Graph, path: str, k: dict[int, int] | None,
             sink: int, extra) -> tuple[list[str], dict]:
    shape, n = g.shape, g.n
    base = ["--graph", path]
    if cmd == "mult":
        argv = ["mult", *base, "--k", _spec(k), "--method", extra]
        if extra == "orientations":
            argv += ["--sink", str(sink)]
        check = {"kind": "mult", "expect": _mult(g, k)}
    elif cmd == "basis":
        argv = ["basis", *base, "--k", _spec(k), "--sink", str(sink),
                "--verify"]
        check = {"kind": "basis", "expect": _mult(g, k)}
    elif cmd == "classes":
        argv = ["words", *base, "--k", _spec(k),
                "--aperiodic-classes", str(sink)]
        check = {"kind": "count", "field": "aperiodic_classes",
                 "expect": _mult(g, k)}
    elif cmd == "ia":
        argv = ["words", *base, "--k", _spec(k), "--ia", str(sink)]
        check = {"kind": "count", "field": "words",
                 "expect": oracles.ia_word_count(g.vertices, g.edges,
                                                 k, sink)}
    elif cmd == "reciprocity":
        argv = ["reciprocity", *base, "--q", str(extra)]
        check = {"kind": "reciprocity",
                 "expect": oracles.reciprocity_pairs(shape, n, extra)}
    elif cmd == "orientations":
        argv = ["orientations", *base, "--sink", str(sink)]
        check = {"kind": "orientations",
                 "expect": list(oracles.orientation_counts(shape, n))}
    elif cmd == "verify":
        argv = ["verify", *base, "--max-ht", str(extra)]
        check = {"kind": "verify",
                 "expect": oracles.weight_vector_count(n, extra)}
    elif cmd == "hilbert":
        q, max_ht = extra
        argv = ["hilbert", *base, "--q", str(q), "--max-ht", str(max_ht)]
        dims = oracles.tensor_dimensions(g.vertices, g.edges, q, max_ht)
        check = {"kind": "hilbert", "vertices": list(g.vertices),
                 "expect": sorted([list(m), d] for m, d in dims.items())}
    elif cmd == "lcs":
        argv = ["lcs-ranks", *base, "--max-k", str(extra)]
        ranks = oracles.lucas_ranks(n, g.complement_edges(), extra)
        check = {"kind": "lcs",
                 "expect": [[str(nk), mk] for nk, mk in ranks]}
    else:
        raise ValueError(f"unknown slot command {cmd!r}")
    return argv, check


def check(request: dict, returncode: int, stdout: str) -> str | None:
    """None when the answer is right, else a one-line reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    spec = request["check"]
    kind, expect = spec["kind"], spec["expect"]
    if kind == "verify":
        found = re.search(r"(\d+) weight vectors", stdout)
        if not found:
            return "no weight-vector count in output"
        got = int(found.group(1))
        return None if got == expect else f"{got} weight vectors != {expect}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "unparsable output"
    try:
        if kind == "mult":
            got = out["multiplicity"]
        elif kind == "basis":
            v = out["verify"]
            got = [v["multiplicity"], v["lyndon_count"], v["rank"],
                   len(out["basis"]), v["ok"]]
            expect = [expect] * 4 + [True]
        elif kind == "count":
            got = len(out[spec["field"]])
        elif kind == "reciprocity":
            got = [out["compatible_pairs"], Fraction(out["signed_chromatic"]),
                   out["ok"]]
            expect = [expect, expect, True]
        elif kind == "orientations":
            got = [out["count"], out["unique_sink"]["count"]]
        elif kind == "hilbert":
            got = sorted([[e["k"].get(str(v), 0) for v in spec["vertices"]],
                          e["dim"]] for e in out["entries"])
        elif kind == "lcs":
            got = [[e["N"], e["M"]] for e in out["ranks"]]
        else:
            return f"unknown check kind {kind!r}"
    except (KeyError, TypeError, ValueError) as exc:
        return f"unexpected output shape: {exc!r}"
    return None if got == expect else f"answer {got!r} != expected {expect!r}"
