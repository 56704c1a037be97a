"""Per-layer tracing of one chromalie CLI request, from outside the package.

Run as a child process in place of ``python -m chromalie.cli``::

    python3 perfbench/tracing.py SPANS.json REQUEST_ID <chromalie arguments>

It wraps the public functions listed in LAYERS (in every chromalie module
that holds a reference to them), calls ``chromalie.cli.main`` and, when the
request ends, writes the spans it kept in memory to SPANS.json.  A span is
``[name, start, end, parent index, value]``; value is what ``size`` measured
on the call's arguments and result.  A call into a function whose span is
already the innermost open one (recursion) folds into that span.

``aggregate`` turns the span files of a pass into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


def _len(args, out):
    return len(out)


def _orientation_tests(args, out):
    g, q = args[0], args[1]
    return [q ** len(g.vertices), out]


def _rank_shape(args, out):
    rows = args[0]
    return [len(rows), len(rows[0]) if rows else 0, out]


# (span name, module, attribute, size function).  Several attributes may
# share a span name; the metric names in METRICS are built from these.  Spans
# that feed no metric still keep their work out of their callers' self time.
LAYERS = [
    ("graphs.graph_from_json", "graphs", "graph_from_json", None),
    ("graphs.join_graph", "graphs", "join_graph",
     lambda args, out: len(out[0].vertices)),
    ("graphs.is_connected_sub", "graphs", "is_connected_sub", None),
    ("graphs.independent_sets", "graphs", "enumerate_independent_sets", _len),
    ("polynomials.mul", "polynomials", "QPolynomial.__mul__", None),
    ("polynomials.add", "polynomials", "QPolynomial.__add__", None),
    ("polynomials.eval", "polynomials", "QPolynomial.eval", None),
    ("polynomials.binomial", "polynomials", "falling_binomial", None),
    ("polynomials.binomial", "polynomials", "scaled_binomial", None),
    ("chromatic.chromatic_poly", "chromatic", "chromatic_poly", None),
    ("chromatic.partition_dp", "chromatic", "ordered_partition_counts", None),
    ("chromatic.oracle", "chromatic", "coloring_count_oracle", None),
    ("multiplicity.root_multiplicity", "multiplicity", "root_multiplicity",
     None),
    ("multiplicity.mult_via_orientations", "multiplicity",
     "mult_via_orientations", None),
    ("multiplicity.unique_sink", "multiplicity", "count_unique_sink",
     lambda args, out: out),
    ("multiplicity.orientations", "multiplicity",
     "enumerate_acyclic_orientations", _len),
    ("multiplicity.bond_lattice", "multiplicity", "bond_lattice", _len),
    ("multiplicity.bond_expansion", "multiplicity",
     "chromatic_via_bond_lattice", None),
    ("trace.canonicalize", "trace", "canonicalize", None),
    ("trace.initial_alphabet", "trace", "initial_alphabet", None),
    ("trace.i_form", "trace", "i_form", None),
    ("trace.words", "trace", "enumerate_weight_words", _len),
    ("trace.b_tilde", "trace", "b_tilde", _len),
    ("trace.b_set", "trace", "b_set", _len),
    ("lyndon.c_i_set", "lyndon", "c_i_set", _len),
    ("lyndon.expand", "lyndon", "expand_bracket", _len),
    ("lyndon.expand", "lyndon", "expand_right_normed", _len),
    ("lyndon.exact_rank", "lyndon", "exact_rank", _rank_shape),
    ("lyndon.verify_basis", "lyndon", "verify_basis", None),
    ("hilbert.compatible_pairs", "hilbert", "count_compatible_pairs",
     _orientation_tests),
    ("hilbert.series_table", "hilbert", "series_table", _len),
    ("hilbert.lcs_ranks", "hilbert", "lcs_ranks", None),
    ("hilbert.lcs_ranks", "hilbert", "lcs_ranks_triangle_free", None),
]

# lru_cache'd functions whose hit ratios are reported.
CACHES = {
    "chromatic.chromatic_poly": ("chromatic", "chromatic_poly"),
    "multiplicity.root_multiplicity": ("multiplicity", "root_multiplicity"),
    "trace.words": ("trace", "enumerate_weight_words"),
}

# Per-layer metrics, in report order, with their units.  cli.startup_s and
# bench.trace_overhead_ratio are measured by the benchmark, not from spans.
METRICS = {
    "cli.startup_s": "s", "cli.self_s": "s",
    "graphs.join_graph.calls": "count",
    "graphs.join_graph.max_vertices": "count", "graphs.self_s": "s",
    "polynomials.mul.calls": "count", "polynomials.self_s": "s",
    "chromatic.partition_dp.self_s": "s",
    "chromatic.partition_dp.calls": "count",
    "chromatic.oracle.self_s": "s",
    "chromatic.chromatic_poly.hit_ratio": "ratio",
    "multiplicity.orientations.self_s": "s",
    "multiplicity.orientations.count": "count",
    "multiplicity.unique_sink.useful_ratio": "ratio",
    "multiplicity.bond_lattice.self_s": "s",
    "multiplicity.bond_lattice.partitions": "count",
    "multiplicity.bond_expansion.self_s": "s",
    "multiplicity.root_multiplicity.hit_ratio": "ratio",
    "trace.canonicalize.calls": "count", "trace.canonicalize.self_s": "s",
    "trace.words.count": "count", "trace.words.self_s": "s",
    "trace.words.hit_ratio": "ratio", "trace.i_form.self_s": "s",
    "trace.initial_alphabet.calls": "count",
    "trace.b_set.aperiodic_ratio": "ratio",
    "lyndon.exact_rank.self_s": "s", "lyndon.exact_rank.cells": "count",
    "lyndon.exact_rank.rank_ratio": "ratio", "lyndon.expand.self_s": "s",
    "lyndon.expand.terms": "count", "lyndon.c_i_set.self_s": "s",
    "lyndon.c_i_set.seqs": "count",
    "hilbert.compatible_pairs.self_s": "s",
    "hilbert.compatible_pairs.tests": "count",
    "hilbert.compatible_pairs.useful_ratio": "ratio",
    "hilbert.series_table.self_s": "s",
    "bench.trace_overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name, fn, size):
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            stack, spans = self.stack, self.spans
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            misses = cache_info().misses if cache_info else 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            # A cache hit enumerated nothing, so it has no size.
            if size and (cache_info is None or cache_info().misses > misses):
                span[4] = size(args, out)
            return out

        return traced


def install(tracer: Tracer) -> dict:
    """Replace every LAYERS function, wherever a chromalie module refers to
    it, by its traced wrapper; returns the CACHES functions unwrapped."""
    import chromalie.cli  # noqa: F401  (imports every layer module)
    cached = {metric: getattr(importlib.import_module(f"chromalie.{module}"),
                              attr)
              for metric, (module, attr) in CACHES.items()}
    modules = [m for name, m in sys.modules.items()
               if name == "chromalie" or name.startswith("chromalie.")]
    for name, module, attr, size in LAYERS:
        owner = importlib.import_module(f"chromalie.{module}")
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, size)
        setattr(owner, attr, traced)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
    return cached


def main(argv: list[str]) -> int:
    spans_path, request_id, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    cached = install(tracer)
    from chromalie import cli
    try:
        code = tracer.wrap("cli", cli.main, None)(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        sys.stdout.flush()
        caches = {metric: list(fn.cache_info()[:2])
                  for metric, fn in cached.items()}
        with open(spans_path, "w") as fh:
            json.dump({"request": request_id, "spans": tracer.spans,
                       "caches": caches}, fh)
    return code


def aggregate(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics (all of METRICS but the two measured outside the
    spans) summed over the span files of one pass."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    values: dict[str, list] = {}
    child_values: dict[tuple[str, str], list] = {}
    hits: dict[str, list[int]] = {metric: [0, 0] for metric in CACHES}
    for doc in docs:
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, value) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[i]
            calls[name] = calls.get(name, 0) + 1
            if value is not None:
                values.setdefault(name, []).append(value)
                if parent >= 0:
                    child_values.setdefault(
                        (spans[parent][0], name), []).append(
                            (spans[parent][4], value))
        for metric, (h, m) in doc["caches"].items():
            hits[metric][0] += h
            hits[metric][1] += m

    def layer_self(prefix):
        return sum(t for name, t in self_s.items()
                   if name.startswith(prefix + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    def useful(parent, child):
        """Sum of the parent's values over the sum of its child's sizes, for
        parent calls that enumerated (cache hits are left out)."""
        pairs = child_values.get((parent, child), [])
        return ratio(sum(p for p, _ in pairs), sum(c for _, c in pairs))

    ranks = values.get("lyndon.exact_rank", [])
    # Each compatible-pairs call enumerates orientations once and tests every
    # labeling against each of them.
    pair_children = child_values.get(
        ("hilbert.compatible_pairs", "multiplicity.orientations"), [])
    pairs = [(found, labelings * n)
             for (labelings, found), n in pair_children]
    tests = sum(t for _, t in pairs)
    out = {
        "cli.self_s": self_s.get("cli", 0.0),
        "graphs.join_graph.calls": calls.get("graphs.join_graph", 0),
        "graphs.join_graph.max_vertices":
            max(values.get("graphs.join_graph", [0])),
        "graphs.self_s": layer_self("graphs"),
        "polynomials.mul.calls": calls.get("polynomials.mul", 0),
        "polynomials.self_s": layer_self("polynomials"),
        "chromatic.partition_dp.calls": calls.get("chromatic.partition_dp", 0),
        "multiplicity.orientations.count":
            sum(values.get("multiplicity.orientations", [])),
        "multiplicity.unique_sink.useful_ratio": useful(
            "multiplicity.unique_sink", "multiplicity.orientations"),
        "multiplicity.bond_lattice.partitions":
            sum(values.get("multiplicity.bond_lattice", [])),
        "trace.canonicalize.calls": calls.get("trace.canonicalize", 0),
        "trace.words.count": sum(values.get("trace.words", [])),
        "trace.initial_alphabet.calls": calls.get("trace.initial_alphabet", 0),
        "trace.b_set.aperiodic_ratio": useful("trace.b_set", "trace.b_tilde"),
        "lyndon.exact_rank.cells": sum(r * c for r, c, _ in ranks),
        "lyndon.exact_rank.rank_ratio": ratio(sum(k for _, _, k in ranks),
                                              sum(r for r, _, _ in ranks)),
        "lyndon.expand.terms": sum(values.get("lyndon.expand", [])),
        "lyndon.c_i_set.seqs": sum(values.get("lyndon.c_i_set", [])),
        "hilbert.compatible_pairs.tests": tests,
        "hilbert.compatible_pairs.useful_ratio":
            ratio(sum(found for found, _ in pairs), tests),
    }
    for metric in ("chromatic.partition_dp", "chromatic.oracle",
                   "multiplicity.orientations", "multiplicity.bond_lattice",
                   "multiplicity.bond_expansion", "trace.canonicalize",
                   "trace.words", "trace.i_form", "lyndon.exact_rank",
                   "lyndon.expand", "lyndon.c_i_set",
                   "hilbert.compatible_pairs", "hilbert.series_table"):
        out[f"{metric}.self_s"] = self_s.get(metric, 0.0)
    for metric, (h, m) in hits.items():
        out[f"{metric}.hit_ratio"] = ratio(h, h + m)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
