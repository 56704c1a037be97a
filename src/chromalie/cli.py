"""Command-line front end: graph ingestion, dispatch, and the cross-check
verifier.  Exit codes: 0 ok, 1 verification failure, 2 usage error, 3
precondition error."""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Iterable

# Each command imports the layer modules it calls, so that a request loads
# (and, without cached bytecode, compiles) only what it runs.
from .graphs import Graph, GraphError, WeightVector, complement, \
    graph_from_json, is_connected_sub, is_triangle_free, weight_box

MAX_HEIGHT = 12
MAX_VERTICES = 10
MAX_RECIPROCITY_WORK = 10 ** 7  # q * 3^n subset-convolution steps
SCHEMA = "1"
# The verify checks in run order: --skip-<flag> -> name in failure records.
VERIFY_CHECKS = {"chromatic": "chromatic-oracle", "mult": "mult-three-routes",
                 "bond": "bond-lattice-identity", "brecursion": "b-recursion",
                 "tensor": "tensor-dimension", "reciprocity": "reciprocity",
                 "lucas": "lucas-ranks"}


class UsageError(Exception):
    pass


def parse_weight_spec(spec: str, g: Graph) -> WeightVector:
    """Parse "v:count,v:count,..." against the graph's declared vertices."""
    counts: dict[int, int] = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            v_str, c_str = chunk.split(":")
            v, c = int(v_str), int(c_str)
        except ValueError:
            raise UsageError(f"malformed weight entry {chunk!r}") from None
        if not g.has_vertex(v):
            raise UsageError(f"weight references undeclared vertex {v}")
        if c < 0:
            raise UsageError(f"negative count for vertex {v}")
        counts[v] = counts.get(v, 0) + c
    return WeightVector.of(counts)


def load_graph(path: str) -> Graph:
    try:
        with open(path) as fh:
            return graph_from_json(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read graph file: {exc}") from None


def check_limits(g: Graph, k: WeightVector | None) -> None:
    if len(g.vertices) > MAX_VERTICES:
        raise GraphError(
            f"graph has {len(g.vertices)} vertices; enumerative commands are "
            f"limited to {MAX_VERTICES} (search space grows exponentially)")
    if k is not None and k.height > MAX_HEIGHT:
        raise GraphError(
            f"weight height {k.height} exceeds limit {MAX_HEIGHT}; roughly "
            f"{k.height}! = huge enumeration states")


def _emit(args, payload: dict, text_lines: Iterable[str]) -> None:
    if args.json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _frac(x) -> str:
    """A Fraction as "n/d", or "n" when it is whole."""
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
        else str(x.numerator)


def cmd_chromatic(args, g: Graph, k: WeightVector | None) -> int:
    from . import chromatic
    if args.closed_form == "complete":
        n = len(k.support)
        if len(g.induced(k.support).edges) != n * (n - 1) // 2:
            raise GraphError("support subgraph is not a clique")
        poly = chromatic.chromatic_complete([k.get(v) for v in k.support])
    elif args.closed_form == "tree":
        poly = chromatic.chromatic_tree(g, k)
    else:
        poly = chromatic.chromatic_poly(g, k)
    payload: dict = {"polynomial": poly.to_json_list()}
    lines = ["coefficients (constant first): "
             + " ".join(_frac(c) for c in poly.coeffs)]
    if args.eval is not None:
        value = poly.eval(args.eval)
        payload["eval"] = {"q": args.eval, "value": _frac(value)}
        lines.append(f"value at q={args.eval}: {_frac(value)}")
    _emit(args, payload, lines)
    return 0


def cmd_mult(args, g: Graph, k: WeightVector | None) -> int:
    from . import multiplicity
    if k.is_zero:
        raise GraphError("zero weight vector")
    if args.method == "orientations":
        sink = args.sink if args.sink is not None else k.support[0]
        value = multiplicity.mult_via_orientations(g, k, sink)
    else:  # "bond": the expansion's q^1 terms Moebius-invert to this same sum
        value = multiplicity.root_multiplicity(g, k)
    _emit(args, {"multiplicity": value}, [str(value)])
    return 0


def cmd_basis(args, g: Graph, k: WeightVector | None) -> int:
    from . import lyndon
    report = lyndon.verify_basis(g, k, args.sink) if args.verify else None
    words = report.lyndon if report else lyndon.c_i_set(g, k, args.sink)
    rendered = [lyndon.render_bracket(lyndon.bracket_tree(w)) for w in words]
    payload: dict = {"basis": rendered}
    lines = list(rendered)
    status = 0
    if report:
        ok = report.counts_match and report.rank_matches and \
            report.right_normed_consistent
        payload["verify"] = {
            "multiplicity": report.multiplicity,
            "lyndon_count": report.lyndon_count,
            "rank": report.rank,
            "ok": ok,
        }
        lines.append(f"multiplicity={report.multiplicity} "
                     f"count={report.lyndon_count} rank={report.rank} "
                     f"ok={ok}")
        status = 0 if ok else 1
    _emit(args, payload, lines)
    return status


def cmd_words(args, g: Graph, k: WeightVector | None) -> int:
    from . import trace
    if args.aperiodic_classes is not None:
        forms = trace.b_set(g, k, args.aperiodic_classes)
        rendered = [" | ".join(" ".join(map(str, f)) for f in form)
                    for form in forms]
        _emit(args, {"aperiodic_classes": rendered}, rendered)
        return 0
    if args.ia is not None:
        words = trace.b_tilde(g, k, args.ia)
    else:
        words = list(trace.enumerate_weight_words(g, k))
    rendered = [" ".join(map(str, w)) for w in words]
    _emit(args, {"words": rendered}, rendered)
    return 0


def cmd_orientations(args, g: Graph, k: WeightVector | None) -> int:
    from . import multiplicity
    count = multiplicity.acyclic_counts(g)[-1]
    payload: dict = {"count": count}
    lines = [f"acyclic orientations: {count}"]
    if args.sink is not None:
        n = multiplicity.count_unique_sink(g, args.sink)
        payload["unique_sink"] = {"sink": args.sink, "count": n}
        lines.append(f"unique sink {args.sink}: {n}")
    if args.list:
        listing = [" ".join(f"{t}>{h}" for t, h in o.directions)
                   for o in multiplicity.enumerate_acyclic_orientations(g)]
        payload["orientations"] = listing
        lines.extend(listing)
    _emit(args, payload, lines)
    return 0


def cmd_hilbert(args, g: Graph, k: WeightVector | None) -> int:
    from . import hilbert
    table = hilbert.series_table(g, args.q, args.max_ht)
    # Built lazily, so that only the output that is printed gets built.
    entries = ({"k": {str(v): c for v, c in w.counts}, "dim": table[w]}
               for w in sorted(table, key=lambda w: w.counts))
    if args.json:
        _emit(args, {"q": args.q, "entries": list(entries)}, ())
    else:
        _emit(args, {}, (f"{json.dumps(e['k'], sort_keys=True)} -> {e['dim']}"
                         for e in entries))
    return 0


def cmd_lcs_ranks(args, g: Graph, k: WeightVector | None) -> int:
    from . import hilbert
    if args.triangle_free:
        ranks = hilbert.lcs_ranks_triangle_free(g, args.max_k)
    else:
        ranks = hilbert.lcs_ranks(g, args.max_k)
    entries = [{"k": i + 1, "N": _frac(n), "M": m}
               for i, (n, m) in enumerate(ranks)]
    _emit(args, {"ranks": entries},
          [f"k={e['k']} N={e['N']} M={e['M']}" for e in entries])
    return 0


def cmd_reciprocity(args, g: Graph, k: WeightVector | None) -> int:
    from . import chromatic, hilbert
    work = args.q * 3 ** len(g.vertices)
    if work > MAX_RECIPROCITY_WORK:
        raise GraphError(f"reciprocity work q*3^n = {work} (n = "
                         f"{len(g.vertices)}) exceeds {MAX_RECIPROCITY_WORK}")
    pairs = hilbert.count_compatible_pairs(g, args.q)
    k = WeightVector.ones(g.vertices)
    signed = (-1) ** len(g.vertices) * chromatic.chromatic_poly(g, k).eval(-args.q)
    ok = pairs == signed
    _emit(args, {"q": args.q, "compatible_pairs": pairs,
                 "signed_chromatic": _frac(signed), "ok": ok},
          [f"compatible pairs: {pairs}",
           f"(-1)^n * chromatic(-q): {_frac(signed)}",
           f"agreement: {ok}"])
    return 0 if ok else 1


def cmd_verify(args, g: Graph, k: WeightVector | None) -> int:
    from . import chromatic, hilbert, multiplicity, trace
    max_ht = args.max_ht
    if max_ht < 0:
        raise GraphError(f"height bound {max_ht} is negative")
    weights = [w for w in weight_box(dict.fromkeys(g.vertices, max_ht), max_ht)
               if not w.is_zero]

    def chromatic_oracle(w: WeightVector):
        poly = chromatic.chromatic_poly(g, w)
        for q in range(w.height + 1):
            value = poly.eval(q)
            oracle = chromatic.coloring_count_oracle(g, w, q)
            if value != oracle:
                yield {"k": w.as_dict(), "q": q, "poly": str(value),
                       "oracle": oracle}

    @lru_cache(maxsize=None)  # this call's mult and b-recursion rows
    def aperiodic_count(w: WeightVector, i: int) -> int:
        return len(trace.b_set(g, w, i))

    def three_routes(w: WeightVector):
        reference = multiplicity.root_multiplicity(g, w)
        for i in w.support:
            via_o = multiplicity.mult_via_orientations(g, w, i)
            via_b = aperiodic_count(w, i)
            if not (reference == via_o == via_b):
                yield {"k": w.as_dict(), "sink": i, "moebius": reference,
                       "orientations": via_o, "aperiodic_words": via_b}

    def bond_identity(max_ht: int):  # one table for the box
        box = dict.fromkeys(g.vertices, max_ht)
        for w, poly in multiplicity.bond_table(g, box, max_ht).items():
            if w.counts and poly != chromatic.chromatic_poly(g, w):
                yield {"k": w.as_dict()}

    def b_recursion(w: WeightVector):
        for i in w.support:
            lhs = len(trace.b_tilde(g, w, i))
            rhs = sum((w.get(i) // ell) * aperiodic_count(w.divide(ell), i)
                      for ell in multiplicity.tuple_divisors(w))
            if lhs != rhs:
                yield {"k": w.as_dict(), "sink": i, "b_tilde": lhs,
                       "recursion": rhs}

    def tensor_dimension(w: WeightVector):
        if hilbert.uq_dimension(g, w, 1) != \
                hilbert.trace_dimension_oracle(g, w):
            yield {"k": w.as_dict()}

    def reciprocity(q: int):
        signed = (-1) ** len(g.vertices) * chromatic.chromatic_poly(
            g, WeightVector.ones(g.vertices)).eval(-q)
        if hilbert.count_compatible_pairs(g, q) != signed:
            yield {"q": q}

    def lucas_ranks(max_k: int):
        if hilbert.lcs_ranks(g, max_k) != \
                hilbert.lcs_ranks_triangle_free(g, max_k):
            yield {}

    imaginary = g.all_imaginary
    # Rows by skip flag: inputs, failure details for one input.
    rows = {
        "chromatic": (weights, chromatic_oracle),
        "mult": ((w for w in weights if multiplicity.real_overweight(g, w)
                  is None and is_connected_sub(g, w.support)), three_routes),
        "bond": ((max_ht,), bond_identity),
        "brecursion": (weights, b_recursion),
        "tensor": (weights if imaginary else (), tensor_dimension),
        "reciprocity": ((1, 2, 3), reciprocity),
        "lucas": ((max_ht,) if max_ht >= 1 and imaginary
                  and is_triangle_free(complement(g)) else (), lucas_ranks),
    }
    failures = [{"check": name, **detail}
                for flag, name in VERIFY_CHECKS.items()
                if not getattr(args, f"skip_{flag}")
                for x in rows[flag][0] for detail in rows[flag][1](x)]
    lines = [json.dumps(f, sort_keys=True) for f in failures] or [
        f"all checks passed ({len(weights)} weight vectors, height <= {max_ht})"]
    _emit(args, {"weight_vectors": len(weights), "max_ht": max_ht,
                 "failures": failures, "ok": not failures}, lines)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromalie",
        description="Chromatic polynomials, root multiplicities, trace-word "
                    "bases and Hilbert-series data for graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_k=True):
        p.add_argument("--graph", required=True, help="graph JSON file")
        if need_k:
            p.add_argument("--k", required=True,
                           help='weight spec "v:count,v:count,..."')
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("chromatic", help="generalized chromatic polynomial")
    common(p)
    p.add_argument("--eval", type=int, default=None, metavar="Q")
    p.add_argument("--closed-form", default="auto",
                   choices=["auto", "complete", "tree", "general"])
    p.set_defaults(func=cmd_chromatic)

    p = sub.add_parser("mult", help="root multiplicity")
    common(p)
    p.add_argument("--method", default="moebius",
                   choices=["moebius", "bond", "orientations"],
                   help="bond returns the moebius sum, to which the "
                        "bond-lattice expansion's linear term inverts")
    p.add_argument("--sink", type=int, default=None)
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("basis", help="Lyndon-word basis of a root space")
    common(p)
    p.add_argument("--sink", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("words", help="trace words of a given weight")
    common(p)
    p.add_argument("--ia", type=int, default=None,
                   help="restrict to initial alphabet {i}")
    p.add_argument("--aperiodic-classes", type=int, default=None,
                   help="aperiodic cyclic classes for sink i")
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("orientations", help="acyclic orientations")
    common(p, need_k=False)
    p.add_argument("--sink", type=int, default=None)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_orientations)

    p = sub.add_parser("hilbert", help="graded tensor-power dimensions")
    common(p, need_k=False)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-ht", type=int, required=True)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("lcs-ranks", help="lower-central-series ranks")
    common(p, need_k=False)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--triangle-free", action="store_true",
                   help="use the Lucas closed form (complement must be "
                        "triangle free)")
    p.set_defaults(func=cmd_lcs_ranks)

    p = sub.add_parser("reciprocity", help="compatible-pair reciprocity check")
    common(p, need_k=False)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_reciprocity)

    p = sub.add_parser("verify", help="run the identity cross-check suite")
    common(p, need_k=False)
    p.add_argument("--max-ht", type=int, default=5)
    for flag in VERIFY_CHECKS:
        p.add_argument(f"--skip-{flag}", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        g = load_graph(args.graph)
        k = parse_weight_spec(args.k, g) if "k" in args else None
        check_limits(g, k)
        if getattr(args, "max_ht", 0) > MAX_HEIGHT:
            raise GraphError(
                f"height bound {args.max_ht} exceeds {MAX_HEIGHT}")
        return args.func(args, g, k)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
