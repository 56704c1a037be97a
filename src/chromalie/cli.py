"""Command-line front end: graph ingestion, dispatch, and the cross-check
verifier.  Exit codes: 0 ok, 1 verification failure, 2 usage error, 3
precondition error."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

# Each command imports the layer modules it calls, so that a request loads
# (and, without cached bytecode, compiles) only what it runs.
from .graphs import Graph, GraphError, WeightVector, complement, \
    graph_from_json, is_connected_sub, is_triangle_free, weight_box

MAX_HEIGHT = 12
MAX_VERTICES = 10
MAX_RECIPROCITY_WORK = 10 ** 7  # q * 3^n subset-convolution steps
SCHEMA = "1"


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


def cmd_chromatic(args) -> int:
    from . import chromatic
    g = load_graph(args.graph)
    k = parse_weight_spec(args.k, g)
    check_limits(g, k)
    form = args.closed_form
    if form == "auto":
        form = "general"
    if form == "complete":
        n = len(k.support)
        if len(g.induced(k.support).edges) != n * (n - 1) // 2:
            raise GraphError("support subgraph is not a clique")
        poly = chromatic.chromatic_complete([k.get(v) for v in k.support])
    elif form == "tree":
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


def cmd_mult(args) -> int:
    from . import multiplicity
    g = load_graph(args.graph)
    k = parse_weight_spec(args.k, g)
    check_limits(g, k)
    if k.is_zero:
        raise GraphError("zero weight vector")
    if args.method == "orientations":
        sink = args.sink if args.sink is not None else k.support[0]
        value = multiplicity.mult_via_orientations(g, k, sink)
    elif args.method == "bond":
        value = multiplicity.moebius_invert(k.gcd(), lambda ell: abs(
            multiplicity.chromatic_via_bond_lattice(
                g, k.divide(ell)).linear_coefficient))
    else:
        value = multiplicity.root_multiplicity(g, k)
    _emit(args, {"multiplicity": value}, [str(value)])
    return 0


def cmd_basis(args) -> int:
    from . import lyndon
    g = load_graph(args.graph)
    k = parse_weight_spec(args.k, g)
    check_limits(g, k)
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


def cmd_words(args) -> int:
    from . import trace
    g = load_graph(args.graph)
    k = parse_weight_spec(args.k, g)
    check_limits(g, k)
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


def cmd_orientations(args) -> int:
    from . import multiplicity
    g = load_graph(args.graph)
    check_limits(g, None)
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


def cmd_hilbert(args) -> int:
    from . import hilbert
    g = load_graph(args.graph)
    check_limits(g, None)
    if args.max_ht > MAX_HEIGHT:
        raise GraphError(f"height bound {args.max_ht} exceeds {MAX_HEIGHT}")
    table = hilbert.series_table(g, args.q, args.max_ht)
    # Built lazily, so that only the output that is printed gets built.
    entries = ({"k": {str(v): c for v, c in k.counts}, "dim": table[k]}
               for k in sorted(table, key=lambda k: k.counts))
    if args.json:
        _emit(args, {"q": args.q, "entries": list(entries)}, ())
    else:
        _emit(args, {}, (f"{json.dumps(e['k'], sort_keys=True)} -> {e['dim']}"
                         for e in entries))
    return 0


def cmd_lcs_ranks(args) -> int:
    from . import hilbert
    g = load_graph(args.graph)
    check_limits(g, None)
    if args.triangle_free:
        ranks = hilbert.lcs_ranks_triangle_free(g, args.max_k)
    else:
        ranks = hilbert.lcs_ranks(g, args.max_k)
    entries = [{"k": i + 1, "N": _frac(n), "M": m}
               for i, (n, m) in enumerate(ranks)]
    _emit(args, {"ranks": entries},
          [f"k={e['k']} N={e['N']} M={e['M']}" for e in entries])
    return 0


def cmd_reciprocity(args) -> int:
    from . import chromatic, hilbert
    g = load_graph(args.graph)
    check_limits(g, None)
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


def _verify_failure(name: str, detail: dict) -> dict:
    return {"check": name, **detail}


def cmd_verify(args) -> int:
    from . import chromatic, hilbert, multiplicity, trace
    g = load_graph(args.graph)
    check_limits(g, None)
    max_ht = args.max_ht
    if max_ht < 0:
        raise GraphError(f"height bound {max_ht} is negative")
    if max_ht > MAX_HEIGHT:
        raise GraphError(f"height bound {max_ht} exceeds {MAX_HEIGHT}")
    failures: list[dict] = []
    weights = [k for k in weight_box(dict.fromkeys(g.vertices, max_ht), max_ht)
               if not k.is_zero]

    if not args.skip_chromatic:
        for k in weights:
            poly = chromatic.chromatic_poly(g, k)
            for q in range(k.height + 1):
                if poly.eval(q) != chromatic.coloring_count_oracle(g, k, q):
                    failures.append(_verify_failure("chromatic-oracle", {
                        "k": k.as_dict(), "q": q,
                        "poly": str(poly.eval(q)),
                        "oracle": chromatic.coloring_count_oracle(g, k, q)}))

    def mult_ok(k: WeightVector) -> bool:
        return all(g.kind(v) != "re" or k.get(v) <= 1 for v in k.support)

    if not args.skip_mult:
        for k in weights:
            if not mult_ok(k) or not is_connected_sub(g, k.support):
                continue
            reference = multiplicity.root_multiplicity(g, k)
            for i in k.support:
                via_o = multiplicity.mult_via_orientations(g, k, i)
                via_b = len(trace.b_set(g, k, i))
                if not (reference == via_o == via_b):
                    failures.append(_verify_failure("mult-three-routes", {
                        "k": k.as_dict(), "sink": i,
                        "moebius": reference, "orientations": via_o,
                        "aperiodic_words": via_b}))

    if not args.skip_bond:
        for k in weights:
            if not mult_ok(k):
                continue
            if multiplicity.chromatic_via_bond_lattice(g, k) != \
                    chromatic.chromatic_poly(g, k):
                failures.append(_verify_failure("bond-lattice-identity",
                                                {"k": k.as_dict()}))

    if not args.skip_brecursion:
        for k in weights:
            for i in k.support:
                lhs = len(trace.b_tilde(g, k, i))
                rhs = sum((k.get(i) // ell) *
                          len(trace.b_set(g, k.divide(ell), i))
                          for ell in multiplicity.tuple_divisors(k))
                if lhs != rhs:
                    failures.append(_verify_failure("b-recursion", {
                        "k": k.as_dict(), "sink": i,
                        "b_tilde": lhs, "recursion": rhs}))

    if g.all_imaginary and not args.skip_tensor:
        for k in weights:
            if hilbert.uq_dimension(g, k, 1) != \
                    hilbert.trace_dimension_oracle(g, k):
                failures.append(_verify_failure("tensor-dimension",
                                                {"k": k.as_dict()}))

    if not args.skip_reciprocity:
        for q in (1, 2, 3):
            k = WeightVector.ones(g.vertices)
            signed = (-1) ** len(g.vertices) * \
                chromatic.chromatic_poly(g, k).eval(-q)
            if hilbert.count_compatible_pairs(g, q) != signed:
                failures.append(_verify_failure("reciprocity", {"q": q}))

    if g.all_imaginary and not args.skip_lucas and \
            is_triangle_free(complement(g)):
        if hilbert.lcs_ranks(g, max_ht) != \
                hilbert.lcs_ranks_triangle_free(g, max_ht):
            failures.append(_verify_failure("lucas-ranks", {}))

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
                   choices=["moebius", "bond", "orientations"])
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
    for flag in ("chromatic", "mult", "bond", "brecursion", "tensor",
                 "reciprocity", "lucas"):
        p.add_argument(f"--skip-{flag}", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
