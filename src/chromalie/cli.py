"""Command-line front end: graph ingestion, dispatch, and the cross-check
verifier.  `main` is the library entry, `run` the process entry.  Exit codes:
0 ok, 1 verification failure, 2 usage error, 3 precondition error or out of
memory, 141 (128 + SIGPIPE) on a closed stdout."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Iterable

# Each command imports the layer modules it calls, so that a request loads
# (and, without cached bytecode, compiles) only what it runs.
from .graphs import MAX_HEIGHT, Graph, GraphError, WeightVector, \
    complement, graph_from_json, is_connected_sub, is_triangle_free, \
    weight_box

# lcs-ranks on C5, C10, P10 and K10 at this --max-k takes 0.5-1.1 s CPU
# (Python 3.11.7, 2-vCPU VM).  K10's N_k has k + 1 digits, so the cap also
# stays below Python's default 4,300-digit limit on printing an int.
MAX_K = 4000
# A value at q of a polynomial of degree h has about h times the digits of q;
# this bound on digits(q) * h keeps every printed value under that limit.
MAX_VALUE_DIGITS = 4000
MAX_VERTICES = 10
MAX_RECIPROCITY_WORK = 10 ** 7  # q * 3^n subset-convolution steps
CLOSED_PIPE = 141  # the exit status of a process that SIGPIPE ended
SCHEMA = "1"
# The verify checks in run order: --skip-<flag> -> name in failure records.
VERIFY_CHECKS = {"chromatic": "chromatic-oracle", "mult": "mult-three-routes",
                 "bond": "bond-lattice-identity", "brecursion": "b-recursion",
                 "tensor": "tensor-dimension", "reciprocity": "reciprocity",
                 "lucas": "lucas-ranks"}


Output = tuple[int, dict, Iterable[str]]  # status, --json payload, text lines


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
        with open(path, encoding="utf-8") as fh:
            return graph_from_json(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read graph file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise GraphError(f"graph file is not UTF-8 text: {exc}") from None


def check_limits(args, g: Graph, k: WeightVector | None) -> None:
    """Refuse a request past one of the fixed bounds before any work."""
    n = len(g.vertices)
    if n > MAX_VERTICES:
        raise GraphError(
            f"graph has {n} vertices; enumerative commands are "
            f"limited to {MAX_VERTICES} (search space grows exponentially)")
    if k is not None and k.height > MAX_HEIGHT:
        raise GraphError(
            f"weight height {k.height} exceeds limit {MAX_HEIGHT}; roughly "
            f"{k.height}! = huge enumeration states")
    max_ht = getattr(args, "max_ht", 0)
    if max_ht > MAX_HEIGHT:
        raise GraphError(f"height bound {max_ht} exceeds {MAX_HEIGHT}")
    if getattr(args, "max_k", 0) > MAX_K:
        raise GraphError(f"max_k {args.max_k} exceeds the limit {MAX_K}")
    if args.command == "reciprocity" and \
            (work := args.q * 3 ** n) > MAX_RECIPROCITY_WORK:
        raise GraphError(f"reciprocity work q*3^n = {work} (n = "
                         f"{n}) exceeds {MAX_RECIPROCITY_WORK}")
    q, height = (args.eval, k.height) if args.command == "chromatic" \
        else (getattr(args, "q", None), max_ht)
    if q is not None and (digits := len(str(abs(q)))) * height > \
            MAX_VALUE_DIGITS:
        raise GraphError(
            f"q has {digits} digits at height {height}: digits x height = "
            f"{digits * height} exceeds {MAX_VALUE_DIGITS}, which keeps "
            f"values under Python's 4300-digit limit on printing an int")


def _emit(args, payload: dict, text_lines: Iterable[str]) -> None:
    """Print a command's Output once.  A listing is one lazy iterator that the
    payload and the lines share, so only the mode that runs reads it: --json
    makes it a list inside one object, text prints it line by line."""
    if args.json:
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True,
                         default=list))
    else:
        for line in text_lines:
            print(line)


def cmd_chromatic(args, g: Graph, k: WeightVector | None) -> Output:
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
             + " ".join(map(str, poly.coeffs))]
    if args.eval is not None:
        value = poly.eval(args.eval)
        payload["eval"] = {"q": args.eval, "value": str(value)}
        lines.append(f"value at q={args.eval}: {value}")
    return 0, payload, lines


def cmd_mult(args, g: Graph, k: WeightVector | None) -> Output:
    from . import multiplicity
    if args.sink is not None and args.method != "orientations":
        raise UsageError("--sink needs --method orientations")
    if k.is_zero:
        raise GraphError("zero weight vector")
    if args.method == "orientations":
        sink = args.sink if args.sink is not None else k.support[0]
        value = multiplicity.mult_via_orientations(g, k, sink)
    else:  # "bond": the expansion's q^1 terms Moebius-invert to this same sum
        value = multiplicity.root_multiplicity(g, k)
    return 0, {"multiplicity": value}, [str(value)]


def cmd_basis(args, g: Graph, k: WeightVector | None) -> Output:
    from . import lyndon
    report = lyndon.verify_basis(g, k, args.sink) if args.verify else None
    words = report.lyndon if report else lyndon.c_i_set(g, k, args.sink)
    rendered = (lyndon.render_bracket(lyndon.bracket_tree(w)) for w in words)
    if not report:
        return 0, {"basis": rendered}, rendered
    summary = f"multiplicity={report.multiplicity} " \
        f"count={report.lyndon_count} rank={report.rank} ok={report.ok}"
    return int(not report.ok), {"basis": rendered, "verify": {
        "multiplicity": report.multiplicity, "rank": report.rank,
        "lyndon_count": report.lyndon_count, "ok": report.ok}}, \
        (line for part in (rendered, [summary]) for line in part)


def cmd_words(args, g: Graph, k: WeightVector | None) -> Output:
    from . import trace
    if args.aperiodic_classes is not None and args.ia is not None:
        raise UsageError("--ia and --aperiodic-classes do not combine")
    if args.aperiodic_classes is not None:
        key = "aperiodic_classes"
        rendered = (" | ".join(" ".join(map(str, f)) for f in form)
                    for form in trace.b_set(g, k, args.aperiodic_classes))
    else:
        key = "words"
        words = trace.enumerate_weight_words(g, k) if args.ia is None \
            else trace.b_tilde(g, k, args.ia)
        rendered = (" ".join(map(str, w)) for w in words)
    return 0, {key: rendered}, rendered


def cmd_orientations(args, g: Graph, k: WeightVector | None) -> Output:
    from . import multiplicity
    count = multiplicity.acyclic_counts(g)[-1]
    payload: dict = {"count": count}
    lines = [f"acyclic orientations: {count}"]
    if args.sink is not None:
        n = multiplicity.count_unique_sink(g, args.sink)
        payload["unique_sink"] = {"sink": args.sink, "count": n}
        lines.append(f"unique sink {args.sink}: {n}")
    if args.list:
        listing = (" ".join(f"{t}>{h}" for t, h in o)
                   for o in multiplicity.enumerate_acyclic_orientations(g))
        payload["orientations"] = listing
        return 0, payload, (line for part in (lines, listing) for line in part)
    return 0, payload, lines


def cmd_hilbert(args, g: Graph, k: WeightVector | None) -> Output:
    from . import hilbert
    table = hilbert.series_table(g, args.q, args.max_ht)
    # k's keys as strings, in the order json.dumps(k, sort_keys=True) prints
    keys = [(v, str(v)) for v in sorted(g.vertices, key=str)]

    def entry(w: WeightVector) -> dict:
        counts = dict(w.counts)
        return {"k": {key: counts[v] for v, key in keys if v in counts},
                "dim": table[w]}

    def line(w: WeightVector) -> str:  # the text form of entry(w)
        counts = dict(w.counts)
        return "{" + ", ".join([f'"{key}": {counts[v]}' for v, key in keys
                                if v in counts]) + f"}} -> {table[w]}"
    weights = iter(sorted(table, key=lambda w: w.counts))
    return 0, {"q": args.q, "entries": map(entry, weights)}, map(line, weights)


def cmd_lcs_ranks(args, g: Graph, k: WeightVector | None) -> Output:
    from . import hilbert
    ranks = (hilbert.lcs_ranks_triangle_free if args.triangle_free
             else hilbert.lcs_ranks)(g, args.max_k)
    entries = [{"k": i + 1, "N": str(n), "M": m}
               for i, (n, m) in enumerate(ranks)]
    return 0, {"ranks": entries}, \
        [f"k={e['k']} N={e['N']} M={e['M']}" for e in entries]


def cmd_reciprocity(args, g: Graph, k: WeightVector | None) -> Output:
    from . import chromatic, hilbert
    pairs = hilbert.count_compatible_pairs(g, args.q)
    k = WeightVector.ones(g.vertices)
    signed = (-1) ** len(g.vertices) * chromatic.chromatic_poly(g, k).eval(-args.q)
    ok = pairs == signed
    return int(not ok), {"q": args.q, "compatible_pairs": pairs,
                         "signed_chromatic": str(signed), "ok": ok}, \
        [f"compatible pairs: {pairs}",
         f"(-1)^n * chromatic(-q): {signed}", f"agreement: {ok}"]


def cmd_verify(args, g: Graph, k: WeightVector | None) -> Output:
    from . import chromatic, hilbert, multiplicity, trace
    max_ht = args.max_ht
    if max_ht < 0:
        raise GraphError(f"height bound {max_ht} is negative")
    box = dict.fromkeys(g.vertices, max_ht)

    def chromatic_oracle(w: WeightVector):
        poly = chromatic.chromatic_poly(g, w)
        for q in range(w.height + 1):
            value = poly.eval(q)
            oracle = chromatic.coloring_count_oracle(g, w, q)
            if value != oracle:
                yield {"k": w.as_dict(), "q": q, "poly": str(value),
                       "oracle": oracle}

    @lru_cache(maxsize=None)  # per call; the walk fills w / ell before w
    def aperiodic_count(w: WeightVector, i: int) -> int:
        return len(trace.b_set(g, w, i))

    def three_routes(w: WeightVector):
        if multiplicity.real_overweight(g, w) is None and \
                is_connected_sub(g, w.support):
            reference = multiplicity.root_multiplicity(g, w)
            for i in w.support:
                via_o = multiplicity.mult_via_orientations(g, w, i)
                via_b = aperiodic_count(w, i)
                if not (reference == via_o == via_b):
                    yield {"k": w.as_dict(), "sink": i, "moebius": reference,
                           "orientations": via_o, "aperiodic_words": via_b}

    def bond_identity():  # one table for the box
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
        if g.all_imaginary and hilbert.uq_dimension(g, w, 1) != \
                hilbert.trace_dimension_oracle(g, w):
            yield {"k": w.as_dict()}

    def reciprocity():
        ones = chromatic.chromatic_poly(g, WeightVector.ones(g.vertices))
        for q in (1, 2, 3):
            if hilbert.count_compatible_pairs(g, q) != \
                    (-1) ** len(g.vertices) * ones.eval(-q):
                yield {"q": q}

    def lucas_ranks():
        if max_ht >= 1 and g.all_imaginary and \
                is_triangle_free(complement(g)) and \
                hilbert.lcs_ranks(g, max_ht) != \
                hilbert.lcs_ranks_triangle_free(g, max_ht):
            yield {}

    # Per-box rows first: bond's table is built before the walk's caches fill.
    found = {f: [] for f in VERIFY_CHECKS if not getattr(args, f"skip_{f}")}
    for flag, row in (("bond", bond_identity), ("reciprocity", reciprocity),
                      ("lucas", lucas_ranks)):
        if flag in found:
            found[flag].extend(row())
    per_weight = {"chromatic": chromatic_oracle, "mult": three_routes,
                  "brecursion": b_recursion, "tensor": tensor_dimension}
    count = 0
    weights = (w for w in weight_box(box, max_ht) if not w.is_zero)
    for count, w in enumerate(weights, 1):
        for flag, row in per_weight.items():
            if flag in found:
                found[flag].extend(row(w))
    failures = [{"check": VERIFY_CHECKS[flag], **detail}
                for flag, records in found.items() for detail in records]
    lines = [json.dumps(f, sort_keys=True) for f in failures] or [
        f"all checks passed ({count} weight vectors, height <= {max_ht})"]
    return 1 if failures else 0, {"weight_vectors": count, "max_ht": max_ht,
                                  "failures": failures,
                                  "ok": not failures}, lines


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
                   choices=["auto", "complete", "tree", "general"],
                   help="complete and tree use the closed form for a clique "
                        "or tree support; auto detects nothing and, like "
                        "general, runs the ordered-partition DP")
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
    try:
        try:
            args = build_parser().parse_args(argv)
            g = load_graph(args.graph)
            k = parse_weight_spec(args.k, g) if "k" in args else None
            check_limits(args, g, k)
            status, payload, lines = args.func(args, g, k)
            _emit(args, payload, lines)
            return status
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except GraphError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except MemoryError:
            print("error: out of memory (request too large)", file=sys.stderr)
            return 3
        finally:
            sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone
        return CLOSED_PIPE


def run() -> None:
    """`python -m chromalie.cli` and the `chromalie` script: main, then
    os._exit, skipping the interpreter's teardown and atexit handlers (there
    are none).  --help, usage errors and uncaught exceptions exit normally."""
    status = main()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
