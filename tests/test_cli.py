import hashlib
import importlib
import json
from collections import Counter
from itertools import combinations
from math import factorial

import pytest

from chromalie.cli import main, parse_weight_spec, UsageError
from chromalie import QPolynomial, new_graph, graph_to_json, weight_box, \
    is_connected_sub

SHOWCASE = new_graph([1, 2, 3, 4], edges=[(1, 2), (2, 3), (2, 4), (3, 4)])


@pytest.fixture
def showcase_file(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(graph_to_json(SHOWCASE))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_weight_spec():
    k = parse_weight_spec("1:2, 2:1", SHOWCASE)
    assert k.as_dict() == {1: 2, 2: 1}
    with pytest.raises(UsageError):
        parse_weight_spec("9:1", SHOWCASE)
    with pytest.raises(UsageError):
        parse_weight_spec("1:-1", SHOWCASE)
    with pytest.raises(UsageError):
        parse_weight_spec("nonsense", SHOWCASE)


def test_chromatic_command(capsys, showcase_file):
    code, out, _ = run(capsys, ["chromatic", "--graph", showcase_file,
                                "--k", "1:2,2:1,3:1,4:1", "--eval", "3"])
    assert code == 0
    assert "value at q=3: 6" in out


def test_chromatic_json(capsys, showcase_file):
    code, out, _ = run(capsys, ["chromatic", "--graph", showcase_file,
                                "--k", "1:1,2:1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "1"
    assert payload["polynomial"] == ["0/1", "-1/1", "1/1"]


def test_mult_methods_agree(capsys, showcase_file):
    values = []
    for extra in (["--method", "moebius"], ["--method", "bond"],
                  ["--method", "orientations", "--sink", "3"]):
        code, out, _ = run(capsys, ["mult", "--graph", showcase_file,
                                    "--k", "1:2,2:1,3:1,4:1"] + extra)
        assert code == 0
        values.append(out.strip())
    assert values == ["2", "2", "2"]


def test_basis_command(capsys, showcase_file):
    code, out, _ = run(capsys, ["basis", "--graph", showcase_file,
                                "--k", "1:2,2:1,3:1,4:1", "--sink", "2"])
    assert code == 0
    assert out.splitlines() == ["[e3,[e4,[e1,[e1,e2]]]]",
                                "[e4,[e3,[e1,[e1,e2]]]]"]
    code, out, _ = run(capsys, ["basis", "--graph", showcase_file,
                                "--k", "1:2,2:1,3:1,4:1", "--sink", "1",
                                "--verify"])
    assert code == 0
    assert "ok=True" in out


def test_words_command(capsys, showcase_file):
    code, out, _ = run(capsys, ["words", "--graph", showcase_file,
                                "--k", "1:1,2:1", "--json"])
    assert code == 0
    assert json.loads(out)["words"] == ["1 2", "2 1"]


def test_aperiodic_classes_output_pinned(capsys, tmp_path):
    # Recorded from the greedy O(L^3) canonicalizer; any change of normal
    # form or class representative that reorders the output fails here.
    p = tmp_path / "c4.json"
    p.write_text(graph_to_json(new_graph(
        [1, 2, 3, 4], edges=[(1, 2), (2, 3), (3, 4), (1, 4)])))
    code, out, _ = run(capsys, ["words", "--graph", str(p),
                                "--k", "1:2,2:3,3:3,4:2",
                                "--aperiodic-classes", "1", "--json"])
    assert code == 0
    classes = json.loads(out)["aperiodic_classes"]
    assert len(classes) == 510
    assert classes[:3] == ["1 | 2 2 2 3 3 3 4 4 1", "1 | 2 2 2 3 3 4 3 4 1",
                           "1 | 2 2 2 3 4 3 3 4 1"]
    assert classes[-3:] == ["4 3 2 1 | 4 3 2 3 2 1", "4 3 2 1 | 4 3 3 2 2 1",
                            "4 3 2 2 1 | 4 3 3 2 1"]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "2b3efe40a654399b1db701dca069ac3927926da0aa498045c0875bccb5181633"


def test_basis_verify_output_pinned(capsys, tmp_path):
    p = tmp_path / "k3.json"
    p.write_text(graph_to_json(new_graph(
        [1, 2, 3], edges=[(1, 2), (1, 3), (2, 3)])))
    code, out, _ = run(capsys, ["basis", "--graph", str(p),
                                "--k", "1:2,2:2,3:2", "--sink", "1",
                                "--verify", "--json"])
    assert code == 0
    assert out == (
        '{"basis": ["[e1,[e2,[e2,[e3,[e3,e1]]]]]", '
        '"[e1,[e2,[e3,[e2,[e3,e1]]]]]", "[e1,[e2,[e3,[e3,[e2,e1]]]]]", '
        '"[e1,[e3,[e2,[e2,[e3,e1]]]]]", "[e1,[e3,[e2,[e3,[e2,e1]]]]]", '
        '"[e1,[e3,[e3,[e2,[e2,e1]]]]]", "[[e2,e1],[e2,[e3,[e3,e1]]]]", '
        '"[[e2,e1],[e3,[e2,[e3,e1]]]]", "[[e2,e1],[e3,[e3,[e2,e1]]]]", '
        '"[[e2,[e2,e1]],[e3,[e3,e1]]]", "[[e2,[e2,[e3,e1]]],[e3,e1]]", '
        '"[[e2,[e3,e1]],[e3,[e2,e1]]]", "[[e2,[e3,[e2,e1]]],[e3,e1]]", '
        '"[[e3,e1],[e3,[e2,[e2,e1]]]]"], "schema": "1", '
        '"verify": {"lyndon_count": 14, "multiplicity": 14, "ok": true, '
        '"rank": 14}}\n')


def test_orientations_command(capsys, showcase_file):
    code, out, _ = run(capsys, ["orientations", "--graph", showcase_file,
                                "--sink", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 12
    assert payload["unique_sink"] == {"sink": 2, "count": 2}


def test_complete_graph_k10_counts(capsys, tmp_path):
    # beyond the reach of enumerating 10! orientations (times 3^10 labelings)
    p = tmp_path / "k10.json"
    p.write_text(graph_to_json(new_graph(
        range(1, 11), edges=combinations(range(1, 11), 2))))
    code, out, _ = run(capsys, ["orientations", "--graph", str(p),
                                "--sink", "4", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == factorial(10)
    assert payload["unique_sink"] == {"sink": 4, "count": factorial(9)}
    code, out, _ = run(capsys, ["reciprocity", "--graph", str(p),
                                "--q", "3", "--json"])
    assert code == 0 and json.loads(out)["ok"] is True


def test_mult_bond_prints_moebius_sum(capsys, showcase_file, monkeypatch):
    from chromalie import multiplicity

    def unused(*args):
        raise AssertionError("mult --method bond built the bond lattice")

    monkeypatch.setattr(multiplicity, "bond_lattice", unused)
    monkeypatch.setattr(multiplicity, "chromatic_via_bond_lattice", unused)
    monkeypatch.setattr(multiplicity, "bond_table", unused)
    spec = ["--graph", showcase_file, "--k", "1:2,2:2,3:2,4:2"]
    _, expected, _ = run(capsys, ["mult", *spec])
    assert run(capsys, ["mult", *spec, "--method", "bond"]) == \
        (0, expected, "")


def test_mult_bond_k4(capsys, tmp_path):
    p = tmp_path / "k4.json"
    p.write_text(graph_to_json(new_graph(
        [1, 2, 3, 4], edges=combinations([1, 2, 3, 4], 2))))
    code, out, _ = run(capsys, ["mult", "--graph", str(p), "--k",
                                "1:3,2:3,3:3,4:3", "--method", "bond"])
    assert code == 0 and out == "30798\n"  # the Moebius route's answer


def test_hilbert_command(capsys, showcase_file):
    code, out, _ = run(capsys, ["hilbert", "--graph", showcase_file,
                                "--q", "1", "--max-ht", "2", "--json"])
    assert code == 0
    entries = json.loads(out)["entries"]
    assert {"k": {}, "dim": 1} in entries


def test_hilbert_output_pinned(capsys, tmp_path):
    # Vertex ids 2 and 10 sort differently as strings, which is how the
    # weight keys of both outputs are ordered.
    p = tmp_path / "p2.json"
    p.write_text(graph_to_json(new_graph([2, 10], edges=[(2, 10)])))
    argv = ["hilbert", "--graph", str(p), "--q", "2", "--max-ht", "2"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out == ('{} -> 1\n{"2": 1} -> 2\n{"10": 1, "2": 1} -> 6\n'
                   '{"2": 2} -> 3\n{"10": 1} -> 2\n{"10": 2} -> 3\n')
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 0 and err == ""
    assert out == (
        '{"entries": [{"dim": 1, "k": {}}, {"dim": 2, "k": {"2": 1}}, '
        '{"dim": 6, "k": {"10": 1, "2": 1}}, {"dim": 3, "k": {"2": 2}}, '
        '{"dim": 2, "k": {"10": 1}}, {"dim": 3, "k": {"10": 2}}], '
        '"q": 2, "schema": "1"}\n')


def test_lcs_ranks_command(capsys, tmp_path):
    p = tmp_path / "p3.json"
    p.write_text(graph_to_json(new_graph([1, 2, 3],
                                         edges=[(1, 2), (2, 3)])))
    code, out, _ = run(capsys, ["lcs-ranks", "--graph", str(p),
                                "--max-k", "2"])
    assert code == 0
    assert out.splitlines() == ["k=1 N=3 M=3", "k=2 N=7/2 M=2"]
    for extra in ([], ["--triangle-free"]):
        code, out, err = run(capsys, ["lcs-ranks", "--graph", str(p),
                                      "--max-k", "0"] + extra)
        assert code == 3 and out == "" and "max_k must be positive" in err


def test_reciprocity_command(capsys, showcase_file):
    code, out, _ = run(capsys, ["reciprocity", "--graph", showcase_file,
                                "--q", "2"])
    assert code == 0
    assert "agreement: True" in out


def test_reciprocity_work_limit(capsys, showcase_file):
    # refused before any convolution: 4 vertices, q * 3^4 > 10^7
    code, out, err = run(capsys, ["reciprocity", "--graph", showcase_file,
                                  "--q", "123457"])
    assert code == 3 and out == ""
    assert "q*3^n = 10000017 (n = 4) exceeds 10000000" in err


def test_verify_command(capsys, showcase_file):
    code, out, _ = run(capsys, ["verify", "--graph", showcase_file,
                                "--max-ht", "2"])
    assert code == 0
    assert "all checks passed" in out


def test_exit_code_usage(capsys, showcase_file):
    code, _, err = run(capsys, ["chromatic", "--graph", showcase_file,
                                "--k", "9:1"])
    assert code == 2 and "undeclared vertex" in err


def test_exit_code_precondition(capsys, tmp_path, showcase_file):
    code, _, err = run(capsys, ["chromatic", "--graph", showcase_file,
                                "--k", "1:13"])
    assert code == 3
    big = tmp_path / "big.json"
    big.write_text(graph_to_json(new_graph(range(1, 12))))
    code, _, err = run(capsys, ["orientations", "--graph", str(big)])
    assert code == 3


def test_missing_graph_file(capsys):
    code, _, err = run(capsys, ["chromatic", "--graph", "/nonexistent.json",
                                "--k", "1:1"])
    assert code == 2


def test_boolean_vertex_ids_rejected(capsys, tmp_path):
    for doc in ({"vertices": [{"id": True}]},
                {"vertices": [{"id": 1}, {"id": 2}], "edges": [[True, 2]]}):
        p = tmp_path / "bool.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["chromatic", "--graph", str(p),
                                    "--k", "1:1"])
        assert code == 3 and "integer" in err


def test_mult_zero_weight(capsys, showcase_file):
    for method in ("moebius", "bond", "orientations"):
        code, _, err = run(capsys, ["mult", "--graph", showcase_file,
                                    "--k", "1:0", "--method", method])
        assert code == 3 and "zero weight" in err


def test_closed_form_and_q_preconditions(capsys, tmp_path, showcase_file):
    p = tmp_path / "p3.json"
    p.write_text(graph_to_json(new_graph([1, 2, 3],
                                         edges=[(1, 2), (2, 3)])))
    code, _, err = run(capsys, ["chromatic", "--graph", str(p),
                                "--k", "1:1,2:1,3:1",
                                "--closed-form", "complete"])
    assert code == 3 and "not a clique" in err
    code, out, _ = run(capsys, ["chromatic", "--graph", str(p),
                                "--k", "1:1,2:1", "--closed-form", "complete"])
    assert code == 0 and out == "coefficients (constant first): 0 -1 1\n"
    code, _, err = run(capsys, ["hilbert", "--graph", showcase_file,
                                "--q", "-2", "--max-ht", "0"])
    assert code == 3 and "q must be" in err


def test_verify_negative_height(capsys, tmp_path, showcase_file):
    p = tmp_path / "c4.json"
    p.write_text(graph_to_json(new_graph(
        [1, 2, 3, 4], kinds={1: "re"},
        edges=[(1, 2), (2, 3), (3, 4), (1, 4)])))
    for graph in (str(p), showcase_file):
        code, out, err = run(capsys, ["verify", "--graph", graph,
                                      "--max-ht", "-1"])
        assert code == 3 and out == "" and "height bound -1" in err


def test_verify_json(capsys, showcase_file):
    code, out, _ = run(capsys, ["verify", "--graph", showcase_file,
                                "--max-ht", "2", "--json"])
    assert code == 0
    assert json.loads(out) == {"schema": "1", "weight_vectors": 14,
                               "max_ht": 2, "failures": [], "ok": True}
    code, out, _ = run(capsys, ["verify", "--graph", showcase_file,
                                "--max-ht", "2"])
    assert out == "all checks passed (14 weight vectors, height <= 2)\n"


def _plus_one(f):
    return lambda *args: f(*args) + 1


# One row per verify check: its --skip flag, its name, the layer function a
# fault is put into (module, attribute, wrong version of it), and the first
# failure record that fault gives on SHOWCASE at height 2.
VERIFY_FAULTS = [
    ("chromatic", "chromatic-oracle", "chromatic", "coloring_count_oracle",
     _plus_one, {"k": {"4": 1}, "q": 0, "poly": "0", "oracle": 1}),
    ("mult", "mult-three-routes", "multiplicity", "mult_via_orientations",
     _plus_one, {"k": {"4": 1}, "sink": 4, "moebius": 1, "orientations": 2,
                 "aperiodic_words": 1}),
    ("bond", "bond-lattice-identity", "multiplicity", "bond_table",
     lambda f: lambda *args: dict.fromkeys(f(*args), QPolynomial.of([7])),
     {"k": {"4": 1}}),
    ("brecursion", "b-recursion", "multiplicity", "tuple_divisors",
     lambda f: lambda *args: [],
     {"k": {"4": 1}, "sink": 4, "b_tilde": 1, "recursion": 0}),
    ("tensor", "tensor-dimension", "hilbert", "trace_dimension_oracle",
     _plus_one, {"k": {"4": 1}}),
    ("reciprocity", "reciprocity", "hilbert", "count_compatible_pairs",
     _plus_one, {"q": 1}),
    ("lucas", "lucas-ranks", "hilbert", "lcs_ranks_triangle_free",
     lambda f: lambda *args: [], {}),
]


def _put_fault(monkeypatch, module, attr, wrong):
    owner = importlib.import_module(f"chromalie.{module}")
    monkeypatch.setattr(owner, attr, wrong(getattr(owner, attr)))


def _verify_json(capsys, graph, *flags):
    code, out, _ = run(capsys, ["verify", "--graph", graph, "--max-ht", "2",
                                "--json", *flags])
    return code, json.loads(out)["failures"]


@pytest.mark.parametrize("flag, name, module, attr, wrong, first",
                         VERIFY_FAULTS, ids=[row[1] for row in VERIFY_FAULTS])
def test_verify_failure_records(capsys, monkeypatch, showcase_file, flag,
                                name, module, attr, wrong, first):
    _put_fault(monkeypatch, module, attr, wrong)
    code, failures = _verify_json(capsys, showcase_file)
    assert code == 1 and failures
    assert failures[0] == {"check": name, **first}
    assert all(f.keys() == failures[0].keys() and f["check"] == name
               for f in failures)
    assert _verify_json(capsys, showcase_file, f"--skip-{flag}") == (0, [])


def test_verify_skip_flags_select_rows(capsys, monkeypatch, showcase_file):
    for _, _, module, attr, wrong, _ in VERIFY_FAULTS:
        _put_fault(monkeypatch, module, attr, wrong)
    names = [row[1] for row in VERIFY_FAULTS]
    code, failures = _verify_json(capsys, showcase_file)
    assert code == 1 and sorted({f["check"] for f in failures}) == \
        sorted(names)
    for flag, name, *_ in VERIFY_FAULTS:
        code, failures = _verify_json(capsys, showcase_file, f"--skip-{flag}")
        assert code == 1
        assert {f["check"] for f in failures} == set(names) - {name}, flag


def test_verify_calls_oracle_once_per_value(capsys, monkeypatch,
                                            showcase_file):
    from chromalie import chromatic
    calls = Counter()
    oracle = chromatic.coloring_count_oracle

    def wrong_oracle(g, k, q):
        calls[k, q] += 1
        return oracle(g, k, q) + 1  # every value fails

    monkeypatch.setattr(chromatic, "coloring_count_oracle", wrong_oracle)
    skips = [f"--skip-{row[0]}" for row in VERIFY_FAULTS[1:]]
    code, failures = _verify_json(capsys, showcase_file, *skips)
    weights = [k for k in weight_box(dict.fromkeys(SHOWCASE.vertices, 2), 2)
               if not k.is_zero]
    assert code == 1
    assert len(failures) == sum(k.height + 1 for k in weights)
    assert set(calls) == {(k, q) for k in weights
                          for q in range(k.height + 1)}
    assert set(calls.values()) == {1}


def test_verify_skip_bond_builds_no_table(capsys, monkeypatch, showcase_file):
    from chromalie import multiplicity

    def unused(*args):
        raise AssertionError("verify --skip-bond built the bond table")

    monkeypatch.setattr(multiplicity, "bond_table", unused)
    assert run(capsys, ["verify", "--graph", showcase_file, "--max-ht", "3",
                        "--skip-bond"]) == \
        (0, "all checks passed (34 weight vectors, height <= 3)\n", "")


def test_verify_counts_each_value_once(capsys, monkeypatch, showcase_file):
    # aperiodic words once per (weight, sink) across the mult and b-recursion
    # rows; one join graph per sub-weight across sinks and divisors
    from chromalie import multiplicity, trace
    b_calls, join_calls = Counter(), Counter()
    b_set, join_graph = trace.b_set, multiplicity.join_graph

    def counted_b_set(g, k, i):
        b_calls[k, i] += 1
        return b_set(g, k, i)

    def counted_join_graph(g, k):
        join_calls[k] += 1
        return join_graph(g, k)

    monkeypatch.setattr(trace, "b_set", counted_b_set)
    monkeypatch.setattr(multiplicity, "join_graph", counted_join_graph)
    multiplicity._first_clone_counts.cache_clear()
    code, out, _ = run(capsys, ["verify", "--graph", showcase_file,
                                "--max-ht", "4"])
    assert code == 0 and "all checks passed" in out
    connected = {k for k in weight_box(dict.fromkeys(SHOWCASE.vertices, 4), 4)
                 if is_connected_sub(SHOWCASE, k.support)}
    assert set(join_calls) == connected
    assert set(join_calls.values()) == {1}
    assert {(k, i) for k in connected for i in k.support} <= set(b_calls)
    assert set(b_calls.values()) == {1}


def test_verify_height_zero(capsys, tmp_path):
    # C4 is all imaginary with a triangle-free complement, so the Lucas row
    # would run, on no weight at all
    p = tmp_path / "c4.json"
    p.write_text(graph_to_json(new_graph(
        [1, 2, 3, 4], edges=[(1, 2), (2, 3), (3, 4), (1, 4)])))
    assert run(capsys, ["verify", "--graph", str(p), "--max-ht", "0"]) == \
        (0, "all checks passed (0 weight vectors, height <= 0)\n", "")
