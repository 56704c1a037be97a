import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from pathlib import Path

import pytest

from chromalie import hilbert
from chromalie.cli import CLOSED_PIPE, MAX_K, MAX_VALUE_DIGITS, main, \
    parse_weight_spec, UsageError
from chromalie import QPolynomial, WeightVector, new_graph, weight_box, \
    is_connected_sub

from helpers import complete_graph, cycle_graph, graph_to_json

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


def test_chromatic_auto_and_general_agree(capsys, showcase_file):
    # auto detects no closed form: both values run the ordered-partition DP
    outs = [run(capsys, ["chromatic", "--graph", showcase_file,
                         "--k", "1:2,2:1,3:1,4:1", "--closed-form", form])
            for form in ("auto", "general")]
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert outs[0][1].startswith("coefficients (constant first): 0 ")


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


def test_basis_verify_fails_on_right_normed_fault(capsys, monkeypatch,
                                                 showcase_file):
    # a wrong initial-alphabet classification fails only the right-normed
    # check, and with it the report and the exit code
    from chromalie import lyndon
    monkeypatch.setattr(lyndon, "right_normed_nonzero", lambda w, g: False)
    report = lyndon.verify_basis(
        SHOWCASE, WeightVector.of({1: 2, 2: 1, 3: 1, 4: 1}), 2)
    assert report.counts_match and report.rank_matches
    assert report.right_normed_checked
    assert not report.right_normed_consistent and not report.ok
    code, out, _ = run(capsys, ["basis", "--graph", showcase_file,
                                "--k", "1:2,2:1,3:1,4:1", "--sink", "2",
                                "--verify", "--json"])
    assert code == 1
    assert json.loads(out)["verify"] == {
        "lyndon_count": 2, "multiplicity": 2, "ok": False, "rank": 2}


def test_basis_refuses_overweight_real_vertex(capsys, tmp_path):
    p = tmp_path / "re_im.json"
    p.write_text(graph_to_json(new_graph([1, 2], kinds={1: "re"},
                                         edges=[(1, 2)])))
    message = "real vertex 1 carries weight 2 > 1"
    # mult takes --sink only with --method orientations
    for argv in (["basis", "--sink", "2"], ["mult"],
                 ["mult", "--method", "orientations", "--sink", "2"]):
        code, out, err = run(capsys, [argv[0], "--graph", str(p),
                                      "--k", "1:2,2:1", *argv[1:]])
        assert code == 3 and out == "" and message in err, argv
    code, out, _ = run(capsys, ["basis", "--graph", str(p),
                                "--k", "1:1,2:2", "--sink", "2"])
    assert code == 0 and out == "[[e1,e2],e2]\n"


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


@pytest.mark.parametrize("g, sink", [(cycle_graph(4), []),
                                     (SHOWCASE, ["--sink", "2"])],
                         ids=["c4", "showcase"])
def test_orientations_list(capsys, tmp_path, g, sink):
    from chromalie.multiplicity import acyclic_counts
    p = tmp_path / "g.json"
    p.write_text(graph_to_json(g))
    argv = ["orientations", "--graph", str(p), *sink, "--list"]
    code, text, _ = run(capsys, argv)
    assert code == 0
    listing = text.splitlines()[2 if sink else 1:]  # after the header lines
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 0 and json.loads(out)["orientations"] == listing
    assert len(listing) == acyclic_counts(g)[-1]
    for line in listing:
        arcs = [tuple(map(int, arc.split(">"))) for arc in line.split()]
        assert sorted(tuple(sorted(arc)) for arc in arcs) == sorted(g.edges)


@pytest.mark.parametrize("argv, field", [
    (["words", "--k", "1:1,2:2,3:1"], "words"),
    (["words", "--k", "1:1,2:2,3:1", "--ia", "2"], "words"),
    (["words", "--k", "1:2,2:2,3:1,4:1", "--aperiodic-classes", "1"],
     "aperiodic_classes"),
    (["basis", "--k", "1:2,2:2,3:1,4:1", "--sink", "1"], "basis"),
    (["basis", "--k", "1:2,2:2,3:1,4:1", "--sink", "1", "--verify"], "basis"),
    (["hilbert", "--q", "2", "--max-ht", "3"], "entries"),
], ids=["words", "ia", "aperiodic-classes", "basis", "basis-verify",
        "hilbert"])
def test_text_lines_are_the_json_items(capsys, showcase_file, argv, field):
    # Each listing is one iterator shared by the payload and the text lines;
    # the mode that runs must be its only reader.
    argv = argv[:1] + ["--graph", showcase_file] + argv[1:]
    code, text, _ = run(capsys, argv)
    assert code == 0
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 0
    payload = json.loads(out)
    items = payload[field]
    assert items
    if field == "entries":
        items = [f"{json.dumps(e['k'], sort_keys=True)} -> {e['dim']}"
                 for e in items]
    if "verify" in payload:
        v = payload["verify"]
        items.append(f"multiplicity={v['multiplicity']} "
                     f"count={v['lyndon_count']} rank={v['rank']} ok=True")
    assert text.splitlines() == items


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


def test_lcs_ranks_cap(capsys, monkeypatch, showcase_file):
    # refused before the command starts; at the cap it runs
    calls = []

    def record(g, max_k):
        calls.append(max_k)
        return [(Fraction(1), 1)]

    for name in ("lcs_ranks", "lcs_ranks_triangle_free"):
        monkeypatch.setattr(hilbert, name, record)
    for extra in ([], ["--triangle-free"]):
        code, out, err = run(capsys, ["lcs-ranks", "--graph", showcase_file,
                                      "--max-k", str(MAX_K + 1)] + extra)
        assert code == 3 and out == "" and not calls
        assert err == f"error: max_k {MAX_K + 1} exceeds the limit " \
            f"{MAX_K}\n"
        code, out, _ = run(capsys, ["lcs-ranks", "--graph", showcase_file,
                                    "--max-k", str(MAX_K)] + extra)
        assert code == 0 and calls.pop() == MAX_K


def test_value_digit_cap(capsys, monkeypatch, tmp_path):
    # digits(q) * height past the bound is refused before any work, in text
    # and --json; just under it both commands print every digit
    from chromalie import chromatic
    k4, one = tmp_path / "k4.json", tmp_path / "one.json"
    k4.write_text(graph_to_json(complete_graph(4)))
    one.write_text(graph_to_json(new_graph([1])))
    chromatic_argv = ["chromatic", "--graph", str(k4), "--k",
                      "1:3,2:3,3:3,4:3", "--eval"]
    hilbert_argv = ["hilbert", "--graph", str(one), "--max-ht", "12", "--q"]
    big = 10 ** 399  # 400 digits, 4,800 digit-heights at height 12

    def refuse(*args):
        raise AssertionError("a refused request started its work")

    with monkeypatch.context() as patch:
        patch.setattr(chromatic, "chromatic_poly", refuse)
        patch.setattr(hilbert, "series_table", refuse)
        for argv in (chromatic_argv + [str(big)],
                     chromatic_argv + [str(-big)], hilbert_argv + [str(big)]):
            for extra in ([], ["--json"]):
                code, out, err = run(capsys, argv + extra)
                assert (code, out) == (3, "")
                assert err == (
                    "error: q has 400 digits at height 12: digits x height "
                    f"= 4800 exceeds {MAX_VALUE_DIGITS}, which keeps values "
                    "under Python's 4300-digit limit on printing an int\n")
    q = 10 ** 332  # 333 digits, 3,996 digit-heights
    code, out, _ = run(capsys, chromatic_argv + [str(q), "--json"])
    value = 1
    for j in range(4):
        value *= comb(q - 3 * j, 3)
    assert code == 0 and json.loads(out)["eval"]["value"] == str(value)
    code, out, _ = run(capsys, hilbert_argv + [str(q), "--json"])
    assert code == 0 and json.loads(out)["entries"][-1] == {
        "k": {"1": 12}, "dim": comb(q + 11, 12)}


class ClosedPipe(io.StringIO):
    """A stdout whose reader is gone, on the first write or at the flush."""

    def __init__(self, on_write: bool):
        super().__init__()
        self.on_write = on_write

    def write(self, text):
        if self.on_write:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("on_write", [True, False], ids=["write", "flush"])
@pytest.mark.parametrize("argv", [
    ["lcs-ranks", "--max-k", "12", "--json"],
    ["verify", "--max-ht", "1"],
    ["words", "--k", "1:1,2:2,3:1"],
], ids=["lcs-ranks", "verify", "words"])
def test_closed_stdout_exits_quietly(capsys, monkeypatch, showcase_file,
                                     argv, on_write):
    monkeypatch.setattr(sys, "stdout", ClosedPipe(on_write))
    code = main(argv[:1] + ["--graph", showcase_file] + argv[1:])
    assert code == CLOSED_PIPE == 141
    assert capsys.readouterr().err == ""


def test_closed_pipe_process(tmp_path):
    # a reader that stops after one line: no traceback, exit status 141,
    # also when main's last flush finds the reader gone, and in the middle
    # of a streamed listing (K4 at (3,3,2,2) has 25,200 words)
    c5, k4 = tmp_path / "c5.json", tmp_path / "k4.json"
    c5.write_text(graph_to_json(cycle_graph(5)))
    k4.write_text(graph_to_json(complete_graph(4)))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    for argv, first in [
            (["lcs-ranks", "--graph", str(c5), "--max-k", "1000"],
             b"k=1 N=5 M=5\n"),
            (["words", "--graph", str(k4), "--k", "1:3,2:3,3:2,4:2"],
             b"1 1 1 2 2 2 3 3 4 4\n")]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "chromalie.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == first
        proc.stdout.close()
        assert proc.wait(timeout=60) == CLOSED_PIPE
        assert proc.stderr.read() == b""
        proc.stderr.close()


PROCESS_ENTRIES = {
    "module": ["-m", "chromalie.cli"],
    "run": ["-c", "from chromalie.cli import run; run()"],
}


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: --help and usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out.encode(), out.err.encode()


@pytest.mark.parametrize("entry", PROCESS_ENTRIES)
def test_process_entries_match_main(capsys, monkeypatch, tmp_path,
                                    showcase_file, entry):
    # run ends the process with os._exit after main; what a process prints
    # and its status are still those of main called in-process (COLUMNS
    # fixes the width argparse wraps --help to on both sides)
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    prefix = [sys.executable, *PROCESS_ENTRIES[entry]]
    graph = ["--graph", showcase_file]
    for argv, status in [
            (["mult", *graph, "--k", "1:2,2:1,3:1,4:1"], 0),
            (["words", *graph, "--k", "1:2,2:1,3:1,4:1", "--json"], 0),
            (["verify", *graph, "--max-ht", "2"], 0),
            (["mult", *graph, "--k", "1:1,2:1", "--sink", "1"], 2),
            (["chromatic", *graph, "--k", "9:1"], 2),
            (["mult", *graph, "--k", "1:0"], 3),
            (["verify", *graph, "--max-ht", "99"], 3),
            (["--help"], 0),
            (["mult", "--help"], 0),
            (["mult", *graph], 2),
            (["no-such-command"], 2)]:
        expected = _in_process(capsys, argv)
        assert expected[0] == status, argv
        proc = subprocess.run([*prefix, *argv], env=env, capture_output=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv
    k4 = tmp_path / "k4.json"
    k4.write_text(graph_to_json(complete_graph(4)))
    words = ["words", "--graph", str(k4), "--k", "1:3,2:3,3:2,4:2"]
    proc = subprocess.Popen([*prefix, *words], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"1 1 1 2 2 2 3 3 4 4\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == CLOSED_PIPE
    assert proc.stderr.read() == b""
    proc.stderr.close()


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


@pytest.mark.parametrize("argv, message", [
    (["words", "--k", "1:2,2:1,3:1,4:1", "--ia", "1",
      "--aperiodic-classes", "1"], "--ia and --aperiodic-classes"),
    (["mult", "--k", "1:1,2:1", "--sink", "1"], "--sink needs"),
    (["mult", "--k", "1:1,2:1", "--method", "bond", "--sink", "1"],
     "--sink needs"),
], ids=["words-ia-with-classes", "mult-sink-moebius", "mult-sink-bond"])
def test_ignored_options_refused(capsys, showcase_file, argv, message):
    # an option the command would silently drop is a usage error
    code, out, err = run(capsys, [argv[0], "--graph", showcase_file,
                                  *argv[1:]])
    assert code == 2 and out == "" and message in err


def test_sink_with_orientations_still_runs(capsys, showcase_file):
    code, out, _ = run(capsys, ["mult", "--graph", showcase_file, "--k",
                                "1:1,2:1", "--method", "orientations",
                                "--sink", "2"])
    assert code == 0 and out == "1\n"


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


@pytest.mark.parametrize("data", [b"\xff\xfe\x00garbage",
                                  b"[" * 200_000 + b"]" * 200_000],
                         ids=["not-utf8", "nested-200000-deep"])
def test_malformed_graph_file(capsys, tmp_path, data):
    # one error line and exit 3, not a traceback
    p = tmp_path / "bad.json"
    p.write_bytes(data)
    code, out, err = run(capsys, ["chromatic", "--graph", str(p),
                                  "--k", "1:1"])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_of_memory_exits_3(capsys, monkeypatch, showcase_file):
    # exit 1 means a failed check, so running out of memory gets its own line
    from chromalie import trace

    def exhausted(g, k, i):
        raise MemoryError

    monkeypatch.setattr(trace, "b_set", exhausted)
    code, out, err = run(capsys, ["words", "--graph", showcase_file, "--k",
                                  "1:2,2:1,3:1,4:1", "--aperiodic-classes", "1"])
    assert code == 3 and out == ""
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "Traceback" not in err


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
