"""What a request imports.  Each subcommand loads only the modules it runs,
and nothing loads dataclasses (with its inspect/ast/dis/tokenize chain):
without cached bytecode, every request compiles what it imports.  Each check
runs in a fresh interpreter, because this test process has imported
everything already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chromalie

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
from chromalie.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
sys.stdout.flush()
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""


def loaded_modules(argv: list[str]) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return set(json.loads(proc.stderr.splitlines()[-1]))


def chromalie_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "chromalie"}


def test_mult_loads_no_unused_layer(tmp_path):
    graph = tmp_path / "k4.json"
    graph.write_text(json.dumps({
        "vertices": [{"id": v} for v in range(1, 5)],
        "edges": [[u, v] for u in range(1, 5) for v in range(u + 1, 5)]}))
    modules = loaded_modules(["mult", "--graph", str(graph), "--k",
                              "1:2,2:2,3:2,4:2", "--method", "moebius"])
    assert "chromalie.multiplicity" in modules  # the request did run
    for name in ("dataclasses", "inspect", "chromalie.trace",
                 "chromalie.lyndon", "chromalie.hilbert"):
        assert name not in modules, name


@pytest.mark.parametrize("argv, ran, unused", [
    (["hilbert", "--q", "2", "--max-ht", "2"], "hilbert", "trace"),
    (["lcs-ranks", "--max-k", "3"], "hilbert", "trace"),
    (["reciprocity", "--q", "2"], "hilbert", "trace"),
    (["orientations", "--sink", "1"], "multiplicity", "chromatic"),
], ids=["hilbert", "lcs-ranks", "reciprocity", "orientations"])
def test_command_loads_no_unused_layer(tmp_path, argv, ran, unused):
    graph = tmp_path / "c4.json"
    graph.write_text(json.dumps({
        "vertices": [{"id": v} for v in range(1, 5)],
        "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}))
    modules = loaded_modules([*argv, "--graph", str(graph)])
    assert f"chromalie.{ran}" in modules  # the request did run
    assert f"chromalie.{unused}" not in modules


def test_help_loads_only_the_front_end():
    modules = loaded_modules(["--help"])
    assert chromalie_modules(modules) == {
        "chromalie", "chromalie.cli", "chromalie.graphs"}


def test_public_names_resolve():
    for name in chromalie.__all__:
        assert getattr(chromalie, name) is not None, name
    assert "lucas_value_closed" not in chromalie.__all__
    assert set(chromalie.__all__) <= set(dir(chromalie))
    with pytest.raises(AttributeError):
        chromalie.no_such_name
    with pytest.raises(ImportError):
        from chromalie import lucas_value_closed  # noqa: F401
