"""The benchmark's tracer (perfbench/tracing.py) wraps chromalie functions by
module and attribute name; check every name it lists still resolves, so a
refactor cannot silently break traced runs.  The tracer is only imported,
never installed, because installing it patches the chromalie modules."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"chromalie.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_layers_resolve(tracing):
    for name, module, attr, _ in tracing.LAYERS:
        assert callable(_resolve(module, attr)), name


def test_caches_resolve(tracing):
    for metric, (module, attr) in tracing.CACHES.items():
        assert hasattr(_resolve(module, attr), "cache_info"), metric
