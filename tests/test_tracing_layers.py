"""Every entry point the benchmark's traced run wraps must resolve by name.

``perfbench/tracing.py`` wraps abpipe layers at the attribute paths in
its ``LAYERS`` table; a refactor that renames one would otherwise fail
only the benchmark's traced pass.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, path) for _, module_name, path, _ in module.LAYERS]


LAYERS = _layers()


@pytest.mark.parametrize(
    "module_name, path", LAYERS, ids=[f"{m}:{p}" for m, p in LAYERS]
)
def test_traced_entry_point_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}.{path}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)
