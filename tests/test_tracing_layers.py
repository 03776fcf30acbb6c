"""Every entry point the benchmark's traced run wraps must resolve by name.

``perfbench/tracing.py`` wraps abpipe layers at the attribute paths in
its ``LAYERS`` table; a refactor that renames one, or that stops calling
it, would otherwise fail only the benchmark's traced pass.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing()
LAYERS = [(module_name, path) for _, module_name, path, _ in TRACING_MODULE.LAYERS]


@pytest.mark.parametrize(
    "module_name, path", LAYERS, ids=[f"{m}:{p}" for m, p in LAYERS]
)
def test_traced_entry_point_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}.{path}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_every_traced_layer_is_called(seq_bundle, par_bundle, small_scenario):
    tracer = TRACING_MODULE.Tracer()
    tracer.install()
    try:
        blueprints = importlib.import_module("abpipe.blueprints")
        seq_spec = blueprints.parse_blueprints(seq_bundle)
        par_spec = blueprints.parse_blueprints(par_bundle)
        report = importlib.import_module("abpipe.report")
        report.compare_pipelines(seq_spec, par_spec, small_scenario, [1])
    finally:
        tracer.uninstall()
    calls = tracer.summarize()
    uncalled = sorted(
        {name for name, *_ in TRACING_MODULE.LAYERS if name not in calls}
    )
    assert not uncalled, f"traced layers never called: {uncalled}"
    # a served block is read from one starting count and serves every look
    # its queue reaches, so some blocks serve more than one look
    assert calls["webstore.probe"]["calls"] == calls["webstore.serve_chunk"]["calls"]
    assert calls["stats.evaluate"]["calls"] > calls["webstore.serve_chunk"]["calls"]
