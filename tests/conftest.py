from __future__ import annotations

import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from abpipe.blueprints import parse_blueprints
from abpipe.webstore import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def traced_peak(fn):
    """``(fn(), retained, peak)``: the bytes ``fn`` left allocated and its
    traced peak, both counted from its entry."""
    tracemalloc.start()
    try:
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


@pytest.fixture(scope="session")
def seq_bundle() -> Path:
    return SCENARIOS / "sequential"


@pytest.fixture(scope="session")
def par_bundle() -> Path:
    return SCENARIOS / "parallel"


@pytest.fixture(scope="session")
def seq_spec(seq_bundle):
    return parse_blueprints(seq_bundle)


@pytest.fixture(scope="session")
def par_spec(par_bundle):
    return parse_blueprints(par_bundle)


@pytest.fixture(scope="session")
def scenario() -> ScenarioConfig:
    return ScenarioConfig()


@pytest.fixture(scope="session")
def small_scenario() -> ScenarioConfig:
    """Slimmer population / training set for fast engine tests."""
    return replace(ScenarioConfig(), population_size=20_000, train_samples=4_000)
