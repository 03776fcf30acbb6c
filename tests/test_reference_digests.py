"""The benchmark's pinned artifact digests, rebuilt as a tier-1 gate.

``perfbench/reference.json`` pins a SHA-256 digest of every ``run-sweep``
run: both shipped bundles, seeds 1-50, batch 1000, with the split model
fitted once on seed 1,000,001. Each run's trace, summary and p-value
traces are written as ``abpipe run`` writes them, and the run's digest
is the SHA-256 of its sorted ``"<file name> <file sha256>\\n"`` lines.
Any change to routing, serving, stopping or the artifact formats shows
up here without running the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from abpipe.blueprints import parse_blueprints
from abpipe.classifier import Hyperparams, train
from abpipe.cli import write_run_outputs
from abpipe.orchestrator import PipelineEngine, WebStoreRunner
from abpipe.report import build_summary
from abpipe.webstore import WebStore, generate_training_data, load_scenario

BATCH = 1000
MODEL_SEED = 1_000_001
ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


def digest(folder) -> str:
    lines = "".join(
        f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        for p in sorted(folder.iterdir(), key=lambda p: p.name)
    )
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def sweep_scenario():
    return load_scenario(ROOT / "scenarios" / "scenario.json")


@pytest.fixture(scope="module")
def sweep_model(sweep_scenario):
    config = replace(sweep_scenario, seed=MODEL_SEED)
    features, labels = generate_training_data(config, config.train_samples)
    return train(features, labels, Hyperparams(seed=config.seed))


@pytest.mark.parametrize("bundle", ["sequential", "parallel"])
def test_run_sweep_artifacts_match_the_pinned_digests(
    bundle, sweep_scenario, sweep_model, tmp_path
):
    spec = parse_blueprints(ROOT / "scenarios" / bundle)
    models = {s.split_component.image_name: sweep_model for s in spec.pop_splits}
    pinned = REFERENCE["runs"][str(BATCH)][bundle]
    assert sorted(map(int, pinned)) == list(range(1, 51))
    mismatched = []
    for seed in range(1, 51):
        store = WebStore(replace(sweep_scenario, seed=seed))
        runner = WebStoreRunner(store, batch_size=BATCH, split_models=models)
        engine = PipelineEngine(spec, runner, catalog=store.catalog)
        engine.run()
        out = tmp_path / str(seed)
        out.mkdir()
        write_run_outputs(out, engine, build_summary(engine, seed, BATCH))
        if digest(out) != pinned[str(seed)]:
            mismatched.append(seed)
    assert mismatched == []
