"""The population-split component: training and routing.

Generates a synthetic propensity dataset (23 binary features, ~4.2%
positive labels), trains the SGD logistic classifier on a 25% slice,
evaluates it held-out, and shows how predicted classes route users to
mutually exclusive sub-pipelines.

Run from the repository root:  python demos/03_split_classifier.py
"""

import statistics
import time
from pathlib import Path

from abpipe import classifier as clf
from abpipe.blueprints import parse_blueprints
from abpipe.webstore import ScenarioConfig, generate_training_data

ROOT = Path(__file__).resolve().parent.parent
config = ScenarioConfig(seed=42)

# --- 1. synthetic labeled history -------------------------------------------

features, labels = generate_training_data(config, 20_000)
print(
    f"dataset: {features.shape[0]} rows x {features.shape[1]} features,"
    f" {labels.mean() * 100:.2f}% positive"
)

# --- 2. train on 25%, evaluate on the rest ----------------------------------

n_train = len(labels) // 4
model = clf.train(features[:n_train], labels[:n_train], clf.Hyperparams(seed=42))
held_x, held_y = features[n_train:], labels[n_train:]
predicted = model.predict(held_x)
accuracy = (predicted == held_y).mean()
recall = predicted[held_y == 1].mean()
precision = held_y[predicted == 1].mean()
print(
    f"held-out: accuracy={accuracy:.4f} recall={recall:.4f}"
    f" precision={precision:.4f} (trained in {model.train_time_ms:.0f} ms)"
)

# --- 3. routing users through the shipped split -----------------------------

split = parse_blueprints(ROOT / "scenarios/parallel").pop_splits[0]
print(f"\nsplit '{split.name}' on property '{split.split_property}':")
for sub, cond in zip(split.sub_pipelines, split.cond_stats):
    print(f"  class {cond.render()} -> {sub.subpl_id}")

classes = model.predict(held_x[:2_000])
print("routing of 2000 held-out users:")
for sub, cond in zip(split.sub_pipelines, split.cond_stats):
    print(f"  {sub.subpl_id}: {cond.matches(classes).mean() * 100:.2f}%")

rows, timings = held_x[:64].astype(float), []
for _ in range(200):
    started = time.perf_counter()
    model.predict(rows)
    timings.append((time.perf_counter() - started) * 1e3)
print(f"\nmedian predict latency on 64 rows: {statistics.median(timings):.4f} ms")
