"""The population-split component: training and routing.

Generates a synthetic propensity dataset (23 binary features, ~4.2%
positive labels), trains the SGD logistic classifier on a 25% slice,
evaluates it held-out, and shows how predicted classes route users to
mutually exclusive sub-pipelines.

Run from the repository root:  python demos/03_split_classifier.py
"""

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

counts = {sub.subpl_id: 0 for sub in split.sub_pipelines}
for predicted_class in model.predict(held_x[:2_000]):
    counts[clf.route_class(split, int(predicted_class))] += 1
print("routing of 2000 held-out users:")
for name, count in counts.items():
    print(f"  {name}: {count / 2000 * 100:.2f}%")

latency = clf.measure_predict_latency_ms(model, held_x[:64].astype(float))
print(f"\nmedian single-prediction latency: {latency:.4f} ms")
