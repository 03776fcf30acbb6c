"""Streaming metric accumulation and batch-wise significance checking.

Walks through the statistics layer: single-pass accumulators and
Welch's t-test on binary metric streams on their own, then the same test
run by the engine on the simulated store, which checks the hypothesis
every 1000 served requests and stops at the first p <= alpha.

Run from the repository root:  python demos/01_streaming_statistics.py
"""

import time

import numpy as np

from abpipe.model import ABTestSpec, Hypothesis, PipelineSpec
from abpipe.report import run_pipeline_once
from abpipe.stats import MetricAccumulator, welch_t_test
from abpipe.webstore import ScenarioConfig

rng = np.random.default_rng(7)

# --- 1. accumulators: constant-memory running moments ----------------------

acc = MetricAccumulator("A", "clicks")
for sample in rng.random(10_000) < 0.15:
    acc.add(float(sample))
print(f"accumulated {acc.n} samples: mean={acc.mean:.4f} variance={acc.variance:.4f}")

# merging two accumulators is the same as one concatenated stream
left = MetricAccumulator("A", "clicks")
left.add_many([0, 1, 1, 0, 1])
right = MetricAccumulator("A", "clicks")
right.add_many([1, 0, 0])
merged = left.merge(right)
print(f"merge check: n={merged.n} mean={merged.mean:.4f} (expect 0.5)")

# --- 2. Welch's t-test on two variants --------------------------------------

def binary_accumulator(variant, rate, n):
    acc = MetricAccumulator(variant, "clicks")
    acc.add_many((rng.random(n) < rate).astype(float))
    return acc

a = binary_accumulator("A", 0.1470, 60_000)
b = binary_accumulator("B", 0.1617, 60_000)
result = welch_t_test(a, b, direction="B_greater", alpha=0.05)
print(
    f"\nWelch on click rates {a.mean:.4f} vs {b.mean:.4f}: "
    f"p={result.p_value:.2e} significant={result.significant}"
)

# --- 3. the engine's looks: stop at the first significant batch ------------
#
# The same click-rate test as a one-test pipeline on the simulated store.
# Its program looks every 1000 served requests and stops at the first
# p <= alpha, or at the experiment-length cap.

spec = ABTestSpec(
    name="click-rate-test",
    exp_length=150_000,
    ab_assignment=(0.5, 0.5),
    hypothesis=Hypothesis("clicks", "B_greater", 0.05),
    ab_metrics=("clicks",),
    stat_test="welch_t",
    variant_a="checkout-review-v1",
    variant_b="checkout-review-v2",
)
pipeline = PipelineSpec("click-rate-pipeline", (spec,), (), (), spec.name)

started = time.perf_counter()
outcome = run_pipeline_once(pipeline, ScenarioConfig(), seed=7, batch_size=1000)
elapsed = time.perf_counter() - started
results = outcome.engine.batch_results[spec.name]
print("\nper-batch p-value trace:")
for r in results:
    print(f"  requests={r.requests_consumed:>6} p={r.p_value:.4f}")
last = results[-1]
print(
    f"the test stopped after {last.requests_consumed:,} requests "
    f"(significant={last.significant}); {len(results)} looks in {elapsed:.2f} s"
)
