"""Randomized small pipeline specs with scripted statistical outcomes.

Each case is a validated spec (up to a few root tests and at most one
two-branch split) plus one scripted result sequence per (instance,
test): intermediate inconclusive batches followed by either a
significant batch or a cap-reaching inconclusive one. Used to compare
engine traces against the reference interpreter.
"""

from __future__ import annotations

import numpy as np

from abpipe.model import (
    ABTestSpec,
    ClassCondition,
    Hypothesis,
    PipelineSpec,
    PopulationSplitSpec,
    SplitComponent,
    SubPipeline,
    TransitionRule,
    validate,
)
from abpipe.stats import StatResult

BATCH = 1000

SUCCESS_CONDS = ["p_value <= 0.05", "p_value <= 0.05 and effect > 0"]
FAIL_CONDS = ["p_value > 0.6", "p_value > 0.05"]


def _make_test(name, exp_batches):
    return ABTestSpec(
        name=name,
        exp_length=exp_batches * BATCH,
        ab_assignment=(0.5, 0.5),
        hypothesis=Hypothesis("m", "B_greater", 0.05),
        ab_metrics=("m",),
        stat_test="welch_t",
        variant_a=f"{name}-va",
        variant_b=f"{name}-vb",
    )


def _script(rng, instance, test, significant):
    """Result sequence ending significant or capped-inconclusive."""
    cap_batches = test.exp_length // BATCH
    total = int(rng.integers(1, cap_batches + 1)) if significant else cap_batches
    mean_a = 0.10
    mean_b = mean_a + (0.05 if rng.random() < 0.7 else -0.05)
    results = []
    for k in range(1, total + 1):
        final = k == total
        if final and significant:
            p = float(rng.choice([0.001, 0.01, 0.049]))
        elif final:
            p = float(rng.uniform(0.06, 0.9))
        else:
            p = float(rng.uniform(0.2, 0.9))
        requests = k * BATCH
        results.append(
            StatResult(
                p_value=p,
                mean_a=mean_a,
                mean_b=mean_b,
                n_a=requests // 2,
                n_b=requests - requests // 2,
                significant=final and significant,
                requests_consumed=requests,
            )
        )
    return results


def _chain_rules(rng, prefix, test_names, final_target):
    rules = []
    for i, name in enumerate(test_names):
        target = test_names[i + 1] if i + 1 < len(test_names) else final_target
        rules.append(
            TransitionRule(
                f"{prefix}-{name}-success",
                name,
                str(rng.choice(SUCCESS_CONDS)),
                target,
            )
        )
        if rng.random() < 0.4:
            rules.append(
                TransitionRule(
                    f"{prefix}-{name}-fail",
                    name,
                    "p_value > 0.6",
                    "end",
                )
            )
    return rules


def make_case(seed: int):
    """Returns (spec, scripts) for one randomized validated case."""
    rng = np.random.default_rng(seed)
    name = f"Case-{seed}"

    if rng.random() < 0.03:
        spec = PipelineSpec(name, (), (), (), "end")
        assert validate(spec).ok
        return spec, {}

    n_root = int(rng.integers(0, 4))
    root_tests = [_make_test(f"RT{i}", int(rng.integers(2, 5))) for i in range(n_root)]
    with_split = bool(rng.random() < 0.6) or n_root == 0

    tests = list(root_tests)
    splits = []
    sub_defs = []
    if with_split:
        for j in range(2):
            sub_names = [
                f"SB{j}T{i}" for i in range(int(rng.integers(1, 3)))
            ]
            sub_tests = [_make_test(n, int(rng.integers(2, 4))) for n in sub_names]
            tests.extend(sub_tests)
            rules = tuple(_chain_rules(rng, f"sub{j}", sub_names, "end"))
            sub_defs.append(
                SubPipeline(f"Segment-{j}", sub_names[0], tuple(sub_names), rules)
            )
        post = None
        if rng.random() < 0.4:
            post = _make_test("POST", int(rng.integers(2, 4)))
            tests.append(post)
        splits.append(
            PopulationSplitSpec(
                name="SPLIT",
                split_property="likelihood",
                sub_pipelines=tuple(sub_defs),
                cond_stats=(ClassCondition("==", 0), ClassCondition("==", 1)),
                next_component=post.name if post else "end",
                split_component=SplitComponent("split-svc", "split-img"),
            )
        )

    root_names = [t.name for t in root_tests]
    final_target = "SPLIT" if with_split else "end"
    rules = _chain_rules(rng, "root", root_names, final_target)
    start = root_names[0] if root_names else "SPLIT"

    spec = PipelineSpec(
        name,
        tuple(tests),
        tuple(rules),
        tuple(splits),
        start,
    )
    report = validate(spec)
    assert report.ok, f"generated case {seed} is invalid: {report}"

    scripts = {}
    for test in root_tests:
        scripts[(name, test.name)] = _script(
            rng, name, test, significant=bool(rng.random() < 0.7)
        )
    for sub in sub_defs:
        for test_name in sub.ab_tests:
            test = next(t for t in tests if t.name == test_name)
            scripts[(sub.subpl_id, test_name)] = _script(
                rng, sub.subpl_id, test, significant=bool(rng.random() < 0.7)
            )
    if with_split and splits[0].next_component != "end":
        post_test = next(t for t in tests if t.name == splits[0].next_component)
        scripts[(name, post_test.name)] = _script(
            rng, name, post_test, significant=bool(rng.random() < 0.7)
        )
    return spec, scripts
