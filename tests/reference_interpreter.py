"""Independent interpreter of the pipeline-execution algorithms.

Walks a pipeline spec over precomputed per-(instance, test) result
scripts and emits the expected trace, written directly from the
transition-rule / pipeline-execution / population-split semantics:

* start at the pipeline's start element; while the current element is
  not End, deploy it, collect batch results until the test decides or
  hits its length cap, then take the first declared rule whose
  associated test matches and whose condition holds, defaulting to End;
* a population split creates one knowledge instance per sub-pipeline,
  starts them all, and advances them round-robin (one batch per tick,
  declaration order); once all sub-pipelines end, execution continues
  with the split's next component;
* a user goes to the first sub-pipeline whose class condition the
  predicted class meets, and to none if it meets no condition.

Conditions are evaluated with Python's own expression evaluator, not
the package's parser, keeping this oracle independent of the engine.
"""

from __future__ import annotations

from abpipe.model import PipelineSpec, is_end


def _eval_condition(text: str, result) -> bool:
    fields = {
        "p_value": result.p_value,
        "mean_a": result.mean_a,
        "mean_b": result.mean_b,
        "effect": result.mean_b - result.mean_a,
    }
    return bool(eval(text, {"__builtins__": {}}, fields))  # noqa: S307


def route_class(split, predicted_class: int) -> str | None:
    """Sub-pipeline id for a predicted class, or None when unrouted."""
    for sub, cond in zip(split.sub_pipelines, split.cond_stats):
        text = f"{int(predicted_class)} {cond.op} {int(cond.value)}"
        if eval(text, {"__builtins__": {}}):  # noqa: S307
            return sub.subpl_id
    return None


def reference_trace(spec: PipelineSpec, scripts: dict) -> list[tuple]:
    """Expected (instance, event, detail, requests_total) tuples."""
    events: list[tuple] = []
    total = 0
    positions: dict[tuple, int] = {}
    consumed: dict[tuple, int] = {}
    root = spec.name
    splits = {s.name: s for s in spec.pop_splits}
    tests = {t.name: t for t in spec.ab_tests}

    def emit(instance, event, detail):
        events.append((instance, event, dict(detail), total))

    def feed(instance, test):
        nonlocal total
        key = (instance, test.name)
        k = positions.get(key, 0)
        positions[key] = k + 1
        result = scripts[key][k]
        total += result.requests_consumed - consumed.get(key, 0)
        consumed[key] = result.requests_consumed
        emit(
            instance,
            "batch_result",
            {
                "test": test.name,
                "requests": result.requests_consumed,
                "p_value": result.p_value,
                "significant": result.significant,
            },
        )
        return result

    def terminal(result, test):
        return result.significant or result.requests_consumed >= test.exp_length

    def pick_rule(rules, result, test_name):
        for rule in rules:
            if rule.assoc_ab_test == test_name and _eval_condition(
                rule.cond_stat, result
            ):
                return rule.subseq_ab_test, rule
        return "end", None

    def transition(instance, rules, result, test_name):
        target, rule = pick_rule(rules, result, test_name)
        emit(
            instance,
            "transition",
            {
                "from": test_name,
                "rule": rule.name if rule else None,
                "to": target,
            },
        )
        return target

    def run_split(split):
        emit(
            root,
            "split_entry",
            {
                "split": split.name,
                "sub_pipelines": [s.subpl_id for s in split.sub_pipelines],
            },
        )
        state = {}
        for sub in split.sub_pipelines:
            emit(sub.subpl_id, "start", {"element": sub.start})
            emit(sub.subpl_id, "deploy", {"test": sub.start})
            state[sub.subpl_id] = tests[sub.start]
        while any(state[s.subpl_id] is not None for s in split.sub_pipelines):
            for sub in split.sub_pipelines:
                current = state[sub.subpl_id]
                if current is None:
                    continue
                result = feed(sub.subpl_id, current)
                if not terminal(result, current):
                    continue
                target = transition(
                    sub.subpl_id, sub.trans_rules, result, current.name
                )
                if is_end(target):
                    emit(sub.subpl_id, "end", {})
                    state[sub.subpl_id] = None
                else:
                    emit(sub.subpl_id, "deploy", {"test": target})
                    state[sub.subpl_id] = tests[target]
        emit(
            root,
            "split_exit",
            {"split": split.name, "next": split.next_component},
        )

    emit(root, "start", {"element": spec.start})
    deployed_first = False
    if not is_end(spec.start) and spec.start not in splits:
        emit(root, "deploy", {"test": spec.start})
        deployed_first = True

    current = spec.start
    first = True
    while not is_end(current):
        if current in splits:
            run_split(splits[current])
            current = splits[current].next_component
            first = False
            continue
        test = tests[current]
        if not (first and deployed_first):
            emit(root, "deploy", {"test": test.name})
        first = False
        while True:
            result = feed(root, test)
            if terminal(result, test):
                break
        current = transition(root, spec.trans_rules, result, test.name)
    emit(root, "end", {"notified": True})
    return events
