"""Blueprint bundle reading and writing.

A bundle is a directory of UTF-8 JSON documents::

    pipeline.json        the pipeline: start element, element rosters,
                         sub-pipeline definitions
    experiments/*.json   one A/B test definition per file
    rules/*.json         one transition rule per file
    splits/*.json        one population split per file

Field names are camelCase (``splitProperty``, ``nextComponent``,
``conditionalStatements``, ``splitComponent`` with ``serviceName`` and
``imageName``). The literal element name ``"end"`` denotes the End
marker. ``conditionalStatements`` entries are ``{"op": "==", "value": 0}``
records; a two-element ``["==", 0]`` list is accepted on input.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .conditions import ConditionSyntaxError
from .model import (
    ABTestSpec,
    ClassCondition,
    CLASS_OPS,
    Hypothesis,
    PipelineSpec,
    PopulationSplitSpec,
    SplitComponent,
    SubPipeline,
    TransitionRule,
)


class BlueprintError(ValueError):
    """Base for blueprint bundle problems."""


class BlueprintSyntaxError(BlueprintError):
    """Malformed JSON or condition text, annotated with its position."""


class BlueprintFormatError(BlueprintError):
    """Structurally valid JSON that does not match the expected schema."""


class UnresolvedReferenceError(BlueprintError):
    def __init__(self, name: str, context: str):
        super().__init__(f"unresolved reference {name!r} ({context})")
        self.name = name


class DuplicateNameError(BlueprintError):
    def __init__(self, name: str, context: str):
        super().__init__(f"duplicate element name {name!r} ({context})")
        self.name = name


def _load_json(path: Path) -> Any:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise BlueprintError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BlueprintSyntaxError(
            f"{path}: {exc.msg} at line {exc.lineno}, column {exc.colno}"
        ) from exc


def _require(record: dict, key: str, path: Path) -> Any:
    if key not in record:
        raise BlueprintFormatError(f"{path}: missing field {key!r}")
    return record[key]


def _integer(value: Any, field: str, path: Path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BlueprintFormatError(f"{path}: {field} must be an integer, got {value!r}")
    return value


def _number(value: Any, field: str, path: Path) -> float:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise BlueprintFormatError(
            f"{path}: {field} must be a finite number, got {value!r}"
        )
    return float(value)


def _load_dir(bundle: Path, sub: str) -> dict[str, tuple[dict, Path]]:
    registry: dict[str, tuple[dict, Path]] = {}
    directory = bundle / sub
    if not directory.is_dir():
        return registry
    for path in sorted(directory.glob("*.json")):
        record = _load_json(path)
        if not isinstance(record, dict):
            raise BlueprintFormatError(f"{path}: expected a JSON object")
        name = _require(record, "name", path)
        if name in registry:
            raise DuplicateNameError(name, f"{registry[name][1]} and {path}")
        registry[name] = (record, path)
    return registry


def _parse_experiment(record: dict, path: Path) -> ABTestSpec:
    hyp = _require(record, "hypothesis", path)
    if not isinstance(hyp, dict):
        raise BlueprintFormatError(f"{path}: hypothesis must be an object, got {hyp!r}")
    assignment = _require(record, "abAssignment", path)
    if not isinstance(assignment, list) or len(assignment) != 2:
        raise BlueprintFormatError(
            f"{path}: abAssignment must be a two-element list"
        )
    metrics = _require(record, "abMetrics", path)
    if not isinstance(metrics, list) or not all(isinstance(m, str) for m in metrics):
        raise BlueprintFormatError(
            f"{path}: abMetrics must be a list of strings, got {metrics!r}"
        )
    return ABTestSpec(
        name=_require(record, "name", path),
        exp_length=_integer(_require(record, "expLength", path), "expLength", path),
        ab_assignment=tuple(_number(a, "abAssignment", path) for a in assignment),
        hypothesis=Hypothesis(
            metric=str(_require(hyp, "metric", path)),
            direction=str(_require(hyp, "direction", path)),
            alpha=_number(_require(hyp, "alpha", path), "hypothesis.alpha", path),
        ),
        ab_metrics=tuple(metrics),
        stat_test=str(_require(record, "statTest", path)),
        variant_a=str(_require(record, "variantA", path)),
        variant_b=str(_require(record, "variantB", path)),
    )


def _parse_rule(record: dict, path: Path) -> TransitionRule:
    rule = TransitionRule(
        name=_require(record, "name", path),
        assoc_ab_test=str(_require(record, "assocAbTest", path)),
        cond_stat=str(_require(record, "condStat", path)),
        subseq_ab_test=str(_require(record, "subseqAbTest", path)),
    )
    try:
        rule.condition  # eager grammar check -> position-annotated error
    except ConditionSyntaxError as exc:
        raise BlueprintSyntaxError(f"{path}: condStat: {exc}") from exc
    return rule


def _parse_class_condition(entry: Any, path: Path) -> ClassCondition:
    if isinstance(entry, dict):
        op = _require(entry, "op", path)
        value = _require(entry, "value", path)
    elif isinstance(entry, list) and len(entry) == 2:
        op, value = entry
    else:
        raise BlueprintFormatError(
            f"{path}: conditionalStatements entries must be"
            " {op, value} records"
        )
    if op not in CLASS_OPS:
        raise BlueprintFormatError(f"{path}: unknown class operator {op!r}")
    return ClassCondition(
        op=str(op), value=_integer(value, "conditionalStatements value", path)
    )


def parse_blueprints(bundle: str | Path) -> PipelineSpec:
    """Load and link a blueprint bundle into a :class:`PipelineSpec`.

    Raises :class:`BlueprintSyntaxError` for malformed files,
    :class:`UnresolvedReferenceError` when a listed element is missing
    and :class:`DuplicateNameError` when a name is defined twice.
    """
    bundle = Path(bundle)
    pipeline_path = bundle / "pipeline.json"
    if not pipeline_path.is_file():
        raise BlueprintError(f"{pipeline_path} not found")
    root = _load_json(pipeline_path)
    if not isinstance(root, dict):
        raise BlueprintFormatError(f"{pipeline_path}: expected a JSON object")

    experiments = _load_dir(bundle, "experiments")
    rules = _load_dir(bundle, "rules")
    splits = _load_dir(bundle, "splits")
    for name in experiments:
        for other, registry in (("rule", rules), ("split", splits)):
            if name in registry:
                raise DuplicateNameError(name, f"experiment and {other}")

    def pick_experiment(name: str, context: str) -> ABTestSpec:
        if name not in experiments:
            raise UnresolvedReferenceError(name, context)
        record, path = experiments[name]
        return _parse_experiment(record, path)

    def pick_rule(name: str, context: str) -> TransitionRule:
        if name not in rules:
            raise UnresolvedReferenceError(name, context)
        record, path = rules[name]
        return _parse_rule(record, path)

    sub_defs: dict[str, SubPipeline] = {}
    seen_tests: dict[str, ABTestSpec] = {}
    for entry in root.get("subPipelines", []):
        subpl_id = _require(entry, "id", pipeline_path)
        if subpl_id in sub_defs:
            raise DuplicateNameError(subpl_id, "subPipelines")
        sub_tests = []
        for name in _require(entry, "experiments", pipeline_path):
            test = pick_experiment(name, f"sub-pipeline {subpl_id}")
            seen_tests.setdefault(name, test)
            sub_tests.append(name)
        sub_rules = tuple(
            pick_rule(name, f"sub-pipeline {subpl_id}")
            for name in entry.get("transitionRules", [])
        )
        sub_defs[subpl_id] = SubPipeline(
            subpl_id=subpl_id,
            start=str(_require(entry, "startingComponent", pipeline_path)),
            ab_tests=tuple(sub_tests),
            trans_rules=sub_rules,
        )

    spec_tests: list[ABTestSpec] = []
    for name in root.get("experiments", []):
        test = pick_experiment(name, "pipeline experiments")
        if name in {t.name for t in spec_tests}:
            raise DuplicateNameError(name, "pipeline experiments")
        spec_tests.append(test)
    for name, test in seen_tests.items():
        if name not in {t.name for t in spec_tests}:
            spec_tests.append(test)

    spec_rules = tuple(
        pick_rule(name, "pipeline transitionRules")
        for name in root.get("transitionRules", [])
    )

    spec_splits = []
    for name in root.get("populationSplits", []):
        if name not in splits:
            raise UnresolvedReferenceError(name, "pipeline populationSplits")
        record, path = splits[name]
        sub_ids = _require(record, "pipelines", path)
        sub_pipelines = []
        for sub_id in sub_ids:
            if sub_id not in sub_defs:
                raise UnresolvedReferenceError(
                    sub_id, f"split {name} pipelines"
                )
            sub_pipelines.append(sub_defs[sub_id])
        component = _require(record, "splitComponent", path)
        spec_splits.append(
            PopulationSplitSpec(
                name=_require(record, "name", path),
                split_property=str(_require(record, "splitProperty", path)),
                sub_pipelines=tuple(sub_pipelines),
                cond_stats=tuple(
                    _parse_class_condition(entry, path)
                    for entry in _require(record, "conditionalStatements", path)
                ),
                next_component=str(_require(record, "nextComponent", path)),
                split_component=SplitComponent(
                    service_name=str(_require(component, "serviceName", path)),
                    image_name=str(_require(component, "imageName", path)),
                ),
            )
        )

    return PipelineSpec(
        name=str(_require(root, "name", pipeline_path)),
        ab_tests=tuple(spec_tests),
        trans_rules=spec_rules,
        pop_splits=tuple(spec_splits),
        start=str(_require(root, "startingComponent", pipeline_path)),
    )


# ---------------------------------------------------------------------------
# serialization


def _experiment_record(test: ABTestSpec) -> dict:
    return {
        "name": test.name,
        "expLength": test.exp_length,
        "abAssignment": list(test.ab_assignment),
        "hypothesis": {
            "metric": test.hypothesis.metric,
            "direction": test.hypothesis.direction,
            "alpha": test.hypothesis.alpha,
        },
        "abMetrics": list(test.ab_metrics),
        "statTest": test.stat_test,
        "variantA": test.variant_a,
        "variantB": test.variant_b,
    }


def _rule_record(rule: TransitionRule) -> dict:
    return {
        "name": rule.name,
        "assocAbTest": rule.assoc_ab_test,
        "condStat": rule.cond_stat,
        "subseqAbTest": rule.subseq_ab_test,
    }


def _split_record(split: PopulationSplitSpec) -> dict:
    return {
        "name": split.name,
        "splitProperty": split.split_property,
        "pipelines": [sub.subpl_id for sub in split.sub_pipelines],
        "conditionalStatements": [
            {"op": c.op, "value": c.value} for c in split.cond_stats
        ],
        "nextComponent": split.next_component,
        "splitComponent": {
            "serviceName": split.split_component.service_name,
            "imageName": split.split_component.image_name,
        },
    }


def _write_json(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def serialize_blueprints(spec: PipelineSpec, bundle: str | Path) -> None:
    """Write a pipeline spec as a blueprint bundle (inverse of parse)."""
    bundle = Path(bundle)
    sub_test_names = set()
    rule_names: dict[str, TransitionRule] = {r.name: r for r in spec.trans_rules}
    for split in spec.pop_splits:
        for sub in split.sub_pipelines:
            sub_test_names.update(sub.ab_tests)
            for rule in sub.trans_rules:
                rule_names[rule.name] = rule
    for test in spec.ab_tests:
        _write_json(bundle / "experiments" / f"{test.name}.json", _experiment_record(test))
    for rule in rule_names.values():
        _write_json(bundle / "rules" / f"{rule.name}.json", _rule_record(rule))
    for split in spec.pop_splits:
        _write_json(bundle / "splits" / f"{split.name}.json", _split_record(split))
    root = {
        "name": spec.name,
        "startingComponent": spec.start,
        "experiments": [
            t.name for t in spec.ab_tests if t.name not in sub_test_names
        ],
        "transitionRules": [r.name for r in spec.trans_rules],
        "populationSplits": [s.name for s in spec.pop_splits],
        "subPipelines": [
            {
                "id": sub.subpl_id,
                "startingComponent": sub.start,
                "experiments": list(sub.ab_tests),
                "transitionRules": [r.name for r in sub.trans_rules],
            }
            for split in spec.pop_splits
            for sub in split.sub_pipelines
        ],
    }
    _write_json(bundle / "pipeline.json", root)
