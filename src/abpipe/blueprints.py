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
import re
from pathlib import Path
from typing import Any

from .conditions import COMPARE, ConditionSyntaxError
from .model import (
    ABTestSpec,
    ClassCondition,
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
    except UnicodeDecodeError as exc:
        raise BlueprintSyntaxError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from exc
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


def _typed(value: Any, kind: type, field: str, path: Path) -> Any:
    if not isinstance(value, kind):
        noun = {str: "a string", dict: "an object"}[kind]
        raise BlueprintFormatError(f"{path}: {field} must be {noun}, got {value!r}")
    if kind is str and re.search("[\ud800-\udfff]", value):  # lone surrogates
        raise BlueprintFormatError(f"{path}: {field} must encode as UTF-8, got {value!r}")
    return value


def _string(record: dict, key: str, path: Path, field: str | None = None) -> str:
    """The required string ``record[key]``; ``field`` names it in errors."""
    return _typed(_require(record, key, path), str, field or key, path)


def _list(value: Any, field: str, path: Path, kind: type = object) -> list:
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        of = {str: " of strings", dict: " of objects"}.get(kind, "")
        raise BlueprintFormatError(
            f"{path}: {field} must be a list{of}, got {value!r}"
        )
    return value


def _load_dir(bundle: Path, sub: str) -> dict[str, tuple[dict, Path]]:
    registry: dict[str, tuple[dict, Path]] = {}
    directory = bundle / sub
    if not directory.is_dir():
        return registry
    for path in sorted(directory.glob("*.json")):
        record = _load_json(path)
        if not isinstance(record, dict):
            raise BlueprintFormatError(f"{path}: expected a JSON object")
        name = _string(record, "name", path)
        if name in registry:
            raise DuplicateNameError(name, f"{registry[name][1]} and {path}")
        registry[name] = (record, path)
    return registry


def _parse_experiment(record: dict, path: Path) -> ABTestSpec:
    hyp = _typed(_require(record, "hypothesis", path), dict, "hypothesis", path)
    assignment = _require(record, "abAssignment", path)
    if not isinstance(assignment, list) or len(assignment) != 2:
        raise BlueprintFormatError(
            f"{path}: abAssignment must be a two-element list"
        )
    metrics = _list(_require(record, "abMetrics", path), "abMetrics", path, str)
    return ABTestSpec(
        name=_require(record, "name", path),
        exp_length=_integer(_require(record, "expLength", path), "expLength", path),
        ab_assignment=tuple(_number(a, "abAssignment", path) for a in assignment),
        hypothesis=Hypothesis(
            metric=_string(hyp, "metric", path, "hypothesis.metric"),
            direction=_string(hyp, "direction", path, "hypothesis.direction"),
            alpha=_number(_require(hyp, "alpha", path), "hypothesis.alpha", path),
        ),
        ab_metrics=tuple(metrics),
        stat_test=_string(record, "statTest", path),
        variant_a=_string(record, "variantA", path),
        variant_b=_string(record, "variantB", path),
    )


def _parse_rule(record: dict, path: Path) -> TransitionRule:
    rule = TransitionRule(
        name=_require(record, "name", path),
        assoc_ab_test=_string(record, "assocAbTest", path),
        cond_stat=_string(record, "condStat", path),
        subseq_ab_test=_string(record, "subseqAbTest", path),
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
    if not (isinstance(op, str) and op in COMPARE):
        raise BlueprintFormatError(f"{path}: unknown class operator {op!r}")
    return ClassCondition(
        op=op, value=_integer(value, "conditionalStatements value", path)
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
    entries = _list(root.get("subPipelines", []), "subPipelines", pipeline_path, dict)
    for index, entry in enumerate(entries):
        field = f"subPipelines[{index}]"
        subpl_id = _string(entry, "id", pipeline_path, f"{field}.id")
        if subpl_id in sub_defs:
            raise DuplicateNameError(subpl_id, "subPipelines")
        sub_tests = []
        for name in _list(
            _require(entry, "experiments", pipeline_path),
            f"{field}.experiments",
            pipeline_path,
            str,
        ):
            test = pick_experiment(name, f"sub-pipeline {subpl_id}")
            seen_tests.setdefault(name, test)
            sub_tests.append(name)
        sub_rules = tuple(
            pick_rule(name, f"sub-pipeline {subpl_id}")
            for name in _list(
                entry.get("transitionRules", []),
                f"{field}.transitionRules",
                pipeline_path,
                str,
            )
        )
        sub_defs[subpl_id] = SubPipeline(
            subpl_id=subpl_id,
            start=_string(
                entry, "startingComponent", pipeline_path, f"{field}.startingComponent"
            ),
            ab_tests=tuple(sub_tests),
            trans_rules=sub_rules,
        )

    spec_tests: list[ABTestSpec] = []
    for name in _list(root.get("experiments", []), "experiments", pipeline_path, str):
        test = pick_experiment(name, "pipeline experiments")
        if name in {t.name for t in spec_tests}:
            raise DuplicateNameError(name, "pipeline experiments")
        spec_tests.append(test)
    for name, test in seen_tests.items():
        if name not in {t.name for t in spec_tests}:
            spec_tests.append(test)

    spec_rules = tuple(
        pick_rule(name, "pipeline transitionRules")
        for name in _list(
            root.get("transitionRules", []), "transitionRules", pipeline_path, str
        )
    )

    spec_splits = []
    for name in _list(
        root.get("populationSplits", []), "populationSplits", pipeline_path, str
    ):
        if name not in splits:
            raise UnresolvedReferenceError(name, "pipeline populationSplits")
        record, path = splits[name]
        sub_ids = _list(_require(record, "pipelines", path), "pipelines", path, str)
        sub_pipelines = []
        for sub_id in sub_ids:
            if sub_id not in sub_defs:
                raise UnresolvedReferenceError(
                    sub_id, f"split {name} pipelines"
                )
            sub_pipelines.append(sub_defs[sub_id])
        component = _typed(
            _require(record, "splitComponent", path), dict, "splitComponent", path
        )
        spec_splits.append(
            PopulationSplitSpec(
                name=_require(record, "name", path),
                split_property=_string(record, "splitProperty", path),
                sub_pipelines=tuple(sub_pipelines),
                cond_stats=tuple(
                    _parse_class_condition(entry, path)
                    for entry in _list(
                        _require(record, "conditionalStatements", path),
                        "conditionalStatements",
                        path,
                    )
                ),
                next_component=_string(record, "nextComponent", path),
                split_component=SplitComponent(
                    service_name=_string(
                        component, "serviceName", path, "splitComponent.serviceName"
                    ),
                    image_name=_string(
                        component, "imageName", path, "splitComponent.imageName"
                    ),
                ),
            )
        )

    return PipelineSpec(
        name=_string(root, "name", pipeline_path),
        ab_tests=tuple(spec_tests),
        trans_rules=spec_rules,
        pop_splits=tuple(spec_splits),
        start=_string(root, "startingComponent", pipeline_path),
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


def _write_records(directory: Path, records: list[dict]) -> None:
    """One file per record, named after it; a name that is no plain file name
    (``/``, ``..``) is replaced by its position and ``~``, which no plain name holds."""
    for index, record in enumerate(records):
        name = record["name"]
        if not re.fullmatch(r"[A-Za-z0-9_-]{1,100}", name):
            name = f"{index:03d}~{re.sub(r'[^A-Za-z0-9_-]', '_', name)[:64]}"
        _write_json(directory / f"{name}.json", record)


def serialize_blueprints(spec: PipelineSpec, bundle: str | Path) -> None:
    """Write a pipeline spec as a blueprint bundle (inverse of parse)."""
    bundle = Path(bundle)
    rule_names: dict[str, TransitionRule] = {r.name: r for r in spec.trans_rules}
    for split in spec.pop_splits:
        for sub in split.sub_pipelines:
            for rule in sub.trans_rules:
                rule_names[rule.name] = rule
    _write_records(bundle / "experiments", [_experiment_record(t) for t in spec.ab_tests])
    _write_records(bundle / "rules", [_rule_record(r) for r in rule_names.values()])
    _write_records(bundle / "splits", [_split_record(s) for s in spec.pop_splits])
    root = {
        "name": spec.name,
        "startingComponent": spec.start,
        "experiments": [
            t.name for t in spec.ab_tests if t.name not in spec.sub_pipeline_of
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
