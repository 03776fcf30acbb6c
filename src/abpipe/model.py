"""Domain types for the A/B-testing pipeline algebra and static validation.

A pipeline is a set of A/B test definitions, transition rules that route
control between them based on statistical outcomes, and population
splits that fan out into parallel sub-pipelines. Everything here is
immutable after construction; semantic problems are reported by
:func:`validate` as data rather than raised, so a blueprint can be fully
linted in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable

from . import conditions
from .conditions import Condition, ConditionSyntaxError
from .stats import DIRECTIONS, STAT_TESTS

END = "end"


def is_end(name: str) -> bool:
    return isinstance(name, str) and name.lower() == END


# ---------------------------------------------------------------------------
# element types


@dataclass(frozen=True)
class Hypothesis:
    """Declarative hypothesis: metric, comparison direction, threshold."""

    metric: str
    direction: str
    alpha: float


@dataclass(frozen=True)
class ABTestSpec:
    name: str
    exp_length: int
    ab_assignment: tuple[float, float]
    hypothesis: Hypothesis
    ab_metrics: tuple[str, ...]
    stat_test: str
    variant_a: str
    variant_b: str


@dataclass(frozen=True)
class TransitionRule:
    name: str
    assoc_ab_test: str
    cond_stat: str
    subseq_ab_test: str

    @cached_property
    def condition(self) -> Condition:
        return conditions.parse_condition(self.cond_stat)


@dataclass(frozen=True)
class ClassCondition:
    """One split branch condition: operator against an integer class."""

    op: str
    value: int

    def matches(self, predicted_class: int) -> bool:
        return conditions.COMPARE[self.op](predicted_class, self.value)

    def render(self) -> str:
        return f"{self.op} {self.value}"


@dataclass(frozen=True)
class SubPipeline:
    subpl_id: str
    start: str
    ab_tests: tuple[str, ...]
    trans_rules: tuple[TransitionRule, ...]


@dataclass(frozen=True)
class SplitComponent:
    service_name: str
    image_name: str


@dataclass(frozen=True)
class PopulationSplitSpec:
    name: str
    split_property: str
    sub_pipelines: tuple[SubPipeline, ...]
    cond_stats: tuple[ClassCondition, ...]
    next_component: str
    split_component: SplitComponent


@dataclass(frozen=True)
class PipelineSpec:
    name: str
    ab_tests: tuple[ABTestSpec, ...]
    trans_rules: tuple[TransitionRule, ...]
    pop_splits: tuple[PopulationSplitSpec, ...]
    start: str

    def test(self, name: str) -> ABTestSpec:
        for t in self.ab_tests:
            if t.name == name:
                return t
        raise KeyError(name)

    def split(self, name: str) -> PopulationSplitSpec:
        for s in self.pop_splits:
            if s.name == name:
                return s
        raise KeyError(name)

    @cached_property
    def split_names(self) -> frozenset[str]:
        return frozenset(s.name for s in self.pop_splits)

    @cached_property
    def sub_pipeline_of(self) -> dict[str, str]:
        """Each test a split runs -> the id of its sub-pipeline (read-only)."""
        return {
            test: sub.subpl_id
            for split in self.pop_splits
            for sub in split.sub_pipelines
            for test in sub.ab_tests
        }

    @property
    def element_names(self) -> set[str]:
        return {t.name for t in self.ab_tests} | self.split_names


def canonicalize(spec: PipelineSpec) -> PipelineSpec:
    """Sort element collections by name for order-insensitive comparison."""
    splits = tuple(
        replace(
            s,
            sub_pipelines=tuple(
                sorted(
                    (
                        replace(
                            sp,
                            ab_tests=tuple(sorted(sp.ab_tests)),
                            trans_rules=tuple(
                                sorted(sp.trans_rules, key=lambda r: r.name)
                            ),
                        )
                        for sp in s.sub_pipelines
                    ),
                    key=lambda sp: sp.subpl_id,
                )
            ),
        )
        for s in sorted(spec.pop_splits, key=lambda s: s.name)
    )
    return replace(
        spec,
        ab_tests=tuple(sorted(spec.ab_tests, key=lambda t: t.name)),
        trans_rules=tuple(sorted(spec.trans_rules, key=lambda r: r.name)),
        pop_splits=splits,
    )


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    code: str
    element: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.element}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, element: str, message: str) -> None:
        self.violations.append(Violation(code, element, message))

    def __iter__(self):
        return iter(self.violations)

    def __str__(self) -> str:
        if self.ok:
            return "no violations"
        return "\n".join(str(v) for v in self.violations)


def _check_test(test: ABTestSpec, report: ValidationReport) -> None:
    frac = test.ab_assignment
    if len(frac) != 2 or any(
        not (0.0 <= f <= 1.0) for f in frac
    ) or not math.isclose(sum(frac), 1.0, abs_tol=1e-9):
        report.add(
            "bad-assignment-fractions",
            test.name,
            f"assignment fractions {frac} must be in [0,1] and sum to 1",
        )
    if test.exp_length < 1:
        report.add("bad-exp-length", test.name, f"exp_length {test.exp_length} < 1")
    hyp = test.hypothesis
    if not (0.0 < hyp.alpha < 1.0):
        report.add("bad-alpha", test.name, f"alpha {hyp.alpha} outside (0, 1)")
    if hyp.direction not in DIRECTIONS:
        report.add("unknown-direction", test.name, f"direction {hyp.direction!r}")
    if test.stat_test not in STAT_TESTS:
        report.add("unknown-stat-test", test.name, f"stat_test {test.stat_test!r}")
    if hyp.metric not in test.ab_metrics:
        report.add(
            "metric-not-collected",
            test.name,
            f"hypothesis metric {hyp.metric!r} not in ab_metrics {list(test.ab_metrics)}",
        )


def _check_rules(
    scope: str,
    rules: Iterable[TransitionRule],
    tests: set[str],
    targets: set[str],
    report: ValidationReport,
) -> None:
    parsed: dict[str, Condition] = {}
    for rule in rules:
        if rule.assoc_ab_test not in tests:
            report.add(
                "unresolved-reference",
                f"{scope}/{rule.name}",
                f"associated test {rule.assoc_ab_test!r} is not declared",
            )
        if not is_end(rule.subseq_ab_test) and rule.subseq_ab_test not in targets:
            report.add(
                "unresolved-reference",
                f"{scope}/{rule.name}",
                f"subsequent element {rule.subseq_ab_test!r} is not declared",
            )
        try:
            parsed[rule.name] = rule.condition
        except ConditionSyntaxError as exc:
            report.add("bad-condition", f"{scope}/{rule.name}", str(exc))
    by_assoc: dict[str, list[TransitionRule]] = {}
    for rule in rules:
        by_assoc.setdefault(rule.assoc_ab_test, []).append(rule)
    for assoc, group in by_assoc.items():
        for i, first in enumerate(group):
            for second in group[i + 1 :]:
                if first.name in parsed and second.name in parsed:
                    if conditions.conditions_overlap(
                        parsed[first.name], parsed[second.name]
                    ):
                        report.add(
                            "overlapping-rules",
                            f"{scope}/{assoc}",
                            f"rules {first.name!r} and {second.name!r} have"
                            " co-satisfiable conditions; outcome would depend"
                            " on declaration order",
                        )


def _check_split(
    split: PopulationSplitSpec,
    spec: PipelineSpec,
    catalog: dict[str, str] | None,
    report: ValidationReport,
) -> None:
    if len(split.sub_pipelines) != len(split.cond_stats) or len(split.sub_pipelines) < 2:
        report.add(
            "split-arity",
            split.name,
            f"{len(split.sub_pipelines)} sub-pipelines vs"
            f" {len(split.cond_stats)} conditions (need equal counts, >= 2)",
        )
    unknown = [c.op for c in split.cond_stats if c.op not in conditions.COMPARE]
    for op in unknown:
        report.add("unknown-class-operator", split.name, f"class operator {op!r}")
    # class-condition exclusivity over the inferred class domain
    if split.cond_stats and not unknown:
        max_value = max(c.value for c in split.cond_stats)
        for cls in range(0, max_value + 2):
            hits = [c for c in split.cond_stats if c.matches(cls)]
            if len(hits) > 1:
                report.add(
                    "non-exclusive-split-conditions",
                    split.name,
                    f"class {cls} satisfies {len(hits)} conditions"
                    f" ({', '.join(c.render() for c in hits)})",
                )
                break
    declared_tests = {t.name for t in spec.ab_tests}
    seen_tests: dict[str, str] = {}
    seen_components: dict[str, str] = {}
    for sub in split.sub_pipelines:
        if sub.start not in sub.ab_tests:
            report.add(
                "sub-pipeline-start",
                f"{split.name}/{sub.subpl_id}",
                f"start {sub.start!r} is not one of the sub-pipeline's tests",
            )
        for name in sub.ab_tests:
            if name not in declared_tests:
                report.add(
                    "unresolved-reference",
                    f"{split.name}/{sub.subpl_id}",
                    f"test {name!r} is not declared in the pipeline",
                )
                continue
            if name in seen_tests and seen_tests[name] != sub.subpl_id:
                report.add(
                    "interfering-sub-pipelines",
                    split.name,
                    f"test {name!r} appears in sub-pipelines"
                    f" {seen_tests[name]!r} and {sub.subpl_id!r}",
                )
            seen_tests[name] = sub.subpl_id
            test = spec.test(name)
            for variant in (test.variant_a, test.variant_b):
                component = (catalog or {}).get(variant, variant)
                if (
                    component in seen_components
                    and seen_components[component] != sub.subpl_id
                ):
                    report.add(
                        "interfering-sub-pipelines",
                        split.name,
                        f"component {component!r} is touched by sub-pipelines"
                        f" {seen_components[component]!r} and {sub.subpl_id!r}",
                    )
                seen_components[component] = sub.subpl_id
        _check_rules(
            f"{split.name}/{sub.subpl_id}",
            sub.trans_rules,
            set(sub.ab_tests),
            set(sub.ab_tests),
            report,
        )
        for rule in sub.trans_rules:
            if rule.subseq_ab_test in spec.split_names:
                report.add(
                    "nested-split",
                    f"{split.name}/{sub.subpl_id}/{rule.name}",
                    "population splits inside sub-pipelines are not supported",
                )
    if not is_end(split.next_component) and split.next_component not in spec.element_names:
        report.add(
            "unresolved-reference",
            split.name,
            f"nextComponent {split.next_component!r} is not declared",
        )


def validate(
    spec: PipelineSpec, catalog: dict[str, str] | None = None
) -> ValidationReport:
    """Static validation; an empty report means the pipeline is executable.

    ``catalog`` optionally maps variant ids to managed-system components
    so sub-pipeline interference can be checked at the component level;
    without it, variant ids themselves are compared.
    """
    report = ValidationReport()
    names: dict[str, str] = {}
    for kind, elems in (
        ("test", spec.ab_tests),
        ("split", spec.pop_splits),
    ):
        for elem in elems:
            name = elem.name
            if is_end(name):
                report.add("reserved-name", name, "'end' is the reserved End marker")
            if name in names:
                report.add(
                    "duplicate-name", name, f"declared as both {names[name]} and {kind}"
                )
            names[name] = kind
    for split in spec.pop_splits:
        for sub in split.sub_pipelines:
            if sub.subpl_id in names:
                report.add(
                    "duplicate-name",
                    sub.subpl_id,
                    f"declared as both {names[sub.subpl_id]} and sub-pipeline",
                )
            names[sub.subpl_id] = "sub-pipeline"

    for test in spec.ab_tests:
        _check_test(test, report)

    if not is_end(spec.start) and spec.start not in spec.element_names:
        report.add(
            "unresolved-reference",
            spec.name,
            f"start {spec.start!r} is not declared",
        )

    test_names = {t.name for t in spec.ab_tests}
    _check_rules(spec.name, spec.trans_rules, test_names, spec.element_names, report)

    for split in spec.pop_splits:
        _check_split(split, spec, catalog, report)

    if report.ok:
        graph = transition_graph(spec)
        if not graph.reaches("End", frm="Start"):
            report.add(
                "unreachable-end",
                spec.name,
                "no transition path from Start can reach End",
            )
        cycle = graph.cycle()
        if cycle is not None:
            report.add(
                "transition-cycle",
                spec.name,
                f"{' -> '.join(cycle)} re-enters {cycle[0]!r}; an element runs"
                " at most once per run",
            )
    return report


# ---------------------------------------------------------------------------
# transition graph

START_NODE = "Start"
END_NODE = "End"


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    label: str | None
    kind: str  # "start" | "rule" | "default" | "split-entry" | "split-exit"


@dataclass
class TransitionGraph:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    def out_edges(self, node: str) -> list[Edge]:
        return [e for e in self.edges if e.src == node]

    def reaches(self, goal: str, frm: str = START_NODE) -> bool:
        frontier = [frm]
        seen = {frm}
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            for edge in self.out_edges(node):
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    frontier.append(edge.dst)
        return False

    def cycle(self, frm: str = START_NODE) -> list[str] | None:
        """Nodes of a cycle reachable from ``frm``, first node repeated; else None."""
        stack = [(frm, iter(self.out_edges(frm)))]
        on_path, finished = {frm}, set()
        while stack:
            node, edges = stack[-1]
            edge = next(edges, None)
            if edge is None:
                stack.pop()
                on_path.discard(node)
                finished.add(node)
            elif edge.dst in on_path:
                path = [n for n, _ in stack]
                return path[path.index(edge.dst) :] + [edge.dst]
            elif edge.dst not in finished:
                stack.append((edge.dst, iter(self.out_edges(edge.dst))))
                on_path.add(edge.dst)
        return None


def _can_default(rules: list[TransitionRule]) -> bool:
    """Whether the implicit transition to End is dynamically possible."""
    try:
        conds = [r.condition for r in rules]
    except ConditionSyntaxError:
        return True
    return not conditions.covers_everything(conds)


def transition_graph(spec: PipelineSpec) -> TransitionGraph:
    """Directed control-flow graph of the pipeline.

    Rule edges carry their condition as label. Implicit edges (the start
    pointer, defaults to End, split fan-out and continuation) are
    unlabeled. Node order is lexicographic with Start first and End
    last for stable rendering.
    """
    edges: list[Edge] = []

    start_target = END_NODE if is_end(spec.start) else spec.start
    edges.append(Edge(START_NODE, start_target, None, "start"))

    for rule in spec.trans_rules:
        dst = END_NODE if is_end(rule.subseq_ab_test) else rule.subseq_ab_test
        edges.append(Edge(rule.assoc_ab_test, dst, rule.cond_stat, "rule"))

    root_tests = [t for t in spec.ab_tests if t.name not in spec.sub_pipeline_of]
    rules_by_assoc: dict[str, list[TransitionRule]] = {}
    for rule in spec.trans_rules:
        rules_by_assoc.setdefault(rule.assoc_ab_test, []).append(rule)
    for test in root_tests:
        if _can_default(rules_by_assoc.get(test.name, [])):
            edges.append(Edge(test.name, END_NODE, None, "default"))

    for split in spec.pop_splits:
        exit_target = (
            END_NODE if is_end(split.next_component) else split.next_component
        )
        for sub, cond in zip(split.sub_pipelines, split.cond_stats):
            edges.append(Edge(split.name, sub.start, cond.render(), "split-entry"))
            sub_rules: dict[str, list[TransitionRule]] = {}
            for rule in sub.trans_rules:
                sub_rules.setdefault(rule.assoc_ab_test, []).append(rule)
                dst = (
                    exit_target
                    if is_end(rule.subseq_ab_test)
                    else rule.subseq_ab_test
                )
                kind = "split-exit" if is_end(rule.subseq_ab_test) else "rule"
                edges.append(Edge(rule.assoc_ab_test, dst, rule.cond_stat, kind))
            for name in sub.ab_tests:
                if _can_default(sub_rules.get(name, [])):
                    edges.append(Edge(name, exit_target, None, "split-exit"))

    nodes = sorted(spec.element_names)
    node_order = (START_NODE, *nodes, END_NODE)
    edge_order = tuple(
        sorted(edges, key=lambda e: (e.src, e.dst, e.kind, e.label or ""))
    )
    return TransitionGraph(node_order, edge_order)
