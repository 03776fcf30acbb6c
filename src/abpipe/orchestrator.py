"""Managing system: automatic execution of A/B-testing pipelines.

A feedback loop drives the managed system through the pipeline: deploy
the current test, monitor metric batches, evaluate the hypothesis,
apply the first matching transition rule (declaration order, implicit
default to End), restore the deployment, continue. Population splits
fan out into one knowledge instance per sub-pipeline; sub-pipelines run
over disjoint user segments and rejoin at the split exit once all of
them have ended.

Execution strategy is pluggable: :class:`WebStoreRunner` drives the
simulated store arrival-by-arrival, while :class:`ScriptedRunner`
replays precomputed statistical outcomes tick-by-tick so control-flow
behavior can be checked against an independent interpreter.

The sub-pipelines of a split run in parallel in the traffic, not in
threads: they share one arrival stream, each arrival is routed to one
segment, and each chunk of arrivals is drained sub-pipeline by
sub-pipeline on the calling thread. Every draw is counter-based and each
sub-pipeline owns its tests' state, so results and summaries do not
depend on the drain order; only the order of trace events does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import classifier as clf
from .model import (
    ABTestSpec,
    PipelineSpec,
    PopulationSplitSpec,
    SubPipeline,
    TransitionRule,
    is_end,
    validate,
)
from .conditions import evaluate_condition
from .stats import (
    DEFAULT_BATCH_SIZE,
    StatResult,
    next_boundary,
    run_stat_test,
)
from .webstore import WebStore

EVENT_START = "start"
EVENT_DEPLOY = "deploy"
EVENT_BATCH = "batch_result"
EVENT_TRANSITION = "transition"
EVENT_SPLIT_ENTRY = "split_entry"
EVENT_SPLIT_EXIT = "split_exit"
EVENT_END = "end"


class OrchestratorError(RuntimeError):
    pass


class SpecInvalidError(OrchestratorError):
    pass


class UntrainedModelError(OrchestratorError):
    pass


class InstanceCollisionError(OrchestratorError):
    pass


class AlreadyRunningError(OrchestratorError):
    pass


class ContractViolationError(OrchestratorError):
    pass


class WriteOnceError(OrchestratorError):
    pass


# ---------------------------------------------------------------------------
# trace & knowledge


@dataclass(frozen=True)
class TraceEvent:
    instance: str
    event: str
    detail: dict
    requests_total: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "instance": self.instance,
                "event": self.event,
                "detail": self.detail,
                "requests_total": self.requests_total,
            },
            sort_keys=True,
        )


class ExecutionTrace:
    def __init__(self):
        self.events: list[TraceEvent] = []

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(event.to_json() + "\n")


class KnowledgeInstance:
    """Per-(sub-)pipeline runtime state inside the knowledge repository."""

    def __init__(self, instance_id: str, routing_config: tuple | None = None):
        self.instance_id = instance_id
        self.current_test: str | None = None
        self.routing_config = routing_config
        self.accumulators: dict = {}
        self.results: dict[str, StatResult] = {}

    def record_result(self, test_name: str, result: StatResult) -> None:
        if test_name in self.results:
            raise WriteOnceError(
                f"result for {test_name!r} already recorded on"
                f" {self.instance_id!r}"
            )
        self.results[test_name] = result


class KnowledgeRepository:
    """Holds knowledge instances; an id is unique while its instance lives."""

    def __init__(self):
        self._instances: dict[str, KnowledgeInstance] = {}

    def add_instance(
        self, instance_id: str, routing_config: tuple | None = None
    ) -> KnowledgeInstance:
        if instance_id in self._instances:
            raise InstanceCollisionError(
                f"knowledge instance {instance_id!r} already live"
            )
        instance = KnowledgeInstance(instance_id, routing_config)
        self._instances[instance_id] = instance
        return instance

    def remove_instance(self, instance_id: str) -> None:
        self._instances.pop(instance_id, None)

    def get(self, instance_id: str) -> KnowledgeInstance:
        return self._instances[instance_id]

    def has(self, instance_id: str) -> bool:
        return instance_id in self._instances

    @property
    def live_count(self) -> int:
        return len(self._instances)


# ---------------------------------------------------------------------------
# transition rules


def rule_applies(rule: TransitionRule, result: StatResult, ab_test: str) -> bool:
    """Whether a transition rule fires for a completed test's result."""
    return ab_test == rule.assoc_ab_test and evaluate_condition(
        rule.condition, result
    )


def next_element(
    rules: Iterable[TransitionRule], result: StatResult, ab_test: str
) -> tuple[str, TransitionRule | None]:
    """First matching rule in declaration order; End when none fires."""
    for rule in rules:
        if rule_applies(rule, result, ab_test):
            return rule.subseq_ab_test, rule
    return "end", None


def _terminal(result: StatResult, test: ABTestSpec) -> bool:
    return result.significant or result.requests_consumed >= test.exp_length


# ---------------------------------------------------------------------------
# split run statistics


@dataclass
class SplitRunStats:
    stream_total: int
    dispatched: dict[str, int]
    unrouted: int
    sub_stream_totals: dict[str, int]

    def fractions(self) -> dict[str, float]:
        if self.stream_total <= 0:
            return {name: 0.0 for name in self.dispatched}
        return {
            name: count / self.stream_total
            for name, count in self.dispatched.items()
        }


# ---------------------------------------------------------------------------
# sub-pipeline program (engine-side state machine)


class SubPipelineProgram:
    """Control flow of one sub-pipeline, advanced by a runner's batches."""

    def __init__(self, engine: "PipelineEngine", sub: SubPipeline):
        self.engine = engine
        self.sub = sub
        self.instance_id = sub.subpl_id
        self.current_test: ABTestSpec | None = engine.spec.test(sub.start)
        self.done = False

    def start(self) -> None:
        self.engine._trace(
            self.instance_id, EVENT_START, {"element": self.sub.start}
        )
        self.engine._deploy(self.instance_id, self.current_test)

    def on_batch(self, result: StatResult) -> None:
        if self.done or self.current_test is None:
            raise ContractViolationError(
                f"sub-pipeline {self.instance_id!r} fed after completion"
            )
        test = self.current_test
        self.engine._record_batch(self.instance_id, test, result)
        if not _terminal(result, test):
            return
        instance = self.engine.knowledge.get(self.instance_id)
        instance.record_result(test.name, result)
        self.engine._store_accumulators(instance, test)
        self.engine.runner.restore(self.instance_id, test)
        target, rule = next_element(self.sub.trans_rules, result, test.name)
        self.engine._trace(
            self.instance_id,
            EVENT_TRANSITION,
            {
                "from": test.name,
                "rule": rule.name if rule else None,
                "to": target,
            },
        )
        if is_end(target):
            instance.current_test = "end"
            self.current_test = None
            self.done = True
            self.engine._trace(self.instance_id, EVENT_END, {})
        else:
            self.current_test = self.engine.spec.test(target)
            self.engine._deploy(self.instance_id, self.current_test)


# ---------------------------------------------------------------------------
# runners


class ScriptedRunner:
    """Replays precomputed per-(instance, test) result sequences.

    Sub-pipelines advance round-robin in declaration order, one batch
    per tick. Used to check engine control flow against the reference
    interpreter without a managed system.
    """

    def __init__(self, scripts: dict[tuple[str, str], list[StatResult]]):
        self.scripts = scripts
        self.requests_total = 0
        self._positions: dict[tuple[str, str], int] = {}
        self._consumed: dict[tuple[str, str], int] = {}

    def check_variants(self, spec: PipelineSpec) -> None:
        pass

    def deploy(self, instance_id: str, test: ABTestSpec) -> None:
        pass

    def restore(self, instance_id: str, test: ABTestSpec) -> None:
        pass

    def deploy_split(self, split: PopulationSplitSpec) -> None:
        pass

    def undeploy_split(self, split: PopulationSplitSpec) -> None:
        pass

    def ensure_split_model(self, split: PopulationSplitSpec) -> None:
        pass

    def _feed_one(self, instance_id: str, test: ABTestSpec, on_batch) -> StatResult:
        key = (instance_id, test.name)
        position = self._positions.get(key, 0)
        script = self.scripts[key]
        if position >= len(script):
            raise ContractViolationError(
                f"script for {key} exhausted without a terminal result"
            )
        result = script[position]
        self._positions[key] = position + 1
        previous = self._consumed.get(key, 0)
        self.requests_total += result.requests_consumed - previous
        self._consumed[key] = result.requests_consumed
        on_batch(result)
        return result

    def run_test(self, instance_id: str, test: ABTestSpec, on_batch) -> StatResult:
        while True:
            result = self._feed_one(instance_id, test, on_batch)
            if _terminal(result, test):
                return result

    def run_split(
        self, split: PopulationSplitSpec, programs: list[SubPipelineProgram]
    ) -> SplitRunStats:
        base = self.requests_total
        while any(not p.done for p in programs):
            progressed = False
            for program in programs:
                if program.done:
                    continue
                test = program.current_test
                self._feed_one(program.instance_id, test, program.on_batch)
                progressed = True
            if not progressed:
                raise ContractViolationError("scripted split made no progress")
        return SplitRunStats(
            stream_total=self.requests_total - base,
            dispatched={p.instance_id: 0 for p in programs},
            unrouted=0,
            sub_stream_totals={p.instance_id: 0 for p in programs},
        )


class _SegmentFeed:
    """Buffered, stream-indexed traffic for one sub-pipeline."""

    def __init__(self):
        self.users: list[np.ndarray] = []
        self.indices: list[np.ndarray] = []
        self.count = 0

    def push(self, users: np.ndarray, indices: np.ndarray) -> None:
        if users.shape[0]:
            self.users.append(users)
            self.indices.append(indices)
            self.count += users.shape[0]

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        out_u: list[np.ndarray] = []
        out_i: list[np.ndarray] = []
        remaining = n
        while remaining > 0:
            head_u = self.users[0]
            if head_u.shape[0] <= remaining:
                out_u.append(self.users.pop(0))
                out_i.append(self.indices.pop(0))
                remaining -= head_u.shape[0]
            else:
                out_u.append(head_u[:remaining])
                out_i.append(self.indices[0][:remaining])
                self.users[0] = head_u[remaining:]
                self.indices[0] = self.indices[0][remaining:]
                remaining = 0
        self.count -= n
        return np.concatenate(out_u), np.concatenate(out_i)

    def clear(self) -> None:
        self.users.clear()
        self.indices.clear()
        self.count = 0


class WebStoreRunner:
    """Arrival-driven execution against the simulated web-store."""

    CHUNK = 4096  # arrivals drawn per split step; population rows per predict
    STARVATION_LIMIT = 20_000_000  # idle arrivals before a split is starved

    def __init__(
        self,
        store: WebStore,
        batch_size: int = DEFAULT_BATCH_SIZE,
        split_models: dict[str, clf.LinearModel] | None = None,
    ):
        self.store = store
        self.batch_size = batch_size
        self.split_models = dict(split_models or {})
        self.requests_total = 0

    # -- deployment hooks -----------------------------------------------------

    def check_variants(self, spec: PipelineSpec) -> None:
        for test in spec.ab_tests:
            self.store.component_of(test.variant_a)
            self.store.component_of(test.variant_b)

    def deploy(self, instance_id: str, test: ABTestSpec) -> None:
        self.store.deploy_ab_test(test)

    def restore(self, instance_id: str, test: ABTestSpec) -> None:
        self.store.restore_initial(test.name)

    def deploy_split(self, split: PopulationSplitSpec) -> None:
        self.store.deploy_split_component(split)

    def undeploy_split(self, split: PopulationSplitSpec) -> None:
        self.store.undeploy_split_component(split)

    def ensure_split_model(self, split: PopulationSplitSpec) -> clf.LinearModel:
        image = split.split_component.image_name
        model = self.split_models.get(image)
        if model is None:
            raise UntrainedModelError(
                f"no trained model loaded for split component image {image!r}"
            )
        return model

    def accumulator_refs(self, test_name: str) -> dict:
        return self.store.probe(test_name).accumulators

    # -- serving ----------------------------------------------------------------

    def _evaluate(self, test: ABTestSpec) -> StatResult:
        snap = self.store.probe(test.name)
        acc_a, acc_b = snap.pair(test.hypothesis.metric)
        return run_stat_test(
            test.stat_test,
            acc_a,
            acc_b,
            direction=test.hypothesis.direction,
            alpha=test.hypothesis.alpha,
            test_name=test.name,
            requests_consumed=snap.requests,
        )

    def run_test(self, instance_id: str, test: ABTestSpec, on_batch) -> StatResult:
        routed = self.store.probe(test.name).requests
        while True:
            boundary = next_boundary(routed, test.exp_length, self.batch_size)
            users = self.store.arrivals.next(boundary - routed)
            self.store.serve_chunk(test.name, users)
            self.requests_total += boundary - routed
            routed = boundary
            result = self._evaluate(test)
            on_batch(result)
            if _terminal(result, test):
                return result

    def _routing_table(
        self, split: PopulationSplitSpec, programs: list[SubPipelineProgram]
    ) -> np.ndarray:
        """Index of each population user's sub-pipeline; len(programs) if unrouted.

        The population is predicted in CHUNK-row blocks: one call on all
        of it would hold a float64 copy of every feature row at once.
        """
        model = self.ensure_split_model(split)
        features = self.store.population.features
        classes = np.concatenate(
            [
                model.predict(features[start : start + self.CHUNK])
                for start in range(0, features.shape[0], self.CHUNK)
            ]
        )
        by_id = {p.instance_id: i for i, p in enumerate(programs)}
        table = np.full(classes.shape[0], len(programs), dtype=np.intp)
        for cls in np.unique(classes):
            sub_id = clf.route_class(split, int(cls))
            if sub_id is not None:
                table[classes == cls] = by_id[sub_id]
        counts = np.bincount(table, minlength=len(programs) + 1)
        empty = [p.instance_id for i, p in enumerate(programs) if not counts[i]]
        if empty:
            raise OrchestratorError(
                f"split {split.name!r}: the model routes no user of the"
                f" population to sub-pipeline(s) {empty}"
            )
        return table

    def run_split(
        self, split: PopulationSplitSpec, programs: list[SubPipelineProgram]
    ) -> SplitRunStats:
        table = self._routing_table(split, programs)
        base = self.requests_total
        feeds = [_SegmentFeed() for _ in programs]
        dispatched = np.zeros(len(programs) + 1, dtype=np.int64)  # last = unrouted
        completion_pos: dict[str, int] = {}
        stream_pos = base
        idle_arrivals = 0

        def drain(program: SubPipelineProgram, feed: _SegmentFeed) -> int:
            """Serve buffered traffic for one sub-pipeline up to boundaries."""
            batches = 0
            while not program.done:
                test = program.current_test
                routed = self.store.probe(test.name).requests
                need = next_boundary(routed, test.exp_length, self.batch_size) - routed
                if feed.count < need:
                    break
                users, indices = feed.take(need)
                self.store.serve_chunk(test.name, users)
                batches += 1
                position = int(indices[-1]) + 1
                self.requests_total = max(self.requests_total, position)
                program.on_batch(self._evaluate(test))
                if program.done:
                    completion_pos[program.instance_id] = position
                    feed.clear()
            return batches

        while any(not p.done for p in programs):
            users = self.store.arrivals.next(self.CHUNK)
            n = users.shape[0]
            chunk_base = stream_pos
            indices = chunk_base + np.arange(n, dtype=np.int64)
            targets = table[users]
            batches_served = 0
            for i, program in enumerate(programs):
                if program.done:
                    continue
                mask = targets == i
                feeds[i].push(users[mask], indices[mask])
                batches_served += drain(program, feeds[i])

            if all(p.done for p in programs):
                final_pos = max(completion_pos.values())
                cutoff = final_pos - chunk_base
                if cutoff < n:
                    self.store.arrivals.push_back(users[cutoff:])
                effective = targets[: max(cutoff, 0)]
                stream_pos = final_pos
            else:
                effective = targets
                stream_pos = chunk_base + n
                idle_arrivals = 0 if batches_served else idle_arrivals + n
                if idle_arrivals > self.STARVATION_LIMIT:
                    raise OrchestratorError(
                        f"split {split.name!r} starved: no sub-pipeline"
                        f" progress in {idle_arrivals} arrivals"
                    )
            self.requests_total = stream_pos
            dispatched += np.bincount(effective, minlength=len(programs) + 1)

        return SplitRunStats(
            stream_total=stream_pos - base,
            dispatched={
                p.instance_id: int(dispatched[i]) for i, p in enumerate(programs)
            },
            unrouted=int(dispatched[-1]),
            sub_stream_totals={
                p.instance_id: completion_pos[p.instance_id] - base
                for p in programs
            },
        )


# ---------------------------------------------------------------------------
# the engine


class PipelineEngine:
    """Executes one pipeline spec against a runner."""

    def __init__(
        self,
        spec: PipelineSpec,
        runner,
        knowledge: KnowledgeRepository | None = None,
        catalog: dict[str, str] | None = None,
        observer: Callable[[TraceEvent, KnowledgeRepository], None] | None = None,
    ):
        self.spec = spec
        self.runner = runner
        self.knowledge = knowledge if knowledge is not None else KnowledgeRepository()
        self.catalog = catalog
        self.observer = observer
        self.trace = ExecutionTrace()
        self.results: dict[str, StatResult] = {}
        self.batch_results: dict[str, list[StatResult]] = {}
        self.split_stats: dict[str, SplitRunStats] = {}
        self.root_instance: KnowledgeInstance | None = None
        self._initiated = False
        self._first_deployed = False

    # -- trace helpers ------------------------------------------------------

    def _trace(self, instance: str, event: str, detail: dict) -> None:
        event_obj = TraceEvent(instance, event, detail, self.runner.requests_total)
        self.trace.append(event_obj)
        if self.observer is not None:
            self.observer(event_obj, self.knowledge)

    def _qualified(self, instance_id: str, test_name: str) -> str:
        if instance_id == self.spec.name:
            return test_name
        return f"{instance_id}/{test_name}"

    def _record_batch(
        self, instance_id: str, test: ABTestSpec, result: StatResult
    ) -> None:
        self.batch_results.setdefault(
            self._qualified(instance_id, test.name), []
        ).append(result)
        self._trace(
            instance_id,
            EVENT_BATCH,
            {
                "test": test.name,
                "requests": result.requests_consumed,
                "p_value": result.p_value,
                "significant": result.significant,
            },
        )

    # -- deployment -------------------------------------------------------------

    def _deploy(self, instance_id: str, test: ABTestSpec) -> None:
        self.runner.deploy(instance_id, test)
        self.knowledge.get(instance_id).current_test = test.name
        self._trace(instance_id, EVENT_DEPLOY, {"test": test.name})

    def _store_accumulators(self, instance: KnowledgeInstance, test: ABTestSpec):
        refs = getattr(self.runner, "accumulator_refs", None)
        if refs is not None:
            instance.accumulators[test.name] = refs(test.name)

    # -- setup (operator flow) -----------------------------------------------

    def setup_and_initiate(self) -> KnowledgeInstance:
        """Load the workflow, create root knowledge, deploy the first test."""
        if self._initiated:
            raise AlreadyRunningError(f"pipeline {self.spec.name!r} already initiated")
        report = validate(self.spec, self.catalog)
        if not report.ok:
            raise SpecInvalidError(str(report))
        # atomic precondition: every referenced variant must exist before
        # anything deploys
        self.runner.check_variants(self.spec)
        self.root_instance = self.knowledge.add_instance(self.spec.name)
        self._initiated = True
        self._trace(self.spec.name, EVENT_START, {"element": self.spec.start})
        if not is_end(self.spec.start) and self.spec.start not in {
            s.name for s in self.spec.pop_splits
        }:
            self._deploy(self.spec.name, self.spec.test(self.spec.start))
            self._first_deployed = True
        return self.root_instance

    # -- main loop (pipeline execution) ---------------------------------------

    def run(self) -> tuple[ExecutionTrace, dict[str, StatResult]]:
        if not self._initiated:
            self.setup_and_initiate()
        root_id = self.spec.name
        split_names = {s.name for s in self.spec.pop_splits}
        current = self.spec.start
        first = True
        while not is_end(current):
            if current in split_names:
                split = self.spec.split(current)
                self._run_split(split)
                current = split.next_component
                first = False
                continue
            test = self.spec.test(current)
            if not (first and self._first_deployed):
                self._deploy(root_id, test)
            first = False
            result = self.runner.run_test(
                root_id, test, lambda r, t=test: self._record_batch(root_id, t, r)
            )
            self.root_instance.record_result(test.name, result)
            self.results[test.name] = result
            self._store_accumulators(self.root_instance, test)
            self.runner.restore(root_id, test)
            target, rule = next_element(self.spec.trans_rules, result, test.name)
            self._trace(
                root_id,
                EVENT_TRANSITION,
                {
                    "from": test.name,
                    "rule": rule.name if rule else None,
                    "to": target,
                },
            )
            current = target
        self.root_instance.current_test = "end"
        self._trace(root_id, EVENT_END, {"notified": True})
        self.knowledge.remove_instance(root_id)
        return self.trace, dict(self.results)

    # -- population split ------------------------------------------------------

    def execute_split_entry(
        self, split: PopulationSplitSpec
    ) -> list[SubPipelineProgram]:
        """Create per-sub-pipeline knowledge, deploy the split, start subs."""
        self.runner.ensure_split_model(split)
        for sub in split.sub_pipelines:
            if self.knowledge.has(sub.subpl_id):
                raise InstanceCollisionError(
                    f"sub-pipeline instance {sub.subpl_id!r} already live"
                )
        for sub, cond in zip(split.sub_pipelines, split.cond_stats):
            self.knowledge.add_instance(
                sub.subpl_id, routing_config=(split.split_property, cond)
            )
        self._trace(
            self.spec.name,
            EVENT_SPLIT_ENTRY,
            {
                "split": split.name,
                "sub_pipelines": [s.subpl_id for s in split.sub_pipelines],
            },
        )
        self.runner.deploy_split(split)
        programs = [SubPipelineProgram(self, sub) for sub in split.sub_pipelines]
        for program in programs:
            program.start()
        return programs

    def execute_split_exit(
        self, split: PopulationSplitSpec, programs: list[SubPipelineProgram]
    ) -> None:
        """Fold sub-pipeline results into the root and remove instances."""
        live = [p.instance_id for p in programs if not p.done]
        if live:
            raise ContractViolationError(
                f"split exit invoked with live sub-pipelines: {live}"
            )
        for sub in split.sub_pipelines:
            instance = self.knowledge.get(sub.subpl_id)
            for test_name, result in instance.results.items():
                self.results[f"{sub.subpl_id}/{test_name}"] = result
            self.knowledge.remove_instance(sub.subpl_id)
        self.runner.undeploy_split(split)
        self._trace(
            self.spec.name,
            EVENT_SPLIT_EXIT,
            {"split": split.name, "next": split.next_component},
        )

    def _run_split(self, split: PopulationSplitSpec) -> None:
        programs = self.execute_split_entry(split)
        stats = self.runner.run_split(split, programs)
        self.split_stats[split.name] = stats
        self.execute_split_exit(split, programs)


def execute_pipeline(
    spec: PipelineSpec,
    runner,
    knowledge: KnowledgeRepository | None = None,
    catalog: dict[str, str] | None = None,
) -> tuple[ExecutionTrace, dict[str, StatResult]]:
    """Set up and run a pipeline to End; returns (trace, results map)."""
    engine = PipelineEngine(spec, runner, knowledge=knowledge, catalog=catalog)
    return engine.run()
