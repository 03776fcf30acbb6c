"""Managing system: automatic execution of A/B-testing pipelines.

A feedback loop drives the managed system through the pipeline: deploy
the current test, monitor metric batches, evaluate the hypothesis,
apply the first matching transition rule (declaration order, implicit
default to End), restore the deployment, continue. One state machine,
:class:`Program`, runs that loop: the root's tests between population
splits run as one program, and each sub-pipeline of a split as another.
The knowledge repository holds the id of each live (sub-)pipeline: the
root's from set-up to End, and one per sub-pipeline of a population
split from its entry to its exit. Sub-pipelines run over disjoint user
segments and rejoin at the split exit once all of them have ended.

:class:`WebStoreRunner` drives the simulated store, with one serving
loop for root segments and split branches alike. It draws the shared
arrival stream in chunks, routes each arrival to one program (a root
segment has one program that takes every arrival), serves each program's
queue up to the last look it reaches in one block, holds what is left in
one array per program, and pushes the unconsumed tail back once every
program is done, so the consumed prefix does not depend on the chunk
size. The runner only draws, routes and serves arrivals; each program
runs its own looks. It lists where the looks its queue reaches end, adds
each look's slice of the block to its own accumulators, evaluates the
hypothesis and applies the stopping rule; after a terminal look the rest
of the queue goes to its next test. The store keeps no statistics. Every
draw is counter-based, so a block's samples equal those of serving it
look by look, and each program owns its tests' state, so results and
summaries do not depend on the chunk size or on the order in which a
chunk is drained; only the order of trace events does.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import classifier as clf
from .model import (
    ABTestSpec,
    PipelineSpec,
    PopulationSplitSpec,
    TransitionRule,
    is_end,
    validate,
)
from .stats import (
    DEFAULT_BATCH_SIZE,
    MetricAccumulator,
    StatResult,
    is_terminal,
    next_boundary,
    run_stat_test,
)
from .webstore import WebStore, check_deployable

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
        return json.dumps(vars(self), sort_keys=True)


class ExecutionTrace:
    def __init__(self):
        self.events: list[TraceEvent] = []

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __iter__(self):
        return iter(self.events)

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(event.to_json() + "\n")


class KnowledgeRepository:
    """Ids of the live (sub-)pipeline instances; an id is unique while live."""

    def __init__(self):
        self._live: set[str] = set()

    def add_instances(self, instance_ids: list[str]) -> None:
        """Add every id or, if one is already live, none of them."""
        taken = self._live.intersection(instance_ids)
        if taken:
            raise InstanceCollisionError(
                f"knowledge instance(s) {sorted(taken)} already live"
            )
        self._live.update(instance_ids)

    def remove_instance(self, instance_id: str) -> None:
        self._live.discard(instance_id)

    def has(self, instance_id: str) -> bool:
        return instance_id in self._live

    @property
    def live_count(self) -> int:
        return len(self._live)


# ---------------------------------------------------------------------------
# transition rules


def next_element(
    rules: Iterable[TransitionRule], result: StatResult, ab_test: str
) -> tuple[str, TransitionRule | None]:
    """First matching rule in declaration order; End when none fires."""
    for rule in rules:
        if rule.assoc_ab_test == ab_test and rule.condition.evaluate(result):
            return rule.subseq_ab_test, rule
    return "end", None


# ---------------------------------------------------------------------------
# split run statistics


@dataclass
class SplitRunStats:
    stream_total: int
    dispatched: dict[str, int]
    unrouted: int
    sub_stream_totals: dict[str, int]
    # wall time of deploying the split component: building the routing table
    deploy_ms: float = field(default=0.0, compare=False)

    def fractions(self) -> dict[str, float]:
        if self.stream_total <= 0:
            return {name: 0.0 for name in self.dispatched}
        return {
            name: count / self.stream_total
            for name, count in self.dispatched.items()
        }


# ---------------------------------------------------------------------------
# program (engine-side state machine)


class Program:
    """Control flow of one run of tests, advanced look by look.

    A program deploys its start test and runs its looks: it lists where
    the looks a queue of requests reaches end (:meth:`look_ends`), and
    :meth:`look` adds one look's slice of a served block to the test's
    statistics and evaluates the hypothesis. On each terminal result it
    has the engine record it, restores the deployment and fires the
    first matching transition rule. It is done when a rule leads to End
    or to a population split; ``next`` then names that element.
    ``consumed`` is the count of requests the current test has looked at
    so far; ``acc_a`` and ``acc_b`` hold its hypothesis metric per
    variant.
    """

    def __init__(
        self,
        engine: "PipelineEngine",
        instance_id: str,
        start: str,
        rules: tuple[TransitionRule, ...],
    ):
        self.engine = engine
        self.instance_id = instance_id
        self.rules = rules
        self.done = False
        self.next: str | None = None
        self._deploy(start)

    def _deploy(self, test_name: str) -> None:
        self.current_test: ABTestSpec | None = self.engine.spec.test(test_name)
        self.consumed = 0
        self.acc_a = MetricAccumulator()
        self.acc_b = MetricAccumulator()
        self.engine.runner.deploy(self.current_test)
        self.engine._trace(self.instance_id, EVENT_DEPLOY, {"test": test_name})

    def look_ends(self, available: int, batch_size: int) -> list[int]:
        """Ends of the current test's looks that ``available`` more requests reach.

        Each end counts requests from the test's current count, so the
        last one is how many of them a block serving those looks takes.
        """
        length = self.current_test.exp_length
        ends: list[int] = []
        at = self.consumed
        while at < length:
            at = next_boundary(at, length, batch_size)
            if at - self.consumed > available:
                break
            ends.append(at - self.consumed)
        return ends

    def look(self, served: dict, block: slice, requests_consumed: int) -> bool:
        """Add the hypothesis samples of ``served[block]`` and look.

        Returns whether the look was terminal.
        """
        test = self.current_test
        values = served["samples"][test.hypothesis.metric][block]
        is_a = served["is_a"][block]
        self.acc_a.add_many(values[is_a])
        self.acc_b.add_many(values[~is_a])
        return self.on_batch(
            run_stat_test(
                test.stat_test,
                self.acc_a,
                self.acc_b,
                direction=test.hypothesis.direction,
                alpha=test.hypothesis.alpha,
                requests_consumed=requests_consumed,
            )
        )

    def on_batch(self, result: StatResult) -> bool:
        """Record a look's result; True if it was terminal."""
        if self.done:
            raise ContractViolationError(
                f"program {self.instance_id!r} fed after completion"
            )
        test = self.current_test
        self.consumed = result.requests_consumed
        self.engine._record_batch(self.instance_id, test, result)
        if not is_terminal(result, test):
            return False
        self.engine._record_result(self.instance_id, test.name, result)
        self.engine.runner.restore(test)
        target, rule = next_element(self.rules, result, test.name)
        self.engine._trace(
            self.instance_id,
            EVENT_TRANSITION,
            {
                "from": test.name,
                "rule": rule.name if rule else None,
                "to": target,
            },
        )
        if not (is_end(target) or target in self.engine.spec.split_names):
            self._deploy(target)
            return True
        self.current_test = None
        self.done = True
        self.next = target
        if is_end(target) and self.instance_id != self.engine.spec.name:
            self.engine._trace(self.instance_id, EVENT_END, {})  # the engine ends the root
        return True


# ---------------------------------------------------------------------------
# runner


class WebStoreRunner:
    """Arrival-driven execution against the simulated web-store."""

    CHUNK = 4096  # arrivals drawn per serving step
    STARVATION_LIMIT = 20_000_000  # idle arrivals before the programs are starved

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

    def check_deployable(self, spec: PipelineSpec) -> None:
        for test in spec.ab_tests:
            check_deployable(test, self.store.catalog, self.store.config)

    def deploy(self, test: ABTestSpec) -> None:
        self.store.deploy_ab_test(test)

    def restore(self, test: ABTestSpec) -> None:
        self.store.restore_initial(test.name)

    def ensure_split_model(self, split: PopulationSplitSpec) -> clf.LinearModel:
        image = split.split_component.image_name
        model = self.split_models.get(image)
        if model is None:
            raise UntrainedModelError(
                f"no trained model loaded for split component image {image!r}"
            )
        return model

    # -- serving ----------------------------------------------------------------

    def _routing_table(
        self, split: PopulationSplitSpec, programs: list[Program]
    ) -> np.ndarray:
        """Index of each population user's sub-pipeline; len(programs) if unrouted.

        Predicts PREDICT_BLOCK-row blocks, not one float64 copy of every row,
        routes each class up to the largest predicted once into ``route``, and
        gathers ``route[classes]`` in the smallest type that holds len(programs).
        """
        model = self.ensure_split_model(split)
        features = self.store.population.features
        classes = np.concatenate(
            [
                model.predict(features[start : start + clf.PREDICT_BLOCK])
                for start in range(0, features.shape[0], clf.PREDICT_BLOCK)
            ]
        )
        by_id = {p.instance_id: i for i, p in enumerate(programs)}
        route = np.full(
            int(classes.max()) + 1, len(programs), dtype=np.min_scalar_type(len(programs))
        )
        for cls in range(route.shape[0]):
            sub_id = clf.route_class(split, cls)
            if sub_id is not None:
                route[cls] = by_id[sub_id]
        table = route[classes]
        counts = np.bincount(table, minlength=len(programs) + 1)
        empty = [p.instance_id for i, p in enumerate(programs) if not counts[i]]
        if empty:
            raise OrchestratorError(
                f"split {split.name!r}: the model routes no user of the"
                f" population to sub-pipeline(s) {empty}"
            )
        return table

    def run_test(self, program: Program) -> None:
        """Serve a root segment: every arrival goes to its one program."""
        self._serve([program], np.zeros(self.store.population.size, dtype=np.uint8))

    def run_split(
        self, split: PopulationSplitSpec, programs: list[Program]
    ) -> SplitRunStats:
        started = time.perf_counter()
        table = self._routing_table(split, programs)
        deploy_ms = (time.perf_counter() - started) * 1e3
        stats = self._serve(programs, table)
        stats.deploy_ms = deploy_ms
        return stats

    def _serve(self, programs: list[Program], table: np.ndarray) -> SplitRunStats:
        """Run ``programs`` to completion on arrivals routed by ``table``.

        ``table[user]`` is the index of the program that serves the
        user, or ``len(programs)`` if none does. Arrivals are drawn in
        CHUNK-sized blocks. Each program serves its routed queue up to
        the last look the queue reaches in one ``serve_chunk`` call and
        runs those looks in order on slices of the block. A terminal
        look ends the block: its test is restored, so the draws past it
        are never read, and the rest of the queue goes to the next test.
        What no look reaches stays in one ``pending`` array, and the tail
        after the last program completes is pushed back onto the stream.

        A look is stamped with the stream position just after its last
        user, and that user always lies in the current chunk: when a
        chunk arrives, the users a program still holds are fewer than
        its next look needs. So only the current chunk's positions are
        kept.
        """
        base = self.requests_total
        pending = [np.empty(0, dtype=np.int64)] * len(programs)
        dispatched = [0] * len(programs)
        completion_pos: dict[str, int] = {}
        stream_pos = base
        idle_arrivals = 0

        while any(not p.done for p in programs):
            users = self.store.arrivals.next(self.CHUNK)
            n = users.shape[0]
            chunk_base = stream_pos
            targets = table[users]
            batches_served = 0
            for i, program in enumerate(programs):
                if program.done:
                    continue
                positions = np.flatnonzero(targets == i)
                held = pending[i].shape[0]
                queue = np.concatenate((pending[i], users[positions]))
                taken = 0
                while not program.done:
                    ends = program.look_ends(queue.shape[0] - taken, self.batch_size)
                    if not ends:
                        break
                    name = program.current_test.name
                    first = self.store.probe(name)
                    served = self.store.serve_chunk(name, queue[taken : taken + ends[-1]])
                    batches_served += 1
                    start = 0
                    for end in ends:
                        position = chunk_base + int(positions[taken + end - held - 1]) + 1
                        self.requests_total = max(self.requests_total, position)
                        terminal = program.look(served, slice(start, end), first + end)
                        start = end
                        if terminal:
                            break
                    taken += start
                    if program.done:
                        completion_pos[program.instance_id] = position
                pending[i] = queue[taken:]

            if all(p.done for p in programs):
                final_pos = max(completion_pos.values())
                cutoff = final_pos - chunk_base
                if cutoff < n:
                    self.store.arrivals.push_back(users[cutoff:])
                effective = targets[:cutoff]
                stream_pos = final_pos
            else:
                effective = targets
                stream_pos = chunk_base + n
                idle_arrivals = 0 if batches_served else idle_arrivals + n
                if idle_arrivals > self.STARVATION_LIMIT:
                    live = [p.instance_id for p in programs if not p.done]
                    raise OrchestratorError(
                        f"pipeline(s) {live} starved: no batch served in"
                        f" {idle_arrivals} arrivals"
                    )
            self.requests_total = stream_pos
            for i in range(len(programs)):
                dispatched[i] += int(np.count_nonzero(effective == i))

        return SplitRunStats(
            stream_total=stream_pos - base,
            dispatched={
                p.instance_id: dispatched[i] for i, p in enumerate(programs)
            },
            unrouted=stream_pos - base - sum(dispatched),
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
        self._initiated = False
        self._program: Program | None = None

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

    def _record_result(
        self, instance_id: str, test_name: str, result: StatResult
    ) -> None:
        qualified = self._qualified(instance_id, test_name)
        if qualified in self.results:
            raise WriteOnceError(f"result for {qualified!r} already recorded")
        self.results[qualified] = result

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

    def _root_program(self, element: str) -> Program | None:
        """The root's tests from ``element`` on; None at a split or End."""
        if is_end(element) or element in self.spec.split_names:
            return None
        return Program(self, self.spec.name, element, self.spec.trans_rules)

    # -- setup (operator flow) -----------------------------------------------

    def setup_and_initiate(self) -> None:
        """Load the workflow, add the root's instance, deploy the first test."""
        if self._initiated:
            raise AlreadyRunningError(f"pipeline {self.spec.name!r} already initiated")
        report = validate(self.spec, self.catalog)
        if not report.ok:
            raise SpecInvalidError(str(report))
        # atomic precondition: every test's variants and metrics must be
        # deployable before anything deploys
        self.runner.check_deployable(self.spec)
        self.knowledge.add_instances([self.spec.name])
        self._initiated = True
        self._trace(self.spec.name, EVENT_START, {"element": self.spec.start})
        self._program = self._root_program(self.spec.start)

    # -- main loop (pipeline execution) ---------------------------------------

    def run(self) -> tuple[ExecutionTrace, dict[str, StatResult]]:
        if not self._initiated:
            self.setup_and_initiate()
        root_id = self.spec.name
        # a program refers back to the engine; holding on to it would make
        # a cycle that keeps the run's store alive until the next collection
        current, program, self._program = self.spec.start, self._program, None
        while not is_end(current):
            if program is None:
                split = self.spec.split(current)
                self._run_split(split)
                current = split.next_component
            else:
                self.runner.run_test(program)
                current = program.next
            program = self._root_program(current)
        self._trace(root_id, EVENT_END, {"notified": True})
        self.knowledge.remove_instance(root_id)
        return self.trace, dict(self.results)

    # -- population split ------------------------------------------------------

    def execute_split_entry(self, split: PopulationSplitSpec) -> list[Program]:
        """Add the sub-pipelines' instances and start the sub-pipelines."""
        self.runner.ensure_split_model(split)
        sub_ids = [sub.subpl_id for sub in split.sub_pipelines]
        self.knowledge.add_instances(sub_ids)
        self._trace(
            self.spec.name,
            EVENT_SPLIT_ENTRY,
            {"split": split.name, "sub_pipelines": sub_ids},
        )
        programs = []
        for sub in split.sub_pipelines:
            self._trace(sub.subpl_id, EVENT_START, {"element": sub.start})
            programs.append(Program(self, sub.subpl_id, sub.start, sub.trans_rules))
        return programs

    def execute_split_exit(
        self, split: PopulationSplitSpec, programs: list[Program]
    ) -> None:
        """Check every sub-pipeline ended and remove their instances."""
        live = [p.instance_id for p in programs if not p.done]
        if live:
            raise ContractViolationError(
                f"split exit invoked with live sub-pipelines: {live}"
            )
        for sub in split.sub_pipelines:
            self.knowledge.remove_instance(sub.subpl_id)
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

