"""Managing system: automatic execution of A/B-testing pipelines.

A feedback loop drives the managed system through the pipeline: deploy
the current test, monitor metric batches, evaluate the hypothesis,
apply the first matching transition rule (declaration order, implicit
default to End), restore the deployment, continue. One state machine,
:class:`Program`, runs that loop: the root's tests between population
splits run as one program, and each sub-pipeline of a split as another.
The engine's knowledge, a plain set, holds the id of each live
(sub-)pipeline: the root's from set-up to End, and one per sub-pipeline
of a population split from its entry to its exit; validation keeps
these ids distinct. Sub-pipelines run over disjoint user segments and
rejoin at the split exit once all of them have ended.

:class:`WebStoreRunner` drives the simulated store, with one serving
loop for root segments and split branches alike. It draws the shared
arrival stream in chunks, routes each arrival of a split to one program
through a routing table, built from the population's feature rows block
by block as they are drawn (a root segment has one program, which takes
every arrival without a table), serves each program's queue up to the
last look it reaches in one block, holds what is left in one array per
program, and pushes the unconsumed tail back once every program is done,
so the consumed prefix does not depend on the chunk size. The runner
only draws, routes and serves arrivals, and checks the store's count
(``WebStore.probe``) against the program's. Each program runs its own
looks. It lists where the looks its queue reaches end, adds each look's
slice of the block (its variant mask and hypothesis samples) to its own
accumulators, evaluates the hypothesis and applies the stopping rule;
after a terminal look the rest of the queue goes to its next test. The
store keeps no statistics, and a split's stats only the counts serving
measures. Every draw is counter-based, so a block's samples equal those
of serving it look by look, and each program owns its tests' state. So
results, summaries, p-value traces, each instance's own event sequence
and the root's stamps do not depend on the chunk size or the drain
order. A split's sub-pipeline events are stamped with the furthest
stream position any sub-pipeline has reached, so those stamps and how
the sub-pipelines' events interleave do depend on ``CHUNK``.
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
from .webstore import DRAW_BLOCK, WebStore, check_deployable

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


class AlreadyRunningError(OrchestratorError):
    pass


class ContractViolationError(OrchestratorError):
    pass


class WriteOnceError(OrchestratorError):
    pass


# ---------------------------------------------------------------------------
# trace


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
    """What serving one split counted, and its measured wall times."""

    dispatched: dict[str, int]
    sub_stream_totals: dict[str, int]
    # wall time of deploying the split component: building the routing table
    deploy_ms: float = field(default=0.0, compare=False)
    # wall time of each of the routing table's predict calls
    predict_ms: list[float] = field(default_factory=list, compare=False)


# ---------------------------------------------------------------------------
# program (engine-side state machine)


class Program:
    """Control flow of one run of tests, advanced look by look.

    A program deploys its start test and runs its looks: it lists where
    the looks a queue of requests reaches end (:meth:`look_ends`), and
    :meth:`look` adds one look's slice of a served block to the test's
    statistics and evaluates the hypothesis. It records each terminal
    result in the engine's results, restores the deployment and fires the
    first matching transition rule. It is done when a rule leads to End
    or to a population split; ``next`` then names that element.
    ``key`` names the current test's results (``PipelineSpec.result_key``),
    ``consumed`` is the count of requests it has looked at so far, and
    ``acc_a`` and ``acc_b`` hold its hypothesis metric per variant.
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
        self.key = self.engine.spec.result_key(test_name)
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

    def look(self, served: tuple, block: slice) -> bool:
        """Add the ``block`` slice of a served ``(is_a, samples)`` pair and look.

        Returns whether the look was terminal.
        """
        test = self.current_test
        is_a, values = served[0][block], served[1][block]
        self.acc_a.add_many(values[is_a])
        self.acc_b.add_many(values[~is_a])
        return self.on_batch(
            run_stat_test(
                test.stat_test,
                self.acc_a,
                self.acc_b,
                direction=test.hypothesis.direction,
                alpha=test.hypothesis.alpha,
            )
        )

    def on_batch(self, result: StatResult) -> bool:
        """Record a look's result; True if it was terminal.

        A terminal result is recorded once, under the test's key.
        """
        if self.done:
            raise ContractViolationError(
                f"program {self.instance_id!r} fed after completion"
            )
        engine, test = self.engine, self.current_test
        self.consumed = result.requests_consumed
        engine.batch_results.setdefault(self.key, []).append(result)
        engine._trace(
            self.instance_id,
            EVENT_BATCH,
            {
                "test": test.name,
                "requests": result.requests_consumed,
                "p_value": result.p_value,
                "significant": result.significant,
            },
        )
        if not is_terminal(result, test):
            return False
        if self.key in engine.results:
            raise WriteOnceError(f"result for {self.key!r} already recorded")
        engine.results[self.key] = result
        engine.runner.restore(test)
        target, rule = next_element(self.rules, result, test.name)
        engine._trace(
            self.instance_id,
            EVENT_TRANSITION,
            {
                "from": test.name,
                "rule": rule.name if rule else None,
                "to": target,
            },
        )
        if not (is_end(target) or target in engine.spec.split_names):
            self._deploy(target)
            return True
        self.current_test = None
        self.done = True
        self.next = target
        if is_end(target) and self.instance_id != engine.spec.name:
            engine._trace(self.instance_id, EVENT_END, {})  # the engine ends the root
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
        """Raise unless every test can deploy and every split's model is loaded."""
        for test in spec.ab_tests:
            check_deployable(test, self.store.catalog)
        for split in spec.pop_splits:
            image = split.split_component.image_name
            if self.split_models.get(image) is None:
                raise UntrainedModelError(
                    f"no trained model loaded for split component image {image!r}"
                )

    def deploy(self, test: ABTestSpec) -> None:
        self.store.deploy_ab_test(test)

    def restore(self, test: ABTestSpec) -> None:
        self.store.restore_initial(test.name)

    # -- serving ----------------------------------------------------------------

    def _routing_table(
        self, split: PopulationSplitSpec, programs: list[Program]
    ) -> tuple[np.ndarray, list[float]]:
        """Index of each population user's sub-pipeline, len(programs) if
        unrouted, and the wall time of each predict call in milliseconds.

        Predicts each block of feature rows as it is drawn, holding no matrix
        of them, and fills the block's slice of the table, in the smallest
        type that holds len(programs), with one branch's condition mask at a
        time, last branch first, so the first branch a class matches wins.
        Classes must be integers >= 0.
        """
        model = self.split_models[split.split_component.image_name]
        population = self.store.population
        by_id = {p.instance_id: i for i, p in enumerate(programs)}
        branches = list(zip(split.sub_pipelines, split.cond_stats))[::-1]
        table = np.full(population.size, len(programs), np.min_scalar_type(len(programs)))
        predict_ms, lowest = [], 0
        blocks = population.feature_blocks()
        for lo, block in zip(range(0, population.size, DRAW_BLOCK), blocks):
            started = time.perf_counter()
            classes = model.predict(block)
            predict_ms.append((time.perf_counter() - started) * 1e3)
            if classes.dtype.kind not in "biu":
                raise OrchestratorError(
                    f"split {split.name!r}: the model predicts {classes.dtype} classes,"
                    " not integers"
                )
            lowest = min(lowest, int(classes.min()))
            for sub, cond in branches:
                np.putmask(table[lo : lo + len(block)], cond.matches(classes), by_id[sub.subpl_id])
        if lowest < 0:
            raise OrchestratorError(
                f"split {split.name!r}: the model predicts class {lowest}, below 0"
            )
        empty = [p.instance_id for i, p in enumerate(programs) if not (table == i).any()]
        if empty:
            raise OrchestratorError(
                f"split {split.name!r}: the model routes no user of the"
                f" population to sub-pipeline(s) {empty}"
            )
        return table, predict_ms

    def run_test(self, program: Program) -> None:
        """Serve a root segment: its one program takes every arrival, unrouted."""
        self._serve([program])

    def run_split(
        self, split: PopulationSplitSpec, programs: list[Program]
    ) -> SplitRunStats:
        started = time.perf_counter()
        table, predict_ms = self._routing_table(split, programs)
        deploy_ms = (time.perf_counter() - started) * 1e3
        stats = self._serve(programs, table)
        stats.deploy_ms, stats.predict_ms = deploy_ms, predict_ms
        return stats

    def _serve(
        self, programs: list[Program], table: np.ndarray | None = None
    ) -> SplitRunStats:
        """Run ``programs`` to completion on arrivals routed by ``table``.

        ``table[user]`` is the index of the program that serves the
        user, or ``len(programs)`` if none does. Without a table there
        must be one program, and it takes every arrival. Arrivals are drawn in
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
        if table is None and len(programs) != 1:
            raise ContractViolationError(
                f"{len(programs)} programs need a routing table, got none"
            )
        base = self.requests_total
        pending = [np.empty(0, dtype=np.int64)] * len(programs)
        dispatched = [0] * len(programs)
        completion_pos: dict[str, int] = {}
        idle_arrivals = 0

        while any(not p.done for p in programs):
            users = self.store.arrivals.next(self.CHUNK)
            n = users.shape[0]
            chunk_base = self.requests_total
            targets = None if table is None else table[users]
            batches_served = 0
            for i, program in enumerate(programs):
                if program.done:
                    continue
                if targets is None:
                    positions, routed = range(n), users
                else:
                    positions = np.flatnonzero(targets == i)
                    routed = users[positions]
                held = pending[i].shape[0]
                queue = np.concatenate((pending[i], routed))
                taken = 0
                while not program.done:
                    ends = program.look_ends(queue.shape[0] - taken, self.batch_size)
                    if not ends:
                        break
                    name = program.current_test.name
                    if self.store.probe(name) != program.consumed:
                        raise ContractViolationError(
                            f"test {name!r}: the store's request count is not its program's"
                        )
                    served = self.store.serve_chunk(name, queue[taken : taken + ends[-1]])
                    batches_served += 1
                    start = 0
                    for end in ends:
                        position = chunk_base + int(positions[taken + end - held - 1]) + 1
                        self.requests_total = max(self.requests_total, position)
                        terminal = program.look(served, slice(start, end))
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
                n = cutoff  # the arrivals dispatched before the push-back
                self.requests_total = final_pos
            else:
                idle_arrivals = 0 if batches_served else idle_arrivals + n
                if idle_arrivals > self.STARVATION_LIMIT:
                    live = [p.instance_id for p in programs if not p.done]
                    raise OrchestratorError(
                        f"pipeline(s) {live} starved: no batch served in"
                        f" {idle_arrivals} arrivals"
                    )
                self.requests_total = chunk_base + n
            if targets is None:
                dispatched[0] += n
            else:
                for i in range(len(programs)):
                    dispatched[i] += int(np.count_nonzero(targets[:n] == i))

        return SplitRunStats(
            dispatched={
                p.instance_id: dispatched[i] for i, p in enumerate(programs)
            },
            sub_stream_totals={
                p.instance_id: completion_pos[p.instance_id] - base
                for p in programs
            },
        )


# ---------------------------------------------------------------------------
# the engine


class PipelineEngine:
    """Executes one pipeline spec against a runner, once."""

    def __init__(
        self,
        spec: PipelineSpec,
        runner,
        catalog: dict[str, str] | None = None,
        observer: Callable[[TraceEvent, set[str]], None] | None = None,
    ):
        self.spec = spec
        self.runner = runner
        self.knowledge: set[str] = set()  # ids of the live (sub-)pipelines
        self.catalog = catalog
        self.observer = observer
        self.trace = ExecutionTrace()
        self.results: dict[str, StatResult] = {}
        self.batch_results: dict[str, list[StatResult]] = {}
        self.split_stats: dict[str, SplitRunStats] = {}

    # -- trace helpers ------------------------------------------------------

    def _trace(self, instance: str, event: str, detail: dict) -> None:
        event_obj = TraceEvent(instance, event, detail, self.runner.requests_total)
        self.trace.append(event_obj)
        if self.observer is not None:
            self.observer(event_obj, self.knowledge)

    # -- pipeline execution ---------------------------------------------------

    def run(self) -> tuple[ExecutionTrace, dict[str, StatResult]]:
        """Validate, add the root's instance and run every element to End.

        Nothing deploys unless every test and split model checks out; a
        second call raises.
        """
        root_id = self.spec.name
        if self.trace.events:  # the start event is traced once set-up passed
            raise AlreadyRunningError(f"pipeline {root_id!r} already run")
        report = validate(self.spec, self.catalog)
        if not report.ok:
            raise SpecInvalidError(str(report))
        self.runner.check_deployable(self.spec)
        self.knowledge.add(root_id)
        self._trace(root_id, EVENT_START, {"element": self.spec.start})
        current = self.spec.start
        while not is_end(current):
            if current in self.spec.split_names:
                split = self.spec.split(current)
                self._run_split(split)
                current = split.next_component
            else:
                program = Program(self, root_id, current, self.spec.trans_rules)
                self.runner.run_test(program)
                current = program.next
        self._trace(root_id, EVENT_END, {"notified": True})
        self.knowledge.discard(root_id)
        return self.trace, dict(self.results)

    def _run_split(self, split: PopulationSplitSpec) -> None:
        """Add the sub-pipelines' instances, run them all to End, remove them."""
        sub_ids = [sub.subpl_id for sub in split.sub_pipelines]
        self.knowledge.update(sub_ids)
        self._trace(
            self.spec.name,
            EVENT_SPLIT_ENTRY,
            {"split": split.name, "sub_pipelines": sub_ids},
        )
        programs = []
        for sub in split.sub_pipelines:
            self._trace(sub.subpl_id, EVENT_START, {"element": sub.start})
            programs.append(Program(self, sub.subpl_id, sub.start, sub.trans_rules))
        self.split_stats[split.name] = self.runner.run_split(split, programs)
        live = [p.instance_id for p in programs if not p.done]
        if live:
            raise ContractViolationError(
                f"split {split.name!r} exited with live sub-pipelines: {live}"
            )
        self.knowledge.difference_update(sub_ids)
        self._trace(
            self.spec.name,
            EVENT_SPLIT_EXIT,
            {"split": split.name, "next": split.next_component},
        )
