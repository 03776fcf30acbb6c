import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from abpipe.classifier import ClassifierError, Hyperparams, LinearModel, train
from abpipe.cli import write_run_outputs
from abpipe.model import (
    ABTestSpec,
    ClassCondition,
    Hypothesis,
    PipelineSpec,
    PopulationSplitSpec,
    SplitComponent,
    SubPipeline,
    TransitionRule,
)
from abpipe.orchestrator import (
    AlreadyRunningError,
    ContractViolationError,
    OrchestratorError,
    PipelineEngine,
    Program,
    SpecInvalidError,
    UntrainedModelError,
    WebStoreRunner,
    WriteOnceError,
    next_element,
)
from abpipe.report import (
    FULL_SCALE_REFERENCE,
    RUN_ERRORS,
    PipelineRunError,
    build_summary,
    compare_pipelines,
    run_pipeline_once,
)
from abpipe.stats import (
    DEFAULT_BATCH_SIZE,
    InsufficientSamplesError,
    MetricAccumulator,
    StatResult,
    StatsError,
    next_boundary,
    welch_t_test,
)
from abpipe import webstore
from abpipe.webstore import (
    DRAW_BLOCK,
    UnknownVariantError,
    WebStore,
    generate_population,
    generate_training_data,
    load_scenario,
)

from case_generator import _make_test, _script
from conftest import traced_peak
from reference_interpreter import route_class
from scripted_runner import ScriptedRunner


def result_for(p=0.5, effect=0.0, requests=1000, significant=None):
    significant = p <= 0.05 if significant is None else significant
    return StatResult(p, 0.1, 0.1 + effect, requests // 2, requests - requests // 2, significant)


# ---------------------------------------------------------------------------
# rule application


def test_rule_applies_on_matching_test_and_condition():
    rule = TransitionRule("r", "T1", "p_value <= 0.05 and effect > 0", "T2")
    assert next_element((rule,), result_for(p=0.01, effect=0.015), "T1") == ("T2", rule)


def test_rule_rejects_other_test():
    rule = TransitionRule("r", "T1", "p_value <= 0.05 and effect > 0", "T2")
    result = result_for(p=0.01, effect=0.015)
    assert next_element((rule,), result, "T9") == ("end", None)


def test_rule_boundary_is_inclusive():
    rule = TransitionRule("r", "T1", "p_value <= 0.05", "T2")
    assert next_element((rule,), result_for(p=0.05), "T1") == ("T2", rule)


def test_first_matching_rule_wins():
    rules = (
        TransitionRule("r1", "T1", "p_value <= 0.05", "T2"),
        TransitionRule("r2", "T1", "p_value <= 0.05", "T3"),
    )
    target, rule = next_element(rules, result_for(p=0.01), "T1")
    assert (target, rule.name) == ("T2", "r1")


def test_no_rule_defaults_to_end():
    target, rule = next_element((), result_for(), "T1")
    assert target == "end" and rule is None


# ---------------------------------------------------------------------------
# scripted execution


def single_test_spec(significant=True):
    test = _make_test("T1", 3)
    rule = TransitionRule("done", "T1", "p_value <= 0.05", "end")
    spec = PipelineSpec("Solo", (test,), (rule,), (), "T1")
    rng = np.random.default_rng(0)
    scripts = {("Solo", "T1"): _script(rng, "Solo", test, significant)}
    return spec, scripts


def test_single_test_trace_shape():
    spec, scripts = single_test_spec()
    trace, results = PipelineEngine(spec, ScriptedRunner(scripts)).run()
    kinds = [e.event for e in trace]
    batches = len(scripts[("Solo", "T1")])
    assert kinds == ["start", "deploy"] + ["batch_result"] * batches + [
        "transition",
        "end",
    ]
    assert results["T1"].significant


def test_two_test_chain_in_order():
    t1, t2 = _make_test("T1", 2), _make_test("T2", 2)
    rules = (TransitionRule("r1", "T1", "p_value <= 0.05", "T2"),)
    spec = PipelineSpec("Chain", (t1, t2), rules, (), "T1")
    scripts = {
        ("Chain", "T1"): [result_for(p=0.01)],
        ("Chain", "T2"): [result_for(p=0.01)],
    }
    trace, results = PipelineEngine(spec, ScriptedRunner(scripts)).run()
    deploys = [e.detail["test"] for e in trace if e.event == "deploy"]
    assert deploys == ["T1", "T2"]
    assert set(results) == {"T1", "T2"}


def test_unfired_rules_default_to_end_without_deploying_next():
    t1, t2 = _make_test("T1", 1), _make_test("T2", 1)
    rules = (TransitionRule("r1", "T1", "p_value <= 0.05", "T2"),)
    spec = PipelineSpec("Halt", (t1, t2), rules, (), "T1")
    scripts = {
        ("Halt", "T1"): [result_for(p=0.4, significant=False)],
    }
    trace, results = PipelineEngine(spec, ScriptedRunner(scripts)).run()
    deploys = [e.detail["test"] for e in trace if e.event == "deploy"]
    assert deploys == ["T1"]
    transitions = [e for e in trace if e.event == "transition"]
    assert transitions[0].detail == {"from": "T1", "rule": None, "to": "end"}
    assert "T2" not in results


def test_degenerate_pipeline_start_end():
    spec = PipelineSpec("Noop", (), (), (), "end")
    trace, results = PipelineEngine(spec, ScriptedRunner({})).run()
    assert [e.event for e in trace] == ["start", "end"]
    assert results == {}


def test_root_end_event_carries_notification():
    spec, scripts = single_test_spec()
    trace, _ = PipelineEngine(spec, ScriptedRunner(scripts)).run()
    assert trace.events[-1].detail == {"notified": True}


def split_spec_with_sub_id(subpl_id):
    """``split_spec()`` with its second sub-pipeline renamed ``subpl_id``."""
    spec, _ = split_spec()
    split = spec.pop_splits[0]
    seg_a, seg_b = split.sub_pipelines
    subs = (seg_a, replace(seg_b, subpl_id=subpl_id))
    return replace(spec, pop_splits=(replace(split, sub_pipelines=subs),))


# validation, not the engine, keeps two live instance ids from ever colliding
@pytest.mark.parametrize(
    "make_spec, code",
    [
        (lambda: PipelineSpec("Bad", (), (), (), "missing"), "unresolved-reference"),
        (lambda: split_spec_with_sub_id("Split"), "duplicate-name"),
        (lambda: split_spec_with_sub_id("Seg-A"), "duplicate-name"),
    ],
    ids=["unresolved-start", "sub-pipeline-named-as-root", "sub-pipelines-share-an-id"],
)
def test_invalid_spec_rejected_before_running(make_spec, code):
    engine = PipelineEngine(make_spec(), ScriptedRunner({}))
    with pytest.raises(SpecInvalidError, match=rf"\[{code}\]"):
        engine.run()
    assert engine.trace.events == [] and engine.knowledge == set()


def test_write_once_results():
    spec, scripts = single_test_spec()
    engine = PipelineEngine(spec, ScriptedRunner(scripts))
    # two programs deploying one test record under one key
    first, second = (Program(engine, "Solo", "T1", spec.trans_rules) for _ in range(2))
    assert first.on_batch(result_for(p=0.01))
    with pytest.raises(WriteOnceError):
        second.on_batch(result_for(p=0.01))
    assert list(engine.results) == ["T1"]


def test_duplicate_initiation_rejected():
    spec, scripts = single_test_spec()
    first = PipelineEngine(spec, ScriptedRunner(scripts))
    trace, results = first.run()
    events = list(trace)
    with pytest.raises(AlreadyRunningError):
        first.run()
    assert trace.events == events and first.results == results
    assert first.knowledge == set()


# ---------------------------------------------------------------------------
# split semantics (scripted)


def split_spec(next_component="end"):
    a1 = _make_test("A1", 2)
    b1 = _make_test("B1", 2)
    extra = (_make_test("POST", 1),) if next_component == "POST" else ()
    split = PopulationSplitSpec(
        name="SPLIT",
        split_property="likelihood",
        sub_pipelines=(
            SubPipeline("Seg-A", "A1", ("A1",), ()),
            SubPipeline("Seg-B", "B1", ("B1",), ()),
        ),
        cond_stats=(ClassCondition("==", 0), ClassCondition("==", 1)),
        next_component=next_component,
        split_component=SplitComponent("svc", "img"),
    )
    spec = PipelineSpec("Split", (a1, b1) + extra, (), (split,), "SPLIT")
    scripts = {
        ("Seg-A", "A1"): [result_for(p=0.01)],
        ("Seg-B", "B1"): [
            result_for(p=0.5, significant=False),
            result_for(p=0.01, requests=2000),
        ],
    }
    if next_component == "POST":
        scripts[("Split", "POST")] = [result_for(p=0.01)]
    return spec, scripts


def test_split_creates_one_instance_per_sub_pipeline():
    spec, scripts = split_spec()
    live = {}

    def observer(event, knowledge):
        if event.event in ("split_entry", "split_exit"):
            live[event.event] = ("Seg-A" in knowledge, "Seg-B" in knowledge, len(knowledge))

    engine = PipelineEngine(spec, ScriptedRunner(scripts), observer=observer)
    engine.run()
    assert live["split_entry"] == (True, True, 3)  # root + two sub-pipelines
    assert live["split_exit"] == (False, False, 1)
    assert engine.knowledge == set()


def test_split_exit_with_a_live_sub_pipeline_is_a_contract_violation():
    class FirstOnlyRunner(ScriptedRunner):
        def run_split(self, split, programs):
            return super().run_split(split, programs[:1])  # Seg-B stays live

    spec, scripts = split_spec()
    engine = PipelineEngine(spec, FirstOnlyRunner(scripts))
    with pytest.raises(ContractViolationError, match="Seg-B"):
        engine.run()
    assert "Seg-B" in engine.knowledge
    assert "split_exit" not in [e.event for e in engine.trace]


def test_split_exit_copies_namespaced_results_and_clears_instances():
    spec, scripts = split_spec()
    trace, results = PipelineEngine(spec, ScriptedRunner(scripts)).run()
    assert set(results) == {"Seg-A/A1", "Seg-B/B1"}
    ends = [e.instance for e in trace if e.event == "end"]
    assert ends == ["Seg-A", "Seg-B", "Split"]


def test_split_next_component_deployed_after_exit():
    spec, scripts = split_spec(next_component="POST")
    trace, results = PipelineEngine(spec, ScriptedRunner(scripts)).run()
    kinds = [(e.event, e.detail.get("test")) for e in trace]
    exit_at = kinds.index(("split_exit", None))
    assert ("deploy", "POST") in kinds[exit_at:]
    assert "POST" in results


def test_trace_is_well_nested():
    spec, scripts = split_spec()
    trace, _ = PipelineEngine(spec, ScriptedRunner(scripts)).run()
    events = [(e.instance, e.event) for e in trace]
    entry = events.index(("Split", "split_entry"))
    exits = events.index(("Split", "split_exit"))
    sub_ends = [i for i, (inst, ev) in enumerate(events) if ev == "end" and inst != "Split"]
    assert entry < min(sub_ends) and max(sub_ends) < exits


# ---------------------------------------------------------------------------
# web-store-backed execution


def test_missing_variant_fails_before_any_deployment(small_scenario):
    test = ABTestSpec(
        "T1",
        10_000,
        (0.5, 0.5),
        Hypothesis("clicks", "B_greater", 0.05),
        ("clicks",),
        "welch_t",
        "ghost-a",
        "ghost-b",
    )
    spec = PipelineSpec("Ghost", (test,), (), (), "T1")
    store = WebStore(small_scenario, {"other": "component"})
    runner = WebStoreRunner(store)
    engine = PipelineEngine(spec, runner, catalog=store.catalog)
    with pytest.raises(UnknownVariantError):
        engine.run()
    assert store.active_tests == []
    assert engine.knowledge == set() and engine.trace.events == []


def test_untrained_split_model_rejected(par_spec, small_scenario):
    store = WebStore(small_scenario)
    engine = PipelineEngine(par_spec, WebStoreRunner(store, split_models={}))
    # found before anything deploys, not at split entry after GUI-upgrade ran
    with pytest.raises(UntrainedModelError, match="'ml-purchase-filter'"):
        engine.run()
    assert engine.trace.events == [] and store.active_tests == []
    assert engine.knowledge == set()


class _ThreeWayStub:
    """Duck-typed classifier assigning one of three classes per user."""

    def predict(self, features):
        return np.asarray(features).sum(axis=1).astype(np.int64) % 3


class _ClassZeroStub:
    """Duck-typed classifier that predicts class 0 for every user."""

    def predict(self, features):
        return np.zeros(np.asarray(features).shape[0], dtype=np.int64)


def segment_spec(k):
    """A pipeline that opens on a k-way split; segment i takes class i."""
    tests = tuple(
        ABTestSpec(
            f"T{i}",
            5_000,
            (0.5, 0.5),
            Hypothesis("clicks", "B_greater", 0.05),
            ("clicks",),
            "welch_t",
            f"svc{i}-a",
            f"svc{i}-b",
        )
        for i in range(k)
    )
    split = PopulationSplitSpec(
        name=f"SPLIT{k}",
        split_property="bucket",
        sub_pipelines=tuple(
            SubPipeline(f"Seg-{i}", f"T{i}", (f"T{i}",), ()) for i in range(k)
        ),
        cond_stats=tuple(ClassCondition("==", i) for i in range(k)),
        next_component="end",
        split_component=SplitComponent("svc", "k-way"),
    )
    spec = PipelineSpec(f"Segments{k}", tests, (), (split,), f"SPLIT{k}")
    catalog = {f"svc{i}-{v}": f"svc{i}" for i in range(k) for v in "ab"}
    return spec, catalog


def test_three_sub_pipelines_get_disjoint_user_sets(small_scenario):
    spec, catalog = segment_spec(3)
    store = WebStore(small_scenario, catalog)
    stub = _ThreeWayStub()
    served: dict[str, set] = {f"T{i}": set() for i in range(3)}
    serve_chunk = store.serve_chunk

    def spy(test_name, user_ids):
        served[test_name].update(np.asarray(user_ids).tolist())
        return serve_chunk(test_name, user_ids)

    store.serve_chunk = spy
    runner = WebStoreRunner(store, split_models={"k-way": stub})
    engine = PipelineEngine(spec, runner, catalog=catalog)
    engine.run()
    assert engine.knowledge == set()
    sets = [served[f"T{i}"] for i in range(3)]
    assert all(sets)
    for i in range(3):
        for j in range(i + 1, 3):
            assert not (sets[i] & sets[j])
        users = np.fromiter(sets[i], dtype=np.int64)
        classes = stub.predict(store.population.features[users])
        assert (classes == i).all()


def test_segment_the_model_never_routes_to_fails_before_any_arrival(
    small_scenario,
):
    spec, catalog = segment_spec(2)
    store = WebStore(small_scenario, catalog)
    runner = WebStoreRunner(store, split_models={"k-way": _ClassZeroStub()})
    engine = PipelineEngine(spec, runner, catalog=catalog)
    with pytest.raises(OrchestratorError, match="Seg-1") as caught:
        engine.run()
    assert "Seg-0" not in str(caught.value)
    assert runner.requests_total == 0


class _SignedStub:
    """Duck-typed classifier predicting classes -1, 0 and 1."""

    def predict(self, features):
        return _ThreeWayStub().predict(features) - 1


def test_a_negative_predicted_class_fails_before_any_arrival(small_scenario):
    # validate checks exclusivity over classes >= 0 only, so no class below 0 may route
    spec, catalog = segment_spec(2)
    store = WebStore(small_scenario, catalog)
    runner = WebStoreRunner(store, split_models={"k-way": _SignedStub()})
    engine = PipelineEngine(spec, runner, catalog=catalog)
    with pytest.raises(OrchestratorError) as caught:
        engine.run()
    assert str(caught.value) == "split 'SPLIT2': the model predicts class -1, below 0"
    assert runner.requests_total == 0


def test_float_predicted_classes_fail_before_any_arrival(small_scenario):
    spec, catalog = segment_spec(2)
    store = WebStore(small_scenario, catalog)
    stub = SimpleNamespace(predict=lambda f: _ThreeWayStub().predict(f).astype(float))
    runner = WebStoreRunner(store, split_models={"k-way": stub})
    engine = PipelineEngine(spec, runner, catalog=catalog)
    with pytest.raises(OrchestratorError) as caught:
        engine.run()
    assert str(caught.value) == (
        "split 'SPLIT2': the model predicts float64 classes, not integers"
    )
    assert runner.requests_total == 0


@pytest.mark.parametrize(
    "routed, starved",
    [(None, ["Seg-0", "Seg-1"]), (0, ["Seg-1"])],
    ids=["no-arrival-routed", "all-to-seg-0"],
)
def test_a_program_no_arrival_reaches_is_starved(
    small_scenario, monkeypatch, routed, starved
):
    spec, catalog = segment_spec(2)
    store = WebStore(small_scenario, catalog)
    runner = WebStoreRunner(store)
    engine = PipelineEngine(spec, runner, catalog=catalog)
    programs = [Program(engine, f"Seg-{i}", f"T{i}", ()) for i in range(2)]
    # 2 means unrouted; index 0 sends every user to Seg-0
    table = np.full(store.population.size, 2 if routed is None else routed, dtype=np.uint8)
    monkeypatch.setattr(WebStoreRunner, "STARVATION_LIMIT", 10_000)
    with pytest.raises(OrchestratorError) as caught:
        runner._serve(programs, table)
    idle = 3 * WebStoreRunner.CHUNK  # the first whole count of idle chunks above the limit
    assert str(caught.value) == f"pipeline(s) {starved} starved: no batch served in {idle} arrivals"
    assert [p.done for p in programs] == [routed == 0, False]


def test_serving_several_programs_without_a_routing_table_is_refused(small_scenario):
    spec, catalog = segment_spec(2)
    store = WebStore(small_scenario, catalog)
    runner = WebStoreRunner(store)
    engine = PipelineEngine(spec, runner, catalog=catalog)
    programs = [Program(engine, f"Seg-{i}", f"T{i}", ()) for i in range(2)]
    with pytest.raises(ContractViolationError, match="2 programs need a routing table"):
        runner._serve(programs)
    assert runner.requests_total == 0
    assert [p.consumed for p in programs] == [0, 0]


class _CyclingStub:
    """Duck-typed classifier giving the population's users classes 0..k-1 in turn."""

    def __init__(self, k):
        self.k = k
        self.offset = 0

    def predict(self, features):
        n = np.asarray(features).shape[0]
        classes = (self.offset + np.arange(n, dtype=np.int64)) % self.k
        self.offset += n
        return classes


def unique_routing_table(split, programs, classes):
    """The routing table as one ``classes == cls`` mask per np.unique class."""
    by_id = {p.instance_id: i for i, p in enumerate(programs)}
    table = np.full(
        classes.shape[0], len(programs), dtype=np.min_scalar_type(len(programs))
    )
    for cls in np.unique(classes):
        sub_id = route_class(split, int(cls))
        if sub_id is not None:
            table[classes == cls] = by_id[sub_id]
    return table


def routing_inputs(k, model, scenario):
    spec, catalog = segment_spec(k)
    split = spec.pop_splits[0]
    runner = WebStoreRunner(WebStore(scenario, catalog), split_models={"k-way": model})
    programs = [SimpleNamespace(instance_id=s.subpl_id) for s in split.sub_pipelines]
    return runner, split, programs


def test_routing_table_leaves_an_unrouted_class_unrouted(small_scenario):
    # two segments take classes 0 and 1; class 2 goes nowhere
    runner, split, programs = routing_inputs(2, _ThreeWayStub(), small_scenario)
    table, _ = runner._routing_table(split, programs)
    classes = _ThreeWayStub().predict(runner.store.population.features)
    expected = unique_routing_table(split, programs, classes)
    assert table.dtype == expected.dtype
    assert np.array_equal(table, expected)
    assert np.array_equal(np.bincount(table), np.bincount(classes))


class _LargeClassStub:
    """Duck-typed classifier predicting classes 0 and 1, and 10**7 for user 0."""

    def __init__(self):
        self.offset = 0

    def predict(self, features):
        n = np.asarray(features).shape[0]
        classes = (self.offset + np.arange(n, dtype=np.int64)) % 2
        if self.offset == 0:
            classes[0] = 10**7
        self.offset += n
        return classes


def test_routing_table_of_a_large_class_takes_no_time_per_class_id(small_scenario):
    runner, split, programs = routing_inputs(2, _LargeClassStub(), small_scenario)
    started = time.perf_counter()
    table, _ = runner._routing_table(split, programs)
    elapsed = time.perf_counter() - started
    classes = np.arange(small_scenario.population_size, dtype=np.int64) % 2
    classes[0] = 10**7
    assert np.array_equal(table, unique_routing_table(split, programs, classes))
    assert table[0] == len(programs)  # class 10**7 meets no branch
    assert elapsed < 1.0  # a route per class id up to 10**7 takes seconds


def test_routing_table_sends_a_class_to_the_first_branch_it_meets(small_scenario):
    # class 1 meets both branches and goes to the first; class 2 meets only the second
    runner, split, programs = routing_inputs(2, _ThreeWayStub(), small_scenario)
    split = replace(split, cond_stats=(ClassCondition("<=", 1), ClassCondition(">=", 1)))
    table, _ = runner._routing_table(split, programs)
    classes = _ThreeWayStub().predict(runner.store.population.features)
    assert np.array_equal(table, unique_routing_table(split, programs, classes))
    assert np.array_equal(table, (classes == 2).astype(table.dtype))


def test_routing_table_of_a_single_class_names_the_empty_segment(small_scenario):
    runner, split, programs = routing_inputs(2, _ClassZeroStub(), small_scenario)
    classes = _ClassZeroStub().predict(runner.store.population.features)
    old = unique_routing_table(split, programs, classes)
    assert np.bincount(old, minlength=3).tolist() == [classes.shape[0], 0, 0]
    with pytest.raises(OrchestratorError) as caught:
        runner._routing_table(split, programs)
    assert str(caught.value) == (
        "split 'SPLIT2': the model routes no user of the population to"
        " sub-pipeline(s) ['Seg-1']"
    )


@pytest.mark.parametrize("k, dtype", [(2, np.uint8), (255, np.uint8), (256, np.uint16)])
def test_routing_table_takes_the_smallest_type_that_holds_unrouted(
    small_scenario, k, dtype
):
    runner, split, programs = routing_inputs(k, _CyclingStub(k), small_scenario)
    table, _ = runner._routing_table(split, programs)
    assert table.dtype == np.min_scalar_type(len(programs)) == dtype
    classes = np.arange(small_scenario.population_size, dtype=np.int64) % k
    assert np.array_equal(table, unique_routing_table(split, programs, classes))


def test_routing_the_shipped_population_holds_no_feature_rows(par_bundle, par_spec):
    """Routing predicts each block of feature rows as it is drawn: on the
    shipped 100,000-user scenario the traced peak stays below 1.5 MB and
    only the table stays allocated. Holding every row, a float64 copy of a
    block and the class array peaked at 4.1 MB and kept 2.4 MB."""
    split = par_spec.pop_splits[0]
    # a user with at least 12 of the 23 features set is a purchaser
    model = LinearModel(weights=np.ones(23), bias=-11.5, hyperparams=Hyperparams())
    store = WebStore(load_scenario(par_bundle.parent / "scenario.json"))
    runner = WebStoreRunner(store, split_models={split.split_component.image_name: model})
    programs = [SimpleNamespace(instance_id=s.subpl_id) for s in split.sub_pipelines]
    (table, predict_ms), retained, peak = traced_peak(
        lambda: runner._routing_table(split, programs)
    )
    assert store.population.size == table.shape[0] == 100_000 and len(predict_ms) == 25
    assert peak < 1.5e6
    assert table.nbytes <= retained < table.nbytes + 8_192


def test_a_split_run_never_reads_the_population_feature_matrix(
    par_spec, small_scenario, monkeypatch
):
    reads = []
    features = webstore.Population.features
    monkeypatch.setattr(
        webstore.Population,
        "features",
        property(lambda population: reads.append(population) or features.fget(population)),
    )
    outcome = run_pipeline_once(par_spec, small_scenario, seed=1)
    assert outcome.summary["splits"] and reads == []


def test_a_split_run_drops_its_training_set_once_the_fit_returns(
    par_spec, small_scenario, monkeypatch
):
    """Only the fit reads the training set, so no reference to it outlives
    ``clf.train``: both arrays are gone before routing starts."""
    training, alive = [], []
    routing_table = WebStoreRunner._routing_table

    def tracked_draw(config, n):
        features, labels = generate_training_data(config, n)
        training.extend((weakref.ref(features), weakref.ref(labels)))
        return features, labels

    def routing_after_the_fit(runner, split, programs):
        alive.extend(ref() is not None for ref in training)
        return routing_table(runner, split, programs)

    monkeypatch.setattr("abpipe.report.generate_training_data", tracked_draw)
    monkeypatch.setattr(WebStoreRunner, "_routing_table", routing_after_the_fit)
    outcome = run_pipeline_once(par_spec, small_scenario, seed=1)
    assert outcome.summary["splits"] and len(training) == 2 and alive == [False, False]


NUMPY_MA_GUARD = """
import sys
from pathlib import Path
from dataclasses import replace
from abpipe.blueprints import parse_blueprints
from abpipe.report import run_pipeline_once
from abpipe.webstore import ScenarioConfig

scenario = replace(ScenarioConfig(), population_size=20_000, train_samples=4_000)
sequential, parallel = (parse_blueprints(Path(b)) for b in sys.argv[1:3])
run_pipeline_once(sequential, scenario, seed=1)  # loads numpy.random and the rest
loaded = set(sys.modules)
run_pipeline_once(parallel, scenario, seed=1)
print([m for m in sorted(set(sys.modules) - loaded) if m.split(".")[:2] == ["numpy", "ma"]])
"""


def test_split_run_imports_no_numpy_ma(seq_bundle, par_bundle):
    # a fresh interpreter, so modules pytest or other tests loaded cannot hide it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                      env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_GUARD, str(seq_bundle), str(par_bundle)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == ["[]"]


def test_parallel_run_collects_split_stats(par_spec, small_scenario):
    outcome = run_pipeline_once(par_spec, small_scenario, seed=3)
    summary = outcome.summary
    split = summary["splits"]["Population-split-purchases-prediction"]
    fractions = split["split_fractions"]
    assert 0.0 <= split["unrouted_fraction"] <= 1.0
    assert sum(fractions.values()) <= 1.0 + 1e-9
    assert set(fractions) == {"Review-pipeline", "Recommendation-pipeline"}
    keys = set(summary["tests"])
    assert "Review-pipeline/Review-upgrade" in keys
    assert "Recommendation-pipeline/Recommendation-upgrade" in keys


def test_split_accounting_adds_up(par_spec, small_scenario):
    for seed in range(1, 6):
        summary = run_pipeline_once(par_spec, small_scenario, seed=seed).summary
        assert summary["splits"]
        for split in summary["splits"].values():
            total = split["stream_total"]
            assert sum(split["dispatched"].values()) + split["unrouted"] == total
            shares = sum(split["split_fractions"].values()) + split["unrouted_fraction"]
            assert abs(shares - 1.0) <= 1e-12
            assert total == max(split["sub_stream_totals"].values())


def summary_relation_errors(engine, summary):
    """The relations every completed run's summary and trace satisfy."""
    errors = []
    root = 0
    for key, row in summary["tests"].items():
        if row["n_a"] + row["n_b"] != row["requests"]:
            errors.append(f"{key}: n_a + n_b != requests")
        if row["instance"] == summary["pipeline"]:
            root += row["requests"]
    for name, split in summary["splits"].items():
        root += split["stream_total"]
        if sum(split["dispatched"].values()) + split["unrouted"] != split["stream_total"]:
            errors.append(f"{name}: dispatched + unrouted != stream_total")
    if root != summary["requests_total"]:
        errors.append("root test requests + split stream totals != requests_total")
    looks = sum(1 for event in engine.trace if event.event == "batch_result")
    if looks != sum(len(rows) for rows in engine.batch_results.values()):
        errors.append("batch_result events != p-value rows")
    return errors


@pytest.mark.parametrize("batch_size", [37, 100, 1000])
@pytest.mark.parametrize("bundle", ["seq_spec", "par_spec"])
def test_completed_runs_keep_the_summary_relations(bundle, batch_size, request, scenario):
    spec = request.getfixturevalue(bundle)
    completed = 0
    for seed in range(1, 6):
        try:
            outcome = run_pipeline_once(spec, scenario, seed, batch_size)
        except PipelineRunError:
            continue
        completed += 1
        assert summary_relation_errors(outcome.engine, outcome.summary) == [], seed
    assert completed


def test_run_fits_one_split_model_for_every_split(
    par_spec, small_scenario, monkeypatch
):
    # two splits in a row, each with its own component image
    split = par_spec.pop_splits[0]
    renamed = {sub.start: f"{sub.start}-2" for sub in split.sub_pipelines}
    second = replace(
        split,
        name="Second-split",
        sub_pipelines=tuple(
            replace(
                sub,
                subpl_id=f"{sub.subpl_id}-2",
                start=renamed[sub.start],
                ab_tests=(renamed[sub.start],),
            )
            for sub in split.sub_pipelines
        ),
        split_component=replace(split.split_component, image_name="second-image"),
    )
    first = replace(split, next_component=second.name)
    tests = par_spec.ab_tests + tuple(
        replace(par_spec.test(old), name=new) for old, new in renamed.items()
    )
    spec = replace(
        par_spec,
        ab_tests=tests,
        trans_rules=(),
        pop_splits=(first, second),
        start=first.name,
    )
    fits = []

    def counting_train(*args, **kwargs):
        fits.append(train(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr("abpipe.classifier.train", counting_train)
    outcome = run_pipeline_once(spec, small_scenario, seed=1)
    assert set(outcome.engine.split_stats) == {first.name, second.name}
    assert len(fits) == 1
    models = outcome.engine.runner.split_models
    assert set(models) == {"ml-purchase-filter", "second-image"}
    assert all(model is fits[0] for model in models.values())


def counting_feature_draws(monkeypatch) -> list:
    """The ``latent`` column of every feature-row draw from now on."""
    calls = []
    draw = webstore._feature_blocks

    def counting(config, latent, rng):
        calls.append(latent)
        return draw(config, latent, rng)

    monkeypatch.setattr(webstore, "_feature_blocks", counting)
    return calls


def test_sequential_runs_never_draw_feature_rows(seq_spec, small_scenario, monkeypatch):
    feature_draws = counting_feature_draws(monkeypatch)
    served = []
    run_test = WebStoreRunner.run_test

    def counting_run_test(self, program):
        served.append(program)
        return run_test(self, program)

    monkeypatch.setattr(WebStoreRunner, "run_test", counting_run_test)
    outcome = run_pipeline_once(seq_spec, small_scenario, seed=1)
    assert outcome.summary["tests"] and served
    assert feature_draws == []


def test_comparison_draws_feature_rows_only_in_split_runs(
    seq_spec, par_spec, small_scenario, monkeypatch
):
    """Each run draws its own population. A split run draws feature rows
    twice, for its training set and then for its population, and a
    sequential run never does."""
    seeds = [1, 2, 3]
    draws = []

    def counting_population(*args, **kwargs):
        draws.append(generate_population(*args, **kwargs))
        return draws[-1]

    monkeypatch.setattr("abpipe.webstore.generate_population", counting_population)
    feature_draws = counting_feature_draws(monkeypatch)
    report = compare_pipelines(seq_spec, par_spec, small_scenario, seeds)
    assert not report.partial
    assert len(draws) == 2 * len(seeds)  # the sequential run's, then the split run's
    assert len(feature_draws) == 2 * len(seeds)
    assert all(
        latent is population.latent
        for latent, population in zip(feature_draws[1::2], draws[1::2])
    )


def reference_comparison(seq_spec, par_spec, scenario, seeds, batch_size=DEFAULT_BATCH_SIZE):
    """``report.json``'s record, rebuilt with ``statistics.median`` from one
    run of each pipeline per seed; a seed whose run raised is a failure."""
    seq_runs, par_runs, failures = [], [], []
    for seed in seeds:
        for spec, runs in ((seq_spec, seq_runs), (par_spec, par_runs)):
            try:
                runs.append(run_pipeline_once(spec, scenario, seed, batch_size).summary)
            except PipelineRunError as exc:
                failures.append({"seed": seed, "pipeline": spec.name, "error": str(exc)})
                break

    def requests(runs, spec, name):
        key = spec.result_key(name)
        return [run["tests"][key]["requests"] for run in runs if key in run["tests"]]

    subs = par_spec.sub_pipeline_of
    par_roots = [t.name for t in par_spec.ab_tests if t.name not in subs]
    seq_names = [t.name for t in seq_spec.ab_tests]
    splits = [split for run in par_runs for split in run["splits"].values()]
    stream = {
        sub: int(statistics.median(s["sub_stream_totals"][sub] for s in splits))
        for sub in sorted(set(subs.values())) if splits
    }
    sequential = {}
    for name in seq_names:
        if values := requests(seq_runs, seq_spec, name):
            decided = int(statistics.median(values))
            sequential[name] = {"decided_requests": decided, "total_requests": decided,
                                "compared": name not in par_roots}
    parallel = {}
    for name, sub in subs.items():
        if values := requests(par_runs, par_spec, name):
            parallel[name] = {"decided_requests": int(statistics.median(values)),
                              "total_requests": stream[sub], "sub_pipeline": sub}
    compared = [name for name in seq_names if name not in par_roots]
    complete = not failures and set(compared) <= set(sequential) and set(subs) <= set(parallel)
    seq_total = sum(sequential[n]["decided_requests"] for n in compared) if complete else None
    par_total = max(stream.values()) if complete else None
    return {
        "sequential_pipeline": seq_spec.name,
        "parallel_pipeline": par_spec.name,
        "seeds": list(seeds),
        "batch_size": batch_size,
        "sequential_tests": sequential,
        "parallel_tests": parallel,
        "shared_tests": [n for n in seq_names if n in par_roots],
        "sequential_total": seq_total,
        "parallel_total": par_total,
        "reduction_pct": (1 - par_total / seq_total) * 100 if complete else None,
        "split_fractions": {
            sub: float(statistics.median(s["split_fractions"][sub] for s in splits))
            for sub in sorted(set(subs.values())) if splits
        },
        "unrouted_fraction": (
            float(statistics.median(s["unrouted_fraction"] for s in splits)) if splits else 0.0
        ),
        "failures": failures,
        "aggregation": "median",
        "runs": len(seeds),
        "partial": bool(failures),
        "full_scale_reference": FULL_SCALE_REFERENCE,
    }, par_runs


@pytest.mark.parametrize(
    "case, seeds, unsplit, failed",
    [
        # the GUI test ends without significance at four seeds, so no split is reached
        ({"gui_rates": {"A": 0.5, "B": 0.5}}, range(1, 9), 4, 0),
        # twenty training rows hold no purchaser at seeds 1, 3 and 6
        ({"train_samples": 20}, range(1, 7), 0, 3),
    ],
    ids=["gui-null-effect", "untrainable-seeds"],
)
def test_comparison_equals_medians_rebuilt_from_the_run_summaries(
    seq_spec, par_spec, small_scenario, case, seeds, unsplit, failed
):
    scenario = replace(small_scenario, **case)
    record = compare_pipelines(seq_spec, par_spec, scenario, list(seeds)).to_json_dict()
    expected, par_runs = reference_comparison(seq_spec, par_spec, scenario, list(seeds))
    assert sum(not run["splits"] for run in par_runs) == unsplit
    assert len(expected["failures"]) == failed
    assert json.dumps(record, sort_keys=True) == json.dumps(expected, sort_keys=True)
    for table in ("sequential_tests", "parallel_tests"):  # report.txt's row order
        assert list(record[table]) == list(expected[table])


def test_a_comparison_keeps_no_run_past_its_seed(
    seq_spec, par_spec, small_scenario, monkeypatch
):
    """Only summaries and overhead samples outlive a seed: no earlier
    run's engine is alive when a run starts."""
    engines, alive = [], []

    def tracking_run(*args, **kwargs):
        gc.collect()
        alive.append(sum(engine() is not None for engine in engines))
        outcome = run_pipeline_once(*args, **kwargs)
        engines.append(weakref.ref(outcome.engine))
        return outcome

    monkeypatch.setattr("abpipe.report.run_pipeline_once", tracking_run)
    report = compare_pipelines(seq_spec, par_spec, small_scenario, list(range(1, 7)))
    assert not report.partial and len(engines) == 12
    assert max(alive) == 0


def test_a_comparison_predicts_only_to_route(seq_spec, par_spec, small_scenario, monkeypatch):
    """The overhead's predict median times the routing's own predict calls."""
    calls = []
    predict = LinearModel.predict

    def counting_predict(self, x):
        calls.append(len(x))
        return predict(self, x)

    monkeypatch.setattr(LinearModel, "predict", counting_predict)
    report = compare_pipelines(seq_spec, par_spec, small_scenario, [1, 2, 3])
    assert not report.partial
    blocks = math.ceil(small_scenario.population_size / DRAW_BLOCK)
    assert len(calls) == 3 * blocks == 15
    assert sum(calls) == 3 * small_scenario.population_size
    assert report.overhead["predict_ms_median"] > 0


def test_a_comparison_draws_no_population_a_split_run_never_routed(
    seq_spec, par_spec, small_scenario, monkeypatch
):
    """With no GUI effect seed 2's split run ends before its split, so only
    the training sets and seed 1's split run draw feature rows."""
    scenario = replace(small_scenario, gui_rates={"A": 0.5, "B": 0.5})
    draws, reached = [], []
    draw = webstore._feature_blocks

    def counting_draw(config, latent, rng):
        draws.append(latent.shape[0])
        return draw(config, latent, rng)

    def tracking_run(spec, *args, **kwargs):
        outcome = run_pipeline_once(spec, *args, **kwargs)
        if spec.pop_splits:
            reached.append(bool(outcome.summary["splits"]))
        return outcome

    monkeypatch.setattr(webstore, "_feature_blocks", counting_draw)
    monkeypatch.setattr("abpipe.report.run_pipeline_once", tracking_run)
    report = compare_pipelines(seq_spec, par_spec, scenario, [1, 2])
    assert reached == [True, False]
    size, train = scenario.population_size, scenario.train_samples
    assert sorted(draws) == [train, train, size]
    assert {"train_ms", "deploy_ms", "predict_ms_median"} <= set(report.overhead)


@pytest.mark.parametrize("bad", [np.int64(2), True, 1.0], ids=["np-int64", "bool", "float"])
def test_a_comparison_checks_every_seed_before_its_first_run(
    seq_spec, par_spec, small_scenario, monkeypatch, bad
):
    runs = []

    def counting_run(*args, **kwargs):
        runs.append(args)
        return run_pipeline_once(*args, **kwargs)

    monkeypatch.setattr("abpipe.report.run_pipeline_once", counting_run)
    with pytest.raises(webstore.WebStoreError, match="scenario field 'seed' must be an integer"):
        compare_pipelines(seq_spec, par_spec, small_scenario, [1, bad])
    assert runs == []


def test_split_results_independent_of_drain_order(small_scenario):
    # a third of the traffic each: all three segments serve batches in
    # most arrival chunks, so a draw that depended on the order would show
    spec, catalog = segment_spec(3)
    models = {"k-way": _ThreeWayStub()}
    engines = []
    for reverse in (False, True):
        store = WebStore(small_scenario, catalog)
        runner = WebStoreRunner(store, split_models=models)
        if reverse:
            run_split = runner.run_split
            runner.run_split = lambda split, programs: run_split(split, programs[::-1])
        engine = PipelineEngine(spec, runner, catalog=catalog)
        engine.run()
        engines.append(engine)
    normal, reversed_ = engines
    assert reversed_.results == normal.results
    assert build_summary(reversed_, 1, DEFAULT_BATCH_SIZE) == build_summary(
        normal, 1, DEFAULT_BATCH_SIZE
    )
    assert reversed_.batch_results == normal.batch_results


def seed_one_models(par_spec, config):
    """The parallel bundle's split model trained on seed 1, as a run trains it."""
    config = replace(config, seed=1)
    features, labels = generate_training_data(config, config.train_samples)
    model = train(features, labels, Hyperparams(seed=1))
    return {s.split_component.image_name: model for s in par_spec.pop_splits}


@pytest.fixture(scope="module")
def chunk_cases(par_spec, scenario, small_scenario):
    """(scenario, split models, batch size) of each run the chunk test repeats.

    Batch 1000 runs the full scenario; batches 37 and 100 run the small
    one, where the sequential bundle's batch-37 run aborts partway.
    """
    full = seed_one_models(par_spec, scenario)
    small = seed_one_models(par_spec, small_scenario)
    return [
        (replace(scenario, seed=1), full, 1000),
        (replace(small_scenario, seed=1), small, 37),
        (replace(small_scenario, seed=1), small, 100),
    ]


def _events_by_instance(engine):
    """Each instance's trace events in order.

    Sub-pipeline events drop ``requests_total``: it stamps the stream
    position reached when the event is traced, and a larger chunk lets
    one sub-pipeline drain further ahead of the others before theirs.
    """
    events: dict[str, list] = {}
    for e in engine.trace:
        stamp = e.requests_total if e.instance == engine.spec.name else None
        events.setdefault(e.instance, []).append((e.event, e.detail, stamp))
    return events


@pytest.mark.parametrize("bundle", ["seq_spec", "par_spec"])
def test_runs_do_not_depend_on_the_arrival_chunk_size(
    bundle, request, chunk_cases, monkeypatch
):
    # root tests and split branches both draw CHUNK-sized blocks and push
    # the unconsumed tail back; what they consume must not depend on it.
    # A program serves every look its queue reaches in one block, so
    # CHUNK=1 (one look per block at most) is the look-by-look reference.
    spec = request.getfixturevalue(bundle)
    aborted = []
    for config, models, batch_size in chunk_cases:
        outcomes = {}
        for chunk in (1, 37, 997, 1000, 4096, 65_536):
            monkeypatch.setattr(WebStoreRunner, "CHUNK", chunk)
            store = WebStore(config)
            runner = WebStoreRunner(store, batch_size=batch_size, split_models=models)
            engine = PipelineEngine(spec, runner, catalog=store.catalog)
            try:
                engine.run()
                error = None
            except RUN_ERRORS as exc:
                error = (type(exc), str(exc))
            outcomes[chunk] = (
                _events_by_instance(engine),
                error,
                engine.results,
                engine.batch_results,
                engine.split_stats,
                runner.requests_total,
            )
        reference = outcomes.pop(1)
        if reference[1] is None:
            assert bool(spec.pop_splits) == bool(reference[4])
        else:
            aborted.append(batch_size)
        for chunk, outcome in outcomes.items():
            assert outcome == reference, f"batch {batch_size}, CHUNK {chunk}"
    # the partial trace and the error of an aborting run are compared too
    assert bundle != "seq_spec" or 37 in aborted


# ---------------------------------------------------------------------------
# run failures: a domain error fails the run, a programming error propagates


def broken_look(self, *args):
    raise TypeError("a bug in the engine")


def test_programming_error_propagates_out_of_a_run(seq_spec, small_scenario, monkeypatch):
    monkeypatch.setattr(Program, "look", broken_look)
    with pytest.raises(TypeError, match="a bug in the engine"):
        run_pipeline_once(seq_spec, small_scenario, seed=1)


def test_programming_error_propagates_out_of_a_comparison(
    seq_spec, par_spec, small_scenario, monkeypatch
):
    monkeypatch.setattr(Program, "look", broken_look)
    with pytest.raises(TypeError, match="a bug in the engine"):
        compare_pipelines(seq_spec, par_spec, small_scenario, seeds=[1, 2])


def test_insufficient_samples_fail_the_run_with_its_partial_trace(
    seq_spec, small_scenario
):
    # one request per look leaves a variant without samples at the first look
    with pytest.raises(PipelineRunError) as err:
        run_pipeline_once(seq_spec, small_scenario, seed=1, batch_size=1)
    assert isinstance(err.value.cause, InsufficientSamplesError)
    assert [e.event for e in err.value.engine.trace] == ["start", "deploy"]


def test_a_failed_split_model_fit_fails_the_run_before_any_event(
    par_spec, small_scenario
):
    # with no purchasers the training labels hold a single class
    scenario = replace(small_scenario, purchaser_prevalence=0.0)
    with pytest.raises(PipelineRunError, match="single class") as err:
        run_pipeline_once(par_spec, scenario, seed=1)
    assert isinstance(err.value.cause, ClassifierError)
    assert err.value.engine.spec is par_spec
    assert list(err.value.engine.trace) == []


def test_a_store_count_that_drifts_from_the_program_fails_the_run(
    seq_spec, small_scenario, monkeypatch
):
    # a look counts the n_a + n_b requests it saw; the store's count is only checked
    def engine_with_observer(spec, runner, **kwargs):
        def serve_one_more(event, knowledge):
            if event.event == "deploy" and event.detail["test"] == "GUI-upgrade":
                runner.store.serve_chunk("GUI-upgrade", np.zeros(1, dtype=np.int64))

        return PipelineEngine(spec, runner, observer=serve_one_more, **kwargs)

    monkeypatch.setattr("abpipe.report.PipelineEngine", engine_with_observer)
    with pytest.raises(PipelineRunError) as err:
        run_pipeline_once(seq_spec, small_scenario, seed=1)
    assert isinstance(err.value.cause, ContractViolationError)
    assert "'GUI-upgrade'" in str(err.value)
    assert [e.event for e in err.value.engine.trace] == ["start", "deploy"]


# ---------------------------------------------------------------------------
# looks: each program runs its test's looks under the one stopping rule


def look_test(
    exp_length, metric="clicks", direction="B_greater", assignment=(0.5, 0.5)
):
    variants = {"clicks": "checkout-review", "purchases": "recommender"}[metric]
    return ABTestSpec(
        "T",
        exp_length,
        assignment,
        Hypothesis(metric, direction, 0.05),
        (metric,),
        "welch_t",
        f"{variants}-v1",
        f"{variants}-v2",
    )


def run_looks(test, scenario, batch_size=DEFAULT_BATCH_SIZE):
    """Run a one-test pipeline on a new store; returns the engine and store."""
    store = WebStore(scenario)
    spec = PipelineSpec("Solo", (test,), (), (), test.name)
    runner = WebStoreRunner(store, batch_size=batch_size)
    engine = PipelineEngine(spec, runner, catalog=store.catalog)
    engine.run()
    return engine, store


@pytest.fixture
def null_scenario(small_scenario):
    # B clicks far more often than A: a B_less hypothesis is never significant
    return replace(small_scenario, review_rates={"A": 0.1, "B": 0.9})


def test_null_effect_runs_to_cap(null_scenario):
    engine, _ = run_looks(look_test(5000, direction="B_less"), null_scenario)
    looks = engine.batch_results["T"]
    assert len(looks) == 5
    assert looks[-1].requests_consumed == 5000
    assert not any(r.significant for r in looks)
    assert engine.results["T"] == looks[-1]


def test_results_only_at_batch_boundaries(null_scenario):
    engine, _ = run_looks(look_test(5000, direction="B_less"), null_scenario)
    looks = engine.batch_results["T"]
    assert [r.requests_consumed for r in looks] == [1000, 2000, 3000, 4000, 5000]
    assert [r.n_a + r.n_b for r in looks] == [1000, 2000, 3000, 4000, 5000]


def test_cap_not_on_boundary_still_checks_at_cap(null_scenario):
    engine, _ = run_looks(look_test(2500, direction="B_less"), null_scenario)
    looks = engine.batch_results["T"]
    assert [r.requests_consumed for r in looks] == [1000, 2000, 2500]


def test_program_stops_at_first_significant(small_scenario):
    scenario = replace(small_scenario, review_rates={"A": 0.2, "B": 0.6})
    engine, store = run_looks(look_test(100_000), scenario)
    looks = engine.batch_results["T"]
    assert looks[-1].significant
    assert not any(r.significant for r in looks[:-1])
    kinds = [e.event for e in engine.trace]
    last_look = len(kinds) - 1 - kinds[::-1].index("batch_result")
    assert kinds[last_look + 1 :] == ["transition", "end"]
    assert kinds.count("deploy") == 1
    assert store.active_tests == []


def test_in_segment_recommendation_decides_within_first_batches(small_scenario):
    # purchaser-only purchase rates under the shipped 96/4 assignment
    scenario = replace(small_scenario, purchaser_prevalence=1.0)
    test = look_test(150_000, metric="purchases", assignment=(0.96, 0.04))
    engine, _ = run_looks(test, scenario)
    last = engine.batch_results["T"][-1]
    assert last.significant
    assert last.requests_consumed <= 5000


def test_metrics_a_test_collects_besides_its_hypothesis_change_no_artifact(
    small_scenario, tmp_path
):
    # the store serves only the hypothesis metric, on the draws it always had
    artifacts = []
    for metrics in (("clicks",), ("clicks", "engagement", "purchases")):
        test = replace(look_test(20_000), ab_metrics=metrics)
        spec = PipelineSpec("Solo", (test,), (), (), test.name)
        for seed in (1, 2, 3):
            out = tmp_path / f"{len(metrics)}-{seed}"
            out.mkdir()
            outcome = run_pipeline_once(spec, small_scenario, seed=seed)
            write_run_outputs(out, outcome.engine, outcome.summary)
            artifacts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert artifacts[:3] == artifacts[3:]
    assert {"summary.json", "trace.jsonl", "pvalues_T.csv"} == set(artifacts[0])


def test_engine_a_a_rate_matches_a_stats_only_simulation(seq_spec, small_scenario):
    # With no true effect, looking after every batch lifts the share of
    # runs that end significant far above alpha (Kohavi, Tang & Xu 2020,
    # ch. 19). The engine must give the share the statistics alone give
    # on the same look schedule; nothing is asserted about alpha itself.
    gui = seq_spec.test("GUI-upgrade")
    spec = PipelineSpec("A-A", (gui,), (), (), gui.name)
    scenario = replace(small_scenario, gui_rates={"A": 0.5, "B": 0.5})
    runs = 100
    engine_hits = 0
    for seed in range(1, runs + 1):
        outcome = run_pipeline_once(spec, scenario, seed, batch_size=1000)
        engine_hits += outcome.engine.results[gui.name].significant
    # i.i.d. Bernoulli(0.5) samples under a 50/50 assignment, drawn as the
    # per-look counts they sum to: requests to A, then successes per variant
    ends = [0]
    while ends[-1] < gui.exp_length:
        ends.append(next_boundary(ends[-1], gui.exp_length, 1000))
    sizes = np.diff(ends)
    sims = 500
    rng = np.random.default_rng(2020)
    to_a = rng.binomial(sizes, 0.5, size=(sims, sizes.size))
    hits_a, hits_b = rng.binomial(to_a, 0.5), rng.binomial(sizes - to_a, 0.5)
    n_a, k_a, n_b, k_b = (
        np.cumsum(x, axis=1).tolist() for x in (to_a, hits_a, sizes - to_a, hits_b)
    )

    def acc(n, k):  # the moments of k ones among n samples
        return MetricAccumulator(n, k / n, k * (n - k) / n)

    hyp = gui.hypothesis
    sim_hits = sum(
        any(
            welch_t_test(acc(*a), acc(*b), hyp.direction, hyp.alpha).significant
            for a, b in zip(zip(n_a[r], k_a[r]), zip(n_b[r], k_b[r]))
        )
        for r in range(sims)
    )
    engine_rate, sim_rate = engine_hits / runs, sim_hits / sims
    print(f"A/A significant share: engine {engine_rate:.3f}, simulation {sim_rate:.3f}")
    pooled = (engine_hits + sim_hits) / (runs + sims)
    z = statistics.NormalDist().inv_cdf(0.9995)
    bound = z * math.sqrt(pooled * (1 - pooled) * (1 / runs + 1 / sims))
    assert abs(engine_rate - sim_rate) <= bound


def test_bad_batch_size(small_scenario):
    store = WebStore(small_scenario)
    served = []
    store.serve_chunk = lambda *args: served.append(args)
    spec = PipelineSpec("Solo", (look_test(5000),), (), (), "T")
    engine = PipelineEngine(
        spec, WebStoreRunner(store, batch_size=0), catalog=store.catalog
    )
    with pytest.raises(StatsError, match="batch_size"):
        engine.run()
    assert served == []
    with pytest.raises(StatsError):
        next_boundary(0, 5000, 0)
