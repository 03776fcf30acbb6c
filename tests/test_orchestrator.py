from dataclasses import replace

import numpy as np
import pytest

from abpipe.classifier import Hyperparams, train
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
    InstanceCollisionError,
    KnowledgeRepository,
    OrchestratorError,
    PipelineEngine,
    ScriptedRunner,
    SpecInvalidError,
    UntrainedModelError,
    WebStoreRunner,
    WriteOnceError,
    execute_pipeline,
    next_element,
    rule_applies,
)
from abpipe.report import build_summary, run_pipeline_once
from abpipe.stats import DEFAULT_BATCH_SIZE, StatResult
from abpipe.webstore import WebStore, generate_training_data

from case_generator import _make_test, _script


def result_for(test="T1", p=0.5, effect=0.0, requests=1000, significant=None):
    significant = p <= 0.05 if significant is None else significant
    return StatResult(test, p, 0.1, 0.1 + effect, requests // 2, requests // 2,
                      significant, requests)


# ---------------------------------------------------------------------------
# rule application


def test_rule_applies_on_matching_test_and_condition():
    rule = TransitionRule("r", "T1", "p_value <= 0.05 and effect > 0", "T2")
    assert rule_applies(rule, result_for(p=0.01, effect=0.015), "T1")


def test_rule_rejects_other_test():
    rule = TransitionRule("r", "T1", "p_value <= 0.05 and effect > 0", "T2")
    assert not rule_applies(rule, result_for(test="T9", p=0.01, effect=0.015), "T9")


def test_rule_boundary_is_inclusive():
    rule = TransitionRule("r", "T1", "p_value <= 0.05", "T2")
    assert rule_applies(rule, result_for(p=0.05), "T1")


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
    trace, results = execute_pipeline(spec, ScriptedRunner(scripts))
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
        ("Chain", "T1"): [result_for("T1", p=0.01)],
        ("Chain", "T2"): [result_for("T2", p=0.01)],
    }
    trace, results = execute_pipeline(spec, ScriptedRunner(scripts))
    deploys = [e.detail["test"] for e in trace if e.event == "deploy"]
    assert deploys == ["T1", "T2"]
    assert set(results) == {"T1", "T2"}


def test_unfired_rules_default_to_end_without_deploying_next():
    t1, t2 = _make_test("T1", 1), _make_test("T2", 1)
    rules = (TransitionRule("r1", "T1", "p_value <= 0.05", "T2"),)
    spec = PipelineSpec("Halt", (t1, t2), rules, (), "T1")
    scripts = {
        ("Halt", "T1"): [result_for("T1", p=0.4, significant=False)],
    }
    trace, results = execute_pipeline(spec, ScriptedRunner(scripts))
    deploys = [e.detail["test"] for e in trace if e.event == "deploy"]
    assert deploys == ["T1"]
    transitions = [e for e in trace if e.event == "transition"]
    assert transitions[0].detail == {"from": "T1", "rule": None, "to": "end"}
    assert "T2" not in results


def test_degenerate_pipeline_start_end():
    spec = PipelineSpec("Noop", (), (), (), "end")
    trace, results = execute_pipeline(spec, ScriptedRunner({}))
    assert [e.event for e in trace] == ["start", "end"]
    assert results == {}


def test_root_end_event_carries_notification():
    spec, scripts = single_test_spec()
    trace, _ = execute_pipeline(spec, ScriptedRunner(scripts))
    assert trace.events[-1].detail == {"notified": True}


def test_invalid_spec_rejected_before_running():
    spec = PipelineSpec("Bad", (), (), (), "missing")
    with pytest.raises(SpecInvalidError):
        execute_pipeline(spec, ScriptedRunner({}))


def test_write_once_results():
    instance = KnowledgeRepository().add_instance("I")
    instance.record_result("T", result_for())
    with pytest.raises(WriteOnceError):
        instance.record_result("T", result_for())


def test_duplicate_initiation_rejected():
    spec, scripts = single_test_spec()
    knowledge = KnowledgeRepository()
    first = PipelineEngine(spec, ScriptedRunner(scripts), knowledge=knowledge)
    first.setup_and_initiate()
    second = PipelineEngine(spec, ScriptedRunner(scripts), knowledge=knowledge)
    with pytest.raises(InstanceCollisionError):
        second.setup_and_initiate()
    with pytest.raises(AlreadyRunningError):
        first.setup_and_initiate()


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
        ("Seg-A", "A1"): [result_for("A1", p=0.01)],
        ("Seg-B", "B1"): [
            result_for("B1", p=0.5, significant=False),
            result_for("B1", p=0.01, requests=2000),
        ],
    }
    if next_component == "POST":
        scripts[("Split", "POST")] = [result_for("POST", p=0.01)]
    return spec, scripts


def test_split_creates_one_instance_per_sub_pipeline():
    spec, scripts = split_spec()
    engine = PipelineEngine(spec, ScriptedRunner(scripts))
    engine.setup_and_initiate()
    programs = engine.execute_split_entry(spec.pop_splits[0])
    assert engine.knowledge.has("Seg-A") and engine.knowledge.has("Seg-B")
    assert engine.knowledge.live_count == 3  # root + two sub-pipelines
    routing = engine.knowledge.get("Seg-A").routing_config
    assert routing == ("likelihood", ClassCondition("==", 0))
    with pytest.raises(InstanceCollisionError):
        engine.execute_split_entry(spec.pop_splits[0])
    with pytest.raises(ContractViolationError):
        engine.execute_split_exit(spec.pop_splits[0], programs)


def test_split_exit_copies_namespaced_results_and_clears_instances():
    spec, scripts = split_spec()
    trace, results = execute_pipeline(spec, ScriptedRunner(scripts))
    assert set(results) == {"Seg-A/A1", "Seg-B/B1"}
    ends = [e.instance for e in trace if e.event == "end"]
    assert ends == ["Seg-A", "Seg-B", "Split"]


def test_split_next_component_deployed_after_exit():
    spec, scripts = split_spec(next_component="POST")
    trace, results = execute_pipeline(spec, ScriptedRunner(scripts))
    kinds = [(e.event, e.detail.get("test")) for e in trace]
    exit_at = kinds.index(("split_exit", None))
    assert ("deploy", "POST") in kinds[exit_at:]
    assert "POST" in results


def test_trace_is_well_nested():
    spec, scripts = split_spec()
    trace, _ = execute_pipeline(spec, ScriptedRunner(scripts))
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
    with pytest.raises(Exception):
        engine.setup_and_initiate()
    assert store.active_tests == []


def test_untrained_split_model_rejected(par_spec, small_scenario):
    store = WebStore(small_scenario)
    runner = WebStoreRunner(store, split_models={})
    with pytest.raises(UntrainedModelError):
        runner.ensure_split_model(par_spec.pop_splits[0])


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
    assert engine.knowledge.live_count == 0
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


def test_parallel_run_collects_split_stats(par_spec, small_scenario):
    outcome = run_pipeline_once(par_spec, small_scenario, seed=3)
    summary = outcome.summary
    split = summary["splits"]["Population-split-purchases-prediction"]
    fractions = split["split_fractions"]
    assert 0.0 <= split["unrouted_fraction"] <= 1.0
    assert sum(fractions.values()) <= 1.0 + 1e-9
    assert set(fractions) == {"Review-pipeline", "Recommendation-pipeline"}
    qualified = set(summary["tests"])
    assert "Review-pipeline/Review-upgrade" in qualified
    assert "Recommendation-pipeline/Recommendation-upgrade" in qualified


def test_split_results_independent_of_drain_order(small_scenario):
    # a third of the traffic each: all three segments serve batches in
    # most arrival chunks, so a draw that depended on the order would show
    spec, catalog = segment_spec(3)
    models = {"k-way": _ThreeWayStub()}
    engines = []
    for reverse in (False, True):
        store = WebStore(small_scenario, catalog)
        engine = PipelineEngine(
            spec, WebStoreRunner(store, split_models=models), catalog=catalog
        )
        if reverse:
            entry = engine.execute_split_entry
            engine.execute_split_entry = lambda split: entry(split)[::-1]
        engine.run()
        engines.append(engine)
    normal, reversed_ = engines
    assert reversed_.results == normal.results
    assert build_summary(reversed_, 1, DEFAULT_BATCH_SIZE) == build_summary(
        normal, 1, DEFAULT_BATCH_SIZE
    )
    assert reversed_.batch_results == normal.batch_results


@pytest.fixture(scope="module")
def seed_one_models(par_spec, scenario):
    """The parallel bundle's split model trained on seed 1, as a run trains it."""
    config = replace(scenario, seed=1)
    features, labels = generate_training_data(config, config.train_samples)
    model = train(features, labels, Hyperparams(seed=1))
    return {s.split_component.image_name: model for s in par_spec.pop_splits}


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
    bundle, request, scenario, seed_one_models, monkeypatch
):
    # root tests and split branches both draw CHUNK-sized blocks and push
    # the unconsumed tail back; what they consume must not depend on it
    spec = request.getfixturevalue(bundle)
    outcomes = []
    for chunk in (1, 37, 997, 1000, 4096, 65_536):
        monkeypatch.setattr(WebStoreRunner, "CHUNK", chunk)
        store = WebStore(replace(scenario, seed=1))
        runner = WebStoreRunner(store, split_models=seed_one_models)
        engine = PipelineEngine(spec, runner, catalog=store.catalog)
        engine.run()
        outcomes.append(
            (
                _events_by_instance(engine),
                engine.results,
                engine.batch_results,
                engine.split_stats,
                runner.requests_total,
            )
        )
    assert bool(spec.pop_splits) == bool(outcomes[0][3])
    for outcome in outcomes[1:]:
        assert outcome == outcomes[0]
