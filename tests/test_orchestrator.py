import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from abpipe.classifier import Hyperparams, route_class, train
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
    Program,
    SpecInvalidError,
    UntrainedModelError,
    WebStoreRunner,
    WriteOnceError,
    next_element,
)
from abpipe.report import (
    RUN_ERRORS,
    PipelineRunError,
    build_summary,
    compare_pipelines,
    run_pipeline_once,
    write_report,
)
from abpipe.stats import (
    DEFAULT_BATCH_SIZE,
    InsufficientSamplesError,
    StatResult,
    StatsError,
    next_boundary,
)
from abpipe import webstore
from abpipe.webstore import WebStore, generate_population, generate_training_data

from case_generator import _make_test, _script
from scripted_runner import ScriptedRunner


def result_for(p=0.5, effect=0.0, requests=1000, significant=None):
    significant = p <= 0.05 if significant is None else significant
    return StatResult(p, 0.1, 0.1 + effect, requests // 2, requests // 2, significant, requests)


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


def test_invalid_spec_rejected_before_running():
    spec = PipelineSpec("Bad", (), (), (), "missing")
    with pytest.raises(SpecInvalidError):
        PipelineEngine(spec, ScriptedRunner({})).run()


def test_write_once_results():
    spec, scripts = single_test_spec()
    engine = PipelineEngine(spec, ScriptedRunner(scripts))
    engine._record_result("Solo", "T1", result_for())
    with pytest.raises(WriteOnceError):
        engine._record_result("Solo", "T1", result_for())
    assert list(engine.results) == ["T1"]


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
    engine = PipelineEngine(spec, ScriptedRunner(scripts))
    engine.setup_and_initiate()
    programs = engine.execute_split_entry(spec.pop_splits[0])
    assert engine.knowledge.has("Seg-A") and engine.knowledge.has("Seg-B")
    assert engine.knowledge.live_count == 3  # root + two sub-pipelines
    with pytest.raises(InstanceCollisionError):
        engine.execute_split_entry(spec.pop_splits[0])
    with pytest.raises(ContractViolationError):
        engine.execute_split_exit(spec.pop_splits[0], programs)


def test_colliding_split_entry_adds_no_instance():
    spec, scripts = split_spec()
    knowledge = KnowledgeRepository()
    knowledge.add_instances(["Seg-B"])  # Seg-A is free, Seg-B collides
    engine = PipelineEngine(spec, ScriptedRunner(scripts), knowledge=knowledge)
    engine.setup_and_initiate()
    with pytest.raises(InstanceCollisionError):
        engine.execute_split_entry(spec.pop_splits[0])
    assert knowledge.live_count == 2 and not knowledge.has("Seg-A")
    assert [e.event for e in engine.trace] == ["start"]


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
    table = runner._routing_table(split, programs)
    classes = _ThreeWayStub().predict(runner.store.population.features)
    expected = unique_routing_table(split, programs, classes)
    assert table.dtype == expected.dtype
    assert np.array_equal(table, expected)
    assert np.array_equal(np.bincount(table), np.bincount(classes))


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
    table = runner._routing_table(split, programs)
    assert table.dtype == np.min_scalar_type(len(programs)) == dtype
    classes = np.arange(small_scenario.population_size, dtype=np.int64) % k
    assert np.array_equal(table, unique_routing_table(split, programs, classes))


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
    qualified = set(summary["tests"])
    assert "Review-pipeline/Review-upgrade" in qualified
    assert "Recommendation-pipeline/Recommendation-upgrade" in qualified


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
    draw = webstore._draw_features

    def counting(config, latent, rng):
        calls.append(latent)
        return draw(config, latent, rng)

    monkeypatch.setattr(webstore, "_draw_features", counting)
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


def test_comparison_draws_one_population_per_seed(
    seq_spec, par_spec, small_scenario, tmp_path, monkeypatch
):
    """The split run reuses its seed's sequential population, draws its
    feature rows once, and the report is byte-identical to runs that
    each draw their own."""
    seeds = [1, 2, 3]
    draws = []

    def counting_population(*args, **kwargs):
        draws.append(generate_population(*args, **kwargs))
        return draws[-1]

    monkeypatch.setattr("abpipe.webstore.generate_population", counting_population)
    feature_draws = counting_feature_draws(monkeypatch)
    report = compare_pipelines(seq_spec, par_spec, small_scenario, seeds)
    write_report(report, tmp_path / "shared")
    assert len(draws) == len(seeds)
    population_rows = [
        latent for latent in feature_draws if any(latent is p.latent for p in draws)
    ]
    assert len(population_rows) == len(seeds)
    assert len(feature_draws) == 2 * len(seeds)  # and one training set each

    def fresh_run(*args, population=None, **kwargs):
        return run_pipeline_once(*args, **kwargs)

    monkeypatch.setattr("abpipe.report.run_pipeline_once", fresh_run)
    report = compare_pipelines(seq_spec, par_spec, small_scenario, seeds)
    write_report(report, tmp_path / "fresh")
    assert len(draws) == 3 * len(seeds)
    shared, fresh = (tmp_path / name / "report.json" for name in ("shared", "fresh"))
    assert shared.read_bytes() == fresh.read_bytes()


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


def broken_look(self, served, block, requests_consumed):
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
