import itertools
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

import abpipe.report
from abpipe.blueprints import parse_blueprints
from abpipe.cli import EXIT_DOMAIN, main
from abpipe.orchestrator import SpecInvalidError, WebStoreRunner
from abpipe.report import compare_pipelines
from abpipe import classifier, webstore
from abpipe.webstore import save_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture()
def small_scenario_file(tmp_path, small_scenario) -> Path:
    path = tmp_path / "scenario.json"
    save_scenario(small_scenario, path)
    return path


def read_all_bytes(folder: Path) -> dict[str, bytes]:
    return {
        p.relative_to(folder).as_posix(): p.read_bytes()
        for p in sorted(folder.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# validate


def test_validate_shipped_bundles(seq_bundle, par_bundle, capsys):
    assert main(["validate", str(seq_bundle)]) == 0
    assert main(["validate", str(par_bundle)]) == 0
    assert "no violations" in capsys.readouterr().out


def test_validate_dangling_reference(tmp_path, seq_bundle, capsys):
    bundle = tmp_path / "broken"
    shutil.copytree(seq_bundle, bundle)
    record = json.loads((bundle / "pipeline.json").read_text())
    record["experiments"].append("X")
    (bundle / "pipeline.json").write_text(json.dumps(record))
    assert main(["validate", str(bundle)]) == 1
    assert "'X'" in capsys.readouterr().err


def test_validate_nonexistent_path(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope")]) == 2
    assert "not found" in capsys.readouterr().err


def test_validate_semantic_violation(tmp_path, par_bundle, capsys):
    bundle = tmp_path / "nonexclusive"
    shutil.copytree(par_bundle, bundle)
    path = bundle / "splits" / "Population-split-purchases-prediction.json"
    record = json.loads(path.read_text())
    record["conditionalStatements"] = [
        {"op": "==", "value": 0},
        {"op": "==", "value": 0},
    ]
    path.write_text(json.dumps(record))
    assert main(["validate", str(bundle)]) == 1
    assert "non-exclusive-split-conditions" in capsys.readouterr().out


@pytest.mark.parametrize(
    "bundle_name, file, keys, value",
    [
        ("sequential", "experiments/GUI-upgrade.json", ("expLength",), "abc"),
        ("sequential", "experiments/GUI-upgrade.json", ("expLength",), 1500.7),
        ("sequential", "experiments/GUI-upgrade.json", ("expLength",), True),
        ("sequential", "experiments/GUI-upgrade.json", ("abAssignment",), [0.5, None]),
        ("sequential", "experiments/GUI-upgrade.json", ("abAssignment",), [0.5, "0.5"]),
        ("sequential", "experiments/GUI-upgrade.json", ("hypothesis", "alpha"), None),
        ("sequential", "experiments/GUI-upgrade.json", ("hypothesis",), None),
        ("sequential", "experiments/GUI-upgrade.json", ("abMetrics",), "engagement"),
        ("sequential", "experiments/GUI-upgrade.json", ("abMetrics",), [1]),
        (
            "parallel",
            "splits/Population-split-purchases-prediction.json",
            ("conditionalStatements", 0, "value"),
            "0",
        ),
        (
            "parallel",
            "splits/Population-split-purchases-prediction.json",
            ("conditionalStatements", 0, "value"),
            0.5,
        ),
        (
            "parallel",
            "splits/Population-split-purchases-prediction.json",
            ("splitComponent",),
            None,
        ),
        ("parallel", "pipeline.json", ("subPipelines",), [5]),
        ("sequential", "experiments/GUI-upgrade.json", ("name",), ["x"]),
        ("sequential", "pipeline.json", ("experiments",), "GUI-upgrade"),
        ("sequential", "pipeline.json", ("transitionRules",), "GUI-upgrade-success"),
        (
            "parallel",
            "pipeline.json",
            ("subPipelines", 0, "experiments"),
            "Review-upgrade",
        ),
        (
            "parallel",
            "splits/Population-split-purchases-prediction.json",
            ("pipelines",),
            "Review-pipeline",
        ),
        (
            "parallel",
            "pipeline.json",
            ("populationSplits",),
            "Population-split-purchases-prediction",
        ),
        (
            "parallel",
            "pipeline.json",
            ("subPipelines", 0, "transitionRules"),
            "GUI-upgrade-to-split",
        ),
        ("parallel", "pipeline.json", ("subPipelines", 0, "id"), 5),
        ("sequential", "pipeline.json", ("name",), 5),
        (
            "parallel",
            "splits/Population-split-purchases-prediction.json",
            ("conditionalStatements",),
            None,
        ),
        ("parallel", "experiments/GUI-upgrade.json", ("variantA",), ["webstore-gui-v1"]),
        ("sequential", "experiments/GUI-upgrade.json", ("variantB",), 5),
        ("sequential", "experiments/GUI-upgrade.json", ("statTest",), None),
        ("sequential", "experiments/GUI-upgrade.json", ("hypothesis", "metric"), [1]),
        ("sequential", "experiments/GUI-upgrade.json", ("hypothesis", "direction"), 1),
        ("sequential", "rules/GUI-upgrade-success.json", ("assocAbTest",), 5),
        ("sequential", "rules/GUI-upgrade-success.json", ("condStat",), None),
        ("sequential", "rules/GUI-upgrade-success.json", ("subseqAbTest",), ["end"]),
        ("sequential", "pipeline.json", ("startingComponent",), None),
        ("parallel", "pipeline.json", ("subPipelines", 0, "startingComponent"), 5),
        (
            "parallel",
            "splits/Population-split-purchases-prediction.json",
            ("splitProperty",),
            1,
        ),
        (
            "parallel",
            "splits/Population-split-purchases-prediction.json",
            ("nextComponent",),
            None,
        ),
        (
            "parallel",
            "splits/Population-split-purchases-prediction.json",
            ("splitComponent", "serviceName"),
            5,
        ),
        (
            "parallel",
            "splits/Population-split-purchases-prediction.json",
            ("splitComponent", "imageName"),
            5,
        ),
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_mistyped_blueprint_field_fails_in_one_line(
    tmp_path, command, bundle_name, file, keys, value, capsys
):
    bundle = tmp_path / bundle_name
    shutil.copytree(SCENARIOS / bundle_name, bundle)
    path = bundle / file
    record = json.loads(path.read_text())
    parent = record
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path.write_text(json.dumps(record))
    argv = [command, str(bundle)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"{path}: {keys[0]}")
    assert "Traceback" not in captured.out + captured.err


def _add_rule(bundle: Path, name: str, assoc: str, cond: str, subseq: str) -> None:
    record = {
        "name": name,
        "assocAbTest": assoc,
        "condStat": cond,
        "subseqAbTest": subseq,
    }
    (bundle / "rules" / f"{name}.json").write_text(json.dumps(record))
    pipeline = json.loads((bundle / "pipeline.json").read_text())
    pipeline["transitionRules"].append(name)
    (bundle / "pipeline.json").write_text(json.dumps(pipeline))


def _continue_split_at_root(bundle: Path) -> None:
    path = bundle / "splits" / "Population-split-purchases-prediction.json"
    record = json.loads(path.read_text())
    record["nextComponent"] = "GUI-upgrade"
    path.write_text(json.dumps(record))


LOOPS = {
    "self-loop": (
        "sequential",
        lambda b: _add_rule(
            b, "GUI-retry", "GUI-upgrade", "p_value > 0.05", "GUI-upgrade"
        ),
    ),
    "two-test-loop": (
        "sequential",
        lambda b: _add_rule(
            b, "Review-back", "Review-upgrade", "p_value > 0.05", "GUI-upgrade"
        ),
    ),
    "split-loop": ("parallel", _continue_split_at_root),
}


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_transition_cycle_fails_validate_and_run(tmp_path, loop, capsys):
    bundle_name, mutate = LOOPS[loop]
    bundle = tmp_path / loop
    shutil.copytree(SCENARIOS / bundle_name, bundle)
    mutate(bundle)
    assert main(["validate", str(bundle)]) == 1
    assert "[transition-cycle]" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["run", str(bundle), "--out", str(out)]) == 1
    assert "[transition-cycle]" in capsys.readouterr().err
    assert not out.exists()  # failed before anything was served or written


def _name_review_pipeline_as_the_root(bundle: Path) -> None:
    for path in (bundle / "pipeline.json", *(bundle / "splits").iterdir()):
        text = path.read_text().replace('"Review-pipeline"', '"Parallel-evaluation-pipeline"')
        path.write_text(text)


def _enter_review_test_from_the_root(bundle: Path) -> None:
    path = bundle / "rules" / "GUI-upgrade-to-split.json"
    record = json.loads(path.read_text())
    record["subseqAbTest"] = "Review-upgrade"
    path.write_text(json.dumps(record))


MISPLACED_SUB_PIPELINES = {
    "sub-pipeline-named-as-the-pipeline": (
        _name_review_pipeline_as_the_root,
        "[duplicate-name] Parallel-evaluation-pipeline: declared as both pipeline"
        " and sub-pipeline",
    ),
    "sub-pipeline-test-entered-from-the-root": (
        _enter_review_test_from_the_root,
        "[sub-pipeline-test-outside-split]"
        " Parallel-evaluation-pipeline/GUI-upgrade-to-split: subsequent element"
        " 'Review-upgrade' runs only in sub-pipeline 'Review-pipeline'",
    ),
}


@pytest.mark.parametrize("case", sorted(MISPLACED_SUB_PIPELINES))
def test_misplaced_sub_pipeline_fails_validate_and_run(tmp_path, case, capsys):
    mutate, line = MISPLACED_SUB_PIPELINES[case]
    bundle = tmp_path / case
    shutil.copytree(SCENARIOS / "parallel", bundle)
    mutate(bundle)
    assert main(["validate", str(bundle)]) == 1
    assert capsys.readouterr().out.splitlines() == [line]
    out = tmp_path / "out"
    assert main(["run", str(bundle), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{bundle}:", line]
    assert not out.exists()  # failed before anything was deployed or written


def _edit_json(path: Path, edit) -> None:
    record = json.loads(path.read_text())
    edit(record)
    path.write_text(json.dumps(record))


def _run_review_test_at_the_root_as(name: str):
    """A root test ``name`` after the split, with Review-upgrade's definition."""

    def mutate(bundle: Path) -> None:
        record = json.loads((bundle / "experiments" / "Review-upgrade.json").read_text())
        record["name"] = name
        (bundle / "experiments" / "root-review.json").write_text(json.dumps(record))
        _edit_json(bundle / "pipeline.json", lambda r: r["experiments"].append(name))
        _edit_json(
            bundle / "splits" / "Population-split-purchases-prediction.json",
            lambda r: r.update(nextComponent=name),
        )

    return mutate


def _alternative_splits_over_the_same_tests(bundle: Path) -> None:
    """GUI-upgrade enters one of two splits whose sub-pipelines run the same tests."""
    first = "Population-split-purchases-prediction"
    record = json.loads((bundle / "splits" / f"{first}.json").read_text())
    record["name"] = "Alternative-split"
    record["pipelines"] = [f"X-{sub}" for sub in record["pipelines"]]
    (bundle / "splits" / "Alternative-split.json").write_text(json.dumps(record))

    def add_alternative(pipeline: dict) -> None:
        pipeline["populationSplits"].append("Alternative-split")
        pipeline["subPipelines"] += [
            {**sub, "id": f"X-{sub['id']}"} for sub in pipeline["subPipelines"]
        ]

    _edit_json(bundle / "pipeline.json", add_alternative)
    _edit_json(
        bundle / "rules" / "GUI-upgrade-to-split.json",
        lambda r: r.update(condStat="p_value <= 0.05"),
    )
    _add_rule(
        bundle, "GUI-upgrade-to-alternative", "GUI-upgrade", "p_value > 0.05",
        "Alternative-split",
    )


COLLIDING_RESULT_KEYS = {
    "root-test-keyed-like-a-sub-pipeline-result": (
        _run_review_test_at_the_root_as("Review-pipeline/Review-upgrade"),
        [
            "[result-key-collision] Review-upgrade: results keyed"
            " 'Review-pipeline/Review-upgrade' share p-value file"
            " 'pvalues_Review-pipeline__Review-upgrade.csv' with test"
            " 'Review-pipeline/Review-upgrade', keyed 'Review-pipeline/Review-upgrade'"
        ],
    ),
    "root-test-sharing-a-p-value-file": (
        _run_review_test_at_the_root_as("Review-pipeline__Review-upgrade"),
        [
            "[result-key-collision] Review-upgrade: results keyed"
            " 'Review-pipeline/Review-upgrade' share p-value file"
            " 'pvalues_Review-pipeline__Review-upgrade.csv' with test"
            " 'Review-pipeline__Review-upgrade', keyed 'Review-pipeline__Review-upgrade'"
        ],
    ),
    "tests-listed-by-two-splits": (
        _alternative_splits_over_the_same_tests,
        [
            f"[result-key-collision] {test}: listed by sub-pipelines of splits"
            " 'Population-split-purchases-prediction' and 'Alternative-split'"
            for test in ("Review-upgrade", "Recommendation-upgrade")
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(COLLIDING_RESULT_KEYS))
def test_colliding_result_keys_fail_validate_and_run(
    tmp_path, case, small_scenario_file, capsys
):
    # each bundle used to validate; a run then failed midway, overwrote one
    # p-value trace with another, or dropped a result from the summary
    mutate, lines = COLLIDING_RESULT_KEYS[case]
    bundle = tmp_path / case
    shutil.copytree(SCENARIOS / "parallel", bundle)
    mutate(bundle)
    assert main(["validate", str(bundle)]) == 1
    assert capsys.readouterr().out.splitlines() == lines
    out = tmp_path / "out"
    scenario = ["--scenario", str(small_scenario_file)]
    for seed in ("1", "2"):
        assert main(["run", str(bundle), *scenario, "--seed", seed, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"{bundle}:", *lines]
        assert not out.exists()  # failed before anything was deployed or written


def _rename_review_test(bundle: Path, name: str) -> None:
    """Rename the sequential bundle's Review-upgrade wherever it is named."""
    _edit_json(bundle / "experiments" / "Review-upgrade.json", lambda r: r.update(name=name))
    _edit_json(
        bundle / "pipeline.json",
        lambda r: r.update(experiments=["GUI-upgrade", name, "Recommendation-upgrade"]),
    )
    rules = bundle / "rules"
    _edit_json(rules / "GUI-upgrade-success.json", lambda r: r.update(subseqAbTest=name))
    _edit_json(rules / "Review-upgrade-success.json", lambda r: r.update(assocAbTest=name))


@pytest.mark.parametrize("name", ["Review\0upgrade", "R" * 250], ids=["nul", "too-long"])
def test_result_file_name_the_file_system_refuses_fails_validate_and_run(
    tmp_path, name, small_scenario_file, capsys
):
    # both used to validate; the run then served the whole pipeline and died
    # writing the p-value file, with a traceback or with exit 2
    bundle = tmp_path / "bundle"
    shutil.copytree(SCENARIOS / "sequential", bundle)
    _rename_review_test(bundle, name)
    shown = name.replace("\0", "\\x00")  # the element prints escaped, on one line
    line = (
        f"[bad-result-file-name] {shown}: p-value file name {f'pvalues_{name}.csv'!r}"
        " has a NUL or over 255 UTF-8 bytes"
    )
    assert main(["validate", str(bundle)]) == 1
    assert capsys.readouterr().out.splitlines() == [line]
    out = tmp_path / "out"
    argv = ["run", str(bundle), "--scenario", str(small_scenario_file), "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{bundle}:", line]
    assert not out.exists()


def _write_bytes_into_a_rule(bundle: Path) -> Path:
    path = bundle / "rules" / "GUI-upgrade-success.json"
    path.write_bytes(path.read_bytes().replace(b'"GUI-upgrade-success"', b'"GUI\xff"'))
    return path


def _name_review_test_with_a_lone_surrogate(bundle: Path) -> Path:
    _rename_review_test(bundle, "Review\ud800")  # json.dumps writes the escape
    return bundle / "experiments" / "Review-upgrade.json"


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (_write_bytes_into_a_rule, "not UTF-8 text: invalid start byte at byte 16"),
        (
            _name_review_test_with_a_lone_surrogate,
            "name must encode as UTF-8, got 'Review\\ud800'",
        ),
    ],
    ids=["byte-0xff", "lone-surrogate"],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_blueprint_text_that_is_not_utf8_fails_in_one_line(
    tmp_path, command, mutate, reason, small_scenario_file, capsys
):
    # both used to end in a UnicodeDecodeError or UnicodeEncodeError traceback
    bundle = tmp_path / "bundle"
    shutil.copytree(SCENARIOS / "sequential", bundle)
    path = mutate(bundle)
    out = tmp_path / "out"
    argv = [command, str(bundle)]
    if command == "run":
        argv += ["--scenario", str(small_scenario_file), "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{path}: {reason}"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# run


def test_run_sequential_writes_artifacts(tmp_path, seq_bundle, small_scenario_file):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            str(seq_bundle),
            "--scenario",
            str(small_scenario_file),
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (out / "trace.jsonl").exists()
    assert len(summary["tests"]) == 3
    for row in summary["tests"].values():
        assert row["requests"] % 1000 == 0
    csvs = list(out.glob("pvalues_*.csv"))
    assert len(csvs) == 3
    header = csvs[0].read_text().splitlines()[0]
    assert header == "requests,p_value,mean_a,mean_b,n_a,n_b,significant"


def test_run_parallel_split_fractions(tmp_path, par_bundle, small_scenario_file):
    out = tmp_path / "out"
    assert (
        main(
            [
                "run",
                str(par_bundle),
                "--scenario",
                str(small_scenario_file),
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    summary = json.loads((out / "summary.json").read_text())
    split = summary["splits"]["Population-split-purchases-prediction"]
    assert sum(split["split_fractions"].values()) <= 1.0 + 1e-9


def test_run_is_byte_deterministic(tmp_path, seq_bundle, small_scenario_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(
            [
                "run",
                str(seq_bundle),
                "--scenario",
                str(small_scenario_file),
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        outs.append(read_all_bytes(out))
    assert outs[0] == outs[1]


def test_batch_size_env_override(
    tmp_path, seq_bundle, small_scenario_file, monkeypatch
):
    monkeypatch.setenv("ABPIPE_BATCH_SIZE", "500")
    out = tmp_path / "out"
    assert (
        main(
            [
                "run",
                str(seq_bundle),
                "--scenario",
                str(small_scenario_file),
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    summary = json.loads((out / "summary.json").read_text())
    assert summary["batch_size"] == 500
    assert all(r["requests"] % 500 == 0 for r in summary["tests"].values())


def test_bad_batch_size_env(monkeypatch, seq_bundle, tmp_path):
    monkeypatch.setenv("ABPIPE_BATCH_SIZE", "zero")
    assert main(["run", str(seq_bundle), "--out", str(tmp_path / "x")]) == 2


# ---------------------------------------------------------------------------
# compare


def test_compare_single_run_medians_equal_run_values(
    tmp_path, seq_bundle, par_bundle, small_scenario_file
):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            str(seq_bundle),
            str(par_bundle),
            "--scenario",
            str(small_scenario_file),
            "--runs",
            "1",
            "--seeds",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["runs"] == 1 and report["seeds"] == [3]

    run_out = tmp_path / "single"
    main(
        [
            "run",
            str(seq_bundle),
            "--scenario",
            str(small_scenario_file),
            "--seed",
            "3",
            "--out",
            str(run_out),
        ]
    )
    summary = json.loads((run_out / "summary.json").read_text())
    for name, row in report["sequential_tests"].items():
        assert summary["tests"][name]["requests"] == row["decided_requests"]


def test_compare_report_structure(tmp_path, seq_bundle, par_bundle, small_scenario_file):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            str(seq_bundle),
            str(par_bundle),
            "--scenario",
            str(small_scenario_file),
            "--runs",
            "2",
            "--seeds",
            "5,6",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["shared_tests"] == ["GUI-upgrade"]
    assert report["sequential_total"] == sum(
        row["decided_requests"]
        for name, row in report["sequential_tests"].items()
        if row["compared"]
    )
    assert report["parallel_total"] == max(
        row["total_requests"] for row in report["parallel_tests"].values()
    )
    overhead = json.loads((out / "overhead.json").read_text())
    assert {"train_ms", "deploy_ms", "predict_ms_median"} <= set(overhead)
    assert overhead["deploy_ms"] > 0  # measured routing-table build
    text = (out / "report.txt").read_text()
    assert "Total (MAX)" in text and "Total (SUM)" in text
    assert "Reference, full-scale study" in text


def test_a_slash_in_a_test_name_keeps_its_label_and_its_comparison(
    tmp_path, par_bundle, small_scenario_file
):
    # a result is labelled from the spec, never by parsing its key on "/"
    bundle = tmp_path / "slash"
    shutil.copytree(SCENARIOS / "sequential", bundle)
    for path in bundle.rglob("*.json"):
        path.write_text(path.read_text().replace('"Review-upgrade"', '"Review/upgrade"'))
    scenario = ["--scenario", str(small_scenario_file)]
    run_out = tmp_path / "run"
    assert main(["run", str(bundle), *scenario, "--seed", "2", "--out", str(run_out)]) == 0
    summary = json.loads((run_out / "summary.json").read_text())
    row = summary["tests"]["Review/upgrade"]
    assert (row["test"], row["instance"]) == ("Review/upgrade", summary["pipeline"])
    out = tmp_path / "cmp"
    seeds = ["--runs", "3", "--seeds", "1,2,3"]
    assert main(["compare", str(bundle), str(par_bundle), *scenario, *seeds, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["sequential_tests"]["Review/upgrade"]["compared"]
    assert report["failures"] == [] and math.isfinite(report["reduction_pct"])


def test_compare_against_a_bundle_without_a_split_fails_before_any_run(
    tmp_path, seq_bundle, small_scenario_file, capsys
):
    out = tmp_path / "cmp"
    scenario = ["--scenario", str(small_scenario_file)]
    argv = ["compare", str(seq_bundle), str(seq_bundle), *scenario, "--runs", "2"]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"{seq_bundle}: parallel pipeline has no population split"
    ]
    assert captured.out == ""
    assert not out.exists()


def two_split_bundle(tmp_path, par_bundle) -> Path:
    """The parallel bundle with a second split, of copied tests, after the first."""
    bundle = tmp_path / "two-splits"
    shutil.copytree(par_bundle, bundle)
    first = bundle / "splits" / "Population-split-purchases-prediction.json"
    record = json.loads(first.read_text())
    record["nextComponent"] = "Second-split"
    first.write_text(json.dumps(record))
    record.update(
        name="Second-split",
        nextComponent="end",
        pipelines=["Review-pipeline-2", "Recommendation-pipeline-2"],
    )
    (bundle / "splits" / "Second-split.json").write_text(json.dumps(record))
    pipeline = json.loads((bundle / "pipeline.json").read_text())
    pipeline["populationSplits"].append("Second-split")
    for test in ("Review-upgrade", "Recommendation-upgrade"):
        experiment = json.loads((bundle / "experiments" / f"{test}.json").read_text())
        experiment["name"] = f"{test}-2"
        (bundle / "experiments" / f"{test}-2.json").write_text(json.dumps(experiment))
        sub_id = test.replace("-upgrade", "-pipeline-2")
        pipeline["subPipelines"].append(
            {
                "id": sub_id,
                "startingComponent": f"{test}-2",
                "experiments": [f"{test}-2"],
                "transitionRules": [],
            }
        )
    (bundle / "pipeline.json").write_text(json.dumps(pipeline))
    return bundle


def test_compare_against_a_bundle_with_two_splits_fails_before_any_run(
    tmp_path, seq_bundle, par_bundle, small_scenario_file, capsys
):
    # the second split starts when the first ends, so no one MAX spans both
    bundle = two_split_bundle(tmp_path, par_bundle)
    assert main(["validate", str(bundle)]) == 0
    capsys.readouterr()
    out = tmp_path / "cmp"
    scenario = ["--scenario", str(small_scenario_file)]
    argv = ["compare", str(seq_bundle), str(bundle), *scenario, "--runs", "2"]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"{bundle}: parallel pipeline has 2 population splits; compare takes one"
    ]
    assert captured.out == ""
    assert not out.exists()


def test_compare_pipelines_refuses_two_splits_before_any_run(
    tmp_path, seq_bundle, par_bundle, small_scenario, monkeypatch
):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("abpipe.report.run_pipeline_once", no_run)
    seq_spec = parse_blueprints(seq_bundle)
    par_spec = parse_blueprints(two_split_bundle(tmp_path, par_bundle))
    with pytest.raises(SpecInvalidError, match="has 2 population splits; compare takes one"):
        compare_pipelines(seq_spec, par_spec, small_scenario, seeds=[1])
    with pytest.raises(SpecInvalidError, match="has no population split"):
        compare_pipelines(seq_spec, seq_spec, small_scenario, seeds=[1])


def test_compare_seed_list_length_mismatch(
    seq_bundle, par_bundle, small_scenario_file, tmp_path
):
    assert (
        main(
            [
                "compare",
                str(seq_bundle),
                str(par_bundle),
                "--scenario",
                str(small_scenario_file),
                "--runs",
                "3",
                "--seeds",
                "1,2",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        == 2
    )


# ---------------------------------------------------------------------------
# train / gen-data


def test_gen_data_and_train_round_trip(tmp_path, small_scenario_file, capsys):
    csv_path = tmp_path / "train.csv"
    code = main(
        [
            "gen-data",
            "--scenario",
            str(small_scenario_file),
            "--n",
            "20000",
            "--out",
            str(csv_path),
        ]
    )
    assert code == 0
    rows = csv_path.read_text().splitlines()
    assert len(rows) == 20_001  # header + rows
    positives = sum(int(r.rsplit(",", 1)[1]) for r in rows[1:])
    assert 700 <= positives <= 980

    model_path = tmp_path / "model.json"
    code = main(["train", str(csv_path), "--seed", "1", "--out", str(model_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "training time:" in out
    printed_ms = int(out.rsplit("training time:", 1)[1].split("ms")[0].strip())
    assert printed_ms >= 1
    record = json.loads(model_path.read_text())
    assert record["features"] == 23
    assert len(record["weights"]) == 23


def test_gen_data_is_deterministic(tmp_path, small_scenario_file):
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        main(
            [
                "gen-data",
                "--scenario",
                str(small_scenario_file),
                "--n",
                "500",
                "--out",
                str(path),
            ]
        )
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_gen_data_minimum_rows(tmp_path, small_scenario_file):
    path = tmp_path / "two.csv"
    assert (
        main(
            [
                "gen-data",
                "--scenario",
                str(small_scenario_file),
                "--n",
                "2",
                "--out",
                str(path),
            ]
        )
        == 0
    )
    assert len(path.read_text().splitlines()) == 3
    assert (
        main(
            [
                "gen-data",
                "--scenario",
                str(small_scenario_file),
                "--n",
                "1",
                "--out",
                str(path),
            ]
        )
        == 2
    )


def test_train_empty_csv_fails(tmp_path, capsys):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("")
    assert main(["train", str(csv_path), "--out", str(tmp_path / "m.json")]) == 1


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--epochs", "0", "epochs"),
        ("--epochs", "-3", "epochs"),
        ("--eta0", "0", "eta0"),
        ("--eta0", "-1", "eta0"),
        ("--power-t", "-0.5", "power_t"),
        ("--l2", "-5", "l2"),
        ("--l2", "2", "l2"),
        ("--l2", "5", "l2"),
    ],
)
def test_train_degenerate_hyperparameter_fails(tmp_path, capsys, flag, value, field):
    """The schedule is fixed, so ``train`` takes no schedule option at all."""
    csv_path = tmp_path / "train.csv"
    csv_path.write_text("f0,label\n0,0\n1,1\n0,0\n1,1\n")
    model_path = tmp_path / "m.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["train", str(csv_path), flag, value, "--out", str(model_path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err
    assert not model_path.exists()


def test_unknown_option_is_reported_with_the_subcommand_usage(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    csv_path = tmp_path / "train.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["train", str(csv_path), "--out", str(tmp_path / "m.json"), "--epochs", "3"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage: abpipe train [-h] [--seed SEED] --out OUT csv",
        "abpipe train: error: unrecognized arguments: --epochs 3",
    ]


def test_train_non_binary_feature_fails(tmp_path, capsys):
    csv_path = tmp_path / "train.csv"
    csv_path.write_text("f0,f1,label\n0,1,0\n1,0.5,1\n0,0,0\n1,1,1\n")
    model_path = tmp_path / "m.json"
    assert main(["train", str(csv_path), "--out", str(model_path)]) == EXIT_DOMAIN
    err = capsys.readouterr().err.splitlines()
    assert err == ["training failed: features must be 0 or 1, got 0.5"]
    assert not model_path.exists()


def test_train_csv_without_feature_columns_fails_in_one_line(tmp_path, capsys):
    csv_path = tmp_path / "train.csv"
    csv_path.write_text("label\n0\n1\n0\n1\n")
    model_path = tmp_path / "m.json"
    assert main(["train", str(csv_path), "--out", str(model_path)]) == EXIT_DOMAIN
    assert capsys.readouterr().err.splitlines() == [
        "training failed: training features must be a 2-D array of at least one column"
    ]
    assert not model_path.exists()


def test_train_missing_csv(tmp_path):
    assert main(["train", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m")]) == 2


# ---------------------------------------------------------------------------
# failed runs


def ghost_variant_bundle(tmp_path, seq_bundle) -> Path:
    """Passes ``model.validate`` but cannot deploy: its variants are not in the catalog."""
    bundle = tmp_path / "ghost"
    shutil.copytree(seq_bundle, bundle)
    path = bundle / "experiments" / "GUI-upgrade.json"
    record = json.loads(path.read_text())
    record["variantA"] = "ghost-variant-a"
    record["variantB"] = "ghost-variant-b"
    path.write_text(json.dumps(record))
    return bundle


def test_run_failure_keeps_partial_trace(
    tmp_path, seq_bundle, small_scenario_file, monkeypatch
):
    # one request per look leaves a variant without samples at the first look
    monkeypatch.setenv("ABPIPE_BATCH_SIZE", "1")
    out = tmp_path / "out"
    argv = ["run", str(seq_bundle), "--scenario", str(small_scenario_file), "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == 1
    assert [p.name for p in out.iterdir()] == ["trace.jsonl"]
    events = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert [(e["event"], e["detail"]) for e in events] == [
        ("start", {"element": "GUI-upgrade"}),
        ("deploy", {"test": "GUI-upgrade"}),
    ]


def test_run_failing_before_the_engine_starts_leaves_no_out_directory(
    tmp_path, par_bundle, small_scenario, capsys
):
    """Twenty training rows hold no purchaser, so the split model fit fails."""
    scenario = tmp_path / "scenario.json"
    save_scenario(replace(small_scenario, train_samples=20), scenario)
    out = tmp_path / "out"
    argv = ["run", str(par_bundle), "--scenario", str(scenario), "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == EXIT_DOMAIN
    assert "training set contains a single class" in capsys.readouterr().err
    assert not out.exists()


def sessions_metric_bundle(tmp_path, seq_bundle) -> Path:
    """The second test collects a metric the store has no behavior model for."""
    bundle = tmp_path / "sessions"
    shutil.copytree(seq_bundle, bundle)
    path = bundle / "experiments" / "Review-upgrade.json"
    record = json.loads(path.read_text())
    record["abMetrics"] = ["clicks", "sessions"]
    path.write_text(json.dumps(record))
    return bundle


def test_unknown_metric_fails_before_any_test_runs(
    tmp_path, seq_bundle, small_scenario_file, capsys
):
    bundle = sessions_metric_bundle(tmp_path, seq_bundle)
    out = tmp_path / "out"
    argv = ["run", str(bundle), "--scenario", str(small_scenario_file), "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "run failed: test 'Review-upgrade' collects unknown metric 'sessions'"
    ]
    assert not out.exists()  # no event was traced, so there is no partial trace


GHOST_LINE = (
    "[undeployable-test] GUI-upgrade: variant 'ghost-variant-a' not in the"
    " variant repository catalog"
)
SESSIONS_LINE = (
    "[undeployable-test] Review-upgrade: test 'Review-upgrade' collects unknown"
    " metric 'sessions'"
)


@pytest.mark.parametrize(
    "make_bundle, lines",
    [
        (ghost_variant_bundle, [GHOST_LINE]),
        (sessions_metric_bundle, [SESSIONS_LINE]),
        (
            lambda tmp, seq: sessions_metric_bundle(tmp, ghost_variant_bundle(tmp, seq)),
            [GHOST_LINE, SESSIONS_LINE],
        ),
    ],
    ids=["ghost-variant", "unknown-metric", "both"],
)
def test_validate_reports_each_undeployable_test(
    tmp_path, seq_bundle, capsys, make_bundle, lines
):
    # the rule `run` applies at set-up, applied without a store
    assert main(["validate", str(make_bundle(tmp_path, seq_bundle))]) == 1
    assert capsys.readouterr().out.splitlines() == lines


def test_compare_with_failed_runs_is_partial(
    tmp_path, seq_bundle, par_bundle, small_scenario_file, capsys
):
    bundle = ghost_variant_bundle(tmp_path, seq_bundle)
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            str(bundle),
            str(par_bundle),
            "--scenario",
            str(small_scenario_file),
            "--runs",
            "2",
            "--seeds",
            "1,2",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["partial"] and len(report["failures"]) == 2
    assert report["reduction_pct"] is None


def test_compare_names_the_failed_split_run_and_keeps_its_sequential_rows(
    tmp_path, seq_bundle, par_bundle, small_scenario_file
):
    bundle = ghost_variant_bundle(tmp_path, par_bundle)
    out = tmp_path / "cmp"
    argv = ["compare", str(seq_bundle), str(bundle), "--scenario",
            str(small_scenario_file), "--runs", "2", "--seeds", "1,2", "--out", str(out)]
    assert main(argv) == 1
    report = json.loads((out / "report.json").read_text())
    assert [(f["seed"], f["pipeline"]) for f in report["failures"]] == [
        (1, "Parallel-evaluation-pipeline"), (2, "Parallel-evaluation-pipeline")
    ]
    assert report["sequential_tests"] and not report["parallel_tests"]


def test_compare_records_untrainable_seeds_and_aggregates_the_rest(
    tmp_path, seq_bundle, par_bundle, small_scenario, capsys
):
    """Twenty training rows hold no purchaser at seeds 1, 3 and 6, so those fits fail."""
    scenario = tmp_path / "scenario.json"
    save_scenario(replace(small_scenario, train_samples=20), scenario)
    out = tmp_path / "cmp"
    argv = ["compare", str(seq_bundle), str(par_bundle), "--scenario", str(scenario),
            "--runs", "6", "--out", str(out)]
    assert main(argv) == EXIT_DOMAIN
    report = json.loads((out / "report.json").read_text())
    assert report["partial"] and report["seeds"] == [1, 2, 3, 4, 5, 6]
    assert [(f["seed"], f["pipeline"]) for f in report["failures"]] == [
        (seed, "Parallel-evaluation-pipeline") for seed in (1, 3, 6)
    ]
    assert sorted(report["parallel_tests"]) == ["Recommendation-upgrade", "Review-upgrade"]
    assert capsys.readouterr().err.splitlines() == [
        f"failed run: seed {seed} Parallel-evaluation-pipeline:"
        " training set contains a single class"
        for seed in (1, 3, 6)
    ]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_untrainable_split_model_fails_cleanly(
    tmp_path, seq_bundle, par_bundle, small_scenario, command, capsys
):
    # with no purchasers the training labels hold a single class
    path = tmp_path / "scenario.json"
    save_scenario(replace(small_scenario, purchaser_prevalence=0.0), path)
    if command == "run":
        bundles = [str(par_bundle)]
    else:
        bundles = [str(seq_bundle), str(par_bundle), "--runs", "1"]
    out = tmp_path / "out"
    argv = [command, *bundles, "--scenario", str(path), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    if command == "run":
        assert err == ["run failed: training set contains a single class"]
        assert not out.exists()
    else:  # the failed fit is a failed run of the seed's split pipeline
        assert err == [
            "failed run: seed 1 Parallel-evaluation-pipeline:"
            " training set contains a single class"
        ]
        assert json.loads((out / "report.json").read_text())["partial"]


def _out_of_memory_in(monkeypatch, what):
    """Make one of a run's draws, its split model fit, its routing table,
    its serving or its summary raise MemoryError, as an allocation would."""
    if what in ("population", "training"):
        draw_latent = webstore._draw_latent
        stream = {"population": "population", "training": "training-data"}[what]

        def draw(config, n, name):
            if name == stream:
                raise MemoryError
            return draw_latent(config, n, name)

        monkeypatch.setattr(webstore, "_draw_latent", draw)
        return
    # a split run draws its training rows, then its population's; a run
    # has started, and served two blocks, by its third serve
    owner, name, fail_at = {
        "fit": (classifier, "_row_tuples", 1),
        "features": (webstore, "_feature_blocks", 2),
        "routing": (WebStoreRunner, "_routing_table", 1),
        "serving": (webstore.WebStore, "serve_chunk", 3),
        "summary": (abpipe.report, "build_summary", 1),
    }[what]
    original, calls = getattr(owner, name), itertools.count(1)

    def failing(*args):
        if next(calls) == fail_at:
            raise MemoryError
        return original(*args)

    monkeypatch.setattr(owner, name, failing)


# the small scenario's sizes, as a failed run names them
OUT_OF_MEMORY = {
    "Sequential": "out of memory on 20000 users",
    "Parallel": "out of memory on 20000 users and 4000 training rows",
}


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize(
    "what, pipeline, started",
    [
        ("population", "Sequential", False),
        ("training", "Parallel", False),
        ("features", "Parallel", True),
        ("fit", "Parallel", False),
        ("routing", "Parallel", True),
        ("serving", "Sequential", True),
        ("summary", "Sequential", True),
    ],
    ids=["population", "training", "features", "fit", "routing", "serving", "summary"],
)
def test_running_out_of_memory_in_a_draw_fails_the_run_in_one_line(
    tmp_path, seq_bundle, par_bundle, small_scenario_file, monkeypatch, capsys,
    command, what, pipeline, started,
):
    _out_of_memory_in(monkeypatch, what)
    out = tmp_path / "out"
    scenario = ["--scenario", str(small_scenario_file), "--out", str(out)]
    if command == "run":
        assert main(["run", str(par_bundle), *scenario]) == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == [
            f"run failed: {OUT_OF_MEMORY['Parallel']}"
        ]
        # the population, training rows and fit come before the run starts
        assert (out / "trace.jsonl").exists() == started
    else:  # compare runs a seed's sequential pipeline first
        argv = ["compare", str(seq_bundle), str(par_bundle), *scenario, "--runs", "1"]
        assert main(argv) == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == [
            f"failed run: seed 1 {pipeline}-evaluation-pipeline: {OUT_OF_MEMORY[pipeline]}"
        ]
        report = json.loads((out / "report.json").read_text())
        assert report["partial"] and len(report["failures"]) == 1


def test_running_out_of_memory_in_the_fit_fails_training_in_one_line(
    tmp_path, monkeypatch, capsys
):
    _out_of_memory_in(monkeypatch, "fit")
    csv_path = tmp_path / "train.csv"
    csv_path.write_text("f0,label\n0,0\n1,1\n0,0\n")
    out = tmp_path / "model.json"
    assert main(["train", str(csv_path), "--out", str(out)]) == EXIT_DOMAIN
    assert capsys.readouterr().err.splitlines() == ["train failed: out of memory"]
    assert not out.exists()


def test_running_out_of_memory_loading_training_data_fails_in_one_line(
    tmp_path, monkeypatch, capsys
):
    def load_training_csv(path):
        raise MemoryError

    monkeypatch.setattr(classifier, "load_training_csv", load_training_csv)
    csv_path = tmp_path / "train.csv"
    csv_path.write_text("f0,label\n0,0\n1,1\n")
    out = tmp_path / "model.json"
    assert main(["train", str(csv_path), "--out", str(out)]) == EXIT_DOMAIN
    assert capsys.readouterr().err.splitlines() == ["train failed: out of memory"]
    assert not out.exists()


def test_running_out_of_memory_generating_data_fails_in_one_line(
    tmp_path, monkeypatch, capsys
):
    def draw_latent(config, n, stream):
        raise MemoryError

    monkeypatch.setattr(webstore, "_draw_latent", draw_latent)
    out = tmp_path / "train.csv"
    assert main(["gen-data", "--n", "100", "--out", str(out)]) == EXIT_DOMAIN
    assert capsys.readouterr().err.splitlines() == ["gen-data failed: out of memory"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare", "train"])
def test_negative_seed_split_fit_fails_in_one_line(
    tmp_path, seq_bundle, par_bundle, small_scenario_file, command, capsys
):
    """A split model fit shuffles with the run seed, which must be >= 0."""
    csv_path = tmp_path / "train.csv"
    csv_path.write_text("f0,label\n0,0\n1,1\n0,0\n1,1\n")
    scenario = ["--scenario", str(small_scenario_file)]
    argv, line = {
        "run": (["run", str(par_bundle), *scenario, "--seed", "-3"], "run failed: seed must be >= 0, got -3"),
        "compare": (
            ["compare", str(seq_bundle), str(par_bundle), *scenario, "--runs", "1", "--seeds=-2"],
            "failed run: seed -2 Parallel-evaluation-pipeline: seed must be >= 0, got -2",
        ),
        "train": (["train", str(csv_path), "--seed", "-1"], "training failed: seed must be >= 0, got -1"),
    }[command]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_DOMAIN
    assert capsys.readouterr().err.splitlines() == [line]
    if command == "compare":
        assert json.loads((out / "report.json").read_text())["partial"]
    else:
        assert not out.exists()


# ---------------------------------------------------------------------------
# scenario files


@pytest.mark.parametrize(
    "field, value",
    [
        ("population_size", 1.5),
        ("train_samples", "20000"),
        ("seed", True),
        ("n_features", None),
        ("purchaser_prevalence", "0.1"),
        ("feature_noise", float("nan")),
        ("purchaser_prevalence", float("inf")),
        ("gui_rates", [0.5, 0.56]),
        ("review_rates", {"A": 0.147}),
        ("review_rates", {"A": 0.147, "B": 0.16, "C": 0.2}),
        ("recommendation_rates", {"purchaser": {"A": 0.3, "B": 0.45}}),
        (
            "recommendation_rates",
            {"purchaser": {"A": 0.3, "B": "x"}, "non_purchaser": {"A": 0, "B": 0}},
        ),
        # out of range
        ("purchaser_prevalence", 1.5),
        ("feature_noise", -0.2),
        ("review_rates", {"A": -1, "B": 2}),
        ("gui_rates", {"A": 0.5, "B": 1.01}),
        (
            "recommendation_rates",
            {"purchaser": {"A": 0.3, "B": 0.45}, "non_purchaser": {"A": -0.1, "B": 0}},
        ),
        ("population_size", 0),
        ("train_samples", 1),
        ("n_features", -1),
        ("n_features", 0),
    ],
)
def test_run_rejects_mistyped_scenario_field(
    tmp_path, seq_bundle, small_scenario_file, field, value, capsys
):
    record = json.loads(small_scenario_file.read_text())
    record[field] = value
    small_scenario_file.write_text(json.dumps(record))
    out = tmp_path / "out"
    argv = ["run", str(seq_bundle), "--scenario", str(small_scenario_file), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("bad scenario file") and repr(field) in err[0]
    assert not out.exists()


def test_run_rejects_unknown_scenario_field(
    tmp_path, seq_bundle, small_scenario_file, capsys
):
    record = json.loads(small_scenario_file.read_text())
    record["deployment_latency_ms"] = 0.0  # a field this version no longer has
    small_scenario_file.write_text(json.dumps(record))
    out = tmp_path / "out"
    argv = ["run", str(seq_bundle), "--scenario", str(small_scenario_file), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("bad scenario file")
    assert "unknown scenario fields: ['deployment_latency_ms']" in err[0]
    assert not out.exists()


def test_run_rejects_scenario_file_that_is_not_utf8(tmp_path, seq_bundle, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff\xfe{}")
    argv = ["run", str(seq_bundle), "--scenario", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bad scenario file")
