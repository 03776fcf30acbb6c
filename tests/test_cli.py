import json
import shutil
from pathlib import Path

import pytest

from abpipe.cli import main
from abpipe.webstore import save_scenario


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
    assert "'X'" in capsys.readouterr().out


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
    text = (out / "report.txt").read_text()
    assert "Total (MAX)" in text and "Total (SUM)" in text
    assert "Reference, full-scale study" in text


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
    ],
)
def test_train_degenerate_hyperparameter_fails(tmp_path, capsys, flag, value, field):
    csv_path = tmp_path / "train.csv"
    csv_path.write_text("f0,label\n0,0\n1,1\n0,0\n1,1\n")
    model_path = tmp_path / "m.json"
    assert main(["train", str(csv_path), flag, value, "--out", str(model_path)]) == 1
    err = capsys.readouterr().err
    assert "training failed" in err and field in err
    assert not model_path.exists()


def test_train_missing_csv(tmp_path):
    assert main(["train", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m")]) == 2


# ---------------------------------------------------------------------------
# failed runs


def ghost_variant_bundle(tmp_path, seq_bundle) -> Path:
    """Validates (variants are only mapped at runtime) but cannot deploy."""
    bundle = tmp_path / "ghost"
    shutil.copytree(seq_bundle, bundle)
    path = bundle / "experiments" / "GUI-upgrade.json"
    record = json.loads(path.read_text())
    record["variantA"] = "ghost-variant-a"
    record["variantB"] = "ghost-variant-b"
    path.write_text(json.dumps(record))
    return bundle


def test_run_failure_keeps_partial_trace(tmp_path, seq_bundle, small_scenario_file):
    bundle = ghost_variant_bundle(tmp_path, seq_bundle)
    out = tmp_path / "out"
    code = main(
        [
            "run",
            str(bundle),
            "--scenario",
            str(small_scenario_file),
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    assert (out / "trace.jsonl").exists()


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
