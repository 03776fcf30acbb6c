import json
import shutil
from dataclasses import replace

import pytest

from abpipe.blueprints import (
    BlueprintError,
    BlueprintFormatError,
    BlueprintSyntaxError,
    DuplicateNameError,
    UnresolvedReferenceError,
    parse_blueprints,
    serialize_blueprints,
)
from abpipe.model import ClassCondition, validate


def test_parse_shipped_parallel_bundle(par_bundle):
    spec = parse_blueprints(par_bundle)
    assert spec.name == "Parallel-evaluation-pipeline"
    split = spec.pop_splits[0]
    assert split.name == "Population-split-purchases-prediction"
    assert split.split_property == "purchase-likelihood"
    assert [s.subpl_id for s in split.sub_pipelines] == [
        "Review-pipeline",
        "Recommendation-pipeline",
    ]
    assert split.cond_stats == (ClassCondition("==", 0), ClassCondition("==", 1))
    assert split.next_component == "end"
    assert split.split_component.service_name == "purchase-prediction-component"
    assert split.split_component.image_name == "ml-purchase-filter"


def test_parse_shipped_sequential_bundle(seq_spec):
    assert seq_spec.start == "GUI-upgrade"
    assert {t.name for t in seq_spec.ab_tests} == {
        "GUI-upgrade",
        "Review-upgrade",
        "Recommendation-upgrade",
    }
    assert len(seq_spec.trans_rules) == 3


def test_round_trip_is_semantically_equal(seq_spec, par_spec, seq_bundle, par_bundle, tmp_path):
    for i, (spec, bundle) in enumerate(((seq_spec, seq_bundle), (par_spec, par_bundle))):
        out = tmp_path / f"bundle{i}"
        serialize_blueprints(spec, out)
        assert parse_blueprints(out) == spec
        # written over its own bundle, each record replaces its file
        shutil.copytree(bundle, tmp_path / f"copy{i}")
        serialize_blueprints(spec, tmp_path / f"copy{i}")
        assert parse_blueprints(tmp_path / f"copy{i}") == spec


@pytest.mark.parametrize("seed", range(0, 24, 2))
def test_round_trip_on_randomized_specs(seed, tmp_path):
    from case_generator import make_case

    spec, _ = make_case(seed)
    out = tmp_path / "bundle"
    serialize_blueprints(spec, out)
    assert parse_blueprints(out) == spec


def test_round_trip_keeps_every_file_inside_the_bundle(par_spec, tmp_path):
    # names may hold "/", "__" and "..": each record must still be
    # written inside its directory and read back
    renamed = {
        "GUI-upgrade": "../../escaped",
        "Review-upgrade": "Review/upgrade",
        "Recommendation-upgrade": "Recommendation__upgrade",
        "Population-split-purchases-prediction": "../split",
    }
    (split,) = par_spec.pop_splits
    subs = tuple(
        replace(sub, start=renamed[sub.start], ab_tests=tuple(renamed[t] for t in sub.ab_tests))
        for sub in split.sub_pipelines
    )
    (rule,) = par_spec.trans_rules
    spec = replace(
        par_spec,
        ab_tests=tuple(replace(t, name=renamed[t.name]) for t in par_spec.ab_tests),
        trans_rules=(
            replace(
                rule,
                name="../rule",
                assoc_ab_test=renamed[rule.assoc_ab_test],
                subseq_ab_test=renamed[rule.subseq_ab_test],
            ),
        ),
        pop_splits=(replace(split, name=renamed[split.name], sub_pipelines=subs),),
        start=renamed[par_spec.start],
    )
    assert validate(spec).ok
    out = tmp_path / "nested" / "bundle"
    serialize_blueprints(spec, out)
    written = sorted(p.relative_to(out).parts for p in tmp_path.rglob("*") if p.is_file())
    assert [parts[:-1] for parts in written] == [
        ("experiments",), ("experiments",), ("experiments",), (), ("rules",), ("splits",)
    ]
    assert ("experiments", "Recommendation__upgrade.json") in written
    assert parse_blueprints(out) == spec


def test_empty_pipeline_bundle(tmp_path):
    bundle = tmp_path / "empty"
    bundle.mkdir()
    (bundle / "pipeline.json").write_text(
        json.dumps({"name": "Noop", "startingComponent": "end"})
    )
    spec = parse_blueprints(bundle)
    assert spec.start == "end"
    assert spec.ab_tests == ()


def test_unresolved_reference_names_the_element(tmp_path, seq_bundle):
    bundle = tmp_path / "broken"
    shutil.copytree(seq_bundle, bundle)
    record = json.loads((bundle / "pipeline.json").read_text())
    record["experiments"].append("X")
    (bundle / "pipeline.json").write_text(json.dumps(record))
    with pytest.raises(UnresolvedReferenceError) as err:
        parse_blueprints(bundle)
    assert "'X'" in str(err.value)


def test_syntax_error_is_position_annotated(tmp_path, seq_bundle):
    bundle = tmp_path / "syntax"
    shutil.copytree(seq_bundle, bundle)
    (bundle / "experiments" / "GUI-upgrade.json").write_text('{"name": "GUI-upgrade",')
    with pytest.raises(BlueprintSyntaxError) as err:
        parse_blueprints(bundle)
    assert "line" in str(err.value)


def test_bad_condition_grammar_rejected(tmp_path, seq_bundle):
    bundle = tmp_path / "badcond"
    shutil.copytree(seq_bundle, bundle)
    record = json.loads((bundle / "rules" / "GUI-upgrade-success.json").read_text())
    record["condStat"] = "p_value << 0.05"
    (bundle / "rules" / "GUI-upgrade-success.json").write_text(json.dumps(record))
    with pytest.raises(BlueprintSyntaxError) as err:
        parse_blueprints(bundle)
    assert "position" in str(err.value)


def test_duplicate_name_across_files(tmp_path, seq_bundle):
    bundle = tmp_path / "dup"
    shutil.copytree(seq_bundle, bundle)
    src = bundle / "experiments" / "GUI-upgrade.json"
    (bundle / "experiments" / "GUI-upgrade-copy.json").write_text(src.read_text())
    with pytest.raises(DuplicateNameError):
        parse_blueprints(bundle)


def test_missing_pipeline_json(tmp_path):
    bundle = tmp_path / "hollow"
    bundle.mkdir()
    with pytest.raises(BlueprintError):
        parse_blueprints(bundle)


def test_missing_required_field(tmp_path, seq_bundle):
    bundle = tmp_path / "incomplete"
    shutil.copytree(seq_bundle, bundle)
    record = json.loads((bundle / "experiments" / "GUI-upgrade.json").read_text())
    del record["expLength"]
    (bundle / "experiments" / "GUI-upgrade.json").write_text(json.dumps(record))
    with pytest.raises(BlueprintFormatError) as err:
        parse_blueprints(bundle)
    assert "expLength" in str(err.value)


def test_two_element_list_condition_form(tmp_path, par_bundle):
    bundle = tmp_path / "listform"
    shutil.copytree(par_bundle, bundle)
    path = bundle / "splits" / "Population-split-purchases-prediction.json"
    record = json.loads(path.read_text())
    record["conditionalStatements"] = [["==", 0], ["==", 1]]
    path.write_text(json.dumps(record))
    spec = parse_blueprints(bundle)
    assert spec.pop_splits[0].cond_stats == (
        ClassCondition("==", 0),
        ClassCondition("==", 1),
    )


def test_malformed_condition_entry_names_the_record_shape(tmp_path, par_bundle):
    bundle = tmp_path / "badentry"
    shutil.copytree(par_bundle, bundle)
    path = bundle / "splits" / "Population-split-purchases-prediction.json"
    record = json.loads(path.read_text())
    record["conditionalStatements"] = ["==0", ["==", 1]]
    path.write_text(json.dumps(record))
    with pytest.raises(BlueprintFormatError) as err:
        parse_blueprints(bundle)
    assert "{op, value}" in str(err.value)
    assert "{{" not in str(err.value)


SPLIT_FILE = "splits/Population-split-purchases-prediction.json"


@pytest.mark.parametrize(
    "path, edit, error, message",
    [
        (
            "rules/GUI-upgrade-to-split.json",
            lambda r: r.update(name="GUI-upgrade"),
            DuplicateNameError,
            "duplicate element name 'GUI-upgrade' (experiment and rule)",
        ),
        (
            SPLIT_FILE,
            lambda r: r.update(name="GUI-upgrade"),
            DuplicateNameError,
            "duplicate element name 'GUI-upgrade' (experiment and split)",
        ),
        (
            "pipeline.json",
            lambda r: r.update(transitionRules=["nope"]),
            UnresolvedReferenceError,
            "unresolved reference 'nope' (pipeline transitionRules)",
        ),
        (
            "pipeline.json",
            lambda r: r["subPipelines"][1].update(id="Review-pipeline"),
            DuplicateNameError,
            "duplicate element name 'Review-pipeline' (subPipelines)",
        ),
        (
            "pipeline.json",
            lambda r: r.update(experiments=["GUI-upgrade", "GUI-upgrade"]),
            DuplicateNameError,
            "duplicate element name 'GUI-upgrade' (pipeline experiments)",
        ),
        (
            "pipeline.json",
            lambda r: r.update(populationSplits=["nope"]),
            UnresolvedReferenceError,
            "unresolved reference 'nope' (pipeline populationSplits)",
        ),
        (
            SPLIT_FILE,
            lambda r: r["pipelines"].append("nope"),
            UnresolvedReferenceError,
            "unresolved reference 'nope' (split Population-split-purchases-prediction pipelines)",
        ),
    ],
    ids=["experiment-named-like-rule", "experiment-named-like-split", "unresolved-rule",
         "duplicate-sub-pipeline-id", "duplicate-pipeline-experiment", "unresolved-split",
         "unresolved-split-sub-pipeline"],
)
def test_each_linking_error_names_its_element(tmp_path, par_bundle, path, edit, error, message):
    bundle = tmp_path / "broken"
    shutil.copytree(par_bundle, bundle)
    record = json.loads((bundle / path).read_text())
    edit(record)
    (bundle / path).write_text(json.dumps(record))
    with pytest.raises(error) as caught:
        parse_blueprints(bundle)
    assert str(caught.value) == message
