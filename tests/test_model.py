import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abpipe.conditions import COMPARE
from abpipe.model import (
    ABTestSpec,
    ClassCondition,
    Hypothesis,
    PipelineSpec,
    PopulationSplitSpec,
    SplitComponent,
    SubPipeline,
    TransitionRule,
    Violation,
    pvalue_file_name,
    transition_graph,
    validate,
)
from abpipe.orchestrator import PipelineEngine, SpecInvalidError
from abpipe.webstore import DEFAULT_CATALOG

from scripted_runner import ScriptedRunner


def make_test(name, variant_a=None, variant_b=None, metric="clicks", **kw):
    defaults = dict(
        exp_length=10_000,
        ab_assignment=(0.5, 0.5),
        hypothesis=Hypothesis(metric, "B_greater", 0.05),
        ab_metrics=(metric,),
        stat_test="welch_t",
        variant_a=variant_a or f"{name}-v1",
        variant_b=variant_b or f"{name}-v2",
    )
    defaults.update(kw)
    return ABTestSpec(name=name, **defaults)


def rule(name, assoc, cond, subseq):
    return TransitionRule(name, assoc, cond, subseq)


def pipeline(tests=(), rules=(), splits=(), start="end", name="P"):
    return PipelineSpec(name, tuple(tests), tuple(rules), tuple(splits), start)


# ---------------------------------------------------------------------------
# validation


def test_empty_pipeline_with_end_start_is_valid():
    report = validate(pipeline())
    assert report.ok


def test_shipped_parallel_pipeline_validates(par_spec):
    assert validate(par_spec, DEFAULT_CATALOG).ok


def test_shipped_sequential_pipeline_validates(seq_spec):
    assert validate(seq_spec, DEFAULT_CATALOG).ok


def test_dangling_start_reference():
    report = validate(pipeline(start="X"))
    assert any(v.code == "unresolved-reference" and "X" in v.message for v in report)


def test_dangling_rule_reference():
    t = make_test("T1")
    r = rule("r", "T1", "p_value <= 0.05", "X")
    report = validate(pipeline([t], [r], start="T1"))
    assert any(v.code == "unresolved-reference" and "'X'" in v.message for v in report)


def test_bad_assignment_fractions():
    t = make_test("T1", ab_assignment=(0.7, 0.7))
    report = validate(pipeline([t], start="T1"))
    assert any(v.code == "bad-assignment-fractions" for v in report)


def test_metric_not_collected():
    t = make_test("T1", hypothesis=Hypothesis("other", "B_greater", 0.05))
    report = validate(pipeline([t], start="T1"))
    assert any(v.code == "metric-not-collected" for v in report)


def test_bad_alpha_and_exp_length():
    t = make_test("T1", hypothesis=Hypothesis("clicks", "B_greater", 1.5), exp_length=0)
    report = validate(pipeline([t], start="T1"))
    codes = {v.code for v in report}
    assert "bad-alpha" in codes and "bad-exp-length" in codes


def test_duplicate_name():
    report = validate(pipeline([make_test("T1"), make_test("T1")], start="T1"))
    assert any(v.code == "duplicate-name" for v in report)


def test_reserved_end_name():
    report = validate(pipeline([make_test("end")], start="end"))
    assert any(v.code == "reserved-name" for v in report)


def test_overlapping_rules_flagged():
    t = make_test("T1")
    rules = [
        rule("r1", "T1", "p_value <= 0.05", "end"),
        rule("r2", "T1", "p_value <= 0.10", "end"),
    ]
    report = validate(pipeline([t], rules, start="T1"))
    assert any(v.code == "overlapping-rules" for v in report)


def test_disjoint_rules_not_flagged():
    t = make_test("T1")
    rules = [
        rule("r1", "T1", "p_value <= 0.05", "end"),
        rule("r2", "T1", "p_value > 0.05", "end"),
    ]
    report = validate(pipeline([t], rules, start="T1"))
    assert not any(v.code == "overlapping-rules" for v in report)


def make_split(subs, conds, name="S", next_component="end"):
    return PopulationSplitSpec(
        name=name,
        split_property="purchase-likelihood",
        sub_pipelines=tuple(subs),
        cond_stats=tuple(conds),
        next_component=next_component,
        split_component=SplitComponent("svc", "img"),
    )


def split_pipeline(tests, subs, conds, start="S"):
    return pipeline(tests, [], [make_split(subs, conds)], start=start)


def two_branch_pipeline(root_tests=(), rules=(), start="S", next_component="end"):
    """``root_tests`` and a split S whose sub-pipeline p1 runs A1 and p2 runs B1."""
    subs = [SubPipeline("p1", "A1", ("A1",), ()), SubPipeline("p2", "B1", ("B1",), ())]
    conds = [ClassCondition("==", 0), ClassCondition("==", 1)]
    split = make_split(subs, conds, next_component=next_component)
    return pipeline([*root_tests, make_test("A1"), make_test("B1")], rules, [split], start)


def test_non_exclusive_split_conditions():
    tests = [make_test("A1"), make_test("B1")]
    subs = [
        SubPipeline("p1", "A1", ("A1",), ()),
        SubPipeline("p2", "B1", ("B1",), ()),
    ]
    conds = [ClassCondition("==", 0), ClassCondition("==", 0)]
    report = validate(split_pipeline(tests, subs, conds))
    assert any(v.code == "non-exclusive-split-conditions" for v in report)


def test_a_split_literal_of_a_trillion_validates():
    # a scan of every class up to the largest literal would not finish
    tests = [make_test("A1"), make_test("B1")]
    subs = [SubPipeline("p1", "A1", ("A1",), ()), SubPipeline("p2", "B1", ("B1",), ())]
    conds = [ClassCondition("==", 0), ClassCondition("==", 10**12)]
    assert validate(split_pipeline(tests, subs, conds)).violations == []


def scanned_exclusivity(conds):
    """The exclusivity violation a scan of classes 0..max(literal, 0) + 1 finds."""
    for cls in range(0, max(max(c.value for c in conds), 0) + 2):
        hits = [c for c in conds if COMPARE[c.op](cls, c.value)]
        if len(hits) > 1:
            shown = ", ".join(f"{c.op} {c.value}" for c in hits)
            message = f"class {cls} satisfies {len(hits)} conditions ({shown})"
            return [("non-exclusive-split-conditions", "S", message)]
    return []


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(
        st.builds(ClassCondition, st.sampled_from(sorted(COMPARE)), st.integers(-3, 12)),
        min_size=2,
        max_size=4,
    )
)
def test_split_exclusivity_reports_what_a_scan_of_every_class_finds(conds):
    names = [f"T{i}" for i in range(len(conds))]
    subs = [SubPipeline(f"p{i}", name, (name,), ()) for i, name in enumerate(names)]
    report = validate(split_pipeline([make_test(n) for n in names], subs, conds))
    assert [(v.code, v.element, v.message) for v in report] == scanned_exclusivity(conds)


def test_unknown_class_operator_named_instead_of_overlap():
    tests = [make_test("A1"), make_test("B1")]
    subs = [
        SubPipeline("p1", "A1", ("A1",), ()),
        SubPipeline("p2", "B1", ("B1",), ()),
    ]
    conds = [ClassCondition("=~", 1), ClassCondition("==", 0)]
    report = validate(split_pipeline(tests, subs, conds))
    codes = [v.code for v in report]
    assert "unknown-class-operator" in codes
    assert "non-exclusive-split-conditions" not in codes
    (violation,) = [v for v in report if v.code == "unknown-class-operator"]
    assert violation.element == "S" and "'=~'" in violation.message


def test_interfering_sub_pipelines_shared_test():
    tests = [make_test("T")]
    subs = [
        SubPipeline("p1", "T", ("T",), ()),
        SubPipeline("p2", "T", ("T",), ()),
    ]
    conds = [ClassCondition("==", 0), ClassCondition("==", 1)]
    report = validate(split_pipeline(tests, subs, conds))
    assert any(v.code == "interfering-sub-pipelines" for v in report)
    # its result key is ambiguous too, but only the interference line names it
    assert [v.message for v in report if "'T'" in v.message] == [
        "test 'T' appears in sub-pipelines 'p1' and 'p2'"
    ]
    assert "result-key-collision" not in {v.code for v in report}


def test_interfering_sub_pipelines_shared_component():
    # distinct tests but variants resolve to one managed component
    tests = [
        make_test("A1", variant_a="svc-x-v1", variant_b="svc-x-v2"),
        make_test("B1", variant_a="svc-x-v3", variant_b="svc-x-v4"),
    ]
    subs = [
        SubPipeline("p1", "A1", ("A1",), ()),
        SubPipeline("p2", "B1", ("B1",), ()),
    ]
    conds = [ClassCondition("==", 0), ClassCondition("==", 1)]
    catalog = {f"svc-x-v{i}": "svc-x" for i in range(1, 5)}
    report = validate(split_pipeline(tests, subs, conds), catalog)
    assert any(v.code == "interfering-sub-pipelines" for v in report)


def test_split_arity_mismatch():
    tests = [make_test("A1"), make_test("B1")]
    subs = [
        SubPipeline("p1", "A1", ("A1",), ()),
        SubPipeline("p2", "B1", ("B1",), ()),
    ]
    report = validate(split_pipeline(tests, subs, [ClassCondition("==", 0)]))
    assert any(v.code == "split-arity" for v in report)


def test_nested_split_rejected():
    tests = [make_test("A1"), make_test("B1")]
    inner = make_split(
        [
            SubPipeline("q1", "A1", ("A1",), ()),
            SubPipeline("q2", "B1", ("B1",), ()),
        ],
        [ClassCondition("==", 0), ClassCondition("==", 1)],
        name="Inner",
    )
    subs = [
        SubPipeline(
            "p1", "A1", ("A1",), (rule("r", "A1", "p_value <= 0.05", "Inner"),)
        ),
        SubPipeline("p2", "B1", ("B1",), ()),
    ]
    outer = make_split(subs, [ClassCondition("==", 0), ClassCondition("==", 1)], name="Outer")
    spec = pipeline(tests, [], [outer, inner], start="Outer")
    report = validate(spec)
    assert any(v.code == "nested-split" for v in report)


def test_unreachable_end_via_always_firing_self_loop():
    t = make_test("T1")
    r = rule("loop", "T1", "p_value >= 0", "T1")  # tautology, always fires
    report = validate(pipeline([t], [r], start="T1"))
    assert any(v.code == "unreachable-end" for v in report)


def _loop_spec(kind):
    if kind == "self-loop":
        rules = [
            rule("retry", "T1", "p_value > 0.05", "T1"),
            rule("on", "T1", "p_value <= 0.05", "T2"),
        ]
        return pipeline([make_test("T1"), make_test("T2")], rules, start="T1")
    if kind == "two-test-loop":
        rules = [
            rule("on", "T1", "p_value <= 0.05", "T2"),
            rule("back", "T2", "p_value > 0.05", "T1"),
        ]
        return pipeline([make_test("T1"), make_test("T2")], rules, start="T1")
    # the split continues at the root test that leads into it; the root
    # test's default transition keeps End reachable
    subs = [
        SubPipeline("p1", "A1", ("A1",), ()),
        SubPipeline("p2", "B1", ("B1",), ()),
    ]
    split = make_split(
        subs, [ClassCondition("==", 0), ClassCondition("==", 1)], next_component="R"
    )
    tests = [make_test("R"), make_test("A1"), make_test("B1")]
    return pipeline(tests, [rule("in", "R", "p_value <= 0.05", "S")], [split], "R")


@pytest.mark.parametrize(
    "kind, cycle",
    [
        ("self-loop", "T1 -> T1"),
        ("two-test-loop", "T1 -> T2 -> T1"),
        ("split-loop", "R -> S -> A1 -> R"),
    ],
)
def test_transition_cycle_rejected(kind, cycle):
    spec = _loop_spec(kind)
    assert transition_graph(spec).reaches("End")
    report = validate(spec)
    assert [v.code for v in report] == ["transition-cycle"]
    assert report.violations[0].message.startswith(cycle + " re-enters")
    with pytest.raises(SpecInvalidError, match="transition-cycle"):
        PipelineEngine(spec, ScriptedRunner({})).run()


def test_single_test_without_rules_is_reachable():
    # the implicit default transition to End keeps this executable
    report = validate(pipeline([make_test("T1")], start="T1"))
    assert report.ok


# ---------------------------------------------------------------------------
# transition graph


def test_two_tests_three_rules_graph():
    tests = [make_test("T1"), make_test("T2")]
    rules = [
        rule("r1", "T1", "p_value <= 0.05", "T2"),
        rule("r2", "T1", "p_value > 0.05", "end"),
        rule("r3", "T2", "p_value <= 0.05", "end"),
    ]
    graph = transition_graph(pipeline(tests, rules, start="T1"))
    assert len(graph.nodes) == 4  # Start, T1, T2, End
    assert sum(1 for e in graph.edges if e.kind == "rule") == 3
    assert all(e.label for e in graph.edges if e.kind == "rule")


def test_degenerate_pipeline_graph():
    graph = transition_graph(pipeline())
    assert graph.nodes == ("Start", "End")
    assert len(graph.edges) == 1
    assert graph.edges[0].kind == "start"


def test_parallel_scenario_split_out_degree(par_spec):
    graph = transition_graph(par_spec)
    split_edges = graph.out_edges("Population-split-purchases-prediction")
    assert len(split_edges) == 2
    assert {e.dst for e in split_edges} == {"Review-upgrade", "Recommendation-upgrade"}
    assert graph.reaches("End")


def test_nodes_sorted_deterministically(seq_spec):
    graph = transition_graph(seq_spec)
    inner = graph.nodes[1:-1]
    assert list(inner) == sorted(inner)
    assert graph.nodes[0] == "Start" and graph.nodes[-1] == "End"


def test_shipped_split_conditions_exclusive_over_class_domain(par_spec):
    split = par_spec.pop_splits[0]
    for cls in range(0, max(c.value for c in split.cond_stats) + 2):
        assert sum(1 for c in split.cond_stats if c.matches(cls)) <= 1


def test_split_membership_of_the_shipped_bundles(par_spec, seq_spec):
    assert par_spec.sub_pipeline_of == {
        "Review-upgrade": "Review-pipeline",
        "Recommendation-upgrade": "Recommendation-pipeline",
    }
    assert par_spec.split_names == {"Population-split-purchases-prediction"}
    assert seq_spec.sub_pipeline_of == {}
    assert seq_spec.split_names == set()
    assert par_spec.result_key("GUI-upgrade") == "GUI-upgrade"
    key = par_spec.result_key("Review-upgrade")
    assert key == "Review-pipeline/Review-upgrade"
    assert pvalue_file_name(key) == "pvalues_Review-pipeline__Review-upgrade.csv"


@pytest.mark.parametrize(
    "build, expected",
    [
        (
            lambda: pipeline([make_test("T1", hypothesis=Hypothesis("clicks", "sideways", 0.05))], start="T1"),
            ("unknown-direction", "T1", "direction 'sideways'"),
        ),
        (
            lambda: pipeline([make_test("T1", stat_test="chi2")], start="T1"),
            ("unknown-stat-test", "T1", "stat_test 'chi2'"),
        ),
        (
            lambda: pipeline([make_test("T1")], [rule("r", "X", "p_value <= 0.05", "end")], start="T1"),
            ("unresolved-reference", "P/r", "associated test 'X' is not declared"),
        ),
        (
            lambda: split_pipeline(
                [make_test("A1"), make_test("B1")],
                [SubPipeline("p1", "B1", ("A1",), ()), SubPipeline("p2", "B1", ("B1",), ())],
                [ClassCondition("==", 0), ClassCondition("==", 1)],
            ),
            ("sub-pipeline-start", "S/p1", "start 'B1' is not one of the sub-pipeline's tests"),
        ),
        (
            lambda: split_pipeline(
                [make_test("A1"), make_test("B1")],
                [SubPipeline("A1", "A1", ("A1",), ()), SubPipeline("p2", "B1", ("B1",), ())],
                [ClassCondition("==", 0), ClassCondition("==", 1)],
            ),
            ("duplicate-name", "A1", "declared as both test and sub-pipeline"),
        ),
        (
            lambda: split_pipeline(
                [make_test("A1"), make_test("B1")],
                [SubPipeline("P", "A1", ("A1",), ()), SubPipeline("p2", "B1", ("B1",), ())],
                [ClassCondition("==", 0), ClassCondition("==", 1)],
            ),
            ("duplicate-name", "P", "declared as both pipeline and sub-pipeline"),
        ),
        (
            lambda: two_branch_pipeline(start="A1"),
            ("sub-pipeline-test-outside-split", "P", "start 'A1' runs only in sub-pipeline 'p1'"),
        ),
        (
            lambda: two_branch_pipeline(rules=[rule("r", "A1", "p_value <= 0.05", "end")]),
            ("sub-pipeline-test-outside-split", "P/r",
             "associated test 'A1' runs only in sub-pipeline 'p1'"),
        ),
        (
            lambda: two_branch_pipeline(
                [make_test("R")], [rule("r", "R", "p_value <= 0.05", "B1")], start="R"
            ),
            ("sub-pipeline-test-outside-split", "P/r",
             "subsequent element 'B1' runs only in sub-pipeline 'p2'"),
        ),
        (
            lambda: two_branch_pipeline(next_component="B1"),
            ("sub-pipeline-test-outside-split", "S",
             "nextComponent 'B1' runs only in sub-pipeline 'p2'"),
        ),
        (
            lambda: two_branch_pipeline([make_test("p1/A1")]),
            ("result-key-collision", "A1",
             "results keyed 'p1/A1' share p-value file 'pvalues_p1__A1.csv' with"
             " test 'p1/A1', keyed 'p1/A1'"),
        ),
        (
            lambda: two_branch_pipeline([make_test("p1__A1")]),
            ("result-key-collision", "A1",
             "results keyed 'p1/A1' share p-value file 'pvalues_p1__A1.csv' with"
             " test 'p1__A1', keyed 'p1__A1'"),
        ),
        (
            lambda: split_pipeline(
                [make_test("B"), make_test("A/B")],
                [SubPipeline("p1/A", "B", ("B",), ()), SubPipeline("p1", "A/B", ("A/B",), ())],
                [ClassCondition("==", 0), ClassCondition("==", 1)],
            ),
            ("result-key-collision", "A/B",
             "results keyed 'p1/A/B' share p-value file 'pvalues_p1__A__B.csv' with"
             " test 'B', keyed 'p1/A/B'"),
        ),
        (
            lambda: pipeline(
                [make_test("A1"), make_test("B1"), make_test("C1")],
                [],
                [
                    make_split(
                        [SubPipeline("p1", "A1", ("A1",), ()), SubPipeline("p2", "B1", ("B1",), ())],
                        [ClassCondition("==", 0), ClassCondition("==", 1)],
                        next_component="S2",
                    ),
                    make_split(
                        [SubPipeline("q1", "A1", ("A1",), ()), SubPipeline("q2", "C1", ("C1",), ())],
                        [ClassCondition("==", 0), ClassCondition("==", 1)],
                        name="S2",
                    ),
                ],
                start="S",
            ),
            ("result-key-collision", "A1", "listed by sub-pipelines of splits 'S' and 'S2'"),
        ),
        (
            lambda: split_pipeline(
                [make_test("A1"), make_test("B1")],
                [SubPipeline("p1", "A1", ("A1",), ()), SubPipeline("p2", "B1", ("B1",), ())],
                [ClassCondition(">", -2), ClassCondition(">=", -3)],
            ),
            ("non-exclusive-split-conditions", "S", "class 0 satisfies 2 conditions (> -2, >= -3)"),
        ),
        (
            lambda: pipeline([make_test("Start")], start="Start"),
            ("reserved-name", "Start", "'Start' is the reserved Start marker"),
        ),
        (
            lambda: pipeline([make_test("A\0")], start="A\0"),
            ("bad-result-file-name", "A\0",
             "p-value file name 'pvalues_A\\x00.csv' has a NUL or over 255 UTF-8 bytes"),
        ),
        (
            lambda: pipeline([make_test("\u00e9" * 122)], start="\u00e9" * 122),
            ("bad-result-file-name", "\u00e9" * 122,
             f"p-value file name {'pvalues_' + chr(0xe9) * 122 + '.csv'!r} has a NUL"
             " or over 255 UTF-8 bytes"),
        ),
    ],
    ids=["unknown-direction", "unknown-stat-test", "undeclared-associated-test",
         "sub-pipeline-start", "sub-pipeline-id-clash", "sub-pipeline-id-is-the-pipeline",
         "start-in-a-sub-pipeline", "root-rule-on-a-sub-pipeline-test",
         "root-rule-into-a-sub-pipeline", "split-continues-in-a-sub-pipeline",
         "root-test-keyed-like-a-sub-pipeline-result", "root-test-sharing-a-p-value-file",
         "sub-pipeline-ids-with-slashes", "test-listed-by-two-splits",
         "split-literals-all-below-minus-one", "element-named-start",
         "nul-in-a-result-file-name", "result-file-name-over-255-utf8-bytes"],
)
def test_each_violation_is_reported_with_its_code_and_message(build, expected):
    report = validate(build())
    assert [(v.code, v.element, v.message) for v in report] == [expected]


@pytest.mark.parametrize(
    "element, shown",
    [
        ("Review-upgrade", "Review-upgrade"),
        ("caf\u00e9 'A' \"B\" \\n", "caf\u00e9 'A' \"B\" \\n"),
        ("two\nlines", "two\\nlines"),
        ("A\x00", "A\\x00"),
    ],
    ids=["plain", "printable", "newline", "nul"],
)
def test_a_violation_prints_on_one_line_with_non_printable_characters_escaped(element, shown):
    line = str(Violation("bad-result-file-name", element, "message"))
    assert line == f"[bad-result-file-name] {shown}: message"
    assert line.isprintable()


def test_a_test_may_share_the_pipeline_name():
    # only a sub-pipeline's id is a knowledge instance beside the root's
    assert validate(pipeline([make_test("P")], start="P")).ok
