import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abpipe.conditions import (
    COMPARE,
    BoolOp,
    Comparison,
    ConditionSyntaxError,
    conditions_overlap,
    covers_everything,
    parse_condition,
    satisfiable,
)
from abpipe.model import ClassCondition
from abpipe.stats import StatResult


def result(p=0.5, mean_a=0.0, mean_b=0.0):
    return StatResult(p, mean_a, mean_b, 10, 10, p <= 0.05)


def test_parse_simple_comparison():
    cond = parse_condition("p_value <= 0.05")
    assert cond == Comparison("p_value", "<=", 0.05)


def test_parse_and_chain():
    cond = parse_condition("p_value <= 0.05 and effect > 0")
    assert isinstance(cond, BoolOp) and cond.op == "and"


def test_parse_parentheses():
    cond = parse_condition("(p_value < 0.01 or p_value > 0.9) and mean_b >= 0.2")
    assert cond.evaluate(result(p=0.005, mean_b=0.3))
    assert not cond.evaluate(result(p=0.005, mean_b=0.1))


def test_boolean_ops_flat_left_associative():
    # single precedence level: a or b and c == (a or b) and c
    cond = parse_condition("p_value < 0.1 or p_value > 0.9 and mean_b > 100")
    assert not cond.evaluate(result(p=0.05, mean_b=0.0))


def test_effect_is_mean_difference():
    cond = parse_condition("effect > 0.01")
    assert cond.evaluate(result(mean_a=0.10, mean_b=0.12))
    assert not cond.evaluate(result(mean_a=0.12, mean_b=0.10))


def test_syntax_error_carries_position():
    with pytest.raises(ConditionSyntaxError) as err:
        parse_condition("p_value <= frog")
    assert err.value.position == 11
    with pytest.raises(ConditionSyntaxError):
        parse_condition("p_value <=")
    with pytest.raises(ConditionSyntaxError):
        parse_condition("(p_value <= 0.05")
    with pytest.raises(ConditionSyntaxError):
        parse_condition("")
    with pytest.raises(ConditionSyntaxError):
        parse_condition("unknown_field < 1")


def test_boundary_comparison_inclusive():
    cond = parse_condition("p_value <= 0.05")
    assert cond.evaluate(result(p=0.05))


# Python's own comparisons, written out as the oracle for the operator table
PYTHON_COMPARE = {
    "<": lambda x, bound: x < bound,
    "<=": lambda x, bound: x <= bound,
    ">": lambda x, bound: x > bound,
    ">=": lambda x, bound: x >= bound,
    "==": lambda x, bound: x == bound,
    "!=": lambda x, bound: x != bound,
}


def test_operator_table_lists_the_six_operators():
    assert set(COMPARE) == set(PYTHON_COMPARE)


@pytest.mark.parametrize("x", [1, 2, 3], ids=["below", "equal", "above"])
@pytest.mark.parametrize("op", sorted(PYTHON_COMPARE))
def test_class_and_result_conditions_compare_like_python(op, x):
    expected = PYTHON_COMPARE[op](x, 2)
    assert ClassCondition(op, 2).matches(x) == expected
    condition = parse_condition(f"mean_a {op} 2")
    assert condition.evaluate(result(mean_a=x)) == expected


def test_overlap_detection():
    success = parse_condition("p_value <= 0.05 and effect > 0")
    fail = parse_condition("p_value > 0.05")
    assert not conditions_overlap(success, fail)
    loose = parse_condition("p_value <= 0.10")
    assert conditions_overlap(success, loose)


def test_not_equal_splits_into_intervals():
    cond = parse_condition("mean_a != 0.5 and mean_a >= 0.5 and mean_a <= 0.5")
    assert not satisfiable(cond)


def test_p_value_domain_bound():
    assert not satisfiable(parse_condition("p_value > 1.5"))
    assert not satisfiable(parse_condition("p_value < 0"))
    assert satisfiable(parse_condition("p_value >= 0"))


def test_covers_everything():
    assert covers_everything([parse_condition("p_value >= 0")])
    assert covers_everything(
        [parse_condition("p_value <= 0.05"), parse_condition("p_value > 0.05")]
    )
    assert not covers_everything([parse_condition("p_value <= 0.05")])
    assert not covers_everything([])


FIELDS = st.sampled_from(["p_value", "mean_a", "mean_b", "effect"])
OPS = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
NUMS = st.floats(min_value=-5, max_value=5, allow_nan=False).map(lambda x: round(x, 3))


@st.composite
def condition_text(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        return f"{draw(FIELDS)} {draw(OPS)} {draw(NUMS)}"
    left = draw(condition_text(depth=depth + 1))
    right = draw(condition_text(depth=depth + 1))
    text = f"{left} {draw(st.sampled_from(['and', 'or']))} {right}"
    return f"({text})" if draw(st.booleans()) else text


@given(condition_text())
@settings(max_examples=200, deadline=None)
def test_random_conditions_roundtrip_and_evaluate(text):
    cond = parse_condition(text)
    # evaluation is total over well-formed results
    cond.evaluate(result(p=0.3, mean_a=1.0, mean_b=-0.5))
    # a condition always overlaps itself when satisfiable
    if satisfiable(cond):
        assert conditions_overlap(cond, cond)
