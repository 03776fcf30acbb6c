import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abpipe.stats import (
    DegeneratePooledProportionError,
    InsufficientSamplesError,
    MetricAccumulator,
    NonBinarySamplesError,
    StatsError,
    next_boundary,
    normal_sf,
    regularized_incomplete_beta,
    student_t_sf,
    two_proportion_test,
    welch_t_test,
)

DATA = Path(__file__).parent / "data"


def acc_from(values):
    acc = MetricAccumulator()
    for v in values:
        acc.add(v)
    return acc


# ---------------------------------------------------------------------------
# accumulator


def test_first_sample():
    acc = MetricAccumulator()
    acc.add(5.0)
    assert (acc.n, acc.mean, acc.m2) == (1, 5.0, 0.0)


def test_two_pass_variance_agreement():
    acc = acc_from([0, 0, 1, 1])
    assert acc.n == 4
    assert acc.mean == pytest.approx(0.5)
    assert acc.variance == pytest.approx(1 / 3)


def test_merge_matches_concatenation():
    left = acc_from([0, 1])
    right = acc_from([1, 0])
    merged = left.merge(right)
    straight = acc_from([0, 1, 1, 0])
    assert merged.n == straight.n
    assert merged.mean == pytest.approx(straight.mean, rel=1e-12)
    assert merged.m2 == pytest.approx(straight.m2, rel=1e-12)


def test_rejects_non_finite():
    acc = MetricAccumulator()
    with pytest.raises(StatsError):
        acc.add(float("nan"))
    with pytest.raises(StatsError):
        acc.add_many([1.0, float("inf")])


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=200,
    ),
    st.integers(min_value=0, max_value=200),
)
@settings(max_examples=150, deadline=None)
def test_merge_associativity_property(values, cut):
    cut = min(cut, len(values))
    merged = acc_from(values[:cut]).merge(acc_from(values[cut:]))
    straight = acc_from(values)
    assert merged.n == straight.n
    assert math.isclose(merged.mean, straight.mean, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(merged.m2, straight.m2, rel_tol=1e-9, abs_tol=1e-6)
    assert merged.m2 >= -1e-9


@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=0,
        max_size=100,
    )
)
@settings(max_examples=100, deadline=None)
def test_bulk_equals_stream(values):
    bulk = MetricAccumulator()
    bulk.add_many(values)
    stream = acc_from(values)
    assert bulk.n == stream.n
    assert math.isclose(bulk.mean, stream.mean, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(bulk.m2, stream.m2, rel_tol=1e-9, abs_tol=1e-6)


def previous_add_many(acc, samples):
    """``add_many``'s earlier block moments: ``xs.mean()`` and a squared power."""
    xs = np.asarray(samples, dtype=np.float64)
    if xs.size == 0:
        return acc
    chunk = MetricAccumulator(int(xs.size), float(xs.mean()))
    chunk.m2 = float(((xs - chunk.mean) ** 2).sum())
    chunk.binary = bool(np.all((xs == 0.0) | (xs == 1.0)))
    return acc.merge(chunk)


def bits(acc):
    return acc.n, acc.mean.hex(), acc.m2.hex(), acc.binary


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sizes=st.lists(st.integers(min_value=0, max_value=3_000), min_size=1, max_size=4),
    binary=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_bulk_moments_are_bitwise_the_previous_formula(seed, sizes, binary):
    rng = np.random.default_rng(seed)
    new, old = MetricAccumulator(), MetricAccumulator()
    for size in sizes:
        if binary:
            xs = (rng.random(size) < rng.random()).astype(np.float64)
        else:
            xs = rng.normal(rng.normal(0.0, 1e3), rng.lognormal(0.0, 3.0), size)
        new.add_many(xs)
        old = previous_add_many(old, xs)
        assert bits(new) == bits(old)


@given(
    st.lists(
        # squares of up to 1e150 sum to at most 4e301: no overflow
        st.lists(st.floats(min_value=-1e150, max_value=1e150), max_size=40),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=100, deadline=None)
def test_bulk_moments_of_any_finite_floats_are_the_previous_formula(blocks):
    new, old = MetricAccumulator(), MetricAccumulator()
    for block in blocks:
        new.add_many(block)
        old = previous_add_many(old, block)
        assert bits(new) == bits(old)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("at", [0, 500, 999])
def test_non_finite_sample_in_a_binary_block_is_rejected(bad, at):
    acc = MetricAccumulator()
    acc.add_many([0.0, 1.0, 1.0])
    before = bits(acc)
    xs = (np.arange(1_000) % 3 == 0).astype(np.float64)
    xs[at] = bad
    with pytest.raises(StatsError, match="non-finite"):
        acc.add_many(xs)
    assert bits(acc) == before


# ---------------------------------------------------------------------------
# welch


def test_identical_accumulators_p_one():
    a = acc_from([1.0, 2.0, 3.0])
    b = acc_from([1.0, 2.0, 3.0])
    result = welch_t_test(a, b, "B_not_equal")
    assert result.p_value == pytest.approx(1.0)
    assert not result.significant


def test_seeded_offset_matches_reference_package():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(42)
    xa = rng.normal(0.0, 1.0, 50)
    xb = xa + 1.0
    a = acc_from(xa)
    b = acc_from(xb)
    result = welch_t_test(a, b, "B_not_equal")
    expected = scipy_stats.ttest_ind(xb, xa, equal_var=False).pvalue
    assert abs(result.p_value - expected) < 1e-9


def test_insufficient_samples():
    with pytest.raises(InsufficientSamplesError):
        welch_t_test(acc_from([1.0]), acc_from([0.0, 1.0, 2.0]), "B_greater")


def test_zero_variance_both_degenerate():
    same = welch_t_test(acc_from([2.0, 2.0]), acc_from([2.0, 2.0]), "B_not_equal")
    assert same.p_value == 1.0
    differ = welch_t_test(acc_from([1.0, 1.0]), acc_from([2.0, 2.0]), "B_not_equal")
    assert differ.p_value == 0.0
    # one-sided: only a difference in the hypothesis' direction is significant
    lower_b = (acc_from([1.0, 1.0]), acc_from([0.0, 0.0]))
    assert welch_t_test(*lower_b, "B_greater").p_value == 1.0
    assert not welch_t_test(*lower_b, "B_greater").significant
    assert welch_t_test(*lower_b, "B_less").p_value == 0.0
    higher_b = (acc_from([0.0, 0.0]), acc_from([1.0, 1.0]))
    assert welch_t_test(*higher_b, "B_greater").p_value == 0.0
    assert welch_t_test(*higher_b, "B_less").p_value == 1.0
    same = (acc_from([1.0, 1.0]), acc_from([1.0, 1.0]))
    assert welch_t_test(*same, "B_greater").p_value == 1.0
    assert welch_t_test(*same, "B_less").p_value == 1.0


def test_frozen_oracle_table():
    """100 seeded cases against the pre-built independent p-value oracle."""
    table = json.loads((DATA / "welch_oracle.json").read_text())
    assert len(table["cases"]) == 100
    for case in table["cases"]:
        a = MetricAccumulator(case["n_a"], case["mean_a"], case["m2_a"])
        b = MetricAccumulator(case["n_b"], case["mean_b"], case["m2_b"])
        result = welch_t_test(a, b, case["direction"])
        assert abs(result.p_value - case["expected_p"]) < 1e-9, case["case"]


def test_welch_reduces_to_student_on_equal_variance_and_n():
    rng = np.random.default_rng(3)
    xa = rng.normal(0, 1, 30)
    xb = xa * -1.0 + 0.4  # same sample variance, same n
    a = acc_from(xa)
    b = acc_from(xb)
    assert a.variance == pytest.approx(b.variance, rel=1e-12)
    se2 = a.variance / a.n + b.variance / b.n
    df = se2**2 / (
        (a.variance / a.n) ** 2 / (a.n - 1) + (b.variance / b.n) ** 2 / (b.n - 1)
    )
    assert abs(df - (a.n + b.n - 2)) < 1e-9


@given(
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.01, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_monotone_evidence(delta_small, extra):
    # fixed variances and counts: a larger |mean difference| cannot raise p
    base = MetricAccumulator(40, 0.0, 39.0)
    near = MetricAccumulator(40, delta_small, 39.0)
    far = MetricAccumulator(40, delta_small + extra, 39.0)
    p_near = welch_t_test(base, near, "B_not_equal").p_value
    p_far = welch_t_test(base, far, "B_not_equal").p_value
    assert p_far <= p_near + 1e-12


@given(
    st.integers(min_value=2, max_value=500),
    st.integers(min_value=2, max_value=500),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=0, max_value=100),
    st.floats(min_value=0, max_value=100),
    st.sampled_from(["B_greater", "B_less", "B_not_equal"]),
)
@settings(max_examples=200, deadline=None)
def test_p_value_in_unit_interval(n_a, n_b, ma, mb, m2a, m2b, direction):
    a = MetricAccumulator(n_a, ma, m2a)
    b = MetricAccumulator(n_b, mb, m2b)
    p = welch_t_test(a, b, direction).p_value
    assert 0.0 <= p <= 1.0


def test_incomplete_beta_non_convergence_is_a_stats_error():
    # at a = b = 1e6 the continued fraction needs more than its 300 terms
    with pytest.raises(StatsError, match="did not converge"):
        regularized_incomplete_beta(1e6, 1e6, 0.5)


def test_t_sf_against_reference():
    scipy_stats = pytest.importorskip("scipy.stats")
    for t in (-8.0, -2.5, -0.3, 0.0, 0.7, 1.645, 3.2, 12.0):
        for df in (1.0, 2.5, 7.0, 33.3, 500.0):
            assert abs(student_t_sf(t, df) - scipy_stats.t.sf(t, df)) < 1e-12


# ---------------------------------------------------------------------------
# two-proportion


def binary_acc(p, n):
    acc = MetricAccumulator()
    ones = round(p * n)
    acc.add_many([1.0] * ones + [0.0] * (n - ones))
    return acc


def test_equal_proportions_p_one():
    a = binary_acc(0.3, 100)
    b = binary_acc(0.3, 100)
    result = two_proportion_test(a, b, "B_not_equal")
    assert result.p_value == pytest.approx(1.0)


def test_published_click_rates_significant():
    # z = (0.1617-0.1470)/sqrt(p(1-p)(2/10000)) ~= 2.88 -> p << 0.05
    a = binary_acc(0.1470, 10_000)
    b = binary_acc(0.1617, 10_000)
    result = two_proportion_test(a, b, "B_not_equal")
    assert result.p_value < 0.05
    pooled = (a.mean * a.n + b.mean * b.n) / (a.n + b.n)
    z = (b.mean - a.mean) / math.sqrt(pooled * (1 - pooled) * (2 / 10_000))
    assert z == pytest.approx(2.877, abs=0.01)
    assert result.p_value == pytest.approx(2.0 * normal_sf(z), abs=1e-12)


def test_degenerate_pooled_proportion():
    a = binary_acc(0.0, 50)
    b = binary_acc(0.0, 50)
    with pytest.raises(DegeneratePooledProportionError):
        two_proportion_test(a, b, "B_not_equal")


def test_non_binary_rejected():
    a = acc_from([0.0, 0.5, 1.0])
    b = binary_acc(0.5, 10)
    with pytest.raises(NonBinarySamplesError):
        two_proportion_test(a, b, "B_not_equal")


# ---------------------------------------------------------------------------
# stopping rule


@given(st.integers(1, 3000), st.integers(1, 1200))
@settings(max_examples=200, deadline=None)
def test_next_boundary_walks_batch_multiples_up_to_the_cap(exp_length, batch_size):
    multiples = range(batch_size, exp_length + batch_size, batch_size)
    expected = sorted({min(m, exp_length) for m in multiples})
    walked, at = [], 0
    while at < exp_length:
        at = next_boundary(at, exp_length, batch_size)
        walked.append(at)
    assert walked == expected
    with pytest.raises(StatsError):
        next_boundary(exp_length, exp_length, batch_size)
