import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abpipe.stats import (
    DegeneratePooledProportionError,
    InsufficientSamplesError,
    MetricAccumulator,
    NonBinarySamplesError,
    StatsError,
    _betacf,
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


# 8,192 elements is numpy's reduction buffer: pairwise sums change shape past it
BLOCK_SIZES = [0, 1, 7, 8, 129, 8_191, 8_193, 20_000]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    blocks=st.lists(
        st.tuples(
            st.sampled_from(["bool", "binary", "normal"]),
            st.sampled_from(BLOCK_SIZES) | st.integers(min_value=0, max_value=3_000),
            st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=100, deadline=None)
@example(seed=3, blocks=[("bool", size, 0.3) for size in BLOCK_SIZES])
@example(seed=4, blocks=[("bool", 8_193, 1.0), ("bool", 129, 0.0), ("bool", 1, 1.0)])
@example(seed=5, blocks=[("binary", 7, 0.5), ("bool", 20_000, 0.02), ("normal", 8, 0.0)])
def test_bulk_moments_are_bitwise_the_previous_formula(seed, blocks):
    """A bool block has the bits of its 0/1 float block under the old formula."""
    rng = np.random.default_rng(seed)
    new, old = MetricAccumulator(), MetricAccumulator()
    for kind, size, rate in blocks:
        if kind == "normal":
            xs = rng.normal(rng.normal(0.0, 1e3), rng.lognormal(0.0, 3.0), size)
        else:
            xs = rng.random(size) < rate
            if kind == "binary":
                xs = xs.astype(np.float64)
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


def frozen_merge(left, right):
    """The merge formula on its own: the reference for the step ``merge`` and ``add_many`` share."""
    if right.n == 0:
        return MetricAccumulator(left.n, left.mean, left.m2, left.binary)
    if left.n == 0:
        return MetricAccumulator(right.n, right.mean, right.m2, right.binary)
    n = left.n + right.n
    delta = right.mean - left.mean
    mean = left.mean + delta * right.n / n
    m2 = left.m2 + right.m2 + delta * delta * left.n * right.n / n
    return MetricAccumulator(n, mean, m2, left.binary and right.binary)


def accumulator_states():
    """Empty, or any moments a stream of 1-10,000 samples can have."""
    return st.just(MetricAccumulator()) | st.builds(
        MetricAccumulator,
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=0.0, max_value=1e6),
        st.booleans(),
    )


@given(
    before=accumulator_states(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.sampled_from(BLOCK_SIZES[1:]) | st.integers(min_value=1, max_value=3_000),
    rate=st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
@example(before=MetricAccumulator(), seed=1, size=8_193, rate=0.3)
@example(before=MetricAccumulator(4, 0.25, 0.75, True), seed=2, size=1, rate=1.0)
def test_bool_block_added_in_place_is_merge(before, seed, size, rate):
    """In-place addition of a bool block has the bits of ``merge`` of its moments."""
    xs = np.random.default_rng(seed).random(size) < rate
    mean = int(np.count_nonzero(xs)) / size
    m2 = float(np.where(xs, (1.0 - mean) * (1.0 - mean), mean * mean).sum())
    block = MetricAccumulator(size, mean, m2, True)
    expected = before.merge(block)
    assert bits(expected) == bits(frozen_merge(before, block))
    acc = MetricAccumulator(before.n, before.mean, before.m2, before.binary)
    acc.add_many(xs)
    assert bits(acc) == bits(expected)


@given(accumulator_states(), accumulator_states())
@settings(max_examples=100, deadline=None)
def test_merge_leaves_both_operands_unchanged(left, right):
    before = bits(left), bits(right)
    merged = left.merge(right)
    assert (bits(left), bits(right)) == before
    assert merged is not left and merged is not right
    assert bits(merged) == bits(frozen_merge(left, right))


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


def frozen_betacf(a, b, x):
    """``stats._betacf`` in its textbook form, every Lentz guard an ``abs()``
    and the loop counter an int."""
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        de = d * c
        h *= de
        if abs(de - 1.0) < eps:
            return h
    raise StatsError("incomplete beta continued fraction did not converge")


def frozen_incomplete_beta(a, b, x):
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * frozen_betacf(a, b, x) / a
    return 1.0 - bt * frozen_betacf(b, a, 1.0 - x) / b


def outcome(f, *args):
    """The bits ``f`` returns, or the error it raises."""
    try:
        return float(f(*args)).hex()
    except StatsError as exc:
        return str(exc)


# Each of these enters one Lentz guard of the continued fraction: the
# initial d is 0 at (1, 3, 0.5); the even step's d at (1, 4, 0.5) and c at
# (5, 17, 0.6388...); the odd step's d at (8, 1.5, 0.97999...) and c at
# (2, 17, 0.6000...1). At (11.47, 22.18, 0.496) one step misses the
# convergence test by one ulp (de - 1 is -3.33e-16) and the next passes.
@given(
    a=st.floats(min_value=1e-3, max_value=1e4),
    b=st.floats(min_value=1e-3, max_value=1e4),
    x=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
@example(a=1.0, b=3.0, x=0.5)
@example(a=1.0, b=4.0, x=0.5)
@example(a=5.0, b=17.0, x=0.6388721553181806)
@example(a=8.0, b=1.5, x=0.9799930990165943)
@example(a=2.0, b=17.0, x=0.6000000000000001)
@example(a=11.47, b=22.18, x=0.496)
@example(a=1e6, b=1e6, x=0.5)
def test_incomplete_beta_is_bitwise_the_abs_guarded_form(a, b, x):
    """A rewrite of the guards for speed must keep every bit and every raise."""
    assert outcome(_betacf, a, b, x) == outcome(frozen_betacf, a, b, x)
    assert outcome(regularized_incomplete_beta, a, b, x) == outcome(
        frozen_incomplete_beta, a, b, x
    )


WELCH_DF = np.geomspace(2.0, 2e5, 31).tolist()
WELCH_T = [0.0, 1e-9, 1e-4, 0.05, 0.3, 0.9, 1.645, 1.96, 2.5, 3.3, 4.0, 5.0, 6.0]
NEAR_EDGE_X = [1e-300, 1e-15, 1e-9, 1e-4, 1.0 - 1e-4, 1.0 - 1e-9, 1.0 - 2**-52]


def test_float_counter_continued_fraction_equals_the_int_counter_form():
    """Every Welch look evaluates the continued fraction at a = df / 2,
    b = 0.5 and x = df / (df + t*t), in one of two orientations. Over df
    2..2e5 and |t| up to 6, and at x within 1e-4 of 0 and of 1, the float
    counter returns what the int counter did, or raises the same error."""
    cases = [(df / 2.0, 0.5, df / (df + t * t)) for df in WELCH_DF for t in WELCH_T]
    cases += [(df / 2.0, 0.5, x) for df in WELCH_DF for x in NEAR_EDGE_X]
    assert any(x < 1e-3 for _, _, x in cases) and any(x > 1.0 - 1e-9 for _, _, x in cases)
    for a, b, x in cases:
        for args in ((a, b, x), (b, a, 1.0 - x)):
            assert outcome(_betacf, *args) == outcome(frozen_betacf, *args)


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
