"""Streaming metric accumulation, hypothesis tests and the stopping rule.

Accumulators use Welford's single-pass update, so running moments are
kept without storing samples; a served bool block is added in one exact
bulk step (:meth:`MetricAccumulator.add_many`), merged in place by the
step :meth:`MetricAccumulator.merge` applies to a copy. The stopping
rule is defined here once: hypothesis checks run at fixed request-batch
boundaries (:func:`next_boundary`) and stop at the first significant
result or at the cap (:func:`is_terminal`). A look counts its
``n_a + n_b`` requests; ``WebStore.probe`` only checks that count.
Each test's ``orchestrator.Program`` runs the looks. Repeated looks are
left uncorrected; see README for the false-positive implications.

The Student-t tail is computed locally via the regularized incomplete
beta (continued fraction), so the runtime package has no dependency on
a stats library; the test suite cross-checks it against an independent
oracle.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

B_GREATER = "B_greater"
B_LESS = "B_less"
B_NOT_EQUAL = "B_not_equal"
DIRECTIONS = (B_GREATER, B_LESS, B_NOT_EQUAL)

WELCH_T = "welch_t"
TWO_PROPORTION = "two_proportion"
STAT_TESTS = (WELCH_T, TWO_PROPORTION)

DEFAULT_BATCH_SIZE = 1000


class StatsError(ValueError):
    """Base for statistics-engine errors."""


class InsufficientSamplesError(StatsError):
    pass


class NonBinarySamplesError(StatsError):
    pass


class DegeneratePooledProportionError(StatsError):
    pass


# ---------------------------------------------------------------------------
# accumulators


@dataclass
class MetricAccumulator:
    """Single-pass mean/variance accumulator for one variant's metric.

    ``m2`` is the running sum of squared deviations from the mean, so
    ``variance == m2 / (n - 1)`` for ``n >= 2``.
    """

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    binary: bool = True  # all samples observed so far were 0 or 1

    def add(self, sample: float) -> None:
        if not math.isfinite(sample):
            raise StatsError(f"non-finite sample {sample!r} rejected")
        if sample not in (0.0, 1.0):
            self.binary = False
        self.n += 1
        delta = sample - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (sample - self.mean)

    def add_many(self, samples) -> None:
        """Bulk update; equal to adding each sample in turn up to rounding.

        A bool block (what the store serves) takes a fast path with the
        same bits as its 0/1 float block: that block sums to exactly its
        count of ones, and its squared deviations take only two values,
        summed in the same order. A 0/1 block is finite, so only another
        block is checked for NaN and infinity. The block's moments are
        merged in place by the step :meth:`merge` applies to a copy.
        """
        xs = np.asarray(samples)
        n = xs.size
        if n == 0:
            return
        if xs.dtype == np.bool_:
            mean = int(np.count_nonzero(xs)) / n
            d2 = np.where(xs, (1.0 - mean) * (1.0 - mean), mean * mean)
            binary = True
        else:
            xs = xs.astype(np.float64, copy=False)
            binary = bool(((xs == 0.0) | (xs == 1.0)).all())
            if not (binary or np.isfinite(xs).all()):
                raise StatsError("non-finite sample rejected")
            mean = float(np.add.reduce(xs)) / n  # what xs.mean() computes
            d2 = xs - mean
            d2 *= d2
        self._merge_in(n, mean, float(np.add.reduce(d2)), binary)

    def merge(self, other: "MetricAccumulator") -> "MetricAccumulator":
        """Combine two accumulators as if their streams were concatenated."""
        merged = MetricAccumulator(self.n, self.mean, self.m2, self.binary)
        merged._merge_in(other.n, other.mean, other.m2, other.binary)
        return merged

    def _merge_in(self, n: int, mean: float, m2: float, binary: bool) -> None:
        """Append, in place, a stream of ``n`` samples with these moments."""
        if n == 0:
            return
        if self.n == 0:
            self.n, self.mean, self.m2, self.binary = n, mean, m2, binary
            return
        total = self.n + n
        delta = mean - self.mean
        self.m2 = self.m2 + m2 + delta * delta * self.n * n / total
        self.mean = self.mean + delta * n / total
        self.n = total
        self.binary = self.binary and binary

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0 while n < 2."""
        if self.n < 2:
            return 0.0
        return self.m2 / (self.n - 1)


# ---------------------------------------------------------------------------
# distribution tails


def _betacf(a: float, b: float, x: float) -> float:
    # Lentz's continued fraction for the incomplete beta integral.
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
    m = 0.0  # a float counter keeps every product float-float; 1..300 are exact
    for _ in range(max_iter):
        m += 1.0
        m2 = m + m
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


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
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
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with (possibly fractional) df."""
    if df <= 0:
        raise StatsError(f"degrees of freedom must be positive, got {df}")
    x = df / (df + t * t)
    half_tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return half_tail if t >= 0 else 1.0 - half_tail


def normal_sf(z: float) -> float:
    """P(Z > z) for the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _directional_p(stat: float, direction: str, tail) -> float:
    if direction == B_GREATER:
        p = tail(stat)
    elif direction == B_LESS:
        p = 1.0 - tail(stat)
    elif direction == B_NOT_EQUAL:
        p = 2.0 * tail(abs(stat))
    else:
        raise StatsError(f"unknown direction {direction!r}")
    return min(max(p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# hypothesis tests


@dataclass(frozen=True)
class StatResult:
    """Outcome of one hypothesis evaluation, over ``n_a + n_b`` requests."""

    p_value: float
    mean_a: float
    mean_b: float
    n_a: int
    n_b: int
    significant: bool

    @property
    def effect(self) -> float:
        return self.mean_b - self.mean_a

    @property
    def requests_consumed(self) -> int:
        return self.n_a + self.n_b


def _result(
    a: MetricAccumulator,
    b: MetricAccumulator,
    p: float,
    alpha: float,
) -> StatResult:
    """A look's result on the ``a.n + b.n`` requests it saw."""
    return StatResult(
        p_value=p,
        mean_a=a.mean,
        mean_b=b.mean,
        n_a=a.n,
        n_b=b.n,
        significant=p <= alpha,
    )


def welch_t_test(
    a: MetricAccumulator,
    b: MetricAccumulator,
    direction: str = B_NOT_EQUAL,
    alpha: float = 0.05,
) -> StatResult:
    """Welch's unequal-variance t-test on two accumulators.

    Degrees of freedom follow Welch-Satterthwaite and are used
    unrounded. When both variances are zero the p-value degenerates to
    0 if the means differ in the hypothesis' direction and 1 otherwise.
    """
    if a.n < 2 or b.n < 2:
        raise InsufficientSamplesError(
            f"welch t-test needs n >= 2 per variant, got n_a={a.n}, n_b={b.n}"
        )
    va, vb = a.variance, b.variance
    if not (math.isfinite(va) and math.isfinite(vb)):
        raise StatsError("non-finite variance")
    ra, rb = va / a.n, vb / b.n
    se2 = ra + rb
    if se2 == 0.0:
        # zero standard error: the null statistic is a point mass at 0, so
        # P(T > s) is 1 for s < 0 and 0 otherwise; equal means give p = 1
        diff = b.mean - a.mean
        p = 1.0
        if diff != 0.0:
            p = _directional_p(diff, direction, lambda s: float(s < 0))
    else:
        t = (b.mean - a.mean) / math.sqrt(se2)
        # Welch-Satterthwaite with weights normalized first so subnormal
        # variances cannot underflow the quotient
        wa = ra / se2
        wb = rb / se2
        df = 1.0 / (wa * wa / (a.n - 1) + wb * wb / (b.n - 1))
        p = _directional_p(t, direction, lambda s: student_t_sf(s, df))
    return _result(a, b, p, alpha)


def two_proportion_test(
    a: MetricAccumulator,
    b: MetricAccumulator,
    direction: str = B_NOT_EQUAL,
    alpha: float = 0.05,
) -> StatResult:
    """Pooled two-proportion z-test on binary accumulators."""
    if not (a.binary and b.binary):
        raise NonBinarySamplesError("two-proportion test requires 0/1 samples")
    if a.n < 1 or b.n < 1:
        raise InsufficientSamplesError(
            f"two-proportion test needs n >= 1 per variant, got n_a={a.n}, n_b={b.n}"
        )
    pooled = (a.mean * a.n + b.mean * b.n) / (a.n + b.n)
    if pooled <= 0.0 or pooled >= 1.0:
        raise DegeneratePooledProportionError(
            f"pooled proportion {pooled} is degenerate"
        )
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / a.n + 1.0 / b.n))
    z = (b.mean - a.mean) / se
    p = _directional_p(z, direction, normal_sf)
    return _result(a, b, p, alpha)


_TEST_FUNCS = {WELCH_T: welch_t_test, TWO_PROPORTION: two_proportion_test}


def run_stat_test(
    stat_test: str,
    a: MetricAccumulator,
    b: MetricAccumulator,
    direction: str,
    alpha: float,
) -> StatResult:
    """Dispatch to the configured statistical procedure."""
    try:
        func = _TEST_FUNCS[stat_test]
    except KeyError:
        raise StatsError(f"unknown stat test {stat_test!r}") from None
    return func(a, b, direction, alpha)


# ---------------------------------------------------------------------------
# stopping rule


def next_boundary(requests: int, exp_length: int, batch_size: int) -> int:
    """First request count after ``requests`` at which to evaluate.

    Check boundaries are the multiples of the batch size, with the
    experiment cap appended when it does not land on one.
    """
    if batch_size < 1:
        raise StatsError(f"batch_size must be >= 1, got {batch_size}")
    if requests >= exp_length:
        raise StatsError(
            f"no check boundary after {requests} requests:"
            f" experiment length is {exp_length}"
        )
    return min((requests // batch_size + 1) * batch_size, exp_length)


def is_terminal(result: StatResult, spec) -> bool:
    """The stopping rule: the first significant look, or the length cap."""
    return result.significant or result.requests_consumed >= spec.exp_length


# ---------------------------------------------------------------------------
# export

PVALUE_TRACE_HEADER = [
    "requests",
    "p_value",
    "mean_a",
    "mean_b",
    "n_a",
    "n_b",
    "significant",
]


def write_pvalue_trace(path, results: Sequence[StatResult]) -> None:
    """Write the per-batch p-value trace CSV used for progress plots."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(PVALUE_TRACE_HEADER)
        for r in results:
            writer.writerow(
                [
                    r.requests_consumed,
                    repr(r.p_value),
                    repr(r.mean_a),
                    repr(r.mean_b),
                    r.n_a,
                    r.n_b,
                    str(r.significant).lower(),
                ]
            )
