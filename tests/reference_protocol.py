"""Independent reference of the desk-scale sequential-vs-split comparison.

Recomputes, seed by seed, what ``abpipe compare`` must report for a
sequential and a split pipeline under the pinned measurement protocol:
every batch of ``batch_size`` requests a one-sided Welch t-test on the
hypothesis metric, stop at the first ``p <= alpha`` or at the test's
length cap, then follow the first matching transition rule.

It shares only inputs with the package:

* ``abpipe.prf`` (the counter-based draws and stream keys);
* the population and training-data generators;
* the arrival generator's seed (stream label ``"arrivals"``);
* ``classifier.train`` and ``LinearModel.predict`` for the split model;
* ``stats.student_t_sf``, which the statistics oracle checks.

Everything else is derived here, without the orchestrator, the report
module or the web-store's serving code:

* routing: each arrival goes to the sub-pipeline whose class condition
  its predicted class satisfies, or nowhere;
* sticky assignment: a user is in variant A of a test when
  ``uniform(assign key of the test, user id) < fracA``;
* per-test draw counters: the k-th request a test receives (k from 0)
  draws ``uniform(draw key of the test and metric, k)``;
* moments: the Welch statistic is formed from the 0/1 samples' success
  counts, not from running accumulators;
* the stopping rule and the transition rules (conditions are evaluated
  by Python itself, as in ``reference_interpreter``);
* stream positions: a test outside a split reads the next arrivals of
  the shared stream; a sub-pipeline reads, in stream order, the arrivals
  routed to it, and finishes at the stream position after the last
  arrival its final test used;
* aggregation: per-test medians, sequential SUM, parallel MAX.

Aggregation rule: a test's median is taken over the seeds in which that
test ran. When a run ends before a test (say the sequential review test
hits its cap without significance, so the recommendation test never
runs), that seed is left out of that test's median only; the totals add
or compare medians that may rest on different seed subsets.

The reference covers runs in which every evaluation has at least two
samples per variant; it raises on any other run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from abpipe import classifier as clf
from abpipe import prf
from abpipe.model import PipelineSpec, is_end
from abpipe.stats import student_t_sf
from abpipe.webstore import ScenarioConfig, generate_population, generate_training_data

from reference_interpreter import _eval_condition

BLOCK = 65_536  # least arrivals drawn, and arrivals routed, per extension


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class Outcome:
    """Final look of one test: what the transition rules see."""

    requests: int
    p_value: float
    mean_a: float
    mean_b: float


@dataclass(frozen=True)
class SplitRecord:
    streams: dict  # sub-pipeline id -> stream requests until it ended
    fractions: dict  # sub-pipeline id -> share of the split's stream
    unrouted: float


@dataclass(frozen=True)
class RunRecord:
    tests: dict  # test name -> routed requests at its final look
    splits: tuple  # SplitRecord per split, in execution order


# ---------------------------------------------------------------------------
# traffic


class Arrivals:
    """The shared arrival stream: uniform user ids, drawn as needed."""

    def __init__(self, seed: int, population_size: int):
        self._rng = np.random.default_rng(prf.stream_key(seed, "arrivals"))
        self._size = population_size
        self.users = np.zeros(0, dtype=np.int64)

    def upto(self, stop: int) -> np.ndarray:
        have = self.users.shape[0]
        if have < stop:
            # one call or many give the same sequence; grow geometrically
            block = self._rng.integers(0, self._size, size=max(stop - have, have, BLOCK))
            self.users = np.concatenate([self.users, block])
        return self.users


class Segment:
    """Arrivals routed to one sub-pipeline, with their stream positions."""

    def __init__(self, arrivals: Arrivals, targets_of, index: int, start: int):
        self._arrivals = arrivals
        self._targets_of = targets_of
        self._index = index
        self._scanned = start
        self.positions = np.zeros(0, dtype=np.int64)

    def users(self, stop: int) -> np.ndarray:
        while self.positions.shape[0] < stop:
            lo, hi = self._scanned, self._scanned + BLOCK
            targets = self._targets_of(self._arrivals.upto(hi)[lo:hi])
            self.positions = np.concatenate(
                [self.positions, lo + np.flatnonzero(targets == self._index)]
            )
            self._scanned = hi
        return self._arrivals.users[self.positions[:stop]]


# ---------------------------------------------------------------------------
# one A/B test under the pinned protocol


def _rates(config: ScenarioConfig, metric: str, variant: str, purchaser: np.ndarray):
    if metric == "engagement":
        return np.full(purchaser.shape, config.gui_rates[variant], dtype=np.float64)
    if metric == "clicks":
        return np.full(purchaser.shape, config.review_rates[variant], dtype=np.float64)
    if metric == "purchases":
        rates = config.recommendation_rates
        return np.where(
            purchaser, rates["purchaser"][variant], rates["non_purchaser"][variant]
        )
    raise ProtocolError(f"no rates for metric {metric!r}")


def welch_greater(k_a: int, n_a: int, k_b: int, n_b: int) -> tuple[float, float, float]:
    """One-sided (B greater) Welch p-value of two 0/1 samples, with means."""
    if n_a < 2 or n_b < 2:
        raise ProtocolError(f"Welch look with n_a={n_a}, n_b={n_b}")
    mean_a, mean_b = k_a / n_a, k_b / n_b
    ra = k_a * (n_a - k_a) / (n_a * (n_a - 1)) / n_a
    rb = k_b * (n_b - k_b) / (n_b * (n_b - 1)) / n_b
    if ra + rb == 0.0:
        return (0.0 if mean_b > mean_a else 1.0), mean_a, mean_b
    t = (mean_b - mean_a) / np.sqrt(ra + rb)
    wa, wb = ra / (ra + rb), rb / (ra + rb)
    df = 1.0 / (wa * wa / (n_a - 1) + wb * wb / (n_b - 1))
    return min(max(student_t_sf(float(t), df), 0.0), 1.0), mean_a, mean_b


def run_ab_test(test, config, latent, users_upto, epoch: int, batch: int) -> Outcome:
    """Look every ``batch`` requests until ``p <= alpha`` or the cap.

    ``users_upto(n)`` gives the first n users the test receives.
    """
    if test.stat_test != "welch_t" or test.hypothesis.direction != "B_greater":
        raise ProtocolError(f"{test.name}: not the pinned one-sided Welch test")
    metric = test.hypothesis.metric
    assign_key = prf.stream_key(config.seed, "assign", test.name, epoch)
    draw_key = prf.stream_key(config.seed, "draw", test.name, metric, epoch)
    k = {True: 0, False: 0}  # is_a -> successes
    n = {True: 0, False: 0}
    served = 0
    while True:
        look = min(served + batch, test.exp_length)
        users = users_upto(look)[served:look]
        is_a = prf.uniforms(assign_key, users) < test.ab_assignment[0]
        purchaser = latent[users]
        p = np.where(
            is_a,
            _rates(config, metric, "A", purchaser),
            _rates(config, metric, "B", purchaser),
        )
        hits = prf.uniforms(draw_key, np.arange(served, look)) < p
        for side in (True, False):
            n[side] += int(np.count_nonzero(is_a == side))
            k[side] += int(np.count_nonzero(hits & (is_a == side)))
        served = look
        p_value, mean_a, mean_b = welch_greater(k[True], n[True], k[False], n[False])
        if p_value <= test.hypothesis.alpha or served >= test.exp_length:
            return Outcome(served, p_value, mean_a, mean_b)


def next_element(rules, test_name: str, outcome: Outcome) -> str:
    for rule in rules:
        if rule.assoc_ab_test == test_name and _eval_condition(rule.cond_stat, outcome):
            return rule.subseq_ab_test
    return "end"


# ---------------------------------------------------------------------------
# one pipeline run


CLASS_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


def _routing_targets(split, model, features):
    """Map arrival user ids to sub-pipeline indexes (-1 = unrouted)."""
    classes = model.predict(features)
    by_user = np.full(classes.shape, -1, dtype=np.int64)
    for cls in np.unique(classes):
        for index, cond in enumerate(split.cond_stats):
            if CLASS_OPS[cond.op](int(cls), cond.value):
                by_user[classes == cls] = index
                break
    return lambda users: by_user[users]


def run_pipeline(spec: PipelineSpec, config: ScenarioConfig, population, batch: int) -> RunRecord:
    """One run of a pipeline on the seed's population, from a fresh stream."""
    arrivals = Arrivals(config.seed, population.size)
    splits = {s.name: s for s in spec.pop_splits}
    epochs: dict[str, int] = {}
    tests: dict[str, int] = {}
    split_records = []

    def run(test, users_upto) -> Outcome:
        epoch = epochs.get(test.name, 0)
        epochs[test.name] = epoch + 1
        outcome = run_ab_test(test, config, population.latent, users_upto, epoch, batch)
        tests[test.name] = outcome.requests
        return outcome

    position = 0
    current = spec.start
    while not is_end(current):
        if current in splits:
            split = splits[current]
            record, position = _run_split(
                spec, split, config, population, arrivals, position, run
            )
            split_records.append(record)
            current = split.next_component
            continue
        test = spec.test(current)
        start = position
        outcome = run(test, lambda n, s=start: arrivals.upto(s + n)[s:])
        position = start + outcome.requests
        current = next_element(spec.trans_rules, test.name, outcome)
    return RunRecord(tests=tests, splits=tuple(split_records))


def _run_split(spec, split, config, population, arrivals, base, run):
    features, labels = generate_training_data(config, config.train_samples)
    model = clf.train(features, labels, clf.Hyperparams(seed=config.seed))
    targets_of = _routing_targets(split, model, population.features)
    ends = {}
    for index, sub in enumerate(split.sub_pipelines):
        segment = Segment(arrivals, targets_of, index, base)
        used = 0
        current = sub.start
        while not is_end(current):
            test = spec.test(current)
            start = used
            outcome = run(test, lambda n, s=start, seg=segment: seg.users(s + n)[s:])
            used = start + outcome.requests
            current = next_element(sub.trans_rules, test.name, outcome)
        ends[sub.subpl_id] = int(segment.positions[used - 1]) + 1
    final = max(ends.values())
    routed = targets_of(arrivals.upto(final)[base:final])
    stream = final - base
    counts = {
        sub.subpl_id: int(np.count_nonzero(routed == i))
        for i, sub in enumerate(split.sub_pipelines)
    }
    record = SplitRecord(
        streams={sub_id: end - base for sub_id, end in ends.items()},
        fractions={sub_id: count / stream for sub_id, count in counts.items()},
        unrouted=int(np.count_nonzero(routed < 0)) / stream,
    )
    return record, final


# ---------------------------------------------------------------------------
# the comparison


def _median(values: list):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


@dataclass
class ReferenceComparison:
    rows: dict  # seed -> (sequential RunRecord, parallel RunRecord)
    sequential_tests: dict
    parallel_tests: dict
    sequential_total: int | None
    parallel_total: int | None
    reduction_pct: float | None
    split_fractions: dict
    unrouted_fraction: float


def compare(
    seq_spec: PipelineSpec,
    par_spec: PipelineSpec,
    scenario: ScenarioConfig,
    seeds: list,
    batch: int,
) -> ReferenceComparison:
    """Both pipelines over the seeds, aggregated as ``abpipe compare`` is."""
    rows = {}
    for seed in seeds:
        config = replace(scenario, seed=seed)
        population = generate_population(config, config.population_size)
        rows[seed] = (
            run_pipeline(seq_spec, config, population, batch),
            run_pipeline(par_spec, config, population, batch),
        )
    return aggregate(seq_spec, par_spec, rows)


def aggregate(seq_spec, par_spec, rows: dict) -> ReferenceComparison:
    """Medians, SUM, MAX and reduction of per-seed run records."""
    sub_of = {
        test: sub.subpl_id
        for split in par_spec.pop_splits
        for sub in split.sub_pipelines
        for test in sub.ab_tests
    }
    par_root = {t.name for t in par_spec.ab_tests} - set(sub_of)
    seq_names = [t.name for t in seq_spec.ab_tests]
    compared = [n for n in seq_names if n not in par_root]

    def ran(records, name):
        return [r.tests[name] for r in records if name in r.tests]

    seq_runs = [seq for seq, _ in rows.values()]
    par_runs = [par for _, par in rows.values()]
    splits = [s for par in par_runs for s in par.splits]
    streams = {
        sub_id: [s.streams[sub_id] for s in splits if sub_id in s.streams]
        for sub_id in dict.fromkeys(sub_of.values())
    }

    sequential_tests = {}
    for name in seq_names:
        if ran(seq_runs, name):
            median = int(_median(ran(seq_runs, name)))
            sequential_tests[name] = {
                "decided_requests": median,
                "total_requests": median,
                "compared": name in compared,
            }
    parallel_tests = {}
    for name, sub_id in sub_of.items():
        if ran(par_runs, name):
            parallel_tests[name] = {
                "decided_requests": int(_median(ran(par_runs, name))),
                "total_requests": int(_median(streams[sub_id])),
                "sub_pipeline": sub_id,
            }

    complete = all(n in sequential_tests for n in compared) and all(
        n in parallel_tests for n in sub_of
    )
    seq_total = (
        sum(sequential_tests[n]["decided_requests"] for n in compared)
        if complete and compared
        else None
    )
    par_total = (
        max(int(_median(v)) for v in streams.values() if v) if complete and splits else None
    )
    reduction = None
    if seq_total and par_total:
        reduction = (1.0 - par_total / seq_total) * 100.0
    fractions = {
        sub_id: float(_median([s.fractions[sub_id] for s in splits]))
        for sub_id in sorted({k for s in splits for k in s.fractions})
    }
    return ReferenceComparison(
        rows=rows,
        sequential_tests=sequential_tests,
        parallel_tests=parallel_tests,
        sequential_total=seq_total,
        parallel_total=par_total,
        reduction_pct=reduction,
        split_fractions=fractions,
        unrouted_fraction=float(_median([s.unrouted for s in splits])) if splits else 0.0,
    )
