"""Run summaries and the sequential-vs-parallel comparison report.

A comparison executes both pipelines over a list of seeds and reports
median request counts per A/B test. Tests that appear in both pipelines
outside any split (the shared prefix, e.g. the opening GUI test) are
excluded from the totals since they consume identical traffic either
way. The sequential total is the SUM of its compared tests; the
parallel total is the MAX over sub-pipelines of the traffic the split
consumed until that sub-pipeline finished. Both "requests until the
test decided" (routed) and "total traffic consumed" columns are shown
for parallel tests because a sub-pipeline only sees its segment's share
of the stream.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import classifier as clf
from .model import PipelineSpec
from .orchestrator import OrchestratorError, PipelineEngine, SpecInvalidError, WebStoreRunner
from .stats import DEFAULT_BATCH_SIZE, StatsError
from .webstore import ScenarioConfig, WebStore, WebStoreError, generate_training_data

FULL_SCALE_REFERENCE = {
    "sequential": {"Recommendation update": 112_000, "Review update": 27_000},
    "sequential_total": 139_000,
    "parallel": {"Recommendation update": 1_000, "Review update": 26_000},
    "parallel_total": 27_128,
    "reduction_pct": 80.48,
}


# what a run can fail with once its inputs have loaded, beside running out of
# memory anywhere in it; anything else is a bug
RUN_ERRORS = (OrchestratorError, WebStoreError, StatsError, clf.ClassifierError)


class PipelineRunError(RuntimeError):
    """A pipeline execution failed; carries its spec, and the engine for its
    partial trace (None if the run failed drawing its population)."""

    def __init__(self, cause: BaseException, spec: PipelineSpec, engine: PipelineEngine | None):
        super().__init__(str(cause))
        self.cause = cause
        self.spec = spec
        self.engine = engine


@dataclass
class RunOutcome:
    """One pipeline execution plus its exported summary; the engine holds
    the run's store and each split's measured ``SplitRunStats``."""

    engine: PipelineEngine
    summary: dict
    model: clf.LinearModel | None


def run_pipeline_once(
    spec: PipelineSpec,
    scenario: ScenarioConfig,
    seed: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> RunOutcome:
    """Execute a pipeline once, deterministically for the given seed.

    The run seed replaces the scenario seed, so the population, the
    arrival order, every behavioral draw and (for parallel pipelines)
    the classifier training data all derive from it. A run fails one
    way: a ``RUN_ERRORS`` error of its draws, the split model fit or the
    engine, or a ``MemoryError`` from anywhere in the run, its summary
    included, raises ``PipelineRunError`` with the engine, whose trace
    holds the events traced before it (none, if the fit failed; no engine,
    if the population draw did). Running out of memory gives a one-line
    message naming the scenario's ``population_size``, and
    ``train_samples`` if the pipeline has a split.
    """
    config = replace(scenario, seed=seed)
    engine = model = None
    try:
        store = WebStore(config)
        runner = WebStoreRunner(store, batch_size=batch_size)
        engine = PipelineEngine(spec, runner, catalog=store.catalog)
        if spec.pop_splits:  # one fit for every split; its training data dies with the call
            model = clf.train(
                *generate_training_data(config, config.train_samples), clf.Hyperparams(seed=seed)
            )
            runner.split_models = {s.split_component.image_name: model for s in spec.pop_splits}
        engine.run()
        summary = build_summary(engine, seed, batch_size)
    except RUN_ERRORS as exc:
        raise PipelineRunError(exc, spec, engine) from exc
    except MemoryError as exc:  # its str is empty, or names one allocation
        training = f" and {config.train_samples} training rows" if spec.pop_splits else ""
        error = MemoryError(f"out of memory on {config.population_size} users{training}")
        raise PipelineRunError(error, spec, engine) from exc
    return RunOutcome(engine=engine, summary=summary, model=model)


def build_summary(engine: PipelineEngine, seed: int, batch_size: int) -> dict:
    """JSON-ready summary: every test's result plus split accounting.

    A split's stream total, unrouted count and traffic shares are derived here."""
    spec = engine.spec
    tests = {}
    for test in spec.ab_tests:
        key = spec.result_key(test.name)
        result = engine.results.get(key)
        if result is None:
            continue
        tests[key] = {
            "test": test.name,
            "instance": spec.sub_pipeline_of.get(test.name, spec.name),
            "requests": result.requests_consumed,
            "p_value": result.p_value,
            "mean_a": result.mean_a,
            "mean_b": result.mean_b,
            "n_a": result.n_a,
            "n_b": result.n_b,
            "significant": result.significant,
        }
    splits = {}
    for split_name, stats in sorted(engine.split_stats.items()):
        total = max(stats.sub_stream_totals.values())
        dispatched = dict(sorted(stats.dispatched.items()))
        unrouted = total - sum(dispatched.values())
        splits[split_name] = {
            "stream_total": total,
            "dispatched": dispatched,
            "unrouted": unrouted,
            "split_fractions": {
                name: count / total if total else 0.0
                for name, count in dispatched.items()
            },
            "unrouted_fraction": unrouted / total if total else 0.0,
            "sub_stream_totals": dict(sorted(stats.sub_stream_totals.items())),
        }
    return {
        "pipeline": spec.name,
        "seed": seed,
        "batch_size": batch_size,
        "requests_total": engine.runner.requests_total,
        "tests": dict(sorted(tests.items())),
        "splits": splits,
    }


# ---------------------------------------------------------------------------
# comparison


@dataclass
class ComparisonReport:
    sequential_pipeline: str
    parallel_pipeline: str
    seeds: list[int]
    batch_size: int
    # per test name -> {"decided_requests": median, "total_requests": median}
    sequential_tests: dict[str, dict]
    parallel_tests: dict[str, dict]
    shared_tests: list[str]
    sequential_total: int | None
    parallel_total: int | None
    reduction_pct: float | None
    split_fractions: dict[str, float]
    unrouted_fraction: float
    overhead: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def partial(self) -> bool:
        return bool(self.failures)

    def to_json_dict(self) -> dict:
        """report.json's record: every field but the measured ``overhead``."""
        record = asdict(self)
        del record["overhead"]
        record.update(
            aggregation="median",
            runs=len(self.seeds),
            partial=self.partial,
            full_scale_reference=FULL_SCALE_REFERENCE,
        )
        return record

    def render_text(self) -> str:
        lines = []
        width = max(
            [len(n) for n in self.sequential_tests] + [len(n) for n in self.parallel_tests] + [20]
        )
        header = (
            f"{'Pipeline':<12} {'A/B test':<{width}} "
            f"{'Requests (p<=0.05 or cap)':>26} {'Total requests':>15}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for name, row in self.sequential_tests.items():
            lines.append(
                f"{'Sequential':<12} {name:<{width}} "
                f"{row['decided_requests']:>26,} {row['total_requests']:>15,}"
            )
        total = f"{self.sequential_total:,}" if self.sequential_total else "n/a"
        lines.append(f"{'':<12} {'Total (SUM)':<{width}} {'':>26} {total:>15}")
        for name, row in self.parallel_tests.items():
            lines.append(
                f"{'Parallel':<12} {name:<{width}} "
                f"{row['decided_requests']:>26,} {row['total_requests']:>15,}"
            )
        total = f"{self.parallel_total:,}" if self.parallel_total else "n/a"
        lines.append(f"{'':<12} {'Total (MAX)':<{width}} {'':>26} {total:>15}")
        lines.append("")
        if self.reduction_pct is not None:
            lines.append(f"Reduction in required requests: {self.reduction_pct:.2f}%")
        else:
            lines.append("Reduction in required requests: undefined (incomplete runs)")
        if self.partial:
            lines.append(f"PARTIAL REPORT: {len(self.failures)} failed run(s)")
        if self.shared_tests:
            lines.append(
                "Shared stage(s) excluded from totals: "
                + ", ".join(self.shared_tests)
            )
        fractions = ", ".join(
            f"{name}: {frac * 100:.2f}%" for name, frac in self.split_fractions.items()
        )
        lines.append(f"Split traffic shares: {fractions}")
        lines.append(f"Unrouted traffic share: {self.unrouted_fraction * 100:.2f}%")
        if {"train_ms", "deploy_ms", "predict_ms_median"} <= set(self.overhead):
            lines.append(
                "Split overhead: train {train_ms:.0f} ms, deploy {deploy_ms:.0f} ms,"
                " predict median {predict_ms_median:.3f} ms".format(**self.overhead)
            )
        lines.append(
            f"Runs: {len(self.seeds)} (median aggregation), seeds {self.seeds}"
        )
        ref = FULL_SCALE_REFERENCE
        lines.append(
            "Reference, full-scale study (not asserted): sequential"
            f" {ref['sequential']['Recommendation update']:,} +"
            f" {ref['sequential']['Review update']:,} ="
            f" {ref['sequential_total']:,}; parallel"
            f" {ref['parallel']['Recommendation update']:,} /"
            f" {ref['parallel']['Review update']:,}, total"
            f" {ref['parallel_total']:,}; reduction {ref['reduction_pct']}%"
        )
        return "\n".join(lines) + "\n"


def _test_medians(summaries: list[dict], names) -> dict[str, int]:
    """Median requests of each of ``names`` that ran, over the summaries
    in which it ran, in ``names`` order."""
    requests: dict[str, list[int]] = {name: [] for name in names}
    for summary in summaries:
        for row in summary["tests"].values():
            if row["test"] in requests:
                requests[row["test"]].append(row["requests"])
    return {name: int(np.median(values)) for name, values in requests.items() if values}


def compare_pipelines(
    seq_spec: PipelineSpec,
    par_spec: PipelineSpec,
    scenario: ScenarioConfig,
    seeds: list[int],
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ComparisonReport:
    """Run both pipelines over the seeds and take medians of their summaries.

    Of a seed's runs only the summaries and the split run's overhead
    samples outlive it; ``overhead`` holds the median of each sample
    kind. Every seed must pass the scenario's checks, or the
    ``WebStoreError`` raises before any run. A test's median is
    taken over the seeds in which that test ran. When a run ends before
    a test (e.g. the sequential review test hits its cap without
    significance, so the recommendation test never runs), that seed is
    left out of that test's median only; the sequential SUM and parallel
    MAX then combine medians that may rest on different seed subsets. A
    split's medians are over the split runs that reached it. A failed
    run, a failed split model fit included, is recorded in ``failures``
    and leaves both totals and the reduction undefined.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    for seed in seeds:  # the scenario's own checks, before any run
        replace(scenario, seed=seed)
    if len(par_spec.pop_splits) != 1:  # the parallel MAX spans one split's sub-pipelines
        shape = f"{len(par_spec.pop_splits)} population splits; compare takes one"
        if not par_spec.pop_splits:
            shape = "no population split"
        raise SpecInvalidError(f"parallel pipeline has {shape}")

    par_sub_tests = par_spec.sub_pipeline_of
    par_root_tests = {
        t.name for t in par_spec.ab_tests if t.name not in par_sub_tests
    }
    seq_names = [t.name for t in seq_spec.ab_tests]
    shared = [n for n in seq_names if n in par_root_tests]
    compared_seq = [n for n in seq_names if n not in shared]

    seq_summaries: list[dict] = []
    par_summaries: list[dict] = []
    samples: dict[str, list[float]] = {"train_ms": [], "deploy_ms": [], "predict_ms_median": []}
    failures: list[dict] = []
    for seed in seeds:
        try:
            seq_summaries.append(run_pipeline_once(seq_spec, scenario, seed, batch_size).summary)
            par_out = run_pipeline_once(par_spec, scenario, seed, batch_size)
        except PipelineRunError as exc:
            failures.append(
                {"seed": seed, "pipeline": exc.spec.name, "error": str(exc)}
            )
            continue
        par_summaries.append(par_out.summary)
        samples["train_ms"].append(par_out.model.train_time_ms)
        for stats in par_out.engine.split_stats.values():
            samples["deploy_ms"].append(stats.deploy_ms)
            samples["predict_ms_median"].extend(stats.predict_ms)
        del par_out  # its store would live through the next seed's runs

    splits = [split for s in par_summaries for split in s["splits"].values()]
    subs = sorted({sub for split in splits for sub in split["sub_stream_totals"]})
    streams = {sub: int(np.median([x["sub_stream_totals"][sub] for x in splits])) for sub in subs}
    sequential_tests = {
        name: {"decided_requests": m, "total_requests": m, "compared": name in compared_seq}
        for name, m in _test_medians(seq_summaries, seq_names).items()
    }
    parallel_tests = {
        name: {
            "decided_requests": m,
            "total_requests": streams[par_sub_tests[name]],
            "sub_pipeline": par_sub_tests[name],
        }
        for name, m in _test_medians(par_summaries, par_sub_tests).items()
    }

    complete = (
        not failures
        and all(n in sequential_tests for n in compared_seq)
        and len(parallel_tests) == len(par_sub_tests)
    )
    sequential_total = (
        sum(sequential_tests[n]["decided_requests"] for n in compared_seq)
        if complete and compared_seq
        else None
    )
    parallel_total = max(streams.values()) if complete and streams else None
    reduction = None
    if sequential_total and parallel_total:
        reduction = (1.0 - parallel_total / sequential_total) * 100.0

    return ComparisonReport(
        sequential_pipeline=seq_spec.name,
        parallel_pipeline=par_spec.name,
        seeds=list(seeds),
        batch_size=batch_size,
        sequential_tests=sequential_tests,
        parallel_tests=parallel_tests,
        shared_tests=shared,
        sequential_total=sequential_total,
        parallel_total=parallel_total,
        reduction_pct=reduction,
        split_fractions={
            sub: float(np.median([x["split_fractions"][sub] for x in splits])) for sub in subs
        },
        unrouted_fraction=(
            float(np.median([s["unrouted_fraction"] for s in splits])) if splits else 0.0
        ),
        overhead={key: float(np.median(v)) for key, v in samples.items() if v},
        failures=failures,
    )


def write_report(report: ComparisonReport, out_dir: str | Path) -> None:
    """Write report.json / report.txt (deterministic) and overhead.json.

    Measured wall-times are kept out of report.json so reruns with the
    same seeds stay byte-identical; overhead.json carries the timings.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = report.to_json_dict()
    (out / "report.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out / "report.txt").write_text(
        replace(report, overhead={}).render_text(), encoding="utf-8"
    )
    (out / "overhead.json").write_text(
        json.dumps(report.overhead, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
