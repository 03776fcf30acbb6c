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
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import classifier as clf
from .model import PipelineSpec
from .orchestrator import PipelineEngine, WebStoreRunner
from .stats import DEFAULT_BATCH_SIZE
from .webstore import ScenarioConfig, WebStore, generate_training_data

FULL_SCALE_REFERENCE = {
    "sequential": {"Recommendation update": 112_000, "Review update": 27_000},
    "sequential_total": 139_000,
    "parallel": {"Recommendation update": 1_000, "Review update": 26_000},
    "parallel_total": 27_128,
    "reduction_pct": 80.48,
}


class PipelineRunError(RuntimeError):
    """A pipeline execution failed; carries the engine for its partial trace."""

    def __init__(self, cause: BaseException, engine: PipelineEngine):
        super().__init__(str(cause))
        self.cause = cause
        self.engine = engine


@dataclass
class RunOutcome:
    """One pipeline execution plus its exported summary."""

    engine: PipelineEngine
    summary: dict
    train_ms: float | None
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
    the classifier training data all derive from it.
    """
    config = replace(scenario, seed=seed)
    store = WebStore(config)
    models: dict[str, clf.LinearModel] = {}
    train_ms: float | None = None
    model: clf.LinearModel | None = None
    for split in spec.pop_splits:
        features, labels = generate_training_data(config, config.train_samples)
        model = clf.train(features, labels, clf.Hyperparams(seed=config.seed))
        models[split.split_component.image_name] = model
        train_ms = model.train_time_ms
    runner = WebStoreRunner(store, batch_size=batch_size, split_models=models)
    engine = PipelineEngine(spec, runner, catalog=store.catalog)
    try:
        engine.run()
    except Exception as exc:
        raise PipelineRunError(exc, engine) from exc
    return RunOutcome(
        engine=engine,
        summary=build_summary(engine, seed, batch_size),
        train_ms=train_ms,
        model=model,
    )


def build_summary(engine: PipelineEngine, seed: int, batch_size: int) -> dict:
    """JSON-ready summary: every test's result plus split accounting."""
    spec = engine.spec
    sub_of = {
        test: sub.subpl_id
        for split in spec.pop_splits
        for sub in split.sub_pipelines
        for test in sub.ab_tests
    }
    tests = {}
    for qualified, result in sorted(engine.results.items()):
        name = qualified.split("/", 1)[-1]
        tests[qualified] = {
            "test": name,
            "instance": sub_of.get(name, spec.name),
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
        fractions = stats.fractions()
        splits[split_name] = {
            "stream_total": stats.stream_total,
            "dispatched": dict(sorted(stats.dispatched.items())),
            "unrouted": stats.unrouted,
            "split_fractions": dict(sorted(fractions.items())),
            "unrouted_fraction": (
                stats.unrouted / stats.stream_total if stats.stream_total else 0.0
            ),
            "sub_stream_totals": dict(sorted(stats.sub_stream_totals.items())),
        }
    return {
        "pipeline": spec.name,
        "seed": seed,
        "batch_size": batch_size,
        "requests_total": engine.runner.requests_total,
        "tests": tests,
        "splits": splits,
    }


# ---------------------------------------------------------------------------
# comparison


@dataclass
class ComparisonReport:
    sequential_pipeline: str
    parallel_pipeline: str
    runs: int
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
        return {
            "sequential_pipeline": self.sequential_pipeline,
            "parallel_pipeline": self.parallel_pipeline,
            "runs": self.runs,
            "seeds": self.seeds,
            "batch_size": self.batch_size,
            "aggregation": "median",
            "partial": self.partial,
            "failures": self.failures,
            "sequential_tests": self.sequential_tests,
            "parallel_tests": self.parallel_tests,
            "shared_tests": self.shared_tests,
            "sequential_total": self.sequential_total,
            "parallel_total": self.parallel_total,
            "reduction_pct": self.reduction_pct,
            "split_fractions": self.split_fractions,
            "unrouted_fraction": self.unrouted_fraction,
            "full_scale_reference": FULL_SCALE_REFERENCE,
        }

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
            f"Runs: {self.runs} (median aggregation), seeds {self.seeds}"
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


def _median_int(values) -> int:
    return int(statistics.median(values))


def compare_pipelines(
    seq_spec: PipelineSpec,
    par_spec: PipelineSpec,
    scenario: ScenarioConfig,
    seeds: list[int],
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ComparisonReport:
    """Run both pipelines over the seeds and aggregate medians.

    A test's median is taken over the seeds in which that test ran.
    When a run ends before a test (e.g. the sequential review test hits
    its cap without significance, so the recommendation test never
    runs), that seed is left out of that test's median only; the
    sequential SUM and parallel MAX then combine medians that may rest
    on different seed subsets. A failed run is recorded in ``failures``
    and leaves both totals and the reduction undefined.
    """
    if not seeds:
        raise ValueError("need at least one seed")

    par_sub_tests = {
        test: sub.subpl_id
        for split in par_spec.pop_splits
        for sub in split.sub_pipelines
        for test in sub.ab_tests
    }
    par_root_tests = {
        t.name for t in par_spec.ab_tests if t.name not in par_sub_tests
    }
    seq_names = [t.name for t in seq_spec.ab_tests]
    shared = [n for n in seq_names if n in par_root_tests]
    compared_seq = [n for n in seq_names if n not in shared]

    seq_requests: dict[str, list[int]] = {n: [] for n in seq_names}
    par_requests: dict[str, list[int]] = {n: [] for n in par_sub_tests}
    par_streams: dict[str, list[int]] = {}
    fractions: dict[str, list[float]] = {}
    unrouted: list[float] = []
    train_ms: list[float] = []
    deploy_ms: list[float] = []
    predict_ms: list[float] = []
    last_model: clf.LinearModel | None = None

    failures: list[dict] = []
    for seed in seeds:
        try:
            seq_out = run_pipeline_once(seq_spec, scenario, seed, batch_size)
        except PipelineRunError as exc:
            failures.append(
                {"seed": seed, "pipeline": seq_spec.name, "error": str(exc)}
            )
            continue
        for qualified, row in seq_out.summary["tests"].items():
            if row["test"] in seq_requests:
                seq_requests[row["test"]].append(row["requests"])
        try:
            par_out = run_pipeline_once(par_spec, scenario, seed, batch_size)
        except PipelineRunError as exc:
            failures.append(
                {"seed": seed, "pipeline": par_spec.name, "error": str(exc)}
            )
            continue
        for qualified, row in par_out.summary["tests"].items():
            if row["test"] in par_requests:
                par_requests[row["test"]].append(row["requests"])
        for split in par_out.summary["splits"].values():
            for sub_id, total in split["sub_stream_totals"].items():
                par_streams.setdefault(sub_id, []).append(total)
            for sub_id, frac in split["split_fractions"].items():
                fractions.setdefault(sub_id, []).append(frac)
            unrouted.append(split["unrouted_fraction"])
        if par_out.train_ms is not None:
            train_ms.append(par_out.train_ms)
        deploy_ms.extend(s.deploy_ms for s in par_out.engine.split_stats.values())
        last_model = par_out.model or last_model

    if last_model is not None:
        sample = np.zeros((32, last_model.n_features))
        predict_ms.append(clf.measure_predict_latency_ms(last_model, sample))

    sub_of_test = par_sub_tests
    sequential_tests = {}
    for name in seq_names:
        if not seq_requests[name]:
            continue
        median = _median_int(seq_requests[name])
        sequential_tests[name] = {
            "decided_requests": median,
            "total_requests": median,
            "compared": name in compared_seq,
        }
    parallel_tests = {}
    for name, values in par_requests.items():
        if not values:
            continue
        sub_id = sub_of_test[name]
        parallel_tests[name] = {
            "decided_requests": _median_int(values),
            "total_requests": _median_int(par_streams.get(sub_id, values)),
            "sub_pipeline": sub_id,
        }

    complete = not failures and all(
        seq_requests[n] for n in compared_seq
    ) and all(par_requests[n] for n in par_requests)
    sequential_total = (
        sum(sequential_tests[n]["decided_requests"] for n in compared_seq)
        if complete and compared_seq
        else None
    )
    parallel_total = (
        max(_median_int(v) for v in par_streams.values())
        if complete and par_streams
        else None
    )
    reduction = None
    if sequential_total and parallel_total:
        reduction = (1.0 - parallel_total / sequential_total) * 100.0

    overhead = {}
    if train_ms:
        overhead["train_ms"] = float(statistics.median(train_ms))
    if deploy_ms:
        overhead["deploy_ms"] = float(statistics.median(deploy_ms))
    if predict_ms:
        overhead["predict_ms_median"] = float(statistics.median(predict_ms))

    return ComparisonReport(
        sequential_pipeline=seq_spec.name,
        parallel_pipeline=par_spec.name,
        runs=len(seeds),
        seeds=list(seeds),
        batch_size=batch_size,
        sequential_tests=sequential_tests,
        parallel_tests=parallel_tests,
        shared_tests=shared,
        sequential_total=sequential_total,
        parallel_total=parallel_total,
        reduction_pct=reduction,
        split_fractions={
            name: float(statistics.median(v)) for name, v in sorted(fractions.items())
        },
        unrouted_fraction=float(statistics.median(unrouted)) if unrouted else 0.0,
        overhead=overhead,
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
    text = report.render_text()
    deterministic_text = "\n".join(
        line for line in text.splitlines() if not line.startswith("Split overhead:")
    )
    (out / "report.txt").write_text(deterministic_text + "\n", encoding="utf-8")
    (out / "overhead.json").write_text(
        json.dumps(report.overhead, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
