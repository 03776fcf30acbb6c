"""Command-line entry point.

Subcommands::

    abpipe validate <bundle>
    abpipe run <bundle> --scenario <file> --seed <n> --out <dir>
    abpipe compare <seq-bundle> <par-bundle> --scenario <file>
                   --runs <n> --seeds <list|base> --out <dir>
    abpipe train <csv> --seed <n> --out <file>
    abpipe gen-data --scenario <file> --n <count> --out <csv>

Also run as ``python -m abpipe``. ``train`` fits on the fixed schedule
of ``classifier.Hyperparams``. Exit codes: 0 success, 1 domain error
(invalid blueprints, failed runs, bad training data, a negative seed
for a split model fit), 2 I/O or usage errors. ``ABPIPE_BATCH_SIZE``
overrides the default monitoring batch of 1000 requests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import classifier as clf
from .blueprints import BlueprintError, parse_blueprints
from .model import PipelineSpec, validate
from .report import (
    RUN_ERRORS,
    PipelineRunError,
    compare_pipelines,
    run_pipeline_once,
    write_report,
)
from .stats import DEFAULT_BATCH_SIZE, write_pvalue_trace
from .webstore import (
    DEFAULT_CATALOG,
    ScenarioConfig,
    WebStoreError,
    check_deployable,
    generate_training_data,
    load_scenario,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _batch_size() -> int:
    raw = os.environ.get("ABPIPE_BATCH_SIZE")
    if raw is None:
        return DEFAULT_BATCH_SIZE
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"ABPIPE_BATCH_SIZE={raw!r} is not an integer", EXIT_IO)
    if value < 1:
        raise CliError(f"ABPIPE_BATCH_SIZE must be >= 1, got {value}", EXIT_IO)
    return value


def _load_scenario(path: str | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig()
    scenario_path = Path(path)
    if not scenario_path.is_file():
        raise CliError(f"scenario file not found: {scenario_path}", EXIT_IO)
    try:
        return load_scenario(scenario_path)
    except (json.JSONDecodeError, UnicodeDecodeError, WebStoreError) as exc:
        raise CliError(f"bad scenario file {scenario_path}: {exc}", EXIT_DOMAIN)


def _load_bundle(path: str) -> PipelineSpec:
    bundle = Path(path)
    if not bundle.is_dir():
        raise CliError(f"blueprint bundle not found: {bundle}", EXIT_IO)
    try:
        return parse_blueprints(bundle)
    except BlueprintError as exc:
        raise CliError(str(exc), EXIT_DOMAIN)


def _load_validated(path: str) -> PipelineSpec:
    spec = _load_bundle(path)
    report = validate(spec, DEFAULT_CATALOG)
    if not report.ok:
        raise CliError(f"{path}:\n{report}", EXIT_DOMAIN)
    return spec


def write_run_outputs(out: Path, engine, summary: dict) -> None:
    """Write a completed run's trace, summary and per-test p-value traces."""
    engine.trace.write_jsonl(out / "trace.jsonl")
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    for qualified, results in sorted(engine.batch_results.items()):
        safe = qualified.replace("/", "__")
        write_pvalue_trace(out / f"pvalues_{safe}.csv", results)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    spec = _load_bundle(args.bundle)
    report = validate(spec, DEFAULT_CATALOG)
    for test in spec.ab_tests:
        try:
            check_deployable(test, DEFAULT_CATALOG, ScenarioConfig())
        except WebStoreError as exc:
            report.add("undeployable-test", test.name, str(exc))
    if report.ok:
        print(f"{spec.name}: no violations")
        return EXIT_OK
    for violation in report:
        print(str(violation))
    return EXIT_DOMAIN


def cmd_run(args) -> int:
    spec = _load_validated(args.bundle)
    scenario = _load_scenario(args.scenario)
    batch = _batch_size()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else scenario.seed
    try:
        outcome = run_pipeline_once(spec, scenario, seed=seed, batch_size=batch)
    except PipelineRunError as exc:
        exc.engine.trace.write_jsonl(out / "trace.jsonl")  # partial trace
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except RUN_ERRORS as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    write_run_outputs(out, outcome.engine, outcome.summary)
    print(f"{spec.name}: completed, seed {seed}, outputs in {out}")
    return EXIT_OK


def _parse_seeds(raw: str | None, runs: int) -> list[int]:
    if raw is None:
        base = 1
    elif "," in raw:
        try:
            seeds = [int(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            raise CliError(f"bad --seeds list {raw!r}", EXIT_IO)
        if len(seeds) != runs:
            raise CliError(
                f"--seeds lists {len(seeds)} seeds but --runs is {runs}", EXIT_IO
            )
        return seeds
    else:
        try:
            base = int(raw)
        except ValueError:
            raise CliError(f"bad --seeds value {raw!r}", EXIT_IO)
    return list(range(base, base + runs))


def cmd_compare(args) -> int:
    if args.runs < 1:
        raise CliError(f"--runs must be >= 1, got {args.runs}", EXIT_IO)
    seq_spec = _load_validated(args.seq_bundle)
    par_spec = _load_validated(args.par_bundle)
    scenario = _load_scenario(args.scenario)
    seeds = _parse_seeds(args.seeds, args.runs)
    batch = _batch_size()
    try:
        report = compare_pipelines(
            seq_spec, par_spec, scenario, seeds, batch_size=batch
        )
    except RUN_ERRORS as exc:
        print(f"compare failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    write_report(report, args.out)
    print(report.render_text())
    if report.partial:
        for failure in report.failures:
            print(
                f"failed run: seed {failure['seed']} {failure['pipeline']}:"
                f" {failure['error']}",
                file=sys.stderr,
            )
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_train(args) -> int:
    csv_path = Path(args.csv)
    if not csv_path.is_file():
        raise CliError(f"training CSV not found: {csv_path}", EXIT_IO)
    try:
        features, labels = clf.load_training_csv(csv_path)
        model = clf.train(features, labels, clf.Hyperparams(seed=args.seed))
    except clf.ClassifierError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    clf.save_model(model, args.out)
    print(f"trained {model.n_features}-feature model -> {args.out}")
    print(f"training time: {max(1, round(model.train_time_ms))} ms")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    scenario = _load_scenario(args.scenario)
    if args.n < 2:
        raise CliError(f"--n must be >= 2, got {args.n}", EXIT_IO)
    try:
        features, labels = generate_training_data(scenario, args.n)
    except WebStoreError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    clf.save_training_csv(args.out, features, labels)
    positives = int(labels.sum())
    print(f"wrote {args.n} rows ({positives} positive) -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abpipe",
        description="Automated A/B-testing pipelines on a simulated web-store",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="lint a blueprint bundle")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="execute one pipeline")
    p.add_argument("bundle")
    p.add_argument("--scenario", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="sequential vs parallel pipelines")
    p.add_argument("seq_bundle")
    p.add_argument("par_bundle")
    p.add_argument("--scenario", default=None)
    p.add_argument("--runs", type=int, default=15)
    p.add_argument(
        "--seeds",
        default=None,
        help="comma-separated seed list, or a single base seed",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("train", help="train the split classifier from a CSV")
    p.add_argument("csv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gen-data", help="generate a synthetic propensity CSV")
    p.add_argument("--scenario", default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
