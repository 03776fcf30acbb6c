#!/usr/bin/env python3
"""abpipe benchmark: end-to-end and per-layer numbers for two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload run-sweep --seed 1 --seconds 55 --trace 0

Without ``--workload`` it runs every workload in turn, each in a fresh
interpreter.

The package is imported from ``src/`` of the same checkout and driven
only through its public functions and classes. No threads are started;
each workload is a closed loop: every pipeline run starts after the
previous one has finished and written its artifacts.

Workloads (``WORKLOADS`` below):

* ``desk-compare``: ``compare_pipelines`` + ``write_report`` over seeds
  base..base+14 at batch 1000, exactly what ``abpipe compare`` does.
  With the default base 1 it is the criterion-1 fixture.
* ``run-sweep``: for seeds base..base+49, one run of each shipped bundle
  at batch 1000 with its ``abpipe run`` artifacts. The split model is
  trained once in set-up, so training is off the clock.

``--seed`` picks the seed the shared split model is trained on
(``MODEL_SEED_OFFSET + seed``, outside every run seed), so it changes
the split routing and the split runs' work. The simulation seeds of the
runs stay the fixture window set by ``--base``: a run's cost varies
tenfold between simulation seeds, and per-run percentiles over a window
that moved with ``--seed`` spread by 20% or more from seed to seed.
``desk-compare`` has no input besides its seed window, so ``--seed``
does not change it.

Set-up (import, bundles, scenario, shared model) runs once, in this
process. Every unit of work then runs in a child forked from the set-up
state (see ``forked``): on ``desk-compare`` a unit is a whole comparison,
as one ``abpipe compare``; on ``run-sweep`` it is a single pipeline
run, as one ``abpipe run``. Nothing a unit caches or changes outlives
it, so a repeat never finds state left by an earlier one. Passes of the
whole job repeat for ``--seconds``, at least three of them.

Right before and right after each pipeline run, ``hostspeed.probe``
times a fixed reference loop that does not touch abpipe. Every timing
except set-up is scaled to the host speed at which that loop takes
``hostspeed.REFERENCE_S`` (``host_speeds``, ``hostspeed.scale``), which
takes out the slowdowns that other tenants of a shared machine cause. A run's time is the median of its scaled
repeats (see ``run_times``), and ``wall_s`` is one scaled pass of the
whole job (see ``pass_time``). The times as taken are printed and
recorded beside the scaled ones.

``--trace 0`` prints the end-to-end metrics, measured with the package
untouched except for one clock and two host probes around each
pipeline run of ``desk-compare`` (see ``desk_compare``). ``--trace 1``
alternates untraced passes with traced ones, in which ``tracing.Tracer``
wraps each layer's entry points, and prints the per-layer metrics. Metric names
and units are those declared in ``BENCHMARK.json``. Spans, counters and
a record of every result are written under ``.perfbench-out/``, apart
from the deterministic artifacts.

Every run's artifacts are checked: against the SHA-256 digests in
``reference.json`` where one exists for that run, against the same run
in the first pass, and against invariants of the run summary. The
last line printed is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--record-reference`` rewrites ``reference.json`` from the current
code with the default base and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import hostspeed
from tracing import ROOT_SPANS, Tracer, merge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".perfbench-out"
REFERENCE = BENCH_DIR / "reference.json"
DECLARATION = ROOT / "BENCHMARK.json"
SCENARIO = ROOT / "scenarios" / "scenario.json"
BUNDLES = ("sequential", "parallel")

BATCH = 1000  # batch size of every run, passed explicitly
DEFAULT_BASE = 1
DEFAULT_SEED = 1
MODEL_SEED_OFFSET = 1_000_000
SETUP_REPEATS = 8
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
TAIL_BEYOND = 10
NEIGHBOURS = 4  # runs on either side whose host probes count for a run (``host_speeds``)
SPANS_WRITTEN = 200_000


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True)
class Workload:
    name: str
    seeds: int  # simulation seeds per pass
    compare: bool  # a pass is one comparison; otherwise runs share a model fitted in set-up
    why: str
    dominant: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-compare", 15, True,
            "the paper's headline job and the ROADMAP's end-to-end target;"
            " training-bound",
            "classifier.train",
        ),
        Workload(
            "run-sweep", 50, False,
            "the simulation path a user pays on every abpipe run, with"
            " training off the clock",
            "webstore.population",
        ),
    )
}


def declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of every ``kind`` metric that ``BENCHMARK.json`` declares."""
    if not DECLARATION.is_file():
        raise BenchError(f"no {DECLARATION.name} at {ROOT}")
    metrics = json.loads(DECLARATION.read_text(encoding="utf-8"))[kind]
    return [(m["name"], m["unit"]) for m in metrics]


def as_metrics(kind: str, values: dict) -> dict:
    """``values`` in the result's form, checked against the declared names."""
    names = declared(kind)
    if {name for name, _ in names} != set(values):
        raise BenchError(
            f"computed {kind} metrics {sorted(values)} differ from those"
            f" {DECLARATION.name} declares: {sorted(name for name, _ in names)}"
        )
    return {name: {"value": values[name], "unit": unit} for name, unit in names}


# ---------------------------------------------------------------------------
# set-up


def load_abpipe() -> SimpleNamespace:
    """Import the package from ``src/`` of this checkout, and only from there."""
    package = ROOT / "src" / "abpipe"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no abpipe package at {package}")
    if str(package.parent) not in sys.path:
        sys.path.insert(0, str(package.parent))
    import abpipe
    from abpipe import blueprints, classifier, model, orchestrator, report, stats, webstore

    if Path(abpipe.__file__).resolve().parent != package.resolve():
        raise BenchError(f"abpipe imported from {abpipe.__file__}, not {package}")
    return SimpleNamespace(
        blueprints=blueprints, classifier=classifier, model=model,
        orchestrator=orchestrator, report=report, stats=stats, webstore=webstore,
    )


@dataclass
class Env:
    ab: SimpleNamespace
    specs: dict
    scenario: object
    models: dict


def set_up(w: Workload, seed: int, base: int) -> Env:
    """Import, parse and validate both bundles, load the scenario, fit the model."""
    ab = load_abpipe()
    specs = {}
    for bundle in BUNDLES:
        spec = ab.blueprints.parse_blueprints(ROOT / "scenarios" / bundle)
        verdict = ab.model.validate(spec, ab.webstore.DEFAULT_CATALOG)
        if not verdict.ok:
            raise BenchError(f"bundle {bundle} is invalid:\n{verdict}")
        specs[bundle] = spec
    scenario = ab.webstore.load_scenario(SCENARIO)
    models = {}
    if not w.compare:
        model_seed = MODEL_SEED_OFFSET + seed
        if base <= model_seed < base + w.seeds:
            raise BenchError(f"model seed {model_seed} falls inside the run seeds")
        config = replace(scenario, seed=model_seed)
        features, labels = ab.webstore.generate_training_data(config, config.train_samples)
        fitted = ab.classifier.train(
            features, labels, ab.classifier.Hyperparams(seed=config.seed)
        )
        models = {
            split.split_component.image_name: fitted
            for split in specs["parallel"].pop_splits
        }
    return Env(ab, specs, scenario, models)


def this_script(*arguments) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), *map(str, arguments)]


def probe_setup(w: Workload, args) -> float:
    """Time one more set-up, in a fresh interpreter."""
    proc = subprocess.run(
        this_script("--workload", w.name, "--seed", args.seed, "--base", args.base, "--setup-probe"),
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# correctness


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_files(paths) -> str:
    """One digest over the named SHA-256 of each file, in name order."""
    lines = "".join(f"{p.name} {sha256(p)}\n" for p in sorted(paths, key=lambda p: p.name))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def invariant_errors(engine, summary) -> list[str]:
    """Relations every completed run's summary and trace must satisfy."""
    errors = []
    root = 0
    for qualified, row in summary["tests"].items():
        if row["n_a"] + row["n_b"] != row["requests"]:
            errors.append(f"{qualified}: n_a + n_b != requests")
        if row["instance"] == summary["pipeline"]:
            root += row["requests"]
    for name, split in summary["splits"].items():
        root += split["stream_total"]
        if sum(split["dispatched"].values()) + split["unrouted"] != split["stream_total"]:
            errors.append(f"{name}: dispatched + unrouted != stream_total")
    if root != summary["requests_total"]:
        errors.append("root test requests + split streams != requests_total")
    looks = sum(1 for event in engine.trace if event.event == "batch_result")
    if looks != sum(len(rows) for rows in engine.batch_results.values()):
        errors.append("batch_result events != p-value rows")
    return errors


class Checker:
    """Compares each run's outcome with the reference and with earlier passes.

    An outcome is the run's artifact digest, or ``error:<class>`` for a
    run that failed. A run that failed in the reference and completes now
    has no reference to compare against; it is not a mismatch.
    """

    def __init__(self, reference: dict | None, w: Workload, seed: int, base: int):
        self.expected: dict = {}
        self.reduction_pct = None
        if reference:
            runs = reference["runs"].get(str(BATCH), {})
            for bundle, table in runs.items():
                if bundle == "parallel" and seed != reference["seed"]:
                    continue  # split runs depend on the model, trained from --seed
                for sim_seed, outcome in table.items():
                    self.expected[(bundle, int(sim_seed))] = outcome
            desk = reference["desk-compare"]
            if w.compare and base == desk["base"]:
                for name in ("report.json", "report.txt"):
                    self.expected[("report", name)] = desk[name]
                self.reduction_pct = desk["reduction_pct"]
        self.first: dict = {}
        self.checked = 0
        self.no_reference = 0
        self.problems: dict[str, set] = {
            "mismatch": set(),
            "unexpected_failure": set(),
            "nondeterministic": set(),
            "invariant": set(),
        }

    def observe(self, key, outcome: str) -> None:
        label = f"{key[0]} {key[1]}"
        if self.first.setdefault(key, outcome) != outcome:
            self.problems["nondeterministic"].add(label)
        want = self.expected.get(key)
        failed = outcome.startswith("error:")
        if want is None or (want.startswith("error:") and not failed):
            self.no_reference += 1
            return
        self.checked += 1
        if want != outcome:
            kind = "unexpected_failure" if failed else "mismatch"
            self.problems[kind].add(f"{label}: {outcome[:24]}, reference {want[:24]}")

    @property
    def correct(self) -> bool:
        return not any(self.problems.values())


# ---------------------------------------------------------------------------
# units of work, each in a forked child


def forked(work, *args):
    """Run ``work(*args)`` in a child forked from this process; return its result.

    The child starts from this process's state after set-up and exits as
    soon as ``work`` returns, so whatever ``work`` caches or changes dies
    with it, and no later unit can profit from it. The result, plain
    JSON data, comes back over a pipe. This process waits for the child
    before it returns. The only other thread here is numpy's OpenBLAS
    worker, which OpenBLAS itself shuts down around a fork.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                payload = {"result": work(*args)}
            except Exception:
                payload = {"error": traceback.format_exc()}
            with os.fdopen(write_end, "w", encoding="utf-8") as pipe:
                json.dump(payload, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, encoding="utf-8") as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise BenchError(f"worker process {pid} ended with status {status} and no result")
    payload = json.loads(text)
    if "error" in payload:
        raise BenchError(f"worker process failed:\n{payload['error']}")
    return payload["result"]


def spans(tracer):
    """``tracer.span``, or a no-op span for an untraced unit."""
    return tracer.span if tracer else (lambda name: nullcontext())


def unit_end(tracer, spans_dir: Path | None, name: str) -> dict:
    """What every unit reports besides its runs: peak RSS and its layer totals.

    The RSS is the unit's own peak, which counts the set-up state it was
    forked with, plus the peak of its largest child, if it made any.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    layers = None
    if tracer is not None:
        layers = tracer.summarize()
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(spans_dir / f"{name}.csv.gz", SPANS_WRITTEN)
    return {"rss_mb": (own + children) / 1024.0, "layers": layers}


def write_run_artifacts(ab, out: Path, engine, summary) -> list[Path]:
    """Write what ``abpipe run`` writes: trace, summary, p-value traces."""
    out.mkdir(parents=True, exist_ok=True)
    files = [out / "trace.jsonl"]
    engine.trace.write_jsonl(files[0])
    if summary is None:  # a failed run leaves only its partial trace
        return files
    files.append(out / "summary.json")
    files[-1].write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for qualified, results in sorted(engine.batch_results.items()):
        files.append(out / f"pvalues_{qualified.replace('/', '__')}.csv")
        ab.stats.write_pvalue_trace(files[-1], results)
    return files


def sweep_run(env: Env, w: Workload, bundle: str, sim_seed: int, out: Path,
              traced: bool, spans_dir: Path | None) -> dict:
    """One run of ``bundle`` on ``sim_seed``, written out as ``abpipe run`` does."""
    ab = env.ab
    spec = env.specs[bundle]
    domain_errors = (ab.orchestrator.OrchestratorError, ab.webstore.WebStoreError, ab.stats.StatsError)
    tracer = Tracer() if traced else None
    span = spans(tracer)
    if tracer:
        tracer.install()
    try:
        host = [] if tracer else [hostspeed.probe()]  # probes stay out of traced passes
        started = time.perf_counter()
        with span("pipeline.run"):
            store = ab.webstore.WebStore(replace(env.scenario, seed=sim_seed))
            runner = ab.orchestrator.WebStoreRunner(
                store, batch_size=BATCH,
                split_models=env.models if spec.pop_splits else None,
            )
            engine = ab.orchestrator.PipelineEngine(spec, runner, catalog=store.catalog)
            try:
                engine.run()
                error = None
                summary = ab.report.build_summary(engine, sim_seed, BATCH)
            except domain_errors as exc:
                error, summary = exc, None
            with span("artifacts.write"):
                files = write_run_artifacts(ab, out / bundle / str(sim_seed), engine, summary)
        seconds = time.perf_counter() - started
        if not tracer:
            host.append(hostspeed.probe())
    finally:
        if tracer:
            tracer.uninstall()
    run = {
        "bundle": bundle, "seed": sim_seed, "seconds": seconds, "host": host,
        "requests": runner.requests_total, "completed": error is None,
        "outcome": digest_files(files) if error is None else f"error:{type(error).__name__}",
        "invariants": invariant_errors(engine, summary) if error is None else [],
    }
    return {
        "seconds": seconds,
        "runs": [run],
        "bytes": sum(p.stat().st_size for p in files),
        **unit_end(tracer, spans_dir, f"{bundle}-{sim_seed}"),
    }


def desk_compare(env: Env, w: Workload, seeds: list[int], out: Path,
                 traced: bool, spans_dir: Path | None) -> dict:
    """``compare_pipelines`` + ``write_report``; the unit's time is their wall time.

    The per-run times and request counts come from a wrapper on
    ``report.run_pipeline_once``: two clock reads, the host probes around
    the run (untraced passes only; their time is taken off the unit's
    time) and one line appended to ``runs.jsonl`` beside the artifacts
    per pipeline run. The lines go to a file rather than a list so that
    runs which the comparison hands to processes it forks are recorded
    as well. If runs are made in a process that does not inherit the
    wrapper, the count of lines falls short and the unit fails, rather
    than report numbers for part of the comparison.
    """
    ab = env.ab
    tracer = Tracer() if traced else None
    span = spans(tracer)
    log = out.parent / "runs.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    log.unlink(missing_ok=True)
    original = ab.report.run_pipeline_once

    def logged_run(spec, scenario, seed, *args, **kwargs):
        probing = time.perf_counter()
        host = [] if tracer else [hostspeed.probe()]  # probes stay out of traced passes
        started = time.perf_counter()
        engine = summary = None
        try:
            with span("pipeline.run"):
                outcome = original(spec, scenario, seed, *args, **kwargs)
            engine, summary = outcome.engine, outcome.summary
            return outcome
        except ab.report.PipelineRunError as exc:
            engine = exc.engine
            raise
        finally:
            seconds = time.perf_counter() - started
            if not tracer:
                host.append(hostspeed.probe())
            record = {
                "bundle": "parallel" if spec.pop_splits else "sequential",
                "seed": seed, "seconds": seconds, "host": host,
                "probe_s": time.perf_counter() - probing - seconds,
                "requests": (
                    summary["requests_total"] if summary is not None
                    else engine.runner.requests_total if engine is not None else 0
                ),
                "completed": summary is not None,
                "invariants": invariant_errors(engine, summary) if summary is not None else [],
            }
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")

    ab.report.run_pipeline_once = logged_run
    if tracer:
        tracer.install()
    try:
        started = time.perf_counter()
        with span("pass"):
            report = ab.report.compare_pipelines(
                env.specs["sequential"], env.specs["parallel"], env.scenario,
                list(seeds), batch_size=BATCH,
            )
            with span("artifacts.write"):
                ab.report.write_report(report, out)
        seconds = time.perf_counter() - started
    finally:
        if tracer:
            tracer.uninstall()
        ab.report.run_pipeline_once = original

    runs = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    sequential = env.specs["sequential"].name
    expected = 2 * len(seeds) - sum(f["pipeline"] == sequential for f in report.failures)
    if len(runs) != expected:
        raise BenchError(
            f"{len(runs)} pipeline runs recorded in {log}, {expected} expected: some runs"
            " were made in a process that does not inherit the wrapper on"
            " report.run_pipeline_once"
        )
    files = [out / name for name in ("report.json", "report.txt", "overhead.json")]
    return {
        "seconds": seconds - sum(r["probe_s"] for r in runs),  # the probes are off the clock
        "runs": runs,
        "reports": {p.name: sha256(p) for p in files[:2]},
        "reduction_pct": report.reduction_pct,
        "bytes": sum(p.stat().st_size for p in files),
        **unit_end(tracer, spans_dir, "compare"),
    }


# ---------------------------------------------------------------------------
# passes


@dataclass
class Run:
    bundle: str
    seed: int
    seconds: float
    requests: int
    completed: bool
    host: list[float]  # ``hostspeed.probe`` right before and right after the run


@dataclass
class PassResult:
    wall: float  # the units' own time: the comparison, or the sum of the runs
    elapsed: float  # the same plus forking, checking and collecting, as seen from here
    runs: list[Run] = field(default_factory=list)
    bytes_written: int = 0
    rss_mb: float = 0.0
    layers: dict | None = None  # merged ``Tracer.summarize`` of a traced pass
    reduction_pct: float | None = None  # desk-compare only

    @property
    def requests(self) -> int:
        return sum(r.requests for r in self.runs)


def run_pass(env: Env, w: Workload, seeds, out: Path, checker: Checker,
             traced: bool = False, spans_dir: Path | None = None) -> PassResult:
    """One pass of the workload's whole job, unit by unit, then its checks."""
    started = time.perf_counter()
    shutil.rmtree(out, ignore_errors=True)  # every pass writes a fresh tree
    if w.compare:
        units = [forked(desk_compare, env, w, list(seeds), out, traced, spans_dir)]
    else:
        units = [
            forked(sweep_run, env, w, bundle, sim_seed, out, traced, spans_dir)
            for sim_seed in seeds
            for bundle in BUNDLES
        ]
    result = PassResult(
        wall=sum(u["seconds"] for u in units),
        elapsed=0.0,
        runs=[
            Run(r["bundle"], r["seed"], r["seconds"], r["requests"], r["completed"], r["host"])
            for u in units for r in u["runs"]
        ],
        bytes_written=sum(u["bytes"] for u in units),
        rss_mb=max(u["rss_mb"] for u in units),
        layers=merge([u["layers"] for u in units]) if traced else None,
    )
    for unit in units:
        for run in unit["runs"]:
            key = (run["bundle"], run["seed"])
            if "outcome" in run:
                checker.observe(key, run["outcome"])
            for error in run["invariants"]:
                checker.problems["invariant"].add(f"{key[0]} {key[1]}: {error}")
        if "reports" in unit:
            for name, digest in unit["reports"].items():
                checker.observe(("report", name), digest)
            result.reduction_pct = unit["reduction_pct"]
            want = checker.reduction_pct
            if want is not None and result.reduction_pct != want:
                checker.problems["mismatch"].add(
                    f"reduction_pct {result.reduction_pct!r}, reference {want!r}"
                )
    result.elapsed = time.perf_counter() - started
    return result


# ---------------------------------------------------------------------------
# statistics


def host_speeds(p: PassResult) -> list[float]:
    """The host's speed at each run of a pass, as a probe time.

    It is the median of the probes taken around the ``NEIGHBOURS`` runs
    on either side of the run and the run itself: one probe is a few
    milliseconds and catches the host in a burst as often as not, while
    a slow period lasts seconds.
    """
    probes = [run.host for run in p.runs]
    return [
        statistics.median(h for near in probes[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1] for h in near)
        for i in range(len(probes))
    ]


def scaled_pass(p: PassResult) -> float:
    """A pass's wall time, scaled to the reference host speed.

    The host's speed during the pass is the mean of its speed at each
    run, weighted by the run's time.
    """
    busy = sum(run.seconds for run in p.runs)
    host = sum(run.seconds * h for run, h in zip(p.runs, host_speeds(p))) / busy
    return hostspeed.scale(p.wall, host)


def run_times(passes: list[PassResult]) -> list[tuple[Run, float]]:
    """Each run with the median of its repeats, scaled to the reference host speed.

    Other tenants of a shared machine slow every run down, for seconds or
    minutes at a time: on a 2-core Xeon VM the same split model fit took
    0.45-1.1 s within three minutes. ``hostspeed.probe`` slows down with
    it (correlation 0.85), so each repeat is scaled by the host's speed
    at the time (``host_speeds``), and the median over the passes is
    taken. Each repeat ran in its own process, so none of them found
    anything an earlier one left behind.
    """
    repeats: dict[tuple[str, int], list[float]] = {}
    first: dict[tuple[str, int], Run] = {}
    for p in passes:
        for run, host in zip(p.runs, host_speeds(p)):
            key = (run.bundle, run.seed)
            first.setdefault(key, run)
            repeats.setdefault(key, []).append(hostspeed.scale(run.seconds, host))
    return [(first[key], statistics.median(times)) for key, times in repeats.items()]


def pass_time(w: Workload, passes: list[PassResult]) -> float:
    """One pass of the workload's whole job, scaled to the reference host speed.

    A comparison is timed whole, so that one which runs its seeds
    concurrently shows the gain: the time is the median scaled pass. On
    ``run-sweep`` a pass is a closed loop of runs, each starting when the
    one before has ended, so its time is the sum of its runs, each the
    median of its scaled repeats.
    """
    if w.compare:
        return statistics.median(scaled_pass(p) for p in passes)
    return sum(seconds for _, seconds in run_times(passes))


def tail(values: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile above p50 with ``TAIL_BEYOND`` samples beyond it.

    Returns (percentile, value, samples beyond). With too few samples for
    any percentile above the median to qualify (fewer than
    ``2 * TAIL_BEYOND + 1``), there is no tail to report, and it returns
    the median as percentile 50. The maximum is no substitute: on
    ``desk-compare`` it is the comparison's first run, which also pays
    the process's one-time start-up costs, and it varied between runs of
    the benchmark almost twice as much as the median did.
    """
    if len(values) > TAIL_BEYOND:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for q in range(math.floor(100 * (1 - TAIL_BEYOND / len(values))), 50, -1):
            beyond = sum(v > cuts[q - 1] for v in values)
            if beyond >= TAIL_BEYOND:
                return q, cuts[q - 1], beyond
    return 50, statistics.median(values), sum(v > statistics.median(values) for v in values)


def end_to_end(w: Workload, passes: list[PassResult], setup_samples: list[float],
               rss_mb: float) -> tuple[dict, dict]:
    """Metric values plus the sample counts and percentiles behind them.

    Set-up is timed as it runs, unscaled: it is mostly imports and file
    parsing, which the probe's loop does not stand for, and one probe per
    set-up would add more noise than it takes away.
    """
    wall = pass_time(w, passes)
    requests = statistics.median(p.requests for p in passes)
    values = {
        "wall_s": wall,
        "requests_per_s": requests / wall,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_mb,
    }
    taken = "median pass" if w.compare else "sum of each run's median repeat"
    notes = {
        "wall_s": f"{taken}, scaled to a {1000 * hostspeed.REFERENCE_S:g} ms probe;"
        f" {len(passes)} passes, as timed: {', '.join(f'{p.wall:.3f}' for p in passes)} s",
        "requests_per_s": f"{requests} requests per pass",
        "setup_s": f"median of {len(setup_samples)} set-ups:"
        f" {', '.join(f'{s:.3f}' for s in setup_samples)} s",
        "peak_rss_mb": "largest unit process plus its largest child",
    }
    runs = run_times(passes)
    for prefix, bundle in (("seq", "sequential"), ("split", "parallel")):
        per_run = [1000.0 * seconds for r, seconds in runs if r.bundle == bundle and r.completed]
        if not per_run:
            raise BenchError(f"no {bundle} run completed")
        q, value, beyond = tail(per_run)
        values[f"{prefix}_run_p50_ms"] = statistics.median(per_run)
        values[f"{prefix}_run_tail_ms"] = value
        notes[f"{prefix}_run_p50_ms"] = (
            f"n={len(per_run)} completed runs, each the median of {len(passes)} scaled repeats"
        )
        notes[f"{prefix}_run_tail_ms"] = f"p{q}, n={len(per_run)}, {beyond} runs beyond" + (
            f"; no tail: no percentile above p50 has {TAIL_BEYOND} runs beyond it" if q == 50 else ""
        )
    return values, notes


def per_layer(w: Workload, setup: dict, traced: list[PassResult],
              untraced: list[PassResult]) -> tuple[dict, dict]:
    """Per-layer metrics: one traced set-up plus the mean traced pass.

    ``setup`` is the ``Tracer.summarize`` result of the set-up; each
    traced pass carries the merged results of its units.
    """
    summaries = [p.layers for p in traced]

    def per_pass(name, key):
        return statistics.mean(t.get(name, {}).get(key, 0) for t in summaries)

    def total(name, key):
        return setup.get(name, {}).get(key, 0) + per_pass(name, key)

    train_s = total("classifier.train", "s")
    drawn_in_split = per_pass("webstore.arrivals.next", "amount_in_split")
    uncovered = [
        sum(t.get(name, {}).get("self_s", 0.0) for name in ROOT_SPANS) / p.wall
        for t, p in zip(summaries, traced)
    ]
    values = {
        "classifier.train.s": train_s,
        "classifier.train.updates_per_s": total("classifier.train", "amount") / train_s,
        "classifier.predict.s": total("classifier.predict", "s"),
        "classifier.predict.rows": total("classifier.predict", "amount"),
        "webstore.population.s": total("webstore.population", "s"),
        "webstore.population.calls": total("webstore.population", "calls"),
        "webstore.training_data.s": total("webstore.training_data", "s"),
        "webstore.arrivals.s": total("webstore.arrivals.next", "s") + total("webstore.arrivals.push_back", "s"),
        "webstore.arrivals.drawn": total("webstore.arrivals.next", "amount"),
        "webstore.arrivals.pushed_back": total("webstore.arrivals.push_back", "amount"),
        "webstore.serve_chunk.self_s": total("webstore.serve_chunk", "self_s"),
        "webstore.serve_chunk.calls": total("webstore.serve_chunk", "calls"),
        "webstore.serve_chunk.requests": total("webstore.serve_chunk", "amount"),
        "prf.uniforms.s": total("prf.uniforms", "s"),
        "prf.uniforms.draws": total("prf.uniforms", "amount"),
        "webstore.probe.s": total("webstore.probe", "s"),
        "webstore.probe.calls": total("webstore.probe", "calls"),
        "stats.evaluate.s": total("stats.evaluate", "s"),
        "stats.evaluate.calls": total("stats.evaluate", "calls"),
        "stats.evaluate.errors": total("stats.evaluate", "failed"),
        "orchestrator.run_test.self_s": total("orchestrator.run_test", "self_s"),
        "orchestrator.run_split.self_s": total("orchestrator.run_split", "self_s"),
        "orchestrator.split.served_ratio": (
            per_pass("webstore.serve_chunk", "amount_in_split") / drawn_in_split
        ),
        "orchestrator.engine.self_s": total("orchestrator.engine", "self_s"),
        "report.summary.s": total("report.summary", "s"),
        "artifacts.write.s": total("artifacts.write", "s"),
        "artifacts.bytes": statistics.mean(p.bytes_written for p in traced),
        "blueprints.parse.s": total("blueprints.parse", "s"),
        "tracing.overhead_pct": 100.0 * (
            min(p.wall for p in traced) / min(p.wall for p in untraced) - 1.0
        ),
        "tracing.uncovered_pct": 100.0 * statistics.mean(uncovered),
    }
    mean_wall = statistics.mean(p.wall for p in traced)
    shares = {
        name: {
            "setup_self_s": setup.get(name, {}).get("self_s", 0.0),
            "pass_self_s": per_pass(name, "self_s"),
            "pass_share_pct": 100.0 * per_pass(name, "self_s") / mean_wall,
        }
        for name in sorted({n for t in summaries + [setup] for n in t} - set(ROOT_SPANS))
    }
    return values, shares


# ---------------------------------------------------------------------------
# entry point


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def measure(w: Workload, args, env: Env, checker: Checker, out: Path, spans_dir: Path | None):
    """Run passes until the next one would end after ``--seconds``.

    At least ``MIN_PASSES`` passes run, so each run has several repeats.
    With ``--trace 0`` a set-up probe follows each pass, so that the
    set-up samples are spread over the measurement like the repeats.
    With ``--trace 1`` untraced and traced passes alternate, at least
    ``MIN_TRACED_PASSES`` of each; the units of the first traced pass
    write their spans to ``spans_dir``. Returns the untraced passes, the
    traced ones and the set-up probe times.
    """
    seeds = range(args.base, args.base + w.seeds)
    untraced, traced, setups = [], [], []
    started = time.perf_counter()
    while True:
        is_traced = bool(args.trace) and len(untraced) > len(traced)
        result = run_pass(
            env, w, seeds, out, checker, is_traced,
            spans_dir if is_traced and not traced else None,
        )
        (traced if is_traced else untraced).append(result)
        if args.trace:
            enough = min(len(untraced), len(traced)) >= MIN_TRACED_PASSES
        else:
            enough = len(untraced) >= MIN_PASSES
            if len(setups) < SETUP_REPEATS - 1:
                setups.append(probe_setup(w, args))
        if enough and time.perf_counter() - started + result.elapsed > args.seconds:
            return untraced, traced, setups


def print_metric(name, value, unit, note="") -> None:
    print(f"  {name:<34} {value:>16.6g} {unit:<6} {note}")


def bench(args) -> dict:
    w = WORKLOADS[args.workload]
    declared("end_to_end" if args.trace == 0 else "per_layer")  # fail before measuring
    load = os.getloadavg()
    setup_tracer = None
    started = time.perf_counter()
    if args.trace:
        load_abpipe()
        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            with setup_tracer.span("setup"):
                env = set_up(w, args.seed, args.base)
        finally:
            setup_tracer.uninstall()
    else:
        env = set_up(w, args.seed, args.base)
    setup_s = time.perf_counter() - started

    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else None
    checker = Checker(reference, w, args.seed, args.base)
    out = OUT / w.name
    trace_dir = out / f"trace-seed{args.seed}"
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
    untraced, traced, setups = measure(w, args, env, checker, out / "artifacts", trace_dir / "spans")
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rss = max([own_mb] + [p.rss_mb for p in untraced])

    passes = untraced + traced
    runs = [r for p in passes for r in p.runs]
    failed = sum(not r.completed for r in runs)
    info = {
        "workload": w.name,
        "why": w.why,
        "dominant_layer": w.dominant,
        "seed": args.seed,
        "base": args.base,
        "batch": BATCH,
        "seed_count": w.seeds,
        "model_seed": None if w.compare else MODEL_SEED_OFFSET + args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "run_count": len(runs),
        "pass_walls_s": {"untraced": [p.wall for p in untraced], "traced": [p.wall for p in traced]},
        "pass_runs_s": [[[r.bundle, r.seed, r.seconds, r.host] for r in p.runs] for p in untraced],
        "pass_elapsed_s": {"untraced": [p.elapsed for p in untraced], "traced": [p.elapsed for p in traced]},
        "loadavg_at_start": load,
        **environment(),
    }
    print(f"abpipe benchmark {w.name}: batch {BATCH}, seeds {args.base}..{args.base + w.seeds - 1},"
          f" seed {args.seed}, trace {args.trace}")
    print(f"  why: {w.why}; dominant layer: {w.dominant}")
    print(f"  python {info['python']}, numpy {info['numpy']}, nproc {info['nproc']},"
          f" cpu {info['cpu']}, load average {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}")
    print(f"  {len(passes)} passes, {len(runs)} pipeline runs attempted, {failed} failed")

    if args.trace:
        setup_layers = setup_tracer.summarize()
        values, shares = per_layer(w, setup_layers, traced, untraced)
        metrics = as_metrics("per_layer", values)
        print("  layer self time (setup s, per traced pass s, share of traced pass):")
        for name, row in sorted(shares.items(), key=lambda item: -item[1]["pass_self_s"]):
            print(f"    {name:<30} {row['setup_self_s']:>9.4f} {row['pass_self_s']:>9.4f}"
                  f" {row['pass_share_pct']:>6.1f}%")
        for name, metric in metrics.items():
            print_metric(name, metric["value"], metric["unit"])
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / "layers.json").write_text(json.dumps({
            "setup": setup_layers, "passes": [p.layers for p in traced], "shares": shares,
        }, indent=1) + "\n", encoding="utf-8")
        info["layer_shares"] = shares
    else:
        setup_samples = [setup_s] + setups
        while len(setup_samples) < SETUP_REPEATS:
            setup_samples.append(probe_setup(w, args))
        values, notes = end_to_end(w, untraced, setup_samples, rss)
        metrics = as_metrics("end_to_end", values)
        for name, metric in metrics.items():
            print_metric(name, metric["value"], metric["unit"], f"({notes[name]})")
        info["notes"] = notes
    failed_pct = 100.0 * failed / len(runs)
    mismatches = len(checker.problems["mismatch"])
    print_metric("failed_pct", failed_pct, "%", f"({failed} of {len(runs)} runs)")
    print_metric("output_mismatches", mismatches, "count",
                 f"({checker.checked} outputs checked against reference.json,"
                 f" {checker.no_reference} with no reference)")
    for kind, items in checker.problems.items():
        for item in sorted(items)[:10]:
            print(f"  {kind}: {item}")

    result = {
        "correct": checker.correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        **info, **result, "failed_pct": failed_pct, "output_mismatches": mismatches,
        "checked": checker.checked, "no_reference": checker.no_reference,
        "problems": {k: sorted(v) for k, v in checker.problems.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    return result


def record_reference() -> None:
    """Rewrite ``reference.json`` from one pass of every workload."""
    reference = {
        "comment": "SHA-256 digests of deterministic artifacts; written by"
        " perfbench/run.py --record-reference",
        "base": DEFAULT_BASE,
        "seed": DEFAULT_SEED,
        "runs": {},
    }
    for w in WORKLOADS.values():
        env = set_up(w, DEFAULT_SEED, DEFAULT_BASE)
        checker = Checker(None, w, DEFAULT_SEED, DEFAULT_BASE)
        out = OUT / "reference" / w.name / "artifacts"
        result = run_pass(env, w, range(DEFAULT_BASE, DEFAULT_BASE + w.seeds), out, checker)
        if not checker.correct:
            raise BenchError(f"{w.name}: {checker.problems}")
        if w.compare:
            reference["desk-compare"] = {
                "base": DEFAULT_BASE,
                "report.json": checker.first[("report", "report.json")],
                "report.txt": checker.first[("report", "report.txt")],
                "reduction_pct": result.reduction_pct,
            }
            continue
        table = reference["runs"].setdefault(str(BATCH), {})
        for (bundle, sim_seed), outcome in checker.first.items():
            table.setdefault(bundle, {})[str(sim_seed)] = outcome
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


def run_all(args) -> int:
    """Run every workload in turn, each in a fresh interpreter."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            this_script("--workload", name, "--seed", args.seed, "--seconds", args.seconds,
                        "--trace", args.trace, "--base", args.base),
            cwd=ROOT,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base", type=int, default=DEFAULT_BASE,
                        help="first simulation seed of the workload's window")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if "ABPIPE_BATCH_SIZE" in os.environ:
        print("ABPIPE_BATCH_SIZE is set; the benchmark passes batch sizes"
              " explicitly and refuses to run under an override", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference()
        elif args.workload == "all":
            return run_all(args)
        elif args.setup_probe:
            started = time.perf_counter()
            set_up(WORKLOADS[args.workload], args.seed, args.base)
            print(json.dumps({"setup_s": time.perf_counter() - started}))
        else:
            print(json.dumps(bench(args)))
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
