"""Sequential vs parallel pipeline execution on the simulated web-store.

Runs the shipped scenario both ways for one seed, prints the execution
traces' shape, then aggregates a five-seed comparison the way the
`abpipe compare` command does: per-test medians, sequential SUM vs
parallel MAX totals, and the resulting request reduction.

Run from the repository root:  python demos/04_sequential_vs_parallel.py
(takes a few seconds; the full 15-seed protocol is `abpipe compare`)
"""

from pathlib import Path

from abpipe.blueprints import parse_blueprints
from abpipe.report import compare_pipelines, run_pipeline_once
from abpipe.webstore import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent
seq_spec = parse_blueprints(ROOT / "scenarios/sequential")
par_spec = parse_blueprints(ROOT / "scenarios/parallel")
scenario = ScenarioConfig()

# --- 1. one seed, both pipelines ---------------------------------------------

print("=== single run, seed 1")
for spec in (seq_spec, par_spec):
    outcome = run_pipeline_once(spec, scenario, seed=1)
    print(f"{spec.name}:")
    for key, row in outcome.summary["tests"].items():
        flag = "significant" if row["significant"] else "inconclusive"
        print(f"  {key}: {row['requests']:>7,} requests ({flag})")
    for name, split in outcome.summary["splits"].items():
        shares = ", ".join(
            f"{k} {v * 100:.1f}%" for k, v in split["split_fractions"].items()
        )
        print(f"  split {name}: {split['stream_total']:,} stream requests; {shares}")
    events = [e.event for e in outcome.engine.trace]
    print(f"  trace: {len(events)} events, kinds {sorted(set(events))}")
print()

# --- 2. five-seed comparison ---------------------------------------------------

print("=== five-seed comparison (median aggregation)")
report = compare_pipelines(seq_spec, par_spec, scenario, seeds=[1, 2, 3, 4, 5])
print(report.render_text())
