"""Engine traces vs the independent reference interpreter."""

import numpy as np
import pytest

import abpipe.orchestrator as orch
from abpipe.model import PipelineSpec, validate
from abpipe.orchestrator import PipelineEngine

from case_generator import make_case
from reference_interpreter import reference_trace
from scripted_runner import ScriptedRunner


def engine_trace(spec, scripts):
    trace, _ = PipelineEngine(spec, ScriptedRunner(scripts)).run()
    return [(e.instance, e.event, e.detail, e.requests_total) for e in trace]


@pytest.mark.parametrize("seed", range(50))
def test_trace_matches_reference_interpreter(seed):
    spec, scripts = make_case(seed)
    assert engine_trace(spec, scripts) == reference_trace(spec, scripts)


@pytest.mark.parametrize("seed", range(0, 30, 3))
def test_rule_permutation_invariance_on_validated_specs(seed):
    """Validated specs have non-overlapping rules, so declaration order
    cannot change which transition fires."""
    spec, scripts = make_case(seed)
    baseline = engine_trace(spec, scripts)
    rng = np.random.default_rng(seed + 1)
    order = rng.permutation(len(spec.trans_rules))
    permuted = PipelineSpec(
        spec.name,
        spec.ab_tests,
        tuple(spec.trans_rules[i] for i in order),
        spec.pop_splits,
        spec.start,
    )
    if not validate(permuted).ok:
        pytest.skip("permutation invalidated the spec")
    assert engine_trace(permuted, scripts) == baseline


@pytest.mark.parametrize("seed", range(40))
def test_validated_specs_execute_to_end_cleanly(seed):
    """Accepted specs reach End with no undeclared-element lookups."""
    spec, scripts = make_case(seed)
    assert validate(spec).ok
    trace, _ = PipelineEngine(spec, ScriptedRunner(scripts)).run()
    assert trace.events[-1].event == "end"
    assert trace.events[-1].instance == spec.name


def test_rejected_spec_fails_execution_when_forced(monkeypatch):
    """A dangling reference both fails validation and breaks execution."""
    spec, scripts = make_case(7)
    assert spec.trans_rules, "case 7 should have rules"
    broken_rules = (
        spec.trans_rules[0].__class__(
            spec.trans_rules[0].name,
            spec.trans_rules[0].assoc_ab_test,
            "p_value >= 0",
            "GhostTest",
        ),
    ) + spec.trans_rules[1:]
    broken = PipelineSpec(
        spec.name, spec.ab_tests, broken_rules, spec.pop_splits, spec.start
    )
    report = validate(broken)
    assert any(v.code == "unresolved-reference" for v in report)
    monkeypatch.setattr(orch, "validate", lambda s, c=None: validate(spec))
    engine = PipelineEngine(broken, ScriptedRunner(scripts))
    with pytest.raises(KeyError):
        engine.run()
