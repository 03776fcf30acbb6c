"""Scripted runner: replays precomputed statistical outcomes.

Drives :class:`abpipe.orchestrator.PipelineEngine` without a managed
system, so engine control flow can be checked against
``reference_interpreter``. Programs advance round-robin in declaration
order, one batch per tick, as the reference interpreter does.
"""

from __future__ import annotations

from abpipe.orchestrator import ContractViolationError, Program, SplitRunStats
from abpipe.stats import StatResult


class ScriptedRunner:
    """Replays precomputed per-(instance, test) result sequences."""

    def __init__(self, scripts: dict[tuple[str, str], list[StatResult]]):
        self.scripts = scripts
        self.requests_total = 0
        self._positions: dict[tuple[str, str], int] = {}

    def check_deployable(self, spec) -> None:
        pass

    def deploy(self, test) -> None:
        pass

    def restore(self, test) -> None:
        pass

    def _round_robin(self, programs: list[Program]) -> dict[str, int]:
        """Run ``programs`` to End; the request total at which each ended."""
        completion: dict[str, int] = {}
        while any(not p.done for p in programs):
            for program in programs:
                if program.done:
                    continue
                key = (program.instance_id, program.current_test.name)
                position = self._positions.get(key, 0)
                script = self.scripts[key]
                if position >= len(script):
                    raise ContractViolationError(
                        f"script for {key} exhausted without a terminal result"
                    )
                result = script[position]
                self._positions[key] = position + 1
                self.requests_total += result.requests_consumed - program.consumed
                program.on_batch(result)
                if program.done:
                    completion[program.instance_id] = self.requests_total
        return completion

    def run_test(self, program: Program) -> None:
        self._round_robin([program])

    def run_split(self, split, programs: list[Program]) -> SplitRunStats:
        base = self.requests_total
        completion = self._round_robin(programs)
        return SplitRunStats(
            dispatched={p.instance_id: 0 for p in programs},
            sub_stream_totals={
                sub_id: total - base for sub_id, total in completion.items()
            },
        )
