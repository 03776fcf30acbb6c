"""Spans and counters for the benchmark's traced run.

The traced run wraps the public entry points of each abpipe layer from
outside the package: every call becomes a span (name, start, end,
parent) carrying one work amount (rows, requests, draws, ...). Spans are
kept in flat arrays and summarised when the traced unit ends, so a
million calls cost tens of megabytes, not an object each. A traced pass
runs unit by unit in forked children, one tracer each; ``merge`` adds
up the summaries they send back.

Each layer is wrapped at the attribute its caller actually resolves:
the orchestrator calls ``abpipe.orchestrator.run_stat_test`` (imported
by name), the comparison calls ``abpipe.report.generate_training_data``,
and methods are looked up on their class. ``Tracer.uninstall`` puts every
original back, so untraced passes run the unmodified package.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from contextlib import contextmanager

# Spans that belong to the benchmark itself; everything else is a layer.
ROOT_SPANS = ("setup", "pass", "pipeline.run")


def _len_arg(position):
    return lambda args, kwargs: len(args[position])


def _int_arg(position):
    return lambda args, kwargs: int(args[position])


def _train_updates(args, kwargs):
    hyperparams = args[2] if len(args) > 2 else kwargs.get("hyperparams")
    if hyperparams is None:
        hyperparams = importlib.import_module("abpipe.classifier").Hyperparams()
    return len(args[0]) * hyperparams.epochs


# (span name, module, attribute path, work amount per call)
LAYERS = (
    ("blueprints.parse", "abpipe.blueprints", "parse_blueprints", None),
    ("webstore.training_data", "abpipe.report", "generate_training_data", _int_arg(1)),
    ("webstore.training_data", "abpipe.webstore", "generate_training_data", _int_arg(1)),
    ("classifier.train", "abpipe.classifier", "train", _train_updates),
    ("classifier.predict", "abpipe.classifier", "LinearModel.predict", _len_arg(1)),
    ("webstore.population", "abpipe.webstore", "generate_population", None),
    ("webstore.arrivals.next", "abpipe.webstore", "ArrivalStream.next", _int_arg(1)),
    ("webstore.arrivals.push_back", "abpipe.webstore", "ArrivalStream.push_back", _len_arg(1)),
    ("webstore.serve_chunk", "abpipe.webstore", "WebStore.serve_chunk", _len_arg(2)),
    ("webstore.probe", "abpipe.webstore", "WebStore.probe", None),
    ("prf.uniforms", "abpipe.prf", "uniforms", _len_arg(1)),
    ("stats.evaluate", "abpipe.orchestrator", "run_stat_test", None),
    ("orchestrator.engine", "abpipe.orchestrator", "PipelineEngine.run", None),
    ("orchestrator.run_test", "abpipe.orchestrator", "WebStoreRunner.run_test", None),
    ("orchestrator.run_split", "abpipe.orchestrator", "WebStoreRunner.run_split", None),
    ("report.summary", "abpipe.report", "build_summary", None),
)


class Tracer:
    """Records nested spans in flat arrays; one per traced unit or set-up."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._originals: list[tuple[object, str, object]] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")
        self.failed = array("b")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.amount.append(0)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int, amount: int = 0, failed: bool = False) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        self.amount[index] = amount
        self.failed[index] = failed

    @contextmanager
    def span(self, name: str):
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    # -- wrapping ---------------------------------------------------------------

    def install(self) -> None:
        """Replace every layer entry point in ``LAYERS`` by a recording wrapper."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for name, module, path, amount in LAYERS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(self.name_id(name), original, amount))

    def uninstall(self) -> None:
        """Restore every wrapped attribute and check that it took."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        for owner, attr, original in self._originals:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")
        self._originals.clear()

    def _wrap(self, name_id, original, amount):
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            index = open_(name_id)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                close(index, amount(args, kwargs) if amount else 0, True)
                raise
            close(index, amount(args, kwargs) if amount else 0)
            return result

        traced.__wrapped__ = original
        return traced

    # -- results ------------------------------------------------------------------

    def summarize(self) -> dict:
        """Per-span-name totals of the recorded spans.

        Returns ``{name: {calls, s, self_s, amount, amount_in_split,
        failed}}`` where ``s`` is inclusive time, ``self_s`` is ``s`` minus
        the time of direct child spans, and ``amount_in_split`` counts only
        spans nested inside ``orchestrator.run_split``.
        """
        n = len(self.name)
        split_id = self._ids.get("orchestrator.run_split", -2)
        child = [0.0] * n
        in_split = [False] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                in_split[i] = in_split[p] or self.name[p] == split_id
        totals: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            row = totals.get(name)
            if row is None:
                row = totals[name] = {
                    "calls": 0, "s": 0.0, "self_s": 0.0,
                    "amount": 0, "amount_in_split": 0, "failed": 0,
                }
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - child[i]
            row["amount"] += self.amount[i]
            if in_split[i]:
                row["amount_in_split"] += self.amount[i]
            row["failed"] += self.failed[i]
        return totals

    def write_spans(self, path, limit: int) -> int:
        """Write up to ``limit`` spans as gzip CSV; returns the count written."""
        count = min(limit, len(self.name))
        origin = self.start[0] if count else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id,parent,name,start_us,end_us,amount,failed\n")
            for i in range(count):
                handle.write(
                    f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{(self.start[i] - origin) * 1e6:.1f},"
                    f"{(self.end[i] - origin) * 1e6:.1f},"
                    f"{self.amount[i]},{self.failed[i]}\n"
                )
        return count


def merge(summaries: list[dict]) -> dict:
    """Add up ``Tracer.summarize`` results field by field."""
    totals: dict[str, dict] = {}
    for summary in summaries:
        for name, row in summary.items():
            into = totals.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                into[key] += value
    return totals
