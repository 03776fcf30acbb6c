"""Pinned artifacts of small-batch ``abpipe run`` invocations.

The benchmark's digests (``tests/test_reference_digests.py``) cover batch
1000 only. Small batches are where looks see arms of zero or one
sample, and where some runs abort with a partial trace. This gate runs
``abpipe run`` on both shipped bundles with the default scenario, seeds
1-3 and ``ABPIPE_BATCH_SIZE`` 37 and 100, and compares each run's exit
code, stderr and the digest of everything it wrote (the SHA-256 of its
sorted ``"<file name> <file sha256>\\n"`` lines) with
``tests/data/small_batch_digests.json``.

Regenerate the pins, only for a change that is meant to alter these
artifacts, with::

    PYTHONPATH=src python tests/test_small_batch_digests.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path
import tempfile
from unittest import mock

import pytest

from abpipe.cli import main
from test_reference_digests import digest

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "data" / "small_batch_digests.json"
BUNDLES = ("sequential", "parallel")
SEEDS = (1, 2, 3)
BATCHES = (37, 100)


def run_case(bundle: str, seed: int, batch: int, out: Path) -> dict:
    """One ``abpipe run``: its exit code, stderr and output digest."""
    stderr = io.StringIO()
    argv = ["run", str(ROOT / "scenarios" / bundle), "--seed", str(seed), "--out", str(out)]
    with mock.patch.dict(os.environ, {"ABPIPE_BATCH_SIZE": str(batch)}), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"exit": code, "stderr": stderr.getvalue(), "digest": digest(out)}


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("bundle", BUNDLES)
def test_small_batch_runs_match_the_pinned_digests(bundle, batch, tmp_path):
    pinned = json.loads(PINS.read_text(encoding="utf-8"))[str(batch)][bundle]
    assert sorted(map(int, pinned)) == list(SEEDS)
    for seed in SEEDS:
        got = run_case(bundle, seed, batch, tmp_path / str(seed))
        assert got == pinned[str(seed)], f"seed {seed}"


if __name__ == "__main__":
    pins: dict = {}
    with tempfile.TemporaryDirectory() as scratch:
        for batch in BATCHES:
            for bundle in BUNDLES:
                pins.setdefault(str(batch), {})[bundle] = {
                    str(seed): run_case(bundle, seed, batch, Path(scratch, f"{batch}-{bundle}-{seed}"))
                    for seed in SEEDS
                }
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
