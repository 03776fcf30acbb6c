"""How fast the host runs right now, from a fixed reference loop.

On a machine shared with other tenants the same code runs up to twice
as slow for seconds or minutes at a time, and every timing taken then
reads slow. ``probe`` times a fixed loop of the kind of work that
dominates abpipe (an interpreted loop of small numpy operations, as in
per-sample SGD) right before and after each timed pipeline run. Its time
does not depend on abpipe at all, so when it rises the host has slowed
down, and a run timed next to it can be scaled to the speed at which
the probe takes ``REFERENCE_S`` (``scale``).
"""

from __future__ import annotations

import functools
import time

STEPS = 400
REPEATS = 2
# About the probe's time on a quiet 2-core Xeon VM (its fastest there was
# 1.26-1.50 ms per benchmark run), so that scaled times there read close
# to times taken on the quiet host. Any fixed value would do: it sets the
# scale of every timing alike and cancels out of every comparison.
REFERENCE_S = 1.4e-3


@functools.cache
def _rows():
    # numpy is imported on first use, so that importing this module
    # leaves the import in a timed set-up
    import numpy as np

    return np.random.default_rng(0).random((64, 8))


def _loop() -> float:
    import numpy as np

    rows = _rows()
    weights = np.zeros(8)
    bias = 0.0
    started = time.perf_counter()
    for step in range(STEPS):
        row = rows[step & 63]
        margin = float(row @ weights) + bias
        p = 1.0 / (1.0 + np.exp(-margin))
        grad = p - 0.5
        weights *= 0.999
        weights -= 0.01 * grad * row
        bias -= 0.01 * grad
    return time.perf_counter() - started


def probe() -> float:
    """Seconds the reference loop takes now: the faster of ``REPEATS`` tries."""
    return min(_loop() for _ in range(REPEATS))


def scale(seconds: float, host: float) -> float:
    """``seconds`` timed with the probe at ``host``, as it would read at ``REFERENCE_S``."""
    return seconds * REFERENCE_S / host
