"""Population-split component: the classifier whose classes divide a population.

The classifier is a logistic model trained with plain per-sample SGD
on a fixed schedule (inverse-scaling learning rate, L2 penalty, 5
epochs); only the seed of the shuffle each epoch varies. Class weights
are balanced against label frequency because the shipped scenario has
~4% positives and an unweighted fit can collapse to the majority class.
Training is single-threaded on purpose: identical (data, seed) must
give bitwise-identical weights.

Features must be 0 or 1, checked with one mask. The SGD loop keeps the
weights as ``scale * v`` (Bottou, "Stochastic Gradient Descent Tricks",
2012), so the L2 decay of a step is one scalar multiply, and holds each
row as the tuple of its set columns (about 3 of 23 in the shipped
scenario), so a step adds and updates only those entries of ``v``. Equal
rows share one tuple (about 5.9k distinct rows of the shipped 20k); the
temporaries that find them are freed before the loop, which streams its
shuffles and step sizes through memoryviews. Each label is one flag byte,
and every comparison and arithmetic operation in the loop is float-float,
which CPython's specializing interpreter (PEP 659) runs on its fast
paths. The step-size
schedule of the last fit is kept, so the seeds of a comparison share it.
The weights equal those of the textbook dense update up to summation
order (~1e-14).

The runner's routing table (``WebStoreRunner._routing_table``) divides
the population by the predicted class, one mask per branch, predicting
each block of feature rows as the population draws it; users matching
no branch are "unrouted" and take part in no experiment.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

DEFAULT_FEATURES = 23


class ClassifierError(ValueError):
    pass


class SingleClassError(ClassifierError):
    pass


class DimensionMismatchError(ClassifierError):
    pass


@dataclass(frozen=True)
class Hyperparams:
    """The fixed SGD schedule; only the shuffle seed is set per fit."""

    eta0: ClassVar[float] = 0.5
    power_t: ClassVar[float] = 0.25  # learning rate eta0 / t**power_t
    # eta0 * l2 < 1 keeps each step's L2 decay 1 - lr*l2 positive
    l2: ClassVar[float] = 1e-4
    epochs: ClassVar[int] = 5
    seed: int = 0


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    hyperparams: Hyperparams
    train_time_ms: float = 0.0

    @property
    def n_features(self) -> int:
        return int(self.weights.shape[0])

    def decision(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.n_features:
            raise DimensionMismatchError(
                f"expected {self.n_features} features, got {x.shape[-1]}"
            )
        return x @ self.weights + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Vectorized class prediction for a matrix of feature rows."""
        return (self.decision(x) >= 0.0).astype(np.int64)


@functools.lru_cache(maxsize=1)
def _step_sizes(eta0: float, power_t: float, steps: int) -> array:
    """eta0 / t**power_t for t = 1..steps; shared, so read it only."""
    return array("d", (eta0 / t ** power_t for t in range(1, steps + 1)))


def _row_tuples(x: np.ndarray) -> list[tuple[int, ...]]:
    """Row i's set columns, in column order: one tuple per distinct row,
    shared by reference. Rows are keyed by their bits, packed into one
    uint64, or into a byte string of 8 bytes per 64 columns when wider."""
    x = x.astype(np.uint8, copy=False)
    packed = np.packbits(x, axis=1)
    width = -(-packed.shape[1] // 8) * 8
    keys = np.zeros((x.shape[0], width), dtype=np.uint8)
    keys[:, : packed.shape[1]] = packed
    del packed
    keys = keys.view(np.uint64 if width == 8 else np.dtype((np.void, width)))[:, 0]
    first, inverse = np.unique(keys, return_index=True, return_inverse=True)[1:]
    del keys
    rows = x[first]
    cols = np.flatnonzero(rows)
    ends = np.cumsum(np.count_nonzero(rows, axis=1)).tolist()
    cols = np.remainder(cols, x.shape[1], out=cols).tolist()
    distinct = [tuple(cols[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    return [distinct[j] for j in memoryview(inverse)]


def train(
    x,
    y,
    hyperparams: Hyperparams = Hyperparams(),
) -> LinearModel:
    """Fit a logistic model with per-sample SGD on 0/1 feature rows.

    Minimizes class-weighted log-loss with L2 regularization on the
    fixed :class:`Hyperparams` schedule. The learning rate decays as
    eta0 / t**power_t over the global update counter t; samples are
    reshuffled each epoch with ``hyperparams.seed``, which must be >= 0.

    The weights are held as ``scale * v``: a step multiplies ``scale``
    by ``1 - lr*l2`` and then updates ``v`` over the row's set features
    only, so its cost follows the row's nonzeros, not the feature count.
    ``scale`` stays positive and is folded back into ``v`` when it falls
    below 1e-9.

    Beside ``x`` and ``y`` a fit allocates one check mask, the row tuples
    and one label flag byte per sample; epochs stream their shuffles and
    step sizes. A step picks its class weight by the flag, and every
    literal in the loop is a float, since one int operand (``margin >= 0``)
    takes the interpreter's generic path on every step.
    """
    hp = hyperparams
    if hp.seed < 0:
        raise ClassifierError(f"seed must be >= 0, got {hp.seed}")
    x = np.asarray(x)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[1] == 0:
        raise ClassifierError("training features must be a 2-D array of at least one column")
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"{x.shape[0]} feature rows vs {y.shape[0]} labels"
        )
    if x.shape[0] < 2:
        raise ClassifierError("need at least two training samples")
    for name, values in (("features", x), ("labels", y)):
        bad = values != 0
        if np.not_equal(values, bad, out=bad).any():  # nonzero and not 1
            raise ClassifierError(f"{name} must be 0 or 1, got {values[bad][:1].tolist()[0]!r}")
    n_pos = int(y.sum())
    n = y.shape[0]
    if n_pos == 0 or n_pos == n:
        raise SingleClassError("training set contains a single class")

    started = time.perf_counter()
    # balanced class weights: n / (2 * class count)
    w_pos = n / (2.0 * n_pos)
    w_neg = n / (2.0 * (n - n_pos))
    rows = _row_tuples(x)
    positive = (y == 1.0).tobytes()

    l2 = hp.l2
    exp = math.exp
    rng = np.random.default_rng(hp.seed)
    step_sizes = _step_sizes(hp.eta0, hp.power_t, n * hp.epochs)
    v = [0.0] * x.shape[1]
    scale = 1.0
    bias = 0.0
    for epoch in range(hp.epochs):
        lrs = memoryview(step_sizes)[epoch * n : (epoch + 1) * n]
        for i, lr in zip(memoryview(rng.permutation(n)), lrs):
            cols = rows[i]
            dot = 0.0
            for c in cols:
                dot += v[c]
            margin = scale * dot + bias
            if margin >= 0.0:
                p = 1.0 / (1.0 + exp(-margin))
            else:
                e = exp(margin)
                p = e / (1.0 + e)
            # weight * (p - label): p - 0.0 is p, since p >= +0.0 or NaN
            grad = w_pos * (p - 1.0) if positive[i] else w_neg * p
            grad *= lr
            scale *= 1.0 - lr * l2
            step = grad / scale
            for c in cols:
                v[c] -= step
            bias -= grad
            if scale < 1e-9:
                v = [w * scale for w in v]
                scale = 1.0
    weights = np.asarray(v, dtype=np.float64) * scale
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if not np.all(np.isfinite(weights)) or not np.isfinite(bias):
        raise ClassifierError("training diverged to non-finite weights")
    return LinearModel(
        weights=weights,
        bias=float(bias),
        hyperparams=hp,
        train_time_ms=elapsed_ms,
    )


# ---------------------------------------------------------------------------
# persistence


def save_model(model: LinearModel, path: str | Path) -> None:
    record = {
        "features": model.n_features,
        "weights": [float(w) for w in model.weights],
        "bias": model.bias,
        "loss": "log",
        "seed": model.hyperparams.seed,
    }
    Path(path).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> LinearModel:
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    weights = np.asarray(record["weights"], dtype=np.float64)
    if int(record["features"]) != weights.shape[0]:
        raise ClassifierError(
            f"model file declares {record['features']} features but has"
            f" {weights.shape[0]} weights"
        )
    return LinearModel(
        weights=weights,
        bias=float(record["bias"]),
        hyperparams=Hyperparams(seed=int(record.get("seed", 0))),
    )


def load_training_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a feature/label CSV (F feature columns + ``label``), all 0 or 1."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ClassifierError(f"{path}: empty training file") from None
        if not header or header[-1] != "label":
            raise ClassifierError(f"{path}: last column must be 'label'")
        values = array("d")  # all rows' floats, flat: 8 bytes a value, no object per value
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ClassifierError(
                    f"{path}: line {lineno} has {len(row)} columns,"
                    f" expected {len(header)}"
                )
            try:
                values.extend(map(float, row))
            except ValueError as exc:
                raise ClassifierError(f"{path}: line {lineno}: {exc}") from None
    if not values:
        raise ClassifierError(f"{path}: no data rows")
    data = np.frombuffer(values, dtype=np.float64).reshape(-1, len(header))
    return data[:, :-1], data[:, -1]


def save_training_csv(path: str | Path, features: np.ndarray, labels: np.ndarray) -> None:
    features = np.asarray(features)
    labels = np.asarray(labels)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{i}" for i in range(features.shape[1])] + ["label"])
        for row, label in zip(features, labels):
            writer.writerow([int(v) for v in row] + [int(label)])
