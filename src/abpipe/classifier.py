"""Population-split component: linear classifier plus population divider.

The classifier is a logistic model trained with plain per-sample SGD
on a fixed schedule (inverse-scaling learning rate, L2 penalty, 5
epochs); only the seed of the shuffle each epoch varies. Class weights
are balanced against label frequency because the shipped scenario has
~4% positives and an unweighted fit can collapse to the majority class.
Training is single-threaded on purpose: identical (data, seed) must
give bitwise-identical weights.

Features must be 0 or 1. The SGD loop keeps the weights as ``scale * v``
(Bottou, "Stochastic Gradient Descent Tricks", 2012), so the L2 decay of
a step is one scalar multiply, and holds each row as the tuple of its set
columns (about 3 of 23 in the shipped scenario), so a step adds and
updates only those entries of ``v``. Equal rows share one tuple: the
shipped training data has about 5.9k distinct rows of 20k. The step-size
schedule of the last fit is kept, so the seeds of a comparison share it.
The weights equal those of the textbook dense update up to summation
order (about 1e-14).

The divider maps a predicted class through a split's branch conditions
to exactly one sub-pipeline; users matching no branch are "unrouted"
and take part in no experiment.
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

from .model import PopulationSplitSpec

DEFAULT_FEATURES = 23
PREDICT_BLOCK = 4096  # population rows per predict call when routing


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
    """
    hp = hyperparams
    if hp.seed < 0:
        raise ClassifierError(f"seed must be >= 0, got {hp.seed}")
    x = np.asarray(x)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2:
        raise ClassifierError("training features must be a 2-D array")
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"{x.shape[0]} feature rows vs {y.shape[0]} labels"
        )
    if x.shape[0] < 2:
        raise ClassifierError("need at least two training samples")
    for name, values in (("features", x), ("labels", y)):
        bad = (values != 0) & (values != 1)
        if bad.any():
            raise ClassifierError(f"{name} must be 0 or 1, got {values[bad][:1].tolist()[0]!r}")
    n_pos = int(y.sum())
    n = y.shape[0]
    if n_pos == 0 or n_pos == n:
        raise SingleClassError("training set contains a single class")

    started = time.perf_counter()
    # balanced class weights: n / (2 * class count)
    w_pos = n / (2.0 * n_pos)
    w_neg = n / (2.0 * (n - n_pos))
    sample_weight = array("d", np.where(y == 1.0, w_pos, w_neg).tobytes())
    labels = array("d", y.tobytes())
    # row i's set columns, in column order: one tuple per distinct row,
    # shared by reference. Rows are keyed by their bits, packed into one
    # uint64, or into a byte string of 8 bytes per 64 columns when wider.
    packed = np.packbits(x != 0, axis=1)
    width = -(-packed.shape[1] // 8) * 8
    keys = np.zeros((n, width), dtype=np.uint8)
    keys[:, : packed.shape[1]] = packed
    keys = keys.view(np.uint64 if width == 8 else np.dtype((np.void, width)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    nz_rows, nz_cols = np.nonzero(x[first])
    ends = np.cumsum(np.bincount(nz_rows, minlength=first.shape[0])).tolist()
    nz_cols = nz_cols.tolist()
    distinct = [tuple(nz_cols[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    rows = [distinct[j] for j in inverse.tolist()]

    l2 = hp.l2
    exp = math.exp
    rng = np.random.default_rng(hp.seed)
    step_sizes = _step_sizes(hp.eta0, hp.power_t, n * hp.epochs)
    v = [0.0] * x.shape[1]
    scale = 1.0
    bias = 0.0
    for epoch in range(hp.epochs):
        lrs = step_sizes[epoch * n : (epoch + 1) * n]
        for i, lr in zip(rng.permutation(n).tolist(), lrs):
            cols = rows[i]
            dot = 0.0
            for c in cols:
                dot += v[c]
            margin = scale * dot + bias
            if margin >= 0:
                p = 1.0 / (1.0 + exp(-margin))
            else:
                e = exp(margin)
                p = e / (1.0 + e)
            grad = sample_weight[i] * (p - labels[i])
            scale *= 1.0 - lr * l2
            step = lr * grad / scale
            for c in cols:
                v[c] -= step
            bias -= lr * grad
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
# routing


def route_class(split: PopulationSplitSpec, predicted_class: int) -> str | None:
    """Sub-pipeline id for a predicted class, or None when unrouted."""
    for sub, cond in zip(split.sub_pipelines, split.cond_stats):
        if cond.matches(predicted_class):
            return sub.subpl_id
    return None


def measure_predict_latency_ms(model: LinearModel, features: np.ndarray) -> float:
    """Median wall-time of 200 ``predict`` calls, in milliseconds.

    The calls cycle over ``features`` in PREDICT_BLOCK-row slices, as
    the runner predicts a population; fewer rows are one slice.
    """
    blocks = [
        features[start : start + PREDICT_BLOCK]
        for start in range(0, len(features), PREDICT_BLOCK)
    ]
    timings = []
    for i in range(200):
        rows = blocks[i % len(blocks)]
        start = time.perf_counter_ns()
        model.predict(rows)
        timings.append(time.perf_counter_ns() - start)
    return float(np.median(timings)) / 1e6


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
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ClassifierError(
                    f"{path}: line {lineno} has {len(row)} columns,"
                    f" expected {len(header)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ClassifierError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ClassifierError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    return data[:, :-1], data[:, -1]


def save_training_csv(path: str | Path, features: np.ndarray, labels: np.ndarray) -> None:
    features = np.asarray(features)
    labels = np.asarray(labels)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{i}" for i in range(features.shape[1])] + ["label"])
        for row, label in zip(features, labels):
            writer.writerow([int(v) for v in row] + [int(label)])
