"""Population-split component: linear classifier plus population divider.

The classifier is a logistic model trained with plain per-sample SGD
(inverse-scaling learning rate, L2 penalty, seeded shuffle each epoch).
Class weights are balanced against label frequency because the shipped
scenario has ~4% positives and an unweighted fit can collapse to the
majority class. Training is single-threaded on purpose: identical
(data, seed, hyperparameters) must give bitwise-identical weights.

The SGD loop keeps the weights as ``scale * v`` (Bottou, "Stochastic
Gradient Descent Tricks", 2012), so the L2 decay of a step is one scalar
multiply, and it walks the rows in compressed sparse-row form, so a step
reads and updates only the row's nonzero features. The shipped
scenario's rows have about 3 of their 23 features set on average. The
weights equal those of the textbook dense update up to summation order
(about 1e-14).

The divider maps a predicted class through a split's branch conditions
to exactly one sub-pipeline; users matching no branch are "unrouted"
and take part in no experiment.
"""

from __future__ import annotations

import csv
import json
import math
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import PopulationSplitSpec

DEFAULT_FEATURES = 23


class ClassifierError(ValueError):
    pass


class SingleClassError(ClassifierError):
    pass


class DimensionMismatchError(ClassifierError):
    pass


@dataclass(frozen=True)
class Hyperparams:
    eta0: float = 0.5
    power_t: float = 0.25  # learning rate eta0 / t**power_t
    l2: float = 1e-4
    epochs: int = 5
    seed: int = 0


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    hyperparams: Hyperparams
    loss: str = "log"
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


def train(
    x,
    y,
    hyperparams: Hyperparams = Hyperparams(),
) -> LinearModel:
    """Fit a logistic model with per-sample SGD.

    Minimizes class-weighted log-loss with L2 regularization. The
    learning rate decays as eta0 / t**power_t over the global update
    counter t; samples are reshuffled each epoch with the model seed.

    The weights are held as ``scale * v``: a step multiplies ``scale``
    by ``1 - lr*l2`` and then updates ``v`` over the row's nonzero
    features only, so its cost follows the row's nonzeros, not the
    feature count. ``eta0 * l2 < 1`` keeps ``scale`` positive; it is
    folded back into ``v`` when it falls below 1e-9.
    """
    hp = hyperparams
    for name, ok, rule in (
        ("epochs", hp.epochs >= 1, ">= 1"),
        ("eta0", hp.eta0 > 0.0, "> 0"),
        ("power_t", hp.power_t >= 0.0, ">= 0"),
        ("l2", hp.l2 >= 0.0, ">= 0"),
        ("l2", hp.l2 == 0.0 or hp.eta0 * hp.l2 < 1.0, f"< 1 / eta0 (eta0={hp.eta0!r})"),
    ):
        if not ok:
            raise ClassifierError(f"{name} must be {rule}, got {getattr(hp, name)!r}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2:
        raise ClassifierError("training features must be a 2-D array")
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"{x.shape[0]} feature rows vs {y.shape[0]} labels"
        )
    if x.shape[0] < 2:
        raise ClassifierError("need at least two training samples")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ClassifierError("labels must be 0 or 1")
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
    # row i's nonzeros are cols[starts[i]:starts[i+1]], vals[...] alike
    rows, nz_cols = np.nonzero(x)
    cols = array("q", nz_cols.astype(np.int64).tobytes())
    vals = array("d", x[rows, nz_cols].tobytes())
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=starts[1:])
    starts = array("q", starts.tobytes())

    eta0, power_t, l2 = hp.eta0, hp.power_t, hp.l2
    exp = math.exp
    rng = np.random.default_rng(hp.seed)
    v = [0.0] * x.shape[1]
    scale = 1.0
    bias = 0.0
    t = 0
    for _ in range(hp.epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            lr = eta0 / t ** power_t
            lo, hi = starts[i], starts[i + 1]
            dot = 0.0
            for k in range(lo, hi):
                dot += v[cols[k]] * vals[k]
            margin = scale * dot + bias
            if margin >= 0:
                p = 1.0 / (1.0 + exp(-margin))
            else:
                e = exp(margin)
                p = e / (1.0 + e)
            grad = sample_weight[i] * (p - labels[i])
            scale *= 1.0 - lr * l2
            step = lr * grad / scale
            for k in range(lo, hi):
                v[cols[k]] -= step * vals[k]
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
    """Median wall-time of 200 single-vector predictions, in milliseconds."""
    rows = np.asarray(features, dtype=np.float64)
    timings = []
    for i in range(200):
        row = rows[i % len(rows)]
        start = time.perf_counter_ns()
        model.predict(row[None, :])
        timings.append(time.perf_counter_ns() - start)
    return float(np.median(timings)) / 1e6


# ---------------------------------------------------------------------------
# persistence


def save_model(model: LinearModel, path: str | Path) -> None:
    record = {
        "features": model.n_features,
        "weights": [float(w) for w in model.weights],
        "bias": model.bias,
        "loss": model.loss,
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
        loss=str(record.get("loss", "log")),
    )


def load_training_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a feature/label CSV (F binary feature columns + ``label``)."""
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
