"""References of the split classifier's SGD fit.

``dense_sgd`` is the textbook form of the loop ``abpipe.classifier.train``
runs: one per-sample step over all features, with the L2 decay applied
to the whole weight vector. ``train`` computes the same steps with a
lazy weight scale over each row's nonzeros, so its weights agree with
these up to summation order (about 1e-14), not bitwise.

``scalar_sgd`` is ``train``'s own lazy-scale loop in its earlier form:
per-sample ``array('d')`` weights and labels, an int literal in the
sigmoid branch and ``lr`` applied twice. ``train`` must equal it bit for
bit. Hyperparameters are not validated here; pass legal ones.
"""

from __future__ import annotations

import math
from array import array

import numpy as np


def dense_sgd(x, y, hyperparams) -> tuple[np.ndarray, float]:
    """Weights and bias of the per-sample SGD fit, step by step."""
    hp = hyperparams
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.shape[0]
    n_pos = int(y.sum())
    # balanced class weights: n / (2 * class count)
    w_pos = n / (2.0 * n_pos)
    w_neg = n / (2.0 * (n - n_pos))
    sample_weight = np.where(y == 1.0, w_pos, w_neg)

    rng = np.random.default_rng(hp.seed)
    weights = np.zeros(x.shape[1], dtype=np.float64)
    bias = 0.0
    t = 0
    for _ in range(hp.epochs):
        order = rng.permutation(n)
        for i in order:
            t += 1
            lr = hp.eta0 / (t ** hp.power_t)
            xi = x[i]
            margin = float(xi @ weights) + bias
            p = 1.0 / (1.0 + np.exp(-margin)) if margin >= 0 else (
                np.exp(margin) / (1.0 + np.exp(margin))
            )
            grad = sample_weight[i] * (p - y[i])
            weights *= 1.0 - lr * hp.l2
            weights -= lr * grad * xi
            bias -= lr * grad
    return weights, float(bias)


def scalar_sgd(x, y, hyperparams) -> tuple[np.ndarray, float]:
    """Weights and bias of the lazy-scale loop, as ``train`` ran it with
    per-sample float arrays; each row lists its set columns in order."""
    hp = hyperparams
    x = np.asarray(x)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.shape[0]
    n_pos = int(y.sum())
    w_pos = n / (2.0 * n_pos)
    w_neg = n / (2.0 * (n - n_pos))
    rows = [tuple(np.flatnonzero(row).tolist()) for row in x]
    sample_weight = array("d", np.where(y == 1.0, w_pos, w_neg).tobytes())
    labels = array("d", y.tobytes())
    step_sizes = [hp.eta0 / t ** hp.power_t for t in range(1, n * hp.epochs + 1)]

    l2 = hp.l2
    exp = math.exp
    rng = np.random.default_rng(hp.seed)
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
    return weights, float(bias)
