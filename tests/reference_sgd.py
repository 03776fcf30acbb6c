"""Dense reference of the split classifier's SGD fit.

The textbook form of the loop ``abpipe.classifier.train`` runs: one
per-sample step over all features, with the L2 decay applied to the
whole weight vector. ``train`` computes the same steps with a lazy
weight scale over each row's nonzeros, so its weights agree with these
up to summation order (about 1e-14), not bitwise. Hyperparameters are
not validated here; pass legal ones.
"""

from __future__ import annotations

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
