"""Counter-based pseudo-random draws for the simulator.

Every stochastic decision in the web-store (variant assignment, metric
draws) is a pure function of (scenario seed, stream label, counter).
This is what makes the results of a split independent of the order in
which its sub-pipelines are drained: no draw depends on global RNG
state or on the interleaving of other streams.

The generator is splitmix64 applied to a keyed counter, computed in
place on one copy of the counters. Quality is more than adequate for
Bernoulli simulation; numpy's stateful generators are
still used where a plain seeded stream is fine (population generation,
arrival order).
"""

from __future__ import annotations

import hashlib

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0 ** -53)


def stream_key(seed: int, *labels) -> int:
    """Derive a 64-bit stream key from the seed and a label tuple.

    Labels are joined textually, so distinct (test, metric, purpose)
    tuples get independent streams.
    """
    text = ":".join([str(int(seed))] + [str(p) for p in labels])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def uniforms(key: int, counters) -> np.ndarray:
    """Map counters to floats in [0, 1) under the given stream key.

    The state ``key + (counter + 1) * golden`` is mixed in place on one
    fresh uint64 copy of ``counters``, so the caller's array is never
    written. uint64 array arithmetic wraps modulo 2**64 without a warning.
    """
    z = np.array(counters, dtype=np.uint64)
    shifted = np.empty_like(z)
    z *= _GOLDEN
    z += np.uint64((int(key) + int(_GOLDEN)) % 2**64)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    z >>= np.uint64(11)
    return z.astype(np.float64) * _INV_2_53
