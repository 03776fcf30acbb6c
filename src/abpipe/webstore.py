"""Deterministic simulated web-store with deployable A/B variants.

The store plays the role of the "A/B-testing-enabled" managed system:
variants are deployed onto named components (every metric a test
collects must have a behavior model), each served block of requests
returns its variant assignments and its 0/1 samples, both as bool
arrays, of the one metric the managing system reads, the test's
hypothesis metric, an active test's request counter is exposed through
a probe (the managing system reads it once per served block, as the
count the block starts from), and every
behavioral draw is a counter-based hash of (scenario seed, stream,
counter), so reruns, any order in which the sub-pipelines of a split are
drained, and any cut of a block into consecutive serves produce
identical numbers. The store keeps no statistics: the managing
system evaluates each test from the samples it was served.

Users are synthetic: a latent purchaser/non-purchaser class drawn at the
configured prevalence, binary feature vectors correlated with the class
through per-feature flip noise, and per-metric behavior probabilities
("engagement" and "clicks" are class-independent, "purchases" depend on
the latent class). Serving reads only the latent class, so a population
draws its feature rows, which only a population split reads, block by
block as the split routes its users.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
import numpy as np

from . import prf
from .classifier import DEFAULT_FEATURES
from .model import ABTestSpec

# each metric with a behavior model, and the scenario field of its rates
RATE_FIELDS = {
    "engagement": "gui_rates",
    "clicks": "review_rates",
    "purchases": "recommendation_rates",  # per latent class
}
METRICS = tuple(RATE_FIELDS)


class WebStoreError(ValueError):
    pass


class UnknownVariantError(WebStoreError):
    pass


class UnknownMetricError(WebStoreError):
    pass


class DeploymentConflictError(WebStoreError):
    pass


class NoActiveTestError(WebStoreError):
    pass


# ---------------------------------------------------------------------------
# scenario configuration


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulation parameters; the JSON scenario file mirrors these fields.

    A config checks itself when built, by ``replace`` too: each field must
    have its default's type and shape, and lie in its range.
    """

    purchaser_prevalence: float = 0.042
    feature_noise: float = 0.10
    review_rates: dict = field(default_factory=lambda: {"A": 0.1470, "B": 0.1617})
    recommendation_rates: dict = field(
        default_factory=lambda: {
            "purchaser": {"A": 0.30, "B": 0.45},
            "non_purchaser": {"A": 0.005, "B": 0.005},
        }
    )
    gui_rates: dict = field(default_factory=lambda: {"A": 0.50, "B": 0.56})
    seed: int = 1
    population_size: int = 100_000
    train_samples: int = 20_000
    n_features: int = DEFAULT_FEATURES

    def __post_init__(self) -> None:
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            template = f.default_factory() if f.default is MISSING else f.default
            if not _has_shape(value, template):
                raise WebStoreError(
                    f"scenario field {name!r} must be {_shape(template)}, got {value!r}"
                )
            if name in _PROBABILITIES and not all(0 <= n <= 1 for n in _numbers(value)):
                raise WebStoreError(
                    f"scenario field {name!r} must hold probabilities in [0, 1],"
                    f" got {value!r}"
                )
            minimum = _MINIMUMS.get(name)
            if minimum is not None and value < minimum:
                raise WebStoreError(
                    f"scenario field {name!r} must be >= {minimum}, got {value!r}"
                )


def _shape(template) -> str:
    if isinstance(template, dict):
        return "{" + ", ".join(f"{k!r}: {_shape(t)}" for k, t in template.items()) + "}"
    return "an integer" if isinstance(template, int) else "a finite number"


def _has_shape(value, template) -> bool:
    """Whether ``value`` has the type and keys of the default ``template``."""
    if isinstance(template, dict):
        return (
            isinstance(value, dict)
            and set(value) == set(template)
            and all(_has_shape(value[k], t) for k, t in template.items())
        )
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) if isinstance(template, int) else math.isfinite(value)


# fields whose every number is a probability, and integer fields' minimums
_PROBABILITIES = (
    "purchaser_prevalence",
    "feature_noise",
    "review_rates",
    "recommendation_rates",
    "gui_rates",
)
_MINIMUMS = {"population_size": 1, "train_samples": 2, "n_features": 1}


def _numbers(value) -> list:
    if isinstance(value, dict):
        return [n for v in value.values() for n in _numbers(v)]
    return [value]


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read a scenario file: one JSON object of known fields, which the
    ``ScenarioConfig`` it builds checks."""
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(record, dict):
        raise WebStoreError("a scenario file must hold one JSON object")
    unknown = set(record) - set(ScenarioConfig.__dataclass_fields__)
    if unknown:
        raise WebStoreError(f"unknown scenario fields: {sorted(unknown)}")
    return ScenarioConfig(**record)


def save_scenario(config: ScenarioConfig, path: str | Path) -> None:
    record = {
        name: getattr(config, name)
        for name in ScenarioConfig.__dataclass_fields__
    }
    Path(path).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# population


class Population:
    """Column-oriented store of generated user profiles.

    ``latent`` is drawn at once. Each reader of the feature rows replays
    them from a copy of the stream right after ``latent``, as an eager draw
    would: ``feature_blocks`` block by block, ``features`` as one matrix on
    its first read. A run without a population split never draws them.
    Both columns are read-only.
    """

    def __init__(self, config: ScenarioConfig, latent: np.ndarray, rng):
        self.config = config
        self.latent = latent
        self._rng = rng  # positioned right after the latent draw; never drawn from
        self._features: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.latent.shape[0])

    def feature_blocks(self):
        """The feature rows as float64 blocks of DRAW_BLOCK rows, drawn into
        one reused buffer: a block is overwritten by the next."""
        return _feature_blocks(self.config, self.latent, copy.deepcopy(self._rng))

    @property
    def features(self) -> np.ndarray:
        if self._features is None:
            self._features = _draw_features(self.config, self.latent, copy.deepcopy(self._rng))
            self._features.flags.writeable = False
        return self._features


DRAW_BLOCK = 4096  # rows of feature noise drawn, and predicted when routing, per call
_LATENT_BLOCK = 16_384  # latent uniforms drawn per call


def _draw_latent(config: ScenarioConfig, n: int, stream: str):
    """Latent classes of n users, and the stream positioned after them."""
    rng = np.random.default_rng(prf.stream_key(config.seed, stream))
    # Each double takes one generator output, so blocks draw what one
    # rng.random(n) would, without its n float64 temporary.
    latent = np.empty(n, dtype=bool)
    uniform = np.empty(min(n, _LATENT_BLOCK))
    for lo in range(0, n, _LATENT_BLOCK):
        block = uniform[: min(n - lo, _LATENT_BLOCK)]
        rng.random(out=block)
        np.less(block, config.purchaser_prevalence, out=latent[lo : lo + block.size])
    return latent, rng


def _feature_blocks(config: ScenarioConfig, latent: np.ndarray, rng):
    """Feature rows of ``latent``'s users, from the stream of its latent draw,
    as float64 blocks of DRAW_BLOCK rows in one reused buffer: the order of
    one (n, F) draw, without its n*F float64 temporary."""
    n = latent.shape[0]
    buffer = np.empty((min(n, DRAW_BLOCK), config.n_features))
    flips = np.empty(buffer.shape, dtype=bool)
    for lo in range(0, n, DRAW_BLOCK):
        hi = min(lo + DRAW_BLOCK, n)
        block = buffer[: hi - lo]
        rng.random(out=block)
        np.less(block, config.feature_noise, out=flips[: hi - lo])
        np.not_equal(latent[lo:hi, None], flips[: hi - lo], out=block)
        yield block


def _draw_features(config: ScenarioConfig, latent: np.ndarray, rng) -> np.ndarray:
    """Feature rows of ``latent``'s users as one uint8 matrix of its blocks."""
    n = latent.shape[0]
    features = np.empty((n, config.n_features), dtype=np.uint8)
    for lo, block in zip(range(0, n, DRAW_BLOCK), _feature_blocks(config, latent, rng)):
        features[lo : lo + block.shape[0]] = block
    return features


def generate_population(config: ScenarioConfig, n: int) -> Population:
    """Draw n user profiles; deterministic for a given scenario seed."""
    if n < 1:
        raise WebStoreError(f"population size must be >= 1, got {n}")
    latent, rng = _draw_latent(config, n, "population")
    latent.flags.writeable = False
    return Population(config, latent, rng)


def generate_training_data(config: ScenarioConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Labeled (features, purchase label) rows for classifier training.

    Drawn from the same generative process as the population but on an
    independent stream, standing in for the held-out labeled history.
    """
    if n < 2:
        raise WebStoreError(f"training data needs n >= 2, got {n}")
    latent, rng = _draw_latent(config, n, "training-data")
    return _draw_features(config, latent, rng), latent.astype(np.int64)


# ---------------------------------------------------------------------------
# variant catalog

DEFAULT_CATALOG = {
    "webstore-gui-v1": "webstore-gui",
    "webstore-gui-v2": "webstore-gui",
    "checkout-review-v1": "checkout-review",
    "checkout-review-v2": "checkout-review",
    "recommender-v1": "recommendation-engine",
    "recommender-v2": "recommendation-engine",
}


def check_deployable(spec: ABTestSpec, catalog: dict[str, str]) -> tuple[str, str]:
    """The components of ``spec``'s variants; raises if it cannot deploy."""
    for variant in (spec.variant_a, spec.variant_b):
        if variant not in catalog:
            raise UnknownVariantError(
                f"variant {variant!r} not in the variant repository catalog"
            )
    for metric in spec.ab_metrics:
        if metric not in METRICS:
            raise UnknownMetricError(
                f"test {spec.name!r} collects unknown metric {metric!r}"
            )
    return catalog[spec.variant_a], catalog[spec.variant_b]


# ---------------------------------------------------------------------------
# deployment & serving


def _success_table(config: ScenarioConfig, metric: str) -> np.ndarray:
    """``metric``'s success probability at ``2 * is_a + purchaser``: B's, then A's."""
    if metric not in RATE_FIELDS:
        raise UnknownMetricError(f"no behavior model for metric {metric!r}")
    rates = getattr(config, RATE_FIELDS[metric])
    # a class-independent field holds one {variant: rate} for both classes
    classes = (rates.get("non_purchaser", rates), rates.get("purchaser", rates))
    return np.array([float(rate[variant]) for variant in "BA" for rate in classes])


class _ActiveTest:
    def __init__(self, spec: ABTestSpec, components: tuple[str, str], config: ScenarioConfig):
        self.spec = spec
        self.components = components
        self.requests = 0
        metric = spec.hypothesis.metric
        self.success = _success_table(config, metric)
        # the trailing 0 is part of each stream's label: without it every draw changes
        self.assign_key = prf.stream_key(config.seed, "assign", spec.name, 0)
        self.draw_key = prf.stream_key(config.seed, "draw", spec.name, metric, 0)


class ArrivalStream:
    """I.i.d. uniform arrivals over the population, with push-back.

    Push-back lets a consumer return arrivals it drew but did not serve
    (e.g. the tail of a chunk after a split completed), keeping the
    consumed prefix identical across chunk sizes. Invariant: ``_held``
    holds the pushed-back users in stream order, and every one of them
    comes out of ``next`` before any fresh draw.
    """

    def __init__(self, config: ScenarioConfig, population_size: int):
        self._rng = np.random.default_rng(prf.stream_key(config.seed, "arrivals"))
        self._size = population_size
        self._held = np.empty(0, dtype=np.int64)

    def next(self, n: int) -> np.ndarray:
        if not self._held.shape[0]:
            return self._rng.integers(0, self._size, size=n)
        head, self._held = self._held[:n], self._held[n:]
        fresh = self._rng.integers(0, self._size, size=n - head.shape[0])
        return np.concatenate((head, fresh))

    def push_back(self, users: np.ndarray) -> None:
        self._held = np.concatenate((users, self._held))


class WebStore:
    """The managed system: deployments, routing, serving, probes."""

    def __init__(self, config: ScenarioConfig, catalog: dict[str, str] | None = None):
        self.config = config
        self.catalog = dict(DEFAULT_CATALOG if catalog is None else catalog)
        self.population = generate_population(config, config.population_size)
        self.arrivals = ArrivalStream(config, self.population.size)
        self._active: dict[str, _ActiveTest] = {}  # the deployed tests

    # -- deployment ---------------------------------------------------------

    def deploy_ab_test(self, spec: ABTestSpec) -> None:
        components = check_deployable(spec, self.catalog)
        if spec.name in self._active:
            raise DeploymentConflictError(f"test {spec.name!r} is already deployed")
        for record in self._active.values():
            for comp in components:
                if comp in record.components:
                    raise DeploymentConflictError(
                        f"component {comp!r} already held by {record.spec.name!r}"
                    )
        self._active[spec.name] = _ActiveTest(spec, components, self.config)

    def restore_initial(self, test_name: str) -> None:
        if self._active.pop(test_name, None) is None:
            raise NoActiveTestError(f"test {test_name!r} is not active")

    @property
    def active_tests(self) -> list[str]:
        return sorted(self._active)

    # -- serving ------------------------------------------------------------

    def serve_chunk(self, test_name: str, users: np.ndarray) -> tuple:
        """Serve a block of requests to the active test.

        Variant assignment is a sticky hash of (seed, test, user); each
        sample is one Bernoulli draw from the user's propensity for the
        test's hypothesis metric under the assigned variant. Returns the
        variant-A mask and the samples, both bool, one entry per request.
        """
        record = self._record(test_name)
        uids = np.asarray(users, dtype=np.int64)
        is_a = prf.uniforms(record.assign_key, uids) < record.spec.ab_assignment[0]
        p = record.success.take(2 * is_a + self.population.latent[uids])
        indices = record.requests + np.arange(uids.shape[0], dtype=np.uint64)
        samples = prf.uniforms(record.draw_key, indices) < p
        record.requests += uids.shape[0]
        return is_a, samples

    def probe(self, test_name: str) -> int:
        """Count of requests the active test has been served."""
        return self._record(test_name).requests

    def _record(self, test_name: str) -> _ActiveTest:
        record = self._active.get(test_name)
        if record is None:
            raise NoActiveTestError(f"test {test_name!r} is not active")
        return record
