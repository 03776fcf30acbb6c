"""Deterministic simulated web-store with deployable A/B variants.

The store plays the role of the "A/B-testing-enabled" managed system:
variants are deployed onto named components, each served block of
requests returns its variant assignments and metric samples, an active
test's request counter is exposed through a probe (the managing system
reads it once per served block, as the count the block starts from), and
every behavioral draw is a counter-based hash of (scenario seed, stream,
counter), so reruns, any order in which the sub-pipelines of a split are
drained, and any cut of a block into consecutive serves produce
identical numbers. The store keeps no statistics: the managing
system evaluates each test from the samples it was served.

Users are synthetic: a latent purchaser/non-purchaser class drawn at the
configured prevalence, binary feature vectors correlated with the class
through per-feature flip noise, and per-metric behavior probabilities
("engagement" and "clicks" are class-independent, "purchases" depend on
the latent class). Serving reads only the latent class, so a population
draws its feature rows, which only a population split reads, lazily.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from . import prf
from .classifier import DEFAULT_FEATURES
from .model import ABTestSpec

METRIC_ENGAGEMENT = "engagement"
METRIC_CLICKS = "clicks"
METRIC_PURCHASES = "purchases"


class WebStoreError(ValueError):
    pass


class UnknownVariantError(WebStoreError):
    pass


class UnknownTestError(WebStoreError):
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
    """Simulation parameters; the JSON scenario file mirrors these fields."""

    purchaser_prevalence: float = 0.042
    feature_noise: float = 0.10
    review_rates: dict = field(
        default_factory=lambda: {"A": 0.1470, "B": 0.1617}
    )
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

    def metric_known(self, metric: str) -> bool:
        return metric in (METRIC_ENGAGEMENT, METRIC_CLICKS, METRIC_PURCHASES)

    def rate(self, metric: str, variant: str, purchaser_mask: np.ndarray) -> np.ndarray:
        """Per-user behavior probability for a metric under a variant."""
        if metric == METRIC_ENGAGEMENT:
            return np.full(purchaser_mask.shape, float(self.gui_rates[variant]))
        if metric == METRIC_CLICKS:
            return np.full(purchaser_mask.shape, float(self.review_rates[variant]))
        if metric == METRIC_PURCHASES:
            return np.where(
                purchaser_mask,
                float(self.recommendation_rates["purchaser"][variant]),
                float(self.recommendation_rates["non_purchaser"][variant]),
            )
        raise UnknownMetricError(f"no behavior model for metric {metric!r}")


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
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(record, dict):
        raise WebStoreError("a scenario file must hold one JSON object")
    known = set(ScenarioConfig.__dataclass_fields__)
    unknown = set(record) - known
    if unknown:
        raise WebStoreError(f"unknown scenario fields: {sorted(unknown)}")
    defaults = ScenarioConfig()
    for name, value in record.items():
        template = getattr(defaults, name)
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

    ``latent`` is drawn at once. ``features`` is drawn on its first read
    from the same stream, right after ``latent`` as an eager draw would,
    so a run without a population split never pays for it. Both columns
    are read-only, so runs of one seed can share them.
    """

    def __init__(self, config: ScenarioConfig, latent: np.ndarray, rng):
        self.config = config
        self.latent = latent
        self._rng = rng  # positioned right after the latent draw
        self._features: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.latent.shape[0])

    @property
    def features(self) -> np.ndarray:
        if self._features is None:
            features = _draw_features(self.config, self.latent, self._rng)
            features.flags.writeable = False
            self._features, self._rng = features, None
        return self._features


_DRAW_BLOCK = 4096  # rows of feature noise drawn per call


def _draw_latent(config: ScenarioConfig, n: int, stream: str):
    """Latent classes of n users, and the stream positioned after them."""
    rng = np.random.default_rng(prf.stream_key(config.seed, stream))
    return rng.random(n) < config.purchaser_prevalence, rng


def _draw_features(config: ScenarioConfig, latent: np.ndarray, rng) -> np.ndarray:
    """Feature rows of ``latent``'s users, from the stream of its latent draw."""
    n = latent.shape[0]
    # Row blocks consume the stream in the same order as one (n, F) draw,
    # without its n*F float64 temporary.
    features = np.empty((n, config.n_features), dtype=np.uint8)
    for lo in range(0, n, _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, n)
        flips = rng.random((hi - lo, config.n_features)) < config.feature_noise
        np.not_equal(latent[lo:hi, None], flips, out=features[lo:hi])
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


def check_deployable(
    spec: ABTestSpec, catalog: dict[str, str], config: ScenarioConfig
) -> tuple[str, str]:
    """The components of ``spec``'s variants; raises if it cannot deploy."""
    for variant in (spec.variant_a, spec.variant_b):
        if variant not in catalog:
            raise UnknownVariantError(
                f"variant {variant!r} not in the variant repository catalog"
            )
    for metric in spec.ab_metrics:
        if not config.metric_known(metric):
            raise UnknownMetricError(
                f"test {spec.name!r} collects unknown metric {metric!r}"
            )
    return catalog[spec.variant_a], catalog[spec.variant_b]


# ---------------------------------------------------------------------------
# deployment & serving


class _ActiveTest:
    def __init__(self, spec: ABTestSpec, components: tuple[str, str], seed: int, epoch: int):
        self.spec = spec
        self.components = components
        self.requests = 0
        self.assign_key = prf.stream_key(seed, "assign", spec.name, epoch)
        self.draw_keys = {
            metric: prf.stream_key(seed, "draw", spec.name, metric, epoch)
            for metric in spec.ab_metrics
        }


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
        head, self._held = self._held[:n], self._held[n:]
        fresh = self._rng.integers(0, self._size, size=n - head.shape[0])
        return np.concatenate((head, fresh))

    def push_back(self, users: np.ndarray) -> None:
        self._held = np.concatenate((users, self._held))


class WebStore:
    """The managed system: deployments, routing, serving, probes."""

    def __init__(
        self,
        config: ScenarioConfig,
        catalog: dict[str, str] | None = None,
        population: Population | None = None,
    ):
        self.config = config
        self.catalog = dict(DEFAULT_CATALOG if catalog is None else catalog)
        if population is None:
            population = generate_population(config, config.population_size)
        elif population.config != config or population.size != config.population_size:
            raise WebStoreError(
                "a given population must be the one the store's scenario draws"
                f" (seed {config.seed}, {config.population_size} users)"
            )
        self.population = population
        self.arrivals = ArrivalStream(config, self.population.size)
        self._active: dict[str, _ActiveTest] = {}
        self._active_components: dict[str, str] = {}
        self._epochs: dict[str, int] = {}  # deployments so far, per test

    # -- deployment ---------------------------------------------------------

    def deploy_ab_test(self, spec: ABTestSpec) -> None:
        comp_a, comp_b = check_deployable(spec, self.catalog, self.config)
        if spec.name in self._active:
            return  # re-executing the same deployment action is a no-op
        for comp in {comp_a, comp_b}:
            holder = self._active_components.get(comp)
            if holder is not None:
                raise DeploymentConflictError(
                    f"component {comp!r} already held by {holder!r}"
                )
        epoch = self._epochs.get(spec.name, 0)
        self._epochs[spec.name] = epoch + 1
        record = _ActiveTest(spec, (comp_a, comp_b), self.config.seed, epoch)
        self._active[spec.name] = record
        for comp in {comp_a, comp_b}:
            self._active_components[comp] = spec.name

    def restore_initial(self, test_name: str) -> None:
        record = self._active.pop(test_name, None)
        if record is None:
            if test_name in self._epochs:
                return  # already restored; idempotent
            raise UnknownTestError(f"test {test_name!r} was never deployed")
        for comp in set(record.components):
            self._active_components.pop(comp, None)

    @property
    def active_tests(self) -> list[str]:
        return sorted(self._active)

    # -- serving ------------------------------------------------------------

    def serve_chunk(self, test_name: str, users: np.ndarray) -> dict:
        """Serve a block of requests to the active test.

        Variant assignment is a sticky hash of (seed, test, user); each
        metric sample is one Bernoulli draw from the user's propensity
        under the assigned variant. Returns the variant mask and samples.
        """
        record = self._active.get(test_name)
        if record is None:
            raise NoActiveTestError(f"test {test_name!r} is not active")
        uids = np.asarray(users, dtype=np.int64)
        n = uids.shape[0]
        frac_a = record.spec.ab_assignment[0]
        is_a = prf.uniforms(record.assign_key, uids) < frac_a
        purchaser = self.population.latent[uids]
        indices = record.requests + np.arange(n, dtype=np.uint64)
        samples: dict[str, np.ndarray] = {}
        for metric in record.spec.ab_metrics:
            p = np.where(
                is_a,
                self.config.rate(metric, "A", purchaser),
                self.config.rate(metric, "B", purchaser),
            )
            draws = prf.uniforms(record.draw_keys[metric], indices)
            samples[metric] = (draws < p).astype(np.float64)
        record.requests += n
        return {"is_a": is_a, "samples": samples}

    def probe(self, test_name: str) -> int:
        """Count of requests the active test has been served."""
        record = self._active.get(test_name)
        if record is None:
            raise NoActiveTestError(f"test {test_name!r} is not active")
        return record.requests
