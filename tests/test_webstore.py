import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abpipe import prf
from abpipe.model import ABTestSpec, Hypothesis
from abpipe.webstore import (
    DeploymentConflictError,
    NoActiveTestError,
    ScenarioConfig,
    UnknownMetricError,
    UnknownTestError,
    UnknownVariantError,
    WebStore,
    WebStoreError,
    generate_population,
    generate_training_data,
    load_scenario,
    save_scenario,
)

CATALOG = {
    "gui-a": "gui",
    "gui-b": "gui",
    "rev-a": "review",
    "rev-b": "review",
    "rec-a": "recommender",
    "rec-b": "recommender",
}


def make_test(name="T", metric="clicks", assignment=(0.5, 0.5), variants=("rev-a", "rev-b")):
    return ABTestSpec(
        name=name,
        exp_length=1_000_000,
        ab_assignment=assignment,
        hypothesis=Hypothesis(metric, "B_greater", 0.05),
        ab_metrics=(metric,),
        stat_test="welch_t",
        variant_a=variants[0],
        variant_b=variants[1],
    )


def make_store(**kw) -> WebStore:
    config = ScenarioConfig(population_size=kw.pop("population_size", 5_000), **kw)
    return WebStore(config, CATALOG)


# ---------------------------------------------------------------------------
# population


def test_purchaser_fraction_within_binomial_band():
    config = ScenarioConfig(seed=7)
    population = generate_population(config, 100_000)
    assert 0.039 <= population.latent.mean() <= 0.045


def one_shot_users(config, n, stream):
    """Reference draw: all feature noise in one (n, F) call."""
    rng = np.random.default_rng(prf.stream_key(config.seed, stream))
    latent = rng.random(n) < config.purchaser_prevalence
    flips = rng.random((n, config.n_features)) < config.feature_noise
    return (latent[:, None] ^ flips).astype(np.uint8), latent


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 100_000])
def test_block_draws_equal_one_shot_draw(n):
    config = ScenarioConfig(seed=7)
    population = generate_population(config, n)
    features, latent = one_shot_users(config, n, "population")
    assert population.features.dtype == np.uint8
    assert np.array_equal(population.features, features)
    assert np.array_equal(population.latent, latent)
    if n >= 2:
        train_x, train_y = generate_training_data(config, n)
        features, latent = one_shot_users(config, n, "training-data")
        assert np.array_equal(train_x, features)
        assert np.array_equal(train_y, latent)


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
def test_features_drawn_after_serving_equal_one_shot_draw(n):
    """The feature rows come from the population stream wherever the
    run stands when a split first reads them."""
    config = ScenarioConfig(seed=7, population_size=n)
    store = WebStore(config, CATALOG)
    store.deploy_ab_test(make_test(metric="purchases", variants=("rec-a", "rec-b")))
    store.serve_chunk("T", store.arrivals.next(500))
    features, latent = one_shot_users(config, n, "population")
    assert np.array_equal(store.population.features, features)
    assert np.array_equal(store.population.latent, latent)


def test_population_is_read_only():
    population = generate_population(ScenarioConfig(), 100)
    for column in (population.latent, population.features):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
    assert population.features is population.features  # drawn once


def test_store_rejects_a_population_of_another_scenario():
    config = ScenarioConfig(seed=3, population_size=500)
    WebStore(config, CATALOG, population=generate_population(config, 500))
    for population in (
        generate_population(ScenarioConfig(seed=4, population_size=500), 500),
        generate_population(config, 400),
    ):
        with pytest.raises(WebStoreError, match="must be the one"):
            WebStore(config, CATALOG, population=population)


def test_noiseless_features_determine_latent_class():
    config = ScenarioConfig(seed=2, feature_noise=0.0)
    population = generate_population(config, 500)
    assert np.array_equal(population.features[:, 0].astype(bool), population.latent)


def test_single_profile_reproducible():
    config = ScenarioConfig(seed=11)
    p1 = generate_population(config, 1)
    p2 = generate_population(config, 1)
    assert np.array_equal(p1.features[0], p2.features[0])
    assert p1.latent[0] == p2.latent[0]
    for metric in ("engagement", "clicks", "purchases"):
        for variant in ("A", "B"):
            assert np.array_equal(
                config.rate(metric, variant, p1.latent[[0]]),
                config.rate(metric, variant, p2.latent[[0]]),
            )


def test_profile_propensities_follow_latent_class():
    config = ScenarioConfig(seed=4)
    population = generate_population(config, 2_000)
    purchaser_id = int(np.flatnonzero(population.latent)[0])
    other_id = int(np.flatnonzero(~population.latent)[0])
    ids = np.asarray([purchaser_id, other_id])
    buyer, browser = config.rate("purchases", "B", population.latent[ids])
    assert (buyer, browser) == (0.45, 0.005)
    for variant in ("A", "B"):
        clicks = config.rate("clicks", variant, population.latent[ids])
        assert clicks[0] == clicks[1]


def test_scenario_file_round_trip(tmp_path):
    config = ScenarioConfig(seed=99, feature_noise=0.2)
    path = tmp_path / "scenario.json"
    save_scenario(config, path)
    assert load_scenario(path) == config


# ---------------------------------------------------------------------------
# deployments


def test_deploy_then_restore_returns_to_initial_state():
    store = make_store()
    test = make_test()
    store.deploy_ab_test(test)
    assert store.active_tests == ["T"]
    store.restore_initial("T")
    assert store.active_tests == []
    store.deploy_ab_test(test)  # component free again
    assert store.active_tests == ["T"]


def test_disjoint_components_coexist():
    store = make_store()
    store.deploy_ab_test(make_test("T1", variants=("rev-a", "rev-b")))
    store.deploy_ab_test(make_test("T2", metric="purchases", variants=("rec-a", "rec-b")))
    assert store.active_tests == ["T1", "T2"]


def test_same_component_conflicts():
    store = make_store()
    store.deploy_ab_test(make_test("T1"))
    with pytest.raises(DeploymentConflictError):
        store.deploy_ab_test(make_test("T2"))


def test_deploy_and_restore_are_idempotent():
    store = make_store()
    test = make_test()
    store.deploy_ab_test(test)
    store.deploy_ab_test(test)  # re-executed action is a no-op
    assert store.active_tests == ["T"]
    store.restore_initial("T")
    store.restore_initial("T")
    assert store.active_tests == []


def test_unknown_variant_rejected():
    store = make_store()
    with pytest.raises(UnknownVariantError):
        store.deploy_ab_test(make_test(variants=("ghost-a", "ghost-b")))


def test_unknown_metric_rejected():
    store = make_store()
    with pytest.raises(UnknownMetricError):
        store.deploy_ab_test(make_test(metric="sessions"))


def test_restore_unknown_test():
    with pytest.raises(UnknownTestError):
        make_store().restore_initial("nope")


# ---------------------------------------------------------------------------
# serving


def test_variant_share_tracks_assignment():
    store = make_store(population_size=100_000)
    store.deploy_ab_test(make_test())
    users = store.arrivals.next(100_000)
    out = store.serve_chunk("T", users)
    share_a = out["is_a"].mean()
    assert 0.49 <= share_a <= 0.51


def test_variant_assignment_is_sticky():
    store = make_store()
    store.deploy_ab_test(make_test())
    first = store.serve_chunk("T", np.asarray([42]))
    second = store.serve_chunk("T", np.asarray([42]))
    assert first["is_a"][0] == second["is_a"][0]
    # the assignment is per user, not per request or per chunk position
    mixed = store.serve_chunk("T", np.asarray([7, 42, 42, 99]))
    assert mixed["is_a"][1] == mixed["is_a"][2] == first["is_a"][0]


def test_review_variant_b_click_rate_converges():
    store = make_store(population_size=50_000)
    store.deploy_ab_test(make_test(assignment=(0.0, 1.0)))
    users = store.arrivals.next(100_000)
    out = store.serve_chunk("T", users)
    clicks_b = out["samples"]["clicks"][~out["is_a"]]
    assert clicks_b.shape[0] == 100_000
    # 3-sigma band around the configured 0.1617 at n = 100k
    assert abs(clicks_b.mean() - 0.1617) <= 3 * np.sqrt(0.1617 * (1 - 0.1617) / 100_000)


def test_probe_counts_and_stability():
    store = make_store()
    store.deploy_ab_test(make_test())
    assert store.probe("T") == 0
    store.serve_chunk("T", store.arrivals.next(1000))
    assert store.probe("T") == store.probe("T") == 1000


def test_conservation_requests_equal_samples():
    store = make_store()
    store.deploy_ab_test(make_test())
    out = store.serve_chunk("T", store.arrivals.next(2_500))
    assert out["is_a"].shape[0] == out["samples"]["clicks"].shape[0]
    assert out["samples"]["clicks"].shape[0] == store.probe("T") == 2_500


@pytest.mark.parametrize("users", [np.empty(0, dtype=np.int64), []], ids=["array", "list"])
def test_empty_block_serves_an_empty_sample_per_metric(users):
    store = make_store()
    store.deploy_ab_test(make_test())
    out = store.serve_chunk("T", users)
    assert out["is_a"].shape == (0,) and out["is_a"].dtype == bool
    assert set(out["samples"]) == {"clicks"}
    assert out["samples"]["clicks"].shape == (0,)
    assert store.probe("T") == 0


def test_empty_block_leaves_the_next_draws_unchanged():
    outs = []
    for empty_first in (False, True):
        store = make_store(seed=5)
        store.deploy_ab_test(make_test())
        if empty_first:
            store.serve_chunk("T", np.empty(0, dtype=np.int64))
        out = store.serve_chunk("T", store.arrivals.next(500))
        outs.append((out["is_a"], out["samples"]["clicks"], store.probe("T")))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])
    assert outs[0][2] == outs[1][2] == 500


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=0, max_value=3_000),
    cut=st.floats(min_value=0.0, max_value=1.0),
    share_a=st.sampled_from([0.04, 0.5, 0.96]),
)
@settings(max_examples=40, deadline=None)
def test_one_block_serves_what_a_prefix_and_its_remainder_serve(seed, n, cut, share_a):
    # the engine serves every look a queue reaches in one block; the draws
    # are counter-based, so the block must equal serving it look by look
    test = ABTestSpec(
        name="T",
        exp_length=1_000_000,
        ab_assignment=(share_a, 1.0 - share_a),
        hypothesis=Hypothesis("purchases", "B_greater", 0.05),
        ab_metrics=("purchases", "clicks", "engagement"),
        stat_test="welch_t",
        variant_a="rec-a",
        variant_b="rec-b",
    )
    split = int(cut * n)
    whole, parts = make_store(seed=seed), make_store(seed=seed)
    users = whole.arrivals.next(n)
    whole.deploy_ab_test(test)
    parts.deploy_ab_test(test)
    block = whole.serve_chunk("T", users)
    prefix = parts.serve_chunk("T", users[:split])
    assert parts.probe("T") == split
    rest = parts.serve_chunk("T", users[split:])
    assert parts.probe("T") == whole.probe("T") == n
    assert np.array_equal(block["is_a"], np.concatenate((prefix["is_a"], rest["is_a"])))
    assert set(block["samples"]) == set(test.ab_metrics)
    for metric, values in block["samples"].items():
        joined = np.concatenate((prefix["samples"][metric], rest["samples"][metric]))
        assert values.dtype == joined.dtype
        assert values.tobytes() == joined.tobytes()


def test_serving_requires_active_test():
    store = make_store()
    with pytest.raises(NoActiveTestError):
        store.serve_chunk("T", np.asarray([1]))
    with pytest.raises(NoActiveTestError):
        store.probe("T")


def test_identical_config_gives_identical_event_stream():
    outs = []
    for _ in range(2):
        store = make_store(seed=21)
        store.deploy_ab_test(make_test())
        users = store.arrivals.next(3_000)
        out = store.serve_chunk("T", users)
        outs.append((users, out["is_a"], out["samples"]["clicks"]))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])
    assert np.array_equal(outs[0][2], outs[1][2])


def test_arrival_pushback_preserves_order():
    store = make_store(seed=8)
    first = store.arrivals.next(10)
    store.arrivals.push_back(first[4:])
    again = store.arrivals.next(6)
    assert np.array_equal(first[4:], again)
