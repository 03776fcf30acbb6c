import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abpipe import prf, webstore
from abpipe.model import ABTestSpec, Hypothesis
from abpipe.webstore import (
    DeploymentConflictError,
    NoActiveTestError,
    ScenarioConfig,
    UnknownMetricError,
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


def frozen_draw_features(config, latent, rng):
    """The feature draw with a fresh (rows, F) block of uniforms per 4,096 rows."""
    n = latent.shape[0]
    features = np.empty((n, config.n_features), dtype=np.uint8)
    for lo in range(0, n, 4096):
        hi = min(lo + 4096, n)
        flips = rng.random((hi - lo, config.n_features)) < config.feature_noise
        np.not_equal(latent[lo:hi, None], flips, out=features[lo:hi])
    return features


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 100_000])
def test_feature_draw_into_reused_blocks_is_the_fresh_block_draw(n):
    config = ScenarioConfig(seed=13, feature_noise=0.3)
    latent, rng = webstore._draw_latent(config, n, "population")
    _, reference = webstore._draw_latent(config, n, "population")
    features = webstore._draw_features(config, latent, rng)
    assert features.dtype == np.uint8
    assert np.array_equal(features, frozen_draw_features(config, latent, reference))
    assert rng.random(5).tolist() == reference.random(5).tolist()


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 10_000])
def test_feature_blocks_replay_the_fresh_block_draw_for_every_reader(n):
    config = ScenarioConfig(seed=13, feature_noise=0.3)
    latent, reference = webstore._draw_latent(config, n, "population")
    expected = frozen_draw_features(config, latent, reference)
    population = generate_population(config, n)

    def streamed():
        blocks = []
        for block in population.feature_blocks():  # what routing hands to predict
            assert block.dtype == np.float64 and block.flags.c_contiguous
            blocks.append(block.copy())  # the next block overwrites this one
        assert [b.shape[0] for b in blocks[:-1]] == [webstore.DRAW_BLOCK] * (len(blocks) - 1)
        return np.concatenate(blocks)

    assert np.array_equal(streamed(), expected)
    assert np.array_equal(streamed(), expected)  # a second reader replays the rows
    assert np.array_equal(population.features, expected)
    assert np.array_equal(streamed(), expected)  # and so does one after the matrix


@pytest.mark.parametrize("n", [1, 4095, 4097, 16_384, 16_385, 100_000])
def test_block_latent_draw_is_one_draw_and_leaves_the_stream_where_it_would(n):
    config = ScenarioConfig(seed=11, purchaser_prevalence=0.3)
    latent, rng = webstore._draw_latent(config, n, "population")
    reference = np.random.default_rng(prf.stream_key(config.seed, "population"))
    assert latent.dtype == bool
    assert np.array_equal(latent, reference.random(n) < config.purchaser_prevalence)
    assert rng.random(5).tolist() == reference.random(5).tolist()


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
        table = webstore._success_table(config, metric)
        for is_a in (0, 1):
            assert table[2 * is_a + p1.latent[0]] == table[2 * is_a + p2.latent[0]]


def test_profile_propensities_follow_latent_class():
    config = ScenarioConfig(seed=4)
    population = generate_population(config, 2_000)
    purchaser_id = int(np.flatnonzero(population.latent)[0])
    other_id = int(np.flatnonzero(~population.latent)[0])
    ids = np.asarray([purchaser_id, other_id])
    # the success table is indexed 2 * is_a + purchaser, so variant B's is 0 + class
    purchaser = population.latent[ids].astype(int)
    buyer, browser = webstore._success_table(config, "purchases")[purchaser]
    assert (buyer, browser) == (0.45, 0.005)
    clicks = webstore._success_table(config, "clicks")
    for is_a in (0, 1):
        assert clicks[2 * is_a + purchaser[0]] == clicks[2 * is_a + purchaser[1]]


def test_scenario_file_round_trip(tmp_path):
    config = ScenarioConfig(seed=99, feature_noise=0.2)
    path = tmp_path / "scenario.json"
    save_scenario(config, path)
    assert load_scenario(path) == config


@pytest.mark.parametrize(
    "field, value", [("population_size", 0), ("feature_noise", -0.2), ("seed", 1.5)]
)
def test_a_scenario_config_checks_its_fields_when_built(tmp_path, field, value):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({field: value}))
    with pytest.raises(WebStoreError) as from_file:
        load_scenario(path)
    for build in (ScenarioConfig, lambda **kw: replace(ScenarioConfig(), **kw)):
        with pytest.raises(WebStoreError) as built:
            build(**{field: value})
        assert str(built.value) == str(from_file.value)


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


def test_redeploy_and_repeated_restore_raise():
    store, reference = make_store(), make_store()
    test = make_test()
    store.deploy_ab_test(test)
    reference.deploy_ab_test(test)
    # an active name is never replaced: not by the same spec, and not by a
    # spec of that name on other components (which no component check sees)
    other = make_test(metric="engagement", variants=("gui-a", "gui-b"))
    for spec in (test, other):
        with pytest.raises(DeploymentConflictError, match="'T' is already deployed"):
            store.deploy_ab_test(spec)
    assert store.active_tests == ["T"]
    users = store.arrivals.next(1000)
    reference.arrivals.next(1000)
    served, expected = store.serve_chunk("T", users), reference.serve_chunk("T", users)
    assert all(np.array_equal(a, b) for a, b in zip(served, expected))
    store.restore_initial("T")
    with pytest.raises(NoActiveTestError):
        store.restore_initial("T")
    assert store.active_tests == []
    store.deploy_ab_test(other)  # a restored name deploys again
    assert store.active_tests == ["T"]


def test_unknown_variant_rejected():
    store = make_store()
    with pytest.raises(UnknownVariantError):
        store.deploy_ab_test(make_test(variants=("ghost-a", "ghost-b")))


def test_unknown_metric_rejected():
    store = make_store()
    with pytest.raises(UnknownMetricError):
        store.deploy_ab_test(make_test(metric="sessions"))


def test_an_unknown_hypothesis_metric_fails_at_deploy_and_changes_nothing():
    # every collected metric is known, so only the success lookup can refuse it
    test = replace(make_test(), hypothesis=Hypothesis("sessions", "B_greater", 0.05))
    store, reference = make_store(seed=3), make_store(seed=3)
    with pytest.raises(UnknownMetricError, match="'sessions'"):
        store.deploy_ab_test(test)
    assert store.active_tests == []
    # the name deploys afterwards on the streams a fresh store uses
    store.deploy_ab_test(make_test())
    reference.deploy_ab_test(make_test())
    users = store.arrivals.next(2_000)
    served, expected = store.serve_chunk("T", users), reference.serve_chunk("T", users)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(served, expected))


def test_restore_unknown_test():
    with pytest.raises(NoActiveTestError):
        make_store().restore_initial("nope")


# ---------------------------------------------------------------------------
# serving


def test_variant_share_tracks_assignment():
    store = make_store(population_size=100_000)
    store.deploy_ab_test(make_test())
    users = store.arrivals.next(100_000)
    is_a, _ = store.serve_chunk("T", users)
    share_a = is_a.mean()
    assert 0.49 <= share_a <= 0.51


def test_variant_assignment_is_sticky():
    store = make_store()
    store.deploy_ab_test(make_test())
    first, _ = store.serve_chunk("T", np.asarray([42]))
    second, _ = store.serve_chunk("T", np.asarray([42]))
    assert first[0] == second[0]
    # the assignment is per user, not per request or per chunk position
    mixed, _ = store.serve_chunk("T", np.asarray([7, 42, 42, 99]))
    assert mixed[1] == mixed[2] == first[0]


def test_review_variant_b_click_rate_converges():
    store = make_store(population_size=50_000)
    store.deploy_ab_test(make_test(assignment=(0.0, 1.0)))
    users = store.arrivals.next(100_000)
    is_a, clicks = store.serve_chunk("T", users)
    clicks_b = clicks[~is_a]
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
    is_a, clicks = store.serve_chunk("T", store.arrivals.next(2_500))
    assert is_a.shape[0] == clicks.shape[0]
    assert clicks.shape[0] == store.probe("T") == 2_500


@pytest.mark.parametrize("users", [np.empty(0, dtype=np.int64), []], ids=["array", "list"])
def test_empty_block_serves_an_empty_sample_per_metric(users):
    store = make_store()
    store.deploy_ab_test(make_test())
    is_a, samples = store.serve_chunk("T", users)
    assert is_a.shape == (0,) and is_a.dtype == bool
    assert samples.shape == (0,) and samples.dtype == bool
    assert store.probe("T") == 0


def test_empty_block_leaves_the_next_draws_unchanged():
    outs = []
    for empty_first in (False, True):
        store = make_store(seed=5)
        store.deploy_ab_test(make_test())
        if empty_first:
            store.serve_chunk("T", np.empty(0, dtype=np.int64))
        is_a, clicks = store.serve_chunk("T", store.arrivals.next(500))
        outs.append((is_a, clicks, store.probe("T")))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])
    assert outs[0][2] == outs[1][2] == 500


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=0, max_value=3_000),
    cut=st.floats(min_value=0.0, max_value=1.0),
    share_a=st.sampled_from([0.04, 0.5, 0.96]),
    metric=st.sampled_from(["purchases", "clicks", "engagement"]),
)
@settings(max_examples=40, deadline=None)
def test_one_block_serves_what_a_prefix_and_its_remainder_serve(
    seed, n, cut, share_a, metric
):
    # the engine serves every look a queue reaches in one block; the draws
    # are counter-based, so the block must equal serving it look by look,
    # whichever behavior model the hypothesis metric follows
    test = ABTestSpec(
        name="T",
        exp_length=1_000_000,
        ab_assignment=(share_a, 1.0 - share_a),
        hypothesis=Hypothesis(metric, "B_greater", 0.05),
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
    for served, head, tail in zip(block, prefix, rest):
        joined = np.concatenate((head, tail))
        assert served.dtype == joined.dtype
        assert served.tobytes() == joined.tobytes()


# eight distinct rates, so a swapped variant or class index changes the samples
DISTINCT_RATES = dict(
    purchaser_prevalence=0.3,
    gui_rates={"A": 0.31, "B": 0.47},
    review_rates={"A": 0.13, "B": 0.62},
    recommendation_rates={
        "purchaser": {"A": 0.71, "B": 0.83},
        "non_purchaser": {"A": 0.05, "B": 0.22},
    },
)


def frozen_rate(config, metric, variant, purchaser):
    """Reference per-user probability: a rate per variant, per latent class for purchases."""
    if metric == "engagement":
        return np.full(purchaser.shape, float(config.gui_rates[variant]))
    if metric == "clicks":
        return np.full(purchaser.shape, float(config.review_rates[variant]))
    return np.where(
        purchaser,
        float(config.recommendation_rates["purchaser"][variant]),
        float(config.recommendation_rates["non_purchaser"][variant]),
    )


@pytest.mark.parametrize("metric", ["engagement", "clicks", "purchases"])
def test_served_samples_equal_the_per_user_rate_formula(metric):
    store = make_store(seed=13, **DISTINCT_RATES)
    config = store.config
    test = replace(make_test(metric=metric, variants=("rec-a", "rec-b")), ab_assignment=(0.4, 0.6))
    store.deploy_ab_test(test)
    assign = prf.stream_key(config.seed, "assign", "T", 0)
    draw = prf.stream_key(config.seed, "draw", "T", metric, 0)
    table = webstore._success_table(config, metric)
    expected_requests = 0
    for n in (3_000, 1, 4_096):
        users = store.arrivals.next(n)
        is_a, samples = store.serve_chunk("T", users)
        purchaser = store.population.latent[users]
        expected_a = prf.uniforms(assign, users) < 0.4
        p = np.where(
            expected_a,
            frozen_rate(config, metric, "A", purchaser),
            frozen_rate(config, metric, "B", purchaser),
        )
        counters = expected_requests + np.arange(n, dtype=np.uint64)
        assert is_a.tobytes() == expected_a.tobytes()
        assert samples.tobytes() == (prf.uniforms(draw, counters) < p).tobytes()
        assert table[2 * is_a + purchaser].tobytes() == p.tobytes()
        expected_requests += n
    # every (variant, class) cell was served
    cells = np.unique(2 * is_a + purchaser)
    assert cells.tolist() == [0, 1, 2, 3]


def test_a_block_draws_only_the_hypothesis_metric(monkeypatch):
    # one pass for the assignment and one for the metric a look reads,
    # however many metrics the test collects
    test = replace(make_test(metric="clicks"), ab_metrics=("clicks", "engagement", "purchases"))
    store = make_store()
    store.deploy_ab_test(test)
    calls = []
    uniforms = prf.uniforms

    def counting(key, counters):
        calls.append(key)
        return uniforms(key, counters)

    monkeypatch.setattr(prf, "uniforms", counting)
    store.serve_chunk("T", store.arrivals.next(1000))
    assert len(calls) == 2


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
        is_a, clicks = store.serve_chunk("T", users)
        outs.append((users, is_a, clicks))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])
    assert np.array_equal(outs[0][2], outs[1][2])


def test_arrival_pushback_preserves_order():
    store = make_store(seed=8)
    reference = np.random.default_rng(prf.stream_key(8, "arrivals"))
    first = store.arrivals.next(10)  # nothing held: the fresh draw itself
    expected = reference.integers(0, store.population.size, 10)
    assert first.dtype == np.int64
    assert np.array_equal(first, expected)
    store.arrivals.push_back(first[4:])
    again = store.arrivals.next(6)
    assert np.array_equal(first[4:], again)
    store.arrivals.push_back(again[2:])
    mixed = store.arrivals.next(7)
    expected = reference.integers(0, store.population.size, 3)
    assert np.array_equal(mixed, np.concatenate((again[2:], expected)))
