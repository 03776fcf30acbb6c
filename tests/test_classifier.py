import hashlib
import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abpipe import classifier as clf
from abpipe.model import ClassCondition, PopulationSplitSpec, SplitComponent, SubPipeline
from abpipe.webstore import ScenarioConfig, generate_population, generate_training_data
from conftest import traced_peak
from reference_interpreter import route_class
from reference_sgd import dense_sgd, scalar_sgd


def toy_separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    x = np.zeros((n, 2))
    x[:, 0] = y  # first feature equals the label
    x[:, 1] = rng.integers(0, 2, n)
    return x.astype(float), y.astype(float)


def test_linearly_separable_reaches_full_accuracy():
    x, y = toy_separable()
    model = clf.train(x, y, clf.Hyperparams(seed=1))
    assert (model.predict(x) == y).mean() == 1.0


@pytest.mark.parametrize(
    "field, value",
    [
        ("epochs", 0),
        ("epochs", -3),
        ("eta0", 0.0),
        ("eta0", -1.0),
        ("power_t", -0.5),
        ("l2", -5.0),
        # eta0 * l2 >= 1 (default eta0 0.5): the first L2 step would zero
        # the weights or flip their sign
        ("l2", 2.0),
        ("l2", 5.0),
        ("l2", float("inf")),
    ],
)
def test_degenerate_hyperparameters_rejected(field, value):
    """The schedule is fixed: no fit can be given one, legal or not."""
    with pytest.raises(TypeError, match=field):
        clf.Hyperparams(**{field: value})


@pytest.mark.parametrize("seed", [-1, -3, -(2**40)])
def test_negative_seed_rejected(seed):
    x, y = toy_separable()
    with pytest.raises(clf.ClassifierError, match=f"^seed must be >= 0, got {seed}$"):
        clf.train(x, y, clf.Hyperparams(seed=seed))


def test_single_class_rejected():
    x = np.ones((10, 3))
    with pytest.raises(clf.SingleClassError):
        clf.train(x, np.ones(10))


def test_no_feature_columns_rejected():
    # a CSV whose only column is the label loads as n rows of 0 features
    with pytest.raises(clf.ClassifierError, match="at least one column$"):
        clf.train(np.zeros((4, 0)), np.array([0, 1, 0, 1]))


def test_dimension_mismatch():
    x, y = toy_separable()
    model = clf.train(x, y)
    with pytest.raises(clf.DimensionMismatchError):
        model.predict(np.zeros(5)[None, :])
    with pytest.raises(clf.DimensionMismatchError):
        clf.train(x, y[:-5])


def test_training_is_bitwise_deterministic():
    x, y = toy_separable(seed=4)
    m1 = clf.train(x, y, clf.Hyperparams(seed=9))
    m2 = clf.train(x, y, clf.Hyperparams(seed=9))
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias
    m3 = clf.train(x, y, clf.Hyperparams(seed=10))
    assert not np.array_equal(m1.weights, m3.weights)


@st.composite
def sgd_problems(draw):
    """Small fits: 0/1 rows and labels of any numeric dtype, a seed and a
    legal schedule, which the test patches into ``Hyperparams`` for the fit.

    The heavy-L2 branch (eta0 * l2 in [0.5, 0.999)) shrinks the weight
    scale below 1e-9 within a few dozen steps, so the fold runs.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 6))
    dtypes = st.sampled_from([np.float64, np.uint8, np.int64, np.bool_])
    x = rng.integers(0, 2, (n, n_features)).astype(draw(dtypes))
    y = rng.integers(0, 2, n)
    y[:2] = (0, 1)
    y = y.astype(draw(dtypes))
    eta0 = draw(st.floats(0.01, 2.0))
    l2 = draw(
        st.one_of(
            st.just(0.0),
            st.floats(0.0, 0.01),
            st.floats(0.5, 0.999).map(lambda c: c / eta0),
        )
    )
    schedule = dict(
        eta0=eta0,
        power_t=draw(st.floats(0.0, 1.0)),
        l2=l2,
        epochs=draw(st.integers(1, 3)),
    )
    return x, y, draw(st.integers(0, 1000)), schedule


@given(sgd_problems())
@settings(max_examples=200, deadline=None)
def test_sparse_fit_matches_dense_reference(problem):
    x, y, seed, schedule = problem
    hp = clf.Hyperparams(seed=seed)
    with mock.patch.multiple(clf.Hyperparams, **schedule):
        model = clf.train(x, y, hp)
        weights, bias = dense_sgd(x, y, hp)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(weights))))
    assert np.max(np.abs(model.weights - weights)) <= tol
    assert abs(model.bias - bias) <= tol


@given(sgd_problems())
@settings(max_examples=200, deadline=None)
def test_fit_is_bitwise_the_scalar_loop(problem):
    """The float-only loop keeps every IEEE operation of the array form,
    the fold of a vanishing weight scale included."""
    x, y, seed, schedule = problem
    hp = clf.Hyperparams(seed=seed)
    with mock.patch.multiple(clf.Hyperparams, **schedule):
        model = clf.train(x, y, hp)
        weights, bias = scalar_sgd(x, y, hp)
    assert model.weights.tobytes() == weights.tobytes()
    assert model.bias.hex() == bias.hex()


@pytest.mark.parametrize("n_features", [64, 65, 130])
def test_wide_rows_match_dense_reference(n_features):
    """Rows wider than 64 columns are keyed on more than one word; twins
    that differ only in their last column must stay apart."""
    rng = np.random.default_rng(n_features)
    x = rng.integers(0, 2, (12, n_features), dtype=np.uint8)[rng.integers(0, 12, 300)]
    x[::2, -1] ^= 1
    y = (x[:, -1] == 1).astype(np.float64)
    y[:2] = (0.0, 1.0)
    hp = clf.Hyperparams(seed=5)
    model = clf.train(x, y, hp)
    weights, bias = dense_sgd(x, y, hp)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(weights))))
    assert np.max(np.abs(model.weights - weights)) <= tol
    assert abs(model.bias - bias) <= tol


@pytest.mark.parametrize(
    "value, named",
    [
        (0.5, "0.5"),
        (-1.0, "-1.0"),
        (2, "2"),
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (True, None),
        (-0.0, None),
        # (7, 1) comes first in row-major order, (9, 0) in column-major
        pytest.param((3.0, 2.0), "3.0", id="first-of-two-named"),
    ],
)
def test_non_binary_features_rejected(value, named):
    """A value named is rejected and named; None marks a legal 0/1 value,
    which fits exactly as the float row it stands for."""
    x, y = toy_separable()
    plain = x.copy()
    if isinstance(value, bool):
        x = x.astype(bool)
    elif isinstance(value, int):
        x = x.astype(np.int64)
    cells = ([7, 9], [1, 0]) if isinstance(value, tuple) else (7, 1)
    x[cells] = value
    if named is None:
        plain[cells] = float(value)
        expected = clf.train(plain, y)
        model = clf.train(x, y)
        assert model.weights.tobytes() == expected.weights.tobytes()
        assert model.bias == expected.bias
        return
    with pytest.raises(clf.ClassifierError, match=f"features must be 0 or 1, got {named}$"):
        clf.train(x, y)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 23, 64, 65, 130])
@pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.float64])
def test_row_tuples_match_per_row_reference(width, dtype):
    """Each row's tuple lists its set columns; equal rows share one tuple
    object, and rows of every width and 0/1 dtype are keyed apart."""
    rng = np.random.default_rng(width)
    distinct = rng.integers(0, 2, (10, width), dtype=np.uint8)
    distinct[0], distinct[1] = 0, 1  # an all-zero and an all-one row
    x = distinct[rng.integers(0, 10, 200)].astype(dtype)
    rows = clf._row_tuples(x)
    assert rows == [tuple(np.flatnonzero(row).tolist()) for row in x]
    assert len({id(row) for row in rows}) == len(np.unique(x, axis=0))


def test_non_binary_labels_rejected():
    x, y = toy_separable()
    y[3] = 0.5
    with pytest.raises(clf.ClassifierError, match="labels must be 0 or 1, got 0.5$"):
        clf.train(x, y)


def test_weight_scale_fold_matches_dense_reference():
    """Constant lr with eta0 * l2 = 0.99 shrinks the scale 100-fold a
    step. Unfolded it would underflow to 0 within these 180 steps."""
    x, y = toy_separable(n=60, seed=6)
    hp = clf.Hyperparams(seed=6)
    schedule = dict(eta0=0.5, power_t=0.0, l2=1.98, epochs=3)
    with mock.patch.multiple(clf.Hyperparams, **schedule):
        model = clf.train(x, y, hp)
        weights, bias = dense_sgd(x, y, hp)
    assert np.allclose(model.weights, weights, rtol=0.0, atol=1e-12)
    assert model.bias == pytest.approx(bias, rel=0.0, abs=1e-12)


# SHA-256 of weights.tobytes() + repr(bias).encode() of the split model fit
# on the shipped scenario's training data, one entry per comparison seed
FIT_DIGESTS = {
    1: "2315fcc9b400d62eb9276ed19e04e88907b1ed6671e1cd48bc723dd9716b8eeb",
    2: "cab9763a0394e356690a1b9854c80955d094990c06f0c0be80da06fa2f5ebc20",
    3: "d0335c34eeb08c3028fe92c8c12f189ec70025aac178a92ebddbc64017cd5d16",
    4: "30288fa7ec8f1a3033bc618ce63645a63e763f1776e7c0668b4f03749e251140",
    5: "4c0a48e78c5c89a351708ee07314fe57649d98cac2cee5ac378204e9f7afdda7",
    6: "7ee3071e9bcd837ac1ad2bdb8d17c04b747b4739ef3ffe609a76f6291269d4da",
    7: "f58154fd881157690d4118518435649eb6b600507dad579cab2be3d7e55ea39d",
    8: "f4d8ce6070c7df1ea92260ed3ec96c0d23c0ad815bd25b2ba556deee2f0920b8",
    9: "7df794b235449984186a88675263260b86bce137d5faf5c3d2e849194e4c4c04",
    10: "ffde9e0cc183d6ffbafed231397a109ab9677cefcd339138fc41bf4295c28107",
    11: "d80f6e558f7086cf3c33eec6ef1f661e50f3be454b038642c4e72d139563718d",
    12: "f067ac79d9308c788583c318c147571840c1c27cea3b2d72c5f371a80dda5cde",
    13: "4f11064ac601280ca69b658e0d7c003381fd1cf100e74543f4b0c6a1fc336b0f",
    14: "1cc89c642ac4ee8fe4b0ff1ea69e8a91f81e2f171b81bae54b2496d4ebcea9e4",
    15: "bc7e46b9621f579bb54871d1ae0266b2202c9611c455ffce65b7b78618e12047",
}


@pytest.mark.parametrize("seed", sorted(FIT_DIGESTS))
def test_split_model_fit_is_pinned_bitwise(scenario, seed):
    """The comparison's split model of each seed, bit for bit. The dense
    reference only bounds the weights at 1e-12; this catches any change
    of summation order or step schedule."""
    config = replace(scenario, seed=seed)
    features, labels = generate_training_data(config, config.train_samples)
    model = clf.train(features, labels, clf.Hyperparams(seed=seed))
    digest = hashlib.sha256(model.weights.tobytes() + repr(model.bias).encode())
    assert digest.hexdigest() == FIT_DIGESTS[seed]


def test_fit_holds_no_full_size_temporaries(scenario):
    """One fit of the shipped 20,000 training rows peaks below 2.0 MB
    above its entry and keeps only the model: it holds one check mask,
    the row tuples and one label flag byte per sample. The step-size
    schedule is warmed first, as the seeds of a comparison share it. With
    a mask per comparison in the 0/1 check, the packed and nonzero arrays
    of every row, and each epoch's permutation as a list, it peaked at
    2.9 MB."""
    features, labels = generate_training_data(scenario, scenario.train_samples)
    assert features.shape[0] == 20_000
    clf.train(features, labels, clf.Hyperparams(seed=1))
    model, retained, peak = traced_peak(
        lambda: clf.train(features, labels, clf.Hyperparams(seed=1))
    )
    assert model.n_features == features.shape[1]
    assert peak < 2.0e6
    assert retained < 64 * 1024


@pytest.mark.parametrize("seed", range(1, 16))
def test_split_model_routes_population_like_dense_reference(scenario, seed):
    """The comparison's split model of each seed routes every user of
    that seed's population as the dense fit does."""
    config = replace(scenario, seed=seed)
    features, labels = generate_training_data(config, config.train_samples)
    hp = clf.Hyperparams(seed=seed)
    model = clf.train(features, labels, hp)
    weights, bias = dense_sgd(features, labels, hp)
    assert np.max(np.abs(model.weights - weights)) <= 1e-12 * max(1.0, np.max(np.abs(weights)))
    population = generate_population(config, config.population_size)
    reference = clf.LinearModel(weights, bias, hp)
    assert np.array_equal(model.predict(population.features), reference.predict(population.features))


def test_predict_tie_goes_to_class_one():
    model = clf.LinearModel(np.zeros(3), 0.0, clf.Hyperparams())
    assert model.predict(np.zeros(3)[None, :])[0] == 1


def test_strong_negative_bias_predicts_zero():
    model = clf.LinearModel(np.zeros(3), -10.0, clf.Hyperparams())
    assert model.predict(np.ones(3)[None, :])[0] == 0


def test_synthetic_propensity_accuracy_and_recall():
    """Held-out quality on the 4.2%-prevalence synthetic set, 25% train split."""
    config = ScenarioConfig(seed=13)
    features, labels = generate_training_data(config, 20_000)
    n_train = 5_000  # 25% of the samples train the model
    model = clf.train(features[:n_train], labels[:n_train], clf.Hyperparams(seed=13))
    held_x, held_y = features[n_train:], labels[n_train:]
    predicted = model.predict(held_x)
    accuracy = (predicted == held_y).mean()
    recall = predicted[held_y == 1].mean()
    assert accuracy >= 0.98
    assert recall >= 0.90


def test_matches_reference_logistic_fit():
    sklearn_linear = pytest.importorskip("sklearn.linear_model")
    config = ScenarioConfig(seed=29)
    features, labels = generate_training_data(config, 8_000)
    model = clf.train(features[:2_000], labels[:2_000], clf.Hyperparams(seed=3))
    reference = sklearn_linear.LogisticRegression(
        class_weight="balanced", max_iter=1000
    ).fit(features[:2_000], labels[:2_000])
    held_x, held_y = features[2_000:], labels[2_000:]
    ours = (model.predict(held_x) == held_y).mean()
    theirs = reference.score(held_x, held_y)
    assert ours >= theirs - 0.02


def listing_split():
    return PopulationSplitSpec(
        name="Population-split-purchases-prediction",
        split_property="purchase-likelihood",
        sub_pipelines=(
            SubPipeline("Review-pipeline", "R", ("R",), ()),
            SubPipeline("Recommendation-pipeline", "Q", ("Q",), ()),
        ),
        cond_stats=(ClassCondition("==", 0), ClassCondition("==", 1)),
        next_component="end",
        split_component=SplitComponent("purchase-prediction-component", "ml-purchase-filter"),
    )


def test_dispatch_class_zero_goes_to_review():
    model = clf.LinearModel(np.zeros(23), -10.0, clf.Hyperparams())
    classes = model.predict(np.zeros((4, 23)))
    assert classes.tolist() == [0, 0, 0, 0]
    routed = {route_class(listing_split(), int(c)) for c in classes}
    assert routed == {"Review-pipeline"}


def test_dispatch_class_one_goes_to_recommendation():
    model = clf.LinearModel(np.zeros(23), 10.0, clf.Hyperparams())
    classes = model.predict(np.ones((4, 23)))
    assert classes.tolist() == [1, 1, 1, 1]
    routed = {route_class(listing_split(), int(c)) for c in classes}
    assert routed == {"Recommendation-pipeline"}


def test_unmatched_class_is_unrouted():
    assert route_class(listing_split(), 2) is None


def test_trained_model_classifies_known_purchaser():
    config = ScenarioConfig(seed=17)
    features, labels = generate_training_data(config, 10_000)
    model = clf.train(features, labels, clf.Hyperparams(seed=17))
    purchaser_row = features[labels == 1][0]
    assert model.predict(purchaser_row.astype(float)[None, :])[0] == 1


def test_model_file_round_trip(tmp_path):
    x, y = toy_separable()
    model = clf.train(x, y, clf.Hyperparams(seed=2))
    path = tmp_path / "model.json"
    clf.save_model(model, path)
    record = json.loads(path.read_text())
    assert set(record) == {"features", "weights", "bias", "loss", "seed"}
    assert record["loss"] == "log"
    loaded = clf.load_model(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias


def test_training_csv_round_trip(tmp_path):
    config = ScenarioConfig(seed=5)
    features, labels = generate_training_data(config, 50)
    path = tmp_path / "train.csv"
    clf.save_training_csv(path, features, labels)
    back_x, back_y = clf.load_training_csv(path)
    assert np.array_equal(back_x, features)
    assert np.array_equal(back_y, labels)


def test_training_csv_loads_near_the_size_of_its_arrays(tmp_path):
    # what `abpipe gen-data --n 20000` writes; loading holds no Python object per value
    features, labels = generate_training_data(ScenarioConfig(), 20_000)
    path = tmp_path / "train.csv"
    clf.save_training_csv(path, features, labels)
    (back_x, back_y), _, peak = traced_peak(lambda: clf.load_training_csv(path))
    assert back_x.dtype == back_y.dtype == np.float64
    assert np.array_equal(back_x, features) and np.array_equal(back_y, labels)
    assert peak <= 1.5 * (back_x.nbytes + back_y.nbytes)


def test_empty_csv_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(clf.ClassifierError):
        clf.load_training_csv(path)
