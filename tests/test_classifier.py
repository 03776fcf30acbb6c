import json

import numpy as np
import pytest

from abpipe import classifier as clf
from abpipe.model import ClassCondition, PopulationSplitSpec, SplitComponent, SubPipeline
from abpipe.webstore import ScenarioConfig, generate_training_data


def toy_separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    x = np.zeros((n, 2))
    x[:, 0] = y  # first feature equals the label
    x[:, 1] = rng.integers(0, 2, n)
    return x.astype(float), y.astype(float)


def test_linearly_separable_reaches_full_accuracy():
    x, y = toy_separable()
    model = clf.train(x, y, clf.Hyperparams(epochs=10, seed=1))
    assert (model.predict(x) == y).mean() == 1.0


@pytest.mark.parametrize(
    "field, value",
    [("epochs", 0), ("epochs", -3), ("eta0", 0.0), ("eta0", -1.0), ("power_t", -0.5), ("l2", -5.0)],
)
def test_degenerate_hyperparameters_rejected(field, value):
    x, y = toy_separable()
    with pytest.raises(clf.ClassifierError, match=field):
        clf.train(x, y, clf.Hyperparams(**{field: value}))


def test_single_class_rejected():
    x = np.ones((10, 3))
    with pytest.raises(clf.SingleClassError):
        clf.train(x, np.ones(10))


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
    routed = {clf.route_class(listing_split(), int(c)) for c in classes}
    assert routed == {"Review-pipeline"}


def test_dispatch_class_one_goes_to_recommendation():
    model = clf.LinearModel(np.zeros(23), 10.0, clf.Hyperparams())
    classes = model.predict(np.ones((4, 23)))
    assert classes.tolist() == [1, 1, 1, 1]
    routed = {clf.route_class(listing_split(), int(c)) for c in classes}
    assert routed == {"Recommendation-pipeline"}


def test_unmatched_class_is_unrouted():
    assert clf.route_class(listing_split(), 2) is None


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


def test_empty_csv_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(clf.ClassifierError):
        clf.load_training_csv(path)


def test_prediction_latency_under_a_millisecond():
    config = ScenarioConfig(seed=3)
    features, labels = generate_training_data(config, 2_000)
    model = clf.train(features, labels, clf.Hyperparams(seed=3, epochs=2))
    median_ms = clf.measure_predict_latency_ms(model, features[:64].astype(float))
    assert median_ms <= 1.0
