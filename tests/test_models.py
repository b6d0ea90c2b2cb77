from dataclasses import replace

import numpy as np
import pytest

from wavetriage.extract import Dataset
from wavetriage.models import (
    DimensionMismatch,
    KNNParams,
    NonFiniteFeature,
    SingleClass,
    fit,
    load_model,
    predict_topk,
    save_model,
)
from wavetriage.trees import GBTParams, RFParams

KINDS = ["knn", "random_forest", "gbt"]

FAST_PARAMS = {
    "knn": KNNParams(),
    "random_forest": RFParams(n_trees=20),
    "gbt": GBTParams(n_rounds=15, max_depth=3),
}


def make_dataset(X, labels):
    X = np.asarray(X, dtype=float)
    return Dataset(
        feature_names=[f"s{i}__mean" for i in range(X.shape[1])],
        matrix=X,
        labels=list(labels),
        scenario_ids=[f"sc{i}" for i in range(len(labels))],
    )


def blobs(seed=0, n=40, d=4, spread=0.3, centers=(0.0, 8.0, -8.0)):
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for ci, center in enumerate(centers):
        rows.append(rng.normal(center, spread, size=(n, d)))
        labels += [f"mod{ci}"] * n
    return make_dataset(np.vstack(rows), labels)


def test_single_class_rejected():
    ds = make_dataset(np.zeros((4, 2)), ["A"] * 4)
    for kind in KINDS:
        with pytest.raises(SingleClass):
            fit(kind, ds, FAST_PARAMS[kind])


def test_non_finite_rejected():
    X = np.zeros((4, 2))
    X[1, 1] = np.nan
    ds = make_dataset(X, ["A", "A", "B", "B"])
    with pytest.raises(NonFiniteFeature):
        fit("knn", ds)


@pytest.mark.parametrize("kind", KINDS)
def test_separable_blobs_training_accuracy(kind):
    ds = blobs()
    model = fit(kind, ds, FAST_PARAMS[kind], seed=3)
    assert model.predict(ds.matrix) == ds.labels


def test_knn_k1_training_identity():
    ds = blobs(spread=2.0)
    model = fit("knn", ds, KNNParams(k=1))
    assert model.predict(ds.matrix) == ds.labels


@pytest.mark.parametrize("kind", KINDS)
def test_probability_rows_sum_to_one(kind):
    ds = blobs(seed=5)
    model = fit(kind, ds, FAST_PARAMS[kind], seed=1)
    probs = model.predict_proba(ds.matrix)
    assert np.all(probs >= 0.0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_topk_full_permutation_and_order():
    ds = blobs()
    model = fit("knn", ds, KNNParams(k=3))
    row = ds.matrix[0]
    top = predict_topk(model, row, k=len(model.classes))
    assert sorted(label for label, _ in top) == model.classes
    scores = [score for _, score in top]
    assert scores == sorted(scores, reverse=True)


def test_topk_tie_breaks_by_class_order():
    # 2 neighbors of each class at equal distance -> 0.5/0.5 vote tie
    X = np.array([[0.0], [0.0], [2.0], [2.0]])
    ds = make_dataset(X, ["b_mod", "a_mod", "b_mod", "a_mod"])
    model = fit("knn", ds, KNNParams(k=4))
    top = predict_topk(model, np.array([1.0]), k=2)
    assert [label for label, _ in top] == ["a_mod", "b_mod"]
    assert top[0][1] == top[1][1] == 0.5


def test_topk_k_validation_and_dimension_mismatch():
    ds = blobs()
    model = fit("knn", ds, KNNParams())
    with pytest.raises(ValueError):
        predict_topk(model, ds.matrix[0], k=0)
    with pytest.raises(ValueError):
        predict_topk(model, ds.matrix[0], k=99)
    with pytest.raises(DimensionMismatch):
        predict_topk(model, np.zeros(99), k=1)


def test_gbt_single_stump_majority_rule():
    # one binary feature; majority class differs per branch
    X = np.array([[0.0]] * 10 + [[1.0]] * 12)
    labels = ["A"] * 7 + ["B"] * 3 + ["A"] * 4 + ["B"] * 8
    ds = make_dataset(X, labels)
    model = fit("gbt", ds, GBTParams(n_rounds=1, max_depth=1), seed=0)

    def majority(side):
        votes = [l for v, l in zip(X[:, 0], labels) if v == side]
        counts = sorted(((votes.count(c), c) for c in set(votes)), key=lambda t: (-t[0], t[1]))
        return counts[0][1]

    assert model.predict(np.array([[0.0], [1.0]])) == [majority(0.0), majority(1.0)]


@pytest.mark.parametrize("kind", ["random_forest", "gbt"])
def test_deterministic_given_seed(kind):
    ds = blobs(seed=9, spread=3.0)
    a = fit(kind, ds, FAST_PARAMS[kind], seed=42)
    b = fit(kind, ds, FAST_PARAMS[kind], seed=42)
    assert np.array_equal(a.predict_proba(ds.matrix), b.predict_proba(ds.matrix))


def test_gbt_importance_zero_for_constant_feature():
    rng = np.random.default_rng(0)
    X = np.zeros((60, 3))
    X[:, 1] = rng.normal(size=60)  # noise
    labels = ["A"] * 30 + ["B"] * 30
    X[:30, 2] = 0.0
    X[30:, 2] = 5.0  # the only informative feature
    ds = make_dataset(X, labels)
    model = fit("gbt", ds, GBTParams(n_rounds=10, max_depth=3), seed=0)
    importance = model.feature_importance()
    assert importance[0] == 0.0
    assert importance[2] > importance[1]


def test_save_load_round_trip(tmp_path):
    ds = blobs()
    model = fit("random_forest", ds, RFParams(n_trees=5), seed=1)
    path = tmp_path / "model.bin"
    save_model(model, path)
    clone = load_model(path)
    assert clone.kind == model.kind
    assert clone.classes == model.classes
    assert np.array_equal(clone.predict_proba(ds.matrix), model.predict_proba(ds.matrix))


def test_failed_save_keeps_the_previous_model_file(tmp_path, fail_replace_midway):
    ds = blobs()
    model = fit("random_forest", ds, RFParams(n_trees=5), seed=1)
    path = tmp_path / "model.bin"
    save_model(model, path)
    before = path.read_bytes()
    fail_replace_midway()
    with pytest.raises(OSError, match="No space"):
        save_model(fit("gbt", ds, FAST_PARAMS["gbt"], seed=2), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
    clone = load_model(path)
    assert clone.predict_proba(ds.matrix).tobytes() == model.predict_proba(ds.matrix).tobytes()


# Params fields that model files written before GBT trees grew only level-wise
# and the random forest sampled only one way still carry, at their defaults.
DROPPED_PARAMS_FIELDS = {
    "random_forest": {
        "max_depth": None,
        "max_features": "sqrt",
        "bootstrap": True,
        "min_samples_split": 2,
    },
    "gbt": {"growth": "level", "max_leaves": 31},
}


@pytest.mark.parametrize("kind", sorted(DROPPED_PARAMS_FIELDS))
def test_model_file_with_dropped_params_fields_loads(tmp_path, kind):
    ds = blobs(seed=3, spread=3.0)
    params = replace(FAST_PARAMS[kind])  # a copy: the shared params stay as they are
    model = fit(kind, ds, params, seed=1)
    for name, value in DROPPED_PARAMS_FIELDS[kind].items():
        object.__setattr__(params, name, value)
    path = tmp_path / "old_model.bin"
    save_model(model, path)
    for name in DROPPED_PARAMS_FIELDS[kind]:
        assert name.encode() in path.read_bytes()
    clone = load_model(path)
    probe = np.vstack([ds.matrix, ds.matrix[::5] + 0.5])
    assert clone.predict_proba(probe).tobytes() == model.predict_proba(probe).tobytes()


def test_load_rejects_garbage(tmp_path):
    from wavetriage.models import ModelError

    path = tmp_path / "not_a_model.bin"
    import pickle

    path.write_bytes(pickle.dumps({"something": 1}))
    with pytest.raises(ModelError):
        load_model(path)


@pytest.mark.parametrize("kind", KINDS)
def test_a_cut_model_file_is_a_model_error_naming_it(tmp_path, kind):
    from wavetriage.models import ModelError

    path = tmp_path / "model.bin"
    save_model(fit(kind, blobs(), FAST_PARAMS[kind], seed=1), path)
    data = path.read_bytes()
    assert len(data) > 2000
    for cut in (2000, len(data) // 2, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(ModelError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path} is not a model file: "), (cut, info.value)
