"""The classifier suite: k-nearest-neighbors, random forest, and
gradient-boosted trees behind one fit/predict facade.

Class labels are sorted and frozen at fit time; probability rows align to
that order and sum to one. Ranking ties in top-k predictions break by class
order so results are stable across runs.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import DataError
from .extract import Dataset
from .sysio import replace_file
from .trees import GBTParams, GradientBoostedTrees, RandomForest, RFParams

MODEL_KINDS = ("knn", "random_forest", "gbt")

_MAGIC = "wavetriage-model"
_FORMAT_VERSION = 1


class ModelError(DataError):
    pass


class SingleClass(ModelError):
    pass


class NonFiniteFeature(ModelError):
    pass


class DimensionMismatch(ModelError):
    pass


@dataclass(frozen=True)
class KNNParams:
    k: int = 5


class _KNN:
    """Euclidean KNN on per-feature z-scored values (training statistics)."""

    def __init__(self, n_classes: int, params: KNNParams):
        self.n_classes = n_classes
        self.params = params

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_KNN":
        self.mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.std = np.where(std == 0.0, 1.0, std)
        self.train = (X - self.mean) / self.std
        self.y = y
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Z = (X - self.mean) / self.std
        # squared distances; ties resolve to the lower training index
        d2 = (
            np.square(Z).sum(axis=1, keepdims=True)
            + np.square(self.train).sum(axis=1)
            - 2.0 * Z @ self.train.T
        )
        k = min(self.params.k, self.train.shape[0])
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes = np.zeros((X.shape[0], self.n_classes), dtype=np.float64)
        for col in range(k):
            np.add.at(votes, (np.arange(X.shape[0]), self.y[nearest[:, col]]), 1.0)
        return votes / k


@dataclass
class ClassifierModel:
    kind: str
    classes: list[str]
    params: Any
    seed: int
    n_features: int
    feature_names: list[str] = field(default_factory=list)
    impl: Any = field(repr=False, default=None)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"model expects {self.n_features} features, got {X.shape[1]}"
            )
        return self.impl.predict_proba(X)

    def predict(self, X: np.ndarray) -> list[str]:
        probs = self.predict_proba(X)
        return [self.classes[i] for i in np.argmax(probs, axis=1)]

    def feature_importance(self) -> np.ndarray:
        """Total split gain per feature (gbt only)."""
        if self.kind != "gbt":
            raise ModelError("feature importance is defined for gbt models")
        return self.impl.feature_gain.copy()


def default_params(kind: str):
    if kind == "knn":
        return KNNParams()
    if kind == "random_forest":
        return RFParams()
    if kind == "gbt":
        return GBTParams()
    raise ModelError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def fit(kind: str, train: Dataset, params=None, seed: int = 0) -> ClassifierModel:
    """Fit one classifier; deterministic given (data, params, seed)."""
    if params is None:
        params = default_params(kind)
    X = np.asarray(train.matrix, dtype=np.float64)
    if not np.isfinite(X).all():
        raise NonFiniteFeature("training matrix contains non-finite values")
    classes = sorted(set(train.labels))
    if len(classes) < 2:
        raise SingleClass(f"training data has {len(classes)} class(es); need >= 2")
    code = {label: i for i, label in enumerate(classes)}
    y = np.asarray([code[label] for label in train.labels], dtype=np.int64)

    if kind == "knn":
        impl = _KNN(len(classes), params).fit(X, y)
    elif kind == "random_forest":
        impl = RandomForest(len(classes), params, seed).fit(X, y)
    elif kind == "gbt":
        impl = GradientBoostedTrees(len(classes), params, seed).fit(X, y)
    else:
        raise ModelError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")

    return ClassifierModel(
        kind=kind,
        classes=classes,
        params=params,
        seed=seed,
        n_features=X.shape[1],
        feature_names=list(train.feature_names),
        impl=impl,
    )


def predict_topk(model: ClassifierModel, row: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Top-k labels by descending probability; ties break by class order."""
    if not 1 <= k <= len(model.classes):
        raise ValueError(f"k must be in 1..{len(model.classes)}")
    probs = model.predict_proba(np.asarray(row, dtype=np.float64))[0]
    order = np.argsort(-probs, kind="stable")[:k]
    return [(model.classes[i], float(probs[i])) for i in order]


def save_model(model: ClassifierModel, path) -> None:
    payload = {"magic": _MAGIC, "version": _FORMAT_VERSION, "model": model}
    replace_file(path, pickle.dumps(payload, protocol=4))


def load_model(path) -> ClassifierModel:
    with open(path, "rb") as handle:
        try:
            payload = pickle.load(handle)
        except Exception as exc:  # a cut or damaged file: UnpicklingError, EOFError and more
            raise ModelError(f"{path} is not a model file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise ModelError(f"{path} is not a model file")
    if payload.get("version") != _FORMAT_VERSION:
        raise ModelError(f"unsupported model format version {payload.get('version')}")
    return payload["model"]
