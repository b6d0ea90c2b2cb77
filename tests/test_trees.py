"""GBT split search: the data-sized histogram layout must grow exactly the
trees of the fixed-stride layout it replaced, and must cope with data where
no feature can split."""

import numpy as np
import pytest

from wavetriage.extract import Dataset
from wavetriage.models import fit
from wavetriage.trees import GBTParams, GradientBoostedTrees, _BinMapper, _Candidate, _softmax


class FixedStrideGBT(GradientBoostedTrees):
    """Reference: every feature gets a ``max_bins``-wide histogram at every
    node, as the split search did before histograms were sized to the data."""

    def fit(self, X, y):
        p = self.params
        n_rows, n_features = X.shape
        self.mapper = _BinMapper(p.max_bins).fit(X)
        bins = self.mapper.transform(X)
        stride = p.max_bins
        flat = bins.astype(np.int64) + np.arange(n_features, dtype=np.int64) * stride
        self.feature_gain = np.zeros(n_features, dtype=np.float64)

        onehot = np.eye(self.n_classes, dtype=np.float64)[y]
        scores = np.zeros((n_rows, self.n_classes), dtype=np.float64)
        for _ in range(p.n_rounds):
            probs = _softmax(scores)
            grads = probs - onehot
            hess = probs * (1.0 - probs)
            round_trees = []
            for k in range(self.n_classes):
                tree, leaf_rows = self._fit_tree(bins, flat, None, None, grads[:, k], hess[:, k])
                for leaf, rows in leaf_rows:
                    scores[rows, k] += tree.value[leaf]
                round_trees.append(tree)
            self.trees.append(round_trees)
        return self

    def _node_candidate(self, flat, _split_features, _stride, rows, g, h):
        p = self.params
        n_features = len(self.mapper.cuts)
        stride = p.max_bins
        size = n_features * stride
        sub = flat[rows].ravel()
        g_hist = np.bincount(sub, weights=np.repeat(g[rows], n_features), minlength=size)
        h_hist = np.bincount(sub, weights=np.repeat(h[rows], n_features), minlength=size)
        c_hist = np.bincount(sub, minlength=size)
        g_hist = g_hist.reshape(n_features, stride)
        h_hist = h_hist.reshape(n_features, stride)
        c_hist = c_hist.reshape(n_features, stride)

        G = float(g[rows].sum())
        H = float(h[rows].sum())

        gl = np.cumsum(g_hist, axis=1)[:, :-1]
        hl = np.cumsum(h_hist, axis=1)[:, :-1]
        cl = np.cumsum(c_hist, axis=1)[:, :-1]
        gr = G - gl
        hr = H - hl
        cr = rows.size - cl

        lam = p.reg_lambda
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = 0.5 * (
                np.square(gl) / (hl + lam)
                + np.square(gr) / (hr + lam)
                - (G * G) / (H + lam)
            )
        valid = (cl >= 1) & (cr >= 1) & (hl >= p.min_child_weight) & (hr >= p.min_child_weight)
        gain = np.where(valid, gain, -np.inf)
        best = int(np.argmax(gain))
        best_gain = float(gain.flat[best])
        if not np.isfinite(best_gain) or best_gain <= 1e-12:
            return None, G, H
        feature, boundary = divmod(best, stride - 1)
        threshold = float(self.mapper.cuts[feature][boundary])
        return _Candidate(best_gain, feature, boundary, threshold), G, H


def mixed_matrix(seed, n_rows, n_classes):
    """Constant, few-valued and continuous columns, interleaved, with labels
    that depend on some of them."""
    rng = np.random.default_rng(seed)
    y = np.arange(n_rows) % n_classes
    rng.shuffle(y)
    cols = [
        np.zeros(n_rows),
        rng.integers(0, 2, n_rows).astype(float),
        y + rng.normal(0.0, 0.8, n_rows),
        np.full(n_rows, 3.5),
        rng.integers(0, 4, n_rows) * 0.25,
        rng.normal(size=n_rows),
        (y == 1) * 2.0 + rng.integers(0, 2, n_rows),
        np.full(n_rows, -1.0),
        np.round(rng.normal(size=n_rows), 1),
    ]
    return np.column_stack(cols), y


def wide_column_matrix(seed, n_rows, n_classes):
    """A continuous column with more distinct values than ``max_bins`` (its
    cuts are quantiles), next to constant and few-valued ones."""
    X, y = mixed_matrix(seed, n_rows, n_classes)
    rng = np.random.default_rng(seed + 1)
    dense = y * 0.5 + rng.normal(size=n_rows)
    return np.column_stack([X, dense]), y


CASES = {
    "mixed-level": (mixed_matrix, 90, 3, GBTParams(n_rounds=6, max_depth=4)),
    "mixed-leaf": (mixed_matrix, 90, 3, GBTParams(n_rounds=6, growth="leaf", max_leaves=7)),
    "quantile-cuts": (wide_column_matrix, 320, 2, GBTParams(n_rounds=4, max_depth=3)),
    "max-bins-16-level": (wide_column_matrix, 200, 3, GBTParams(n_rounds=5, max_bins=16)),
    "max-bins-16-leaf": (
        wide_column_matrix,
        200,
        3,
        GBTParams(n_rounds=5, max_bins=16, growth="leaf", max_leaves=9),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sized_histograms_match_fixed_stride_bit_for_bit(case):
    make, n_rows, n_classes, params = CASES[case]
    X, y = make(7, n_rows, n_classes)
    new = GradientBoostedTrees(n_classes, params, seed=0).fit(X, y)
    ref = FixedStrideGBT(n_classes, params, seed=0).fit(X, y)

    assert any(cuts.size == 0 for cuts in new.mapper.cuts)
    assert sum(len(tree.feature) for rnd in new.trees for tree in rnd) > len(new.trees) * n_classes
    assert len(new.trees) == len(ref.trees) == params.n_rounds
    for new_round, ref_round in zip(new.trees, ref.trees):
        for a, b in zip(new_round, ref_round, strict=True):
            for name in ("feature", "threshold", "left", "right", "value"):
                mine, theirs = getattr(a, name), getattr(b, name)
                assert mine.dtype == theirs.dtype, name
                assert mine.tobytes() == theirs.tobytes(), name
    assert new.feature_gain.tobytes() == ref.feature_gain.tobytes()
    probe = np.vstack([X, X[::7] + 0.05])
    assert new.predict_proba(probe).tobytes() == ref.predict_proba(probe).tobytes()


def test_quantile_case_has_more_values_than_bins():
    X, _ = wide_column_matrix(7, 320, 2)
    assert np.unique(X[:, -1]).size > GBTParams().max_bins


@pytest.mark.parametrize("growth", ["level", "leaf"])
def test_all_constant_columns_give_single_leaf_trees(growth):
    X = np.column_stack([np.zeros(12), np.full(12, 2.5), np.ones(12)])
    labels = ["A", "B", "C"] * 4
    ds = Dataset(
        feature_names=[f"s{i}__mean" for i in range(X.shape[1])],
        matrix=X,
        labels=labels,
        scenario_ids=[f"sc{i}" for i in range(len(labels))],
    )
    model = fit("gbt", ds, GBTParams(n_rounds=3, growth=growth), seed=0)
    trees = [tree for rnd in model.impl.trees for tree in rnd]
    assert len(trees) == 3 * 3
    for tree in trees:
        assert tree.feature.tolist() == [-1]
    assert model.feature_importance().tolist() == [0.0, 0.0, 0.0]
    probs = model.predict_proba(X)
    assert np.allclose(probs, 1.0 / 3.0)
