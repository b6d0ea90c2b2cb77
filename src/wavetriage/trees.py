"""Tree-ensemble internals: a Gini random forest with exact splits and a
histogram-based gradient-boosted tree classifier with level-wise or
leaf-wise growth.

GBT histograms are sized to each fit's bins: the split search scans only
the features that have at least one cut, each with as many bins as the
feature with the most cuts, rather than ``max_bins`` for every feature.

Both ensembles are deterministic given their seed: feature/bootstrap
sampling flows from one Generator, and split ties resolve to the lowest
feature index and bin/threshold. Split predicates are ``x < threshold``
goes left, everywhere.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RFParams:
    n_trees: int = 100
    max_depth: int | None = None
    max_features: str | int = "sqrt"
    bootstrap: bool = True
    min_samples_split: int = 2


@dataclass(frozen=True)
class GBTParams:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 6
    growth: str = "level"  # "level" (depth-bounded) or "leaf" (best-gain-first)
    max_leaves: int = 31  # leaf-wise growth bound
    reg_lambda: float = 1.0
    min_child_weight: float = 1e-3
    max_bins: int = 256

    def __post_init__(self):
        if not 2 <= self.max_bins <= 256:  # bin indices are stored as uint8
            raise ValueError("max_bins must be within 2..256")
        if self.growth not in ("level", "leaf"):
            raise ValueError(f"unknown growth strategy {self.growth!r}")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")


@dataclass
class _Tree:
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # class index (RF) or additive score (GBT)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row."""
        idx = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feats = self.feature[idx]
            active = np.nonzero(feats >= 0)[0]
            if active.size == 0:
                return idx
            nodes = idx[active]
            go_left = X[active, feats[active]] < self.threshold[nodes]
            idx[active] = np.where(go_left, self.left[nodes], self.right[nodes])


class _TreeBuilder:
    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def add(self, value: float = 0.0) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def set_split(self, node: int, feature: int, threshold: float, left: int, right: int):
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right

    def freeze(self) -> _Tree:
        return _Tree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            value=np.asarray(self.value, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# Random forest

def _gini_best_split(values: np.ndarray, cum: np.ndarray, total: np.ndarray):
    """Best Gini split of one presorted feature; returns (impurity, threshold)."""
    n = values.shape[0]
    boundaries = np.nonzero(values[1:] != values[:-1])[0]
    if boundaries.size == 0:
        return None
    nl = (boundaries + 1).astype(np.float64)
    nr = n - nl
    left = cum[boundaries]
    right = total - left
    gini_l = 1.0 - np.square(left / nl[:, None]).sum(axis=1)
    gini_r = 1.0 - np.square(right / nr[:, None]).sum(axis=1)
    weighted = (nl * gini_l + nr * gini_r) / n
    best = int(np.argmin(weighted))
    i = int(boundaries[best])
    lo, hi = values[i], values[i + 1]
    threshold = (lo + hi) / 2.0
    if threshold <= lo:
        threshold = hi
    return float(weighted[best]), float(threshold)


class RandomForest:
    def __init__(self, n_classes: int, params: RFParams, seed: int):
        self.n_classes = n_classes
        self.params = params
        self.seed = seed
        self.trees: list[_Tree] = []

    def _n_features_per_split(self, n_features: int) -> int:
        mf = self.params.max_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if mf == "log2":
            return max(1, int(np.log2(n_features)) if n_features > 1 else 1)
        if mf == "all":
            return n_features
        return max(1, min(int(mf), n_features))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        n_rows, n_features = X.shape
        eye = np.eye(self.n_classes, dtype=np.float64)
        root_rng = np.random.default_rng(self.seed)
        tree_seeds = root_rng.integers(0, 2**63 - 1, size=self.params.n_trees)
        for tree_seed in tree_seeds:
            rng = np.random.default_rng(int(tree_seed))
            if self.params.bootstrap:
                sample = rng.integers(0, n_rows, size=n_rows)
            else:
                sample = np.arange(n_rows)
            self.trees.append(self._build_tree(X, y, sample, eye, rng))
        return self

    def _build_tree(self, X, y, sample, eye, rng) -> _Tree:
        builder = _TreeBuilder()
        k = self._n_features_per_split(X.shape[1])
        max_depth = self.params.max_depth
        min_split = self.params.min_samples_split

        def grow(rows: np.ndarray, depth: int) -> int:
            y_node = y[rows]
            counts = np.bincount(y_node, minlength=self.n_classes)
            node = builder.add(value=float(np.argmax(counts)))
            if (
                rows.size < min_split
                or np.count_nonzero(counts) <= 1
                or (max_depth is not None and depth >= max_depth)
            ):
                return node
            order = rng.permutation(X.shape[1])
            best = None  # (impurity, feature, threshold)
            examined = 0
            for feat in order:
                col = X[rows, feat]
                sort = np.argsort(col, kind="stable")
                values = col[sort]
                if values[0] == values[-1]:
                    continue
                cum = np.cumsum(eye[y_node[sort]], axis=0)
                found = _gini_best_split(values, cum, cum[-1])
                examined += 1
                if found is not None and (best is None or found[0] < best[0]):
                    best = (found[0], int(feat), found[1])
                # keep searching past max_features until one valid split exists
                if examined >= k and best is not None:
                    break
            if best is None:
                return node
            _, feat, threshold = best
            go_left = X[rows, feat] < threshold
            left = grow(rows[go_left], depth + 1)
            right = grow(rows[~go_left], depth + 1)
            builder.set_split(node, feat, threshold, left, right)
            return node

        grow(np.asarray(sample), 0)
        return builder.freeze()

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros((X.shape[0], self.n_classes), dtype=np.float64)
        rows = np.arange(X.shape[0])
        for tree in self.trees:
            leaves = tree.apply(X)
            votes[rows, tree.value[leaves].astype(np.int64)] += 1.0
        return votes / len(self.trees)


# ---------------------------------------------------------------------------
# Gradient-boosted trees

class _BinMapper:
    """Map raw feature values to at most ``max_bins`` ordered bins."""

    def __init__(self, max_bins: int):
        self.max_bins = max_bins
        self.cuts: list[np.ndarray] = []

    def fit(self, X: np.ndarray) -> "_BinMapper":
        for f in range(X.shape[1]):
            uniq = np.unique(X[:, f])
            if uniq.size <= 1:
                cuts = np.empty(0)
            elif uniq.size <= self.max_bins:
                cuts = np.unique((uniq[:-1] + uniq[1:]) / 2.0)
            else:
                qs = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
                cuts = np.unique(np.quantile(X[:, f], qs))
            self.cuts.append(cuts)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        bins = np.empty(X.shape, dtype=np.uint8)
        for f, cuts in enumerate(self.cuts):
            bins[:, f] = np.searchsorted(cuts, X[:, f], side="right")
        return bins


@dataclass
class _Candidate:
    gain: float
    feature: int
    boundary: int
    threshold: float


class GradientBoostedTrees:
    def __init__(self, n_classes: int, params: GBTParams, seed: int = 0):
        self.n_classes = n_classes
        self.params = params
        self.seed = seed
        self.trees: list[list[_Tree]] = []  # per round, per class
        self.mapper: _BinMapper | None = None
        self.feature_gain: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        p = self.params
        n_rows, n_features = X.shape
        self.mapper = _BinMapper(p.max_bins).fit(X)
        bins = self.mapper.transform(X)
        # Only features with at least one cut can split. Their histograms
        # share one stride: the largest bin count among them.
        n_cuts = np.array([cuts.size for cuts in self.mapper.cuts], dtype=np.int64)
        split_features = np.flatnonzero(n_cuts)
        stride = 1 + int(n_cuts.max(initial=0))
        flat = bins[:, split_features].astype(np.int64) + (
            np.arange(split_features.size, dtype=np.int64) * stride
        )
        self.feature_gain = np.zeros(n_features, dtype=np.float64)

        onehot = np.eye(self.n_classes, dtype=np.float64)[y]
        scores = np.zeros((n_rows, self.n_classes), dtype=np.float64)
        for _ in range(p.n_rounds):
            probs = _softmax(scores)
            grads = probs - onehot
            hess = probs * (1.0 - probs)
            round_trees = []
            for k in range(self.n_classes):
                tree, leaf_rows = self._fit_tree(
                    bins, flat, split_features, stride, grads[:, k], hess[:, k]
                )
                for leaf, rows in leaf_rows:
                    scores[rows, k] += tree.value[leaf]
                round_trees.append(tree)
            self.trees.append(round_trees)
        return self

    def _node_candidate(
        self, flat, split_features, stride, rows, g, h
    ) -> tuple[_Candidate | None, float, float]:
        """Best split of one node over the splittable features.

        ``flat`` holds each row's bin of every splittable feature, offset by
        ``stride`` per column, so one ``bincount`` fills every histogram."""
        p = self.params
        G = float(g[rows].sum())
        H = float(h[rows].sum())
        n_cols = split_features.size
        if n_cols == 0:
            return None, G, H
        size = n_cols * stride
        sub = flat[rows].ravel()
        g_hist = np.bincount(sub, weights=np.repeat(g[rows], n_cols), minlength=size)
        h_hist = np.bincount(sub, weights=np.repeat(h[rows], n_cols), minlength=size)
        c_hist = np.bincount(sub, minlength=size)
        g_hist = g_hist.reshape(n_cols, stride)
        h_hist = h_hist.reshape(n_cols, stride)
        c_hist = c_hist.reshape(n_cols, stride)

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
        col, boundary = divmod(best, stride - 1)
        feature = int(split_features[col])
        threshold = float(self.mapper.cuts[feature][boundary])
        return _Candidate(best_gain, feature, boundary, threshold), G, H

    def _leaf_value(self, G: float, H: float) -> float:
        p = self.params
        return -p.learning_rate * G / (H + p.reg_lambda)

    def _fit_tree(self, bins, flat, split_features, stride, g, h):
        p = self.params
        builder = _TreeBuilder()
        leaf_rows: list[tuple[int, np.ndarray]] = []
        root_rows = np.arange(bins.shape[0])

        if p.growth == "level":
            from collections import deque

            root = builder.add()
            queue = deque([(root_rows, root, 0)])
            while queue:
                rows, node, depth = queue.popleft()
                if depth >= p.max_depth or rows.size < 2:
                    cand = None
                    G, H = float(g[rows].sum()), float(h[rows].sum())
                else:
                    cand, G, H = self._node_candidate(flat, split_features, stride, rows, g, h)
                if cand is None:
                    builder.value[node] = self._leaf_value(G, H)
                    leaf_rows.append((node, rows))
                    continue
                self.feature_gain[cand.feature] += cand.gain
                go_left = bins[rows, cand.feature] <= cand.boundary
                left = builder.add()
                right = builder.add()
                builder.set_split(node, cand.feature, cand.threshold, left, right)
                queue.append((rows[go_left], left, depth + 1))
                queue.append((rows[~go_left], right, depth + 1))
        elif p.growth == "leaf":
            root = builder.add()
            heap: list[tuple[float, int, np.ndarray, int, _Candidate, float, float]] = []
            seq = 0

            def push(rows: np.ndarray, node: int):
                nonlocal seq
                if rows.size < 2:
                    cand, G, H = None, float(g[rows].sum()), float(h[rows].sum())
                else:
                    cand, G, H = self._node_candidate(flat, split_features, stride, rows, g, h)
                if cand is None:
                    builder.value[node] = self._leaf_value(G, H)
                    leaf_rows.append((node, rows))
                else:
                    heapq.heappush(heap, (-cand.gain, seq, rows, node, cand, G, H))
                    seq += 1

            push(root_rows, root)
            n_leaves = 1
            while heap and n_leaves < p.max_leaves:
                _, _, rows, node, cand, _, _ = heapq.heappop(heap)
                self.feature_gain[cand.feature] += cand.gain
                go_left = bins[rows, cand.feature] <= cand.boundary
                left = builder.add()
                right = builder.add()
                builder.set_split(node, cand.feature, cand.threshold, left, right)
                push(rows[go_left], left)
                push(rows[~go_left], right)
                n_leaves += 1
            # whatever is still queued stays a leaf
            for _, _, rows, node, _, G, H in heap:
                builder.value[node] = self._leaf_value(G, H)
                leaf_rows.append((node, rows))
        else:
            raise ValueError(f"unknown growth strategy {p.growth!r}")

        return builder.freeze(), leaf_rows

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        scores = np.zeros((X.shape[0], self.n_classes), dtype=np.float64)
        for round_trees in self.trees:
            for k, tree in enumerate(round_trees):
                leaves = tree.apply(X)
                scores[:, k] += tree.value[leaves]
        return scores

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self.decision_scores(X))


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
