"""Tree growth against references. GBT: the data-sized histogram layout,
the packing of a small node's occupied bins and the in-place gain kernel
must grow exactly the trees of the fixed-stride layout they replaced, the
growth loop exactly the trees of the breadth-first reference; the fit must
cope with data where no feature can split, and must not fault in fresh
histogram-sized pages at every node. Random forest: the batched split
search of a node must grow exactly the trees of the per-feature loop it
replaced."""

import resource
from collections import Counter, deque

import numpy as np
import pytest

from wavetriage import trees
from wavetriage.extract import Dataset
from wavetriage.models import fit
from wavetriage.ranking import RANKING_PARAMS, reduce_signals
from wavetriage.trees import (
    GBTParams,
    GradientBoostedTrees,
    RandomForest,
    RFParams,
    _BinMapper,
    _Candidate,
    _SplitWorkspace,
    _TreeBuilder,
    _softmax,
)


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


class TwoBranchGBT(GradientBoostedTrees):
    """Reference: level-wise growth as a breadth-first queue with its own
    leaf and split steps, as ``_fit_tree`` grew trees before one frontier
    heap served level-wise and leaf-wise growth."""

    def _fit_tree(self, bins, flat, split_features, stride, g, h):
        p = self.params
        builder = _TreeBuilder()
        leaf_rows = []
        root_rows = np.arange(bins.shape[0])

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
        return builder.freeze(), leaf_rows


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


def dense_matrix(seed, n_rows, n_classes, n_cols=160):
    """All-distinct Gaussian columns, as signal reduction ranks them: every
    column splits and every bin holds one row."""
    rng = np.random.default_rng(seed)
    y = np.arange(n_rows) % n_classes
    rng.shuffle(y)
    X = rng.normal(size=(n_rows, n_cols))
    X[:, :n_classes] += y[:, None] * 0.7
    return X, y


def uneven_cuts_matrix(seed, n_rows, n_classes):
    """Columns whose cut counts range from 0 to one per row, so most
    columns' histograms end in a run of empty bins."""
    rng = np.random.default_rng(seed)
    y = np.arange(n_rows) % n_classes
    rng.shuffle(y)
    cols = [np.zeros(n_rows), y + rng.normal(0.0, 0.6, n_rows)]
    for n_values in (2, 3, 5, 9, 17, 40):
        cols.append(rng.integers(0, n_values, n_rows) + (y == n_values % n_classes))
    return np.column_stack(cols).astype(float), y


def pipeline_matrix(seed, n_rows, n_classes):
    """The shape of a pipeline training table: 288 columns, two thirds of
    them constant, the rest sparse few-valued or continuous, and the
    continuous ones shifted by the label."""
    rng = np.random.default_rng(seed)
    y = np.arange(n_rows) % n_classes
    rng.shuffle(y)
    X = np.empty((n_rows, 288))
    for f, kind in enumerate(rng.integers(0, 6, 288)):
        if kind == 4:
            X[:, f] = np.where(rng.random(n_rows) < 0.8, 0.0, rng.integers(1, 5, n_rows))
        elif kind == 5:
            X[:, f] = rng.normal(size=n_rows) + (y == f % n_classes)
        else:
            X[:, f] = float(kind)
    return X, y


def deep_dense_matrix(seed, n_rows, n_classes):
    """47 all-distinct Gaussian columns with quantile cuts and one constant
    column: deep nodes hold far fewer rows than a column has bins."""
    X, y = dense_matrix(seed, n_rows, n_classes, n_cols=48)
    X[:, -1] = 0.0
    return X, y


CASES = {
    "dense-ranking": (dense_matrix, 150, 5, RANKING_PARAMS),
    "uneven-cuts-level": (uneven_cuts_matrix, 240, 3, GBTParams(n_rounds=6, max_depth=4)),
    "mixed-level": (mixed_matrix, 90, 3, GBTParams(n_rounds=6, max_depth=4)),
    "quantile-cuts": (wide_column_matrix, 320, 2, GBTParams(n_rounds=4, max_depth=3)),
    "max-bins-16-level": (wide_column_matrix, 200, 3, GBTParams(n_rounds=5, max_bins=16)),
    "pipeline-shaped": (pipeline_matrix, 24, 3, GBTParams()),
    "deep-dense": (deep_dense_matrix, 600, 3, GBTParams(n_rounds=3, max_depth=6)),
    # Without a minimum child weight, a cell whose side holds no row can
    # still be the first maximum, and the search runs again over the cells
    # that split the node: with and without packed bins.
    "deep-dense-no-child-weight": (
        deep_dense_matrix, 600, 3, GBTParams(n_rounds=3, max_depth=6, min_child_weight=0.0)
    ),
    "mixed-no-child-weight": (
        mixed_matrix, 90, 3, GBTParams(n_rounds=4, max_depth=4, min_child_weight=0.0)
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sized_histograms_match_fixed_stride_bit_for_bit(case):
    make, n_rows, n_classes, params = CASES[case]
    X, y = make(7, n_rows, n_classes)
    new = GradientBoostedTrees(n_classes, params, seed=0).fit(X, y)
    ref = FixedStrideGBT(n_classes, params, seed=0).fit(X, y)

    if make is not dense_matrix:
        assert any(cuts.size == 0 for cuts in new.mapper.cuts)
    assert sum(len(tree.feature) for rnd in new.trees for tree in rnd) > len(new.trees) * n_classes
    assert_same_model(new, ref, X)
    # the split-search workspace lives only for the fit; the model pickles vars()
    assert sorted(vars(new)) == ["feature_gain", "mapper", "n_classes", "params", "seed", "trees"]


def assert_same_model(new, ref, X):
    """Tree arrays, feature gains and probabilities equal byte for byte."""
    assert len(new.trees) == len(ref.trees) == new.params.n_rounds
    for new_round, ref_round in zip(new.trees, ref.trees):
        for a, b in zip(new_round, ref_round, strict=True):
            for name in ("feature", "threshold", "left", "right", "value"):
                mine, theirs = getattr(a, name), getattr(b, name)
                assert mine.dtype == theirs.dtype, name
                assert mine.tobytes() == theirs.tobytes(), name
    assert new.feature_gain.tobytes() == ref.feature_gain.tobytes()
    probe = np.vstack([X, X[::7] + 0.05])
    assert new.predict_proba(probe).tobytes() == ref.predict_proba(probe).tobytes()


def three_row_matrix(_seed, n_rows, _n_classes):
    """Labels 0, 1, 0 on one column: the root splits off one row, and the
    other two rows split into one-row children."""
    assert n_rows == 3
    return np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 0])


EDGE_CASES = {
    "max-depth-0-level": (mixed_matrix, 90, 3, GBTParams(n_rounds=3, max_depth=0)),
    "max-depth-1-level": (mixed_matrix, 90, 3, GBTParams(n_rounds=4, max_depth=1)),
    "max-depth-unreached-level": (mixed_matrix, 90, 3, GBTParams(n_rounds=3, max_depth=64)),
    "three-rows-level": (three_row_matrix, 3, 2, GBTParams(n_rounds=3)),
}


@pytest.mark.parametrize("case", sorted(CASES) + sorted(EDGE_CASES))
def test_single_frontier_matches_two_branch_growth(case):
    make, n_rows, n_classes, params = {**CASES, **EDGE_CASES}[case]
    X, y = make(7, n_rows, n_classes)
    new = GradientBoostedTrees(n_classes, params, seed=0).fit(X, y)
    ref = TwoBranchGBT(n_classes, params, seed=0).fit(X, y)
    assert_same_model(new, ref, X)


def test_edge_case_shapes():
    def tree_sizes(case):
        make, n_rows, n_classes, params = EDGE_CASES[case]
        model = GradientBoostedTrees(n_classes, params, seed=0).fit(*make(7, n_rows, n_classes))
        trees = [tree for rnd in model.trees for tree in rnd]
        return [(len(t.feature), int((t.feature < 0).sum())) for t in trees]

    assert {nodes for nodes, _ in tree_sizes("max-depth-0-level")} == {1}
    assert {nodes for nodes, _ in tree_sizes("max-depth-1-level")} == {3}
    # unbounded trees stop where no split gains, before one leaf per row
    assert max(leaves for _, leaves in tree_sizes("max-depth-unreached-level")) < 90
    # a one-row leaf, then a split into two one-row leaves
    assert tree_sizes("three-rows-level")[0] == (5, 3)


class CountingWorkspace(_SplitWorkspace):
    """Counts the nodes that pack their bins and the searches run again over
    the cells that split a node, packed or not."""

    calls = Counter()

    def pack(self, sub, stride):
        self.calls["pack"] += 1
        return super().pack(sub, stride)

    def splits(self, sub, width, last):
        self.calls["splits, packed" if last is not None else "splits"] += 1
        return super().splits(sub, width, last)


@pytest.mark.parametrize(
    ("case", "paths"),
    [
        ("pipeline-shaped", set()),
        ("deep-dense", {"pack"}),
        ("deep-dense-no-child-weight", {"pack", "splits, packed"}),
        ("mixed-no-child-weight", {"splits"}),
    ],
)
def test_cases_reach_each_split_search_path(case, paths, monkeypatch):
    monkeypatch.setattr(trees, "_SplitWorkspace", CountingWorkspace)
    monkeypatch.setattr(CountingWorkspace, "calls", Counter())
    make, n_rows, n_classes, params = CASES[case]
    GradientBoostedTrees(n_classes, params, seed=0).fit(*make(7, n_rows, n_classes))
    assert set(CountingWorkspace.calls) == paths


def test_case_shapes():
    X, _ = dense_matrix(7, 150, 5)
    assert X.shape == (150, 160)
    assert all(np.unique(col).size == 150 for col in X.T)
    X, _ = uneven_cuts_matrix(7, 240, 3)
    n_cuts = sorted(cuts.size for cuts in _BinMapper(256).fit(X).cuts)
    assert n_cuts[0] == 0 and n_cuts[-1] > 200 and n_cuts[-2] < 50
    X, _ = pipeline_matrix(7, 24, 3)
    n_cuts = np.array([cuts.size for cuts in _BinMapper(256).fit(X).cuts])
    assert X.shape == (24, 288) and 0.5 < np.mean(n_cuts == 0) < 0.8 and n_cuts.max() == 23
    X, _ = deep_dense_matrix(7, 600, 3)
    n_cuts = sorted(cuts.size for cuts in _BinMapper(256).fit(X).cuts)
    assert n_cuts[0] == 0 and n_cuts[1] == 255


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="needs per-thread rusage")
def test_dense_fit_does_not_fault_per_node():
    """A 150 x 160 ranking fit grows about 1,000 nodes. Fresh histogram-sized
    temporaries at every node cost it about 660k minor faults; the in-place
    workspace a few hundred."""
    X, y = dense_matrix(3, 150, 5)
    GradientBoostedTrees(5, RANKING_PARAMS, seed=0).fit(X, y)  # warm the allocator
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    GradientBoostedTrees(5, RANKING_PARAMS, seed=0).fit(X, y)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert faults < 20_000


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="needs per-thread rusage")
def test_reduction_round_does_not_fault_per_node():
    """One signal reduction on a 150 x 160 table fits four ranking models of
    shrinking width, with other allocations in between. The workspace sits
    above the root's temporaries, which are the largest of a fit, so the
    round takes under a thousand minor faults; allocated at the start of
    each fit instead, it took about 26k."""
    X, y = dense_matrix(3, 150, 5)
    signals = [f"m{k % 4}_s{k:03d}" for k in range(X.shape[1])]
    table = Dataset(
        feature_names=[f"{s}__mean" for s in signals],
        matrix=X,
        labels=[f"m{label % 4}" for label in y],
        scenario_ids=[f"sc{i}" for i in range(len(y))],
    )
    coverage = {s: s.split("_")[0] for s in signals}
    reduce_signals(table, coverage, max_signals=30, seed=0)  # warm the allocator
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    _, history = reduce_signals(table, coverage, max_signals=30, seed=0)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert len(history) == 4
    assert faults < 20_000, faults


def test_quantile_case_has_more_values_than_bins():
    X, _ = wide_column_matrix(7, 320, 2)
    assert np.unique(X[:, -1]).size > GBTParams().max_bins


def test_all_constant_columns_give_single_leaf_trees():
    X = np.column_stack([np.zeros(12), np.full(12, 2.5), np.ones(12)])
    labels = ["A", "B", "C"] * 4
    ds = Dataset(
        feature_names=[f"s{i}__mean" for i in range(X.shape[1])],
        matrix=X,
        labels=labels,
        scenario_ids=[f"sc{i}" for i in range(len(labels))],
    )
    model = fit("gbt", ds, GBTParams(n_rounds=3), seed=0)
    trees = [tree for rnd in model.impl.trees for tree in rnd]
    assert len(trees) == 3 * 3
    for tree in trees:
        assert tree.feature.tolist() == [-1]
    assert model.feature_importance().tolist() == [0.0, 0.0, 0.0]
    probs = model.predict_proba(X)
    assert np.allclose(probs, 1.0 / 3.0)


# ---------------------------------------------------------------------------
# Random forest


def _gini_best_split(values, cum, total):
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


class LoopRF(RandomForest):
    """Reference: the features of a node's permutation are sorted and scanned
    one Python call at a time, as the split search did before it was batched
    per node. A constant column is skipped; the search stops once ``k``
    columns were scanned, and a later column wins only with a strictly lower
    impurity."""

    def _build_tree(self, X, y, sample, eye, rng):
        builder = _TreeBuilder()
        k = max(1, int(np.sqrt(X.shape[1])))

        def grow(rows):
            y_node = y[rows]
            counts = np.bincount(y_node, minlength=self.n_classes)
            node = builder.add(value=float(np.argmax(counts)))
            if np.count_nonzero(counts) <= 1:
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
                if examined >= k and best is not None:
                    break
            if best is None:
                return node
            _, feat, threshold = best
            go_left = X[rows, feat] < threshold
            left = grow(rows[go_left])
            right = grow(rows[~go_left])
            builder.set_split(node, feat, threshold, left, right)
            return node

        grow(np.asarray(sample))
        return builder.freeze()


def assert_same_forest(new, ref, X):
    assert len(new.trees) == len(ref.trees) == new.params.n_trees
    for a, b in zip(new.trees, ref.trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            mine, theirs = getattr(a, name), getattr(b, name)
            assert mine.dtype == theirs.dtype, name
            assert mine.tobytes() == theirs.tobytes(), name
    probe = np.vstack([X, X[::3] + 0.25])
    assert new.predict_proba(probe).tobytes() == ref.predict_proba(probe).tobytes()


def rf_constant(rng, n_classes):
    return np.tile([0.0, 2.5, -1.0], (12, 1)), rng.integers(0, n_classes, 12)


def rf_tiny(rng, n_classes):
    """Two and three rows: nodes of one and two rows."""
    n_rows = int(rng.integers(2, 4))
    return rng.normal(size=(n_rows, 4)), np.arange(n_rows) % n_classes


def rf_identical_columns(rng, n_classes):
    """Every feature is the same column, so every candidate split ties."""
    return np.repeat(rng.normal(size=(40, 1)), 9, axis=1), rng.integers(0, n_classes, 40)


def rf_integer_ties(rng, n_classes):
    return rng.integers(0, 4, size=(60, 16)).astype(np.float64), rng.integers(0, n_classes, 60)


def rf_few_varying(rng, n_classes):
    """36 features, so 6 examined per split, of which only 3 vary."""
    X = np.zeros((50, 36))
    X[:, [4, 17, 30]] = rng.normal(size=(50, 3))
    return X, rng.integers(0, n_classes, 50)


def rf_mixed(rng, n_classes):
    """Normal, integer-tied, half-constant and constant columns."""
    n_rows = int(rng.integers(2, 121))
    kinds = rng.integers(0, 4, size=int(rng.integers(1, 61)))
    X = np.empty((n_rows, kinds.size))
    for f, kind in enumerate(kinds):
        if kind == 0:
            X[:, f] = rng.normal(size=n_rows)
        elif kind == 1:
            X[:, f] = rng.integers(0, 3, size=n_rows)
        elif kind == 2:
            X[:, f] = np.where(rng.random(n_rows) < 0.5, 0.0, rng.normal(size=n_rows))
        else:
            X[:, f] = 1.5
    return X, rng.integers(0, n_classes, n_rows)


RF_CASES = {
    "all-constant": rf_constant,
    "tiny": rf_tiny,
    "identical-columns": rf_identical_columns,
    "integer-ties": rf_integer_ties,
    "few-varying": rf_few_varying,
    "mixed": rf_mixed,
}


@pytest.mark.parametrize("n_classes", [2, 3, 5, 8])
@pytest.mark.parametrize("case", sorted(RF_CASES))
def test_batched_split_search_matches_per_feature_loop(case, n_classes):
    for seed in range(4):
        X, y = RF_CASES[case](np.random.default_rng([seed, n_classes]), n_classes)
        params = RFParams(n_trees=12)
        new = RandomForest(n_classes, params, seed=seed).fit(X, y)
        ref = LoopRF(n_classes, params, seed=seed).fit(X, y)
        assert_same_forest(new, ref, X)
        if case == "all-constant":
            assert all(tree.feature.tolist() == [-1] for tree in new.trees)
        if case == "few-varying":
            used = {int(f) for tree in new.trees for f in tree.feature if f >= 0}
            assert used and used <= {4, 17, 30}


def test_random_forest_matches_loop_on_a_pipeline_shaped_table():
    """24 rows, 288 sparse columns, 3 classes: the training table of one
    benchmark round, where most columns are constant in most nodes."""
    rng = np.random.default_rng(1)
    X = np.where(rng.random((24, 288)) < 0.8, 0.0, rng.integers(1, 5, (24, 288)).astype(float))
    y = np.arange(24) % 3
    new = RandomForest(3, RFParams(n_trees=30), seed=1).fit(X, y)
    ref = LoopRF(3, RFParams(n_trees=30), seed=1).fit(X, y)
    assert_same_forest(new, ref, X)
