"""Tree-ensemble internals: a Gini random forest with exact splits and a
histogram-based gradient-boosted tree classifier grown level-wise, breadth
first down to ``max_depth``.

The forest searches a node's split in one batch: the first
``sqrt(n_features)`` features of the node's random permutation that vary
within the node are sorted together and every boundary of every column is
scored at once. Ties go to the first best boundary of a column, then to the
column that comes first in the permutation.

GBT histograms are sized to each fit's bins: the split search scans only
the features that have at least one cut, each with as many bins as the
feature with the most cuts, rather than ``max_bins`` for every feature. A
node that holds at most half as many rows as that stride first packs each
column's occupied bins to the left, so its running sums and gains cover
about as many bins as it has rows (the sparsity-aware split finding of
XGBoost, Chen & Guestrin 2016, Alg. 3); the trees are those of the full
layout. The running sums and gains of every node go into one workspace
that lives for the duration of a fit. On dense bins the cost to avoid is
page faults, not FLOPs: a dozen fresh histogram-sized temporaries per node
have their pages faulted in again at every node (about 660k minor faults
for one 150 x 160 ranking fit, against a few hundred with the workspace).

Both ensembles are deterministic given their seed: feature/bootstrap
sampling flows from one Generator, and GBT split ties resolve to the lowest
feature index and bin. Split predicates are ``x < threshold``
goes left, everywhere.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RFParams:
    n_trees: int = 100


@dataclass(frozen=True)
class GBTParams:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 6
    reg_lambda: float = 1.0
    min_child_weight: float = 1e-3
    max_bins: int = 256

    def __post_init__(self):
        if not 2 <= self.max_bins <= 256:  # bin indices are stored as uint8
            raise ValueError("max_bins must be within 2..256")
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

def _best_split(X, rows, y_node, order, k, eye):
    """Best Gini split of a node over the first ``k`` features of ``order``
    that vary within ``rows``: ``(feature, threshold)``, or None if none does.

    The columns are found in blocks of ``order`` that double in size, sorted
    together, and every boundary of every column is scored with one running
    class count. Positions between equal values are not boundaries."""
    feats, cols, found, start, size = [], [], 0, 0, k
    while start < order.size:
        block = order[start : start + size]
        sub = X[rows[:, None], block]
        take = np.flatnonzero(sub.min(axis=0) != sub.max(axis=0))[: k - found]
        feats.append(block[take])
        cols.append(sub[:, take])
        found += take.size
        if found == k:
            break
        start += size
        size *= 2
    if not found:
        return None
    feats = np.concatenate(feats)
    sub = np.concatenate(cols, axis=1)
    n = rows.size
    sort = np.argsort(sub, axis=0, kind="stable")
    values = sub[sort, np.arange(sub.shape[1])]
    cum = np.cumsum(eye[y_node[sort]], axis=0)  # (rows, columns, classes)
    left = cum[:-1]
    right = cum[-1] - left
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    gini_l = 1.0 - np.square(left / nl[..., None]).sum(axis=2)
    gini_r = 1.0 - np.square(right / nr[..., None]).sum(axis=2)
    weighted = (nl * gini_l + nr * gini_r) / n
    weighted[values[1:] == values[:-1]] = np.inf
    at = weighted.argmin(axis=0)
    col = int(np.argmin(weighted[at, np.arange(at.size)]))
    i = int(at[col])
    lo, hi = values[i, col], values[i + 1, col]
    threshold = (lo + hi) / 2.0
    if threshold <= lo:
        threshold = hi
    return int(feats[col]), float(threshold)


class RandomForest:
    def __init__(self, n_classes: int, params: RFParams, seed: int):
        self.n_classes = n_classes
        self.params = params
        self.seed = seed
        self.trees: list[_Tree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        n_rows, n_features = X.shape
        eye = np.eye(self.n_classes, dtype=np.float64)
        root_rng = np.random.default_rng(self.seed)
        tree_seeds = root_rng.integers(0, 2**63 - 1, size=self.params.n_trees)
        for tree_seed in tree_seeds:
            rng = np.random.default_rng(int(tree_seed))
            sample = rng.integers(0, n_rows, size=n_rows)
            self.trees.append(self._build_tree(X, y, sample, eye, rng))
        return self

    def _build_tree(self, X, y, sample, eye, rng) -> _Tree:
        builder = _TreeBuilder()
        k = max(1, int(np.sqrt(X.shape[1])))  # features examined per split

        def grow(rows: np.ndarray) -> int:
            y_node = y[rows]
            counts = np.bincount(y_node, minlength=self.n_classes)
            node = builder.add(value=float(np.argmax(counts)))
            if np.count_nonzero(counts) <= 1:  # pure, which every one-row node is
                return node
            split = _best_split(X, rows, y_node, rng.permutation(X.shape[1]), k, eye)
            if split is None:  # no feature varies within the node
                return node
            feat, threshold = split
            go_left = X[rows, feat] < threshold
            left = grow(rows[go_left])
            right = grow(rows[~go_left])
            builder.set_split(node, feat, threshold, left, right)
            return node

        grow(np.asarray(sample))
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


class _SplitWorkspace:
    """Per-fit scratch for the split search, written in place by every node:
    the running ``g`` and ``h`` sums and the gain of every cell (a column's
    boundary), each cell's own index, and the occupancy and slot maps with
    which a node packs its occupied bins.

    The first node (the root, which holds every row and never packs, and so
    has the largest temporaries of the fit) allocates it after its
    histograms. The workspace then sits above them on the heap, so later
    nodes reuse the space they free instead of the allocator handing it
    back to the kernel and faulting it in again at every node. Allocated at
    the start of each fit instead, below them, it left one signal-reduction
    round (four ranking fits of a 150 x 160 table) with about 26k-40k minor
    faults instead of about 800."""

    def __init__(self, n_cols: int, stride: int):
        size = n_cols * stride
        self.gl = np.empty(size, dtype=np.float64)
        self.hl = np.empty(size, dtype=np.float64)
        self.gain = np.empty(size, dtype=np.float64)
        self.cell = np.arange(size, dtype=np.int64)
        self.occupied = np.empty(size, dtype=bool)
        self.slot = np.empty(size, dtype=np.int64)

    def pack(self, sub: np.ndarray, stride: int):
        """Renumber a node's cells (``sub``: rows x columns, ``stride`` cells
        per column) so that each column's occupied bins take its first
        slots, in bin order, and the rest of the column is padding.

        Returns ``(sub, width, cells, starts, last)``: the renumbered cells,
        ``width`` slots per column (the most bins any column occupies), the
        occupied ``stride``-layout cells, where column ``c``'s slot ``s`` is
        ``cells[starts[c] + s]``, and each column's highest occupied cell."""
        n_cols = sub.shape[1]
        occupied = self.occupied
        occupied.fill(False)
        occupied[sub] = True
        cells = np.flatnonzero(occupied)
        col = self.cell[:n_cols]
        starts = np.searchsorted(cells, col * stride)
        counts = np.diff(starts, append=cells.size)
        width = int(counts.max())
        slot = np.repeat(col * width - starts, counts)
        np.add(self.cell[: cells.size], slot, out=slot)
        self.slot[cells] = slot
        return self.slot[sub], width, cells, starts, col * width + counts - 1

    def splits(self, sub: np.ndarray, width: int, last: np.ndarray | None) -> np.ndarray:
        """Which of a node's cells split its rows: those at or after their
        column's lowest cell in ``sub`` and before its highest, which
        ``last`` gives for a packed node."""
        n_cols = sub.shape[1]
        cell = self.cell[: n_cols * width].reshape(n_cols, width)
        if last is None:
            return (cell >= sub.min(axis=0)[:, None]) & (cell < sub.max(axis=0)[:, None])
        return cell < last[:, None]  # packed: the lowest bin has the first cell


# A node packs when that at least halves its cells and saves this many of
# them: below that the packing's own dozen numpy calls cost more than the
# cells they save.
_PACK_MIN_CELLS = 4096


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
        self._work = None  # a _SplitWorkspace, allocated by the first node
        try:
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
        finally:
            del self._work  # scratch only: never part of the pickled model
        return self

    def _node_candidate(
        self, flat, split_features, stride, rows, g, h
    ) -> tuple[_Candidate | None, float, float]:
        """Best split of one node over the splittable features.

        ``flat`` holds each row's bin of every splittable feature, offset by
        ``stride`` per column: one cell per (column, bin). A node with at
        most half of ``stride`` rows first packs its occupied bins to the
        left of each column (``_SplitWorkspace.pack``), if that saves enough
        cells. The best split stays the same: a boundary between two
        occupied bins splits the rows alike wherever the empty bins between
        them sit, an empty bin adds ``+0.0`` to the running sums, and the
        packed cells keep their order, column first, then bin. One
        ``bincount`` fills every column's histogram. The running sums and
        the gain go into the fit's workspace in place; the order of every
        float operation is that of
        ``0.5 * (gl²/(hl+λ) + gr²/(hr+λ) - G²/(H+λ))``."""
        p = self.params
        G = float(g[rows].sum())
        H = float(h[rows].sum())
        n_cols = split_features.size
        if n_cols == 0:
            return None, G, H
        w = self._work
        sub = flat[rows]
        width, cells, last = stride, None, None
        # Never the root, which allocates the workspace: no column has more
        # bins than the fit has rows.
        if 2 * rows.size <= stride and n_cols * (stride - rows.size) >= _PACK_MIN_CELLS:
            sub, width, cells, starts, last = w.pack(sub, stride)
        size = n_cols * width
        g_hist = np.bincount(sub.ravel(), weights=np.repeat(g[rows], n_cols), minlength=size)
        h_hist = np.bincount(sub.ravel(), weights=np.repeat(h[rows], n_cols), minlength=size)
        g_hist = g_hist.reshape(n_cols, width)
        h_hist = h_hist.reshape(n_cols, width)

        if w is None:
            w = self._work = _SplitWorkspace(n_cols, stride)
        gl = w.gl[:size].reshape(n_cols, width)
        hl = w.hl[:size].reshape(n_cols, width)
        gain = w.gain[:size].reshape(n_cols, width)
        np.cumsum(g_hist, axis=1, out=gl)
        np.cumsum(h_hist, axis=1, out=hl)
        lam = p.reg_lambda
        # g_hist and h_hist are spent: they become scratch for hl + λ and hr
        with np.errstate(divide="ignore", invalid="ignore"):
            np.square(gl, out=gain)
            np.divide(gain, np.add(hl, lam, out=g_hist), out=gain)
            gr2 = np.square(np.subtract(G, gl, out=gl), out=gl)
            hr = np.subtract(H, hl, out=h_hist)
            np.divide(gr2, np.add(hr, lam, out=g_hist), out=gr2)
            np.add(gain, gr2, out=gain)
            np.subtract(gain, (G * G) / (H + lam), out=gain)
            np.multiply(gain, 0.5, out=gain)
        # The first maximum over the cells whose sides weigh enough is also
        # the first maximum over the cells that split the node's rows
        # (``_SplitWorkspace.splits``) if it is one of them; only if it is
        # not are the others masked and the search run again.
        mcw = p.min_child_weight
        np.copyto(gain, -np.inf, where=~((hl >= mcw) & (hr >= mcw)))
        best = int(np.argmax(gain))
        col = best // width
        if last is None:
            lo, hi = sub[:, col].min(), sub[:, col].max()
        else:
            lo, hi = col * width, last[col]
        if not lo <= best < hi:
            np.copyto(gain, -np.inf, where=~w.splits(sub, width, last))
            best = int(np.argmax(gain))
        best_gain = float(gain.flat[best])
        if not np.isfinite(best_gain) or best_gain <= 1e-12:
            return None, G, H
        col, boundary = divmod(best, width)
        if last is not None:  # the packed slot back to its bin
            boundary = int(cells[starts[col] + boundary]) - col * stride
        feature = int(split_features[col])
        threshold = float(self.mapper.cuts[feature][boundary])
        return _Candidate(best_gain, feature, boundary, threshold), G, H

    def _leaf_value(self, G: float, H: float) -> float:
        p = self.params
        return -p.learning_rate * G / (H + p.reg_lambda)

    def _fit_tree(self, bins, flat, split_features, stride, g, h):
        """Grow one tree breadth first; a node at ``max_depth`` becomes a
        leaf. A node gets its split candidate when it leaves the queue, so
        the root's candidate is the first allocation of a fit and the split
        workspace sits above the root's histograms. Returns the tree and the
        rows of each leaf."""
        p = self.params
        builder = _TreeBuilder()
        leaf_rows: list[tuple[int, np.ndarray]] = []
        queue = deque([(np.arange(bins.shape[0]), builder.add(), 0)])
        while queue:
            rows, node, depth = queue.popleft()
            if rows.size < 2 or depth >= p.max_depth:
                cand, G, H = None, float(g[rows].sum()), float(h[rows].sum())
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
