import numpy as np
import pytest

from wavetriage.extract import Dataset
from wavetriage.ranking import (
    CoverageGap,
    SingleClass,
    history_json,
    rank_signals,
    reduce_signals,
)
from wavetriage.trees import GBTParams

FAST = GBTParams(n_rounds=8, max_depth=3, learning_rate=0.3)


def dataset_with_signals(matrix, signals, labels, stats=("mean", "std")):
    names = [f"{s}__{st}" for s in signals for st in stats]
    # duplicate each signal column across its stat features
    expanded = np.repeat(np.asarray(matrix, dtype=float), len(stats), axis=1)
    return Dataset(
        feature_names=names,
        matrix=expanded,
        labels=list(labels),
        scenario_ids=[f"sc{i}" for i in range(len(labels))],
    )


def two_class_labels(n):
    return ["modA"] * (n // 2) + ["modB"] * (n - n // 2)


def test_single_informative_signal_ranks_first_and_others_zero():
    n = 60
    rng = np.random.default_rng(0)
    labels = two_class_labels(n)
    matrix = np.zeros((n, 4))  # three constant signals
    matrix[:, 2] = [0.0 if l == "modA" else 7.0 for l in labels]
    ds = dataset_with_signals(matrix, ["s0", "s1", "hot", "s3"], labels)
    ranking = rank_signals(ds, FAST)
    assert ranking.retained[0] == "hot"
    assert ranking.per_signal_importance["s0"] == 0.0
    assert ranking.per_signal_importance["s1"] == 0.0
    assert ranking.per_signal_importance["s3"] == 0.0


def test_redundant_informative_pair_beats_noise():
    n = 80
    rng = np.random.default_rng(1)
    labels = two_class_labels(n)
    signal = np.array([0.0 if l == "modA" else 5.0 for l in labels])
    matrix = np.column_stack(
        [signal, signal, rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)]
    )
    ds = dataset_with_signals(matrix, ["hot1", "hot2", "n0", "n1", "n2"], labels)
    imp = rank_signals(ds, FAST).per_signal_importance
    combined = imp["hot1"] + imp["hot2"]
    assert combined > max(imp["n0"], imp["n1"], imp["n2"])


def test_single_class_raises():
    ds = dataset_with_signals(np.zeros((6, 2)), ["a", "b"], ["modA"] * 6)
    with pytest.raises(SingleClass):
        rank_signals(ds, FAST)


def test_keep_fraction_range_enforced():
    ds = dataset_with_signals(np.zeros((6, 2)), ["a", "b"], two_class_labels(6))
    with pytest.raises(ValueError):
        reduce_signals(ds, {"a": "m", "b": "m"}, keep_fraction=0.4)


def test_reduce_identity_when_within_limit():
    n = 40
    rng = np.random.default_rng(2)
    labels = two_class_labels(n)
    matrix = rng.normal(size=(n, 3))
    matrix[:, 0] += [0 if l == "modA" else 6 for l in labels]
    ds = dataset_with_signals(matrix, ["a", "b", "c"], labels)
    coverage = {"a": "m1", "b": "m1", "c": "m2"}
    reduced, history = reduce_signals(ds, coverage, max_signals=5000, params=FAST)
    assert history == []
    assert reduced.feature_names == ds.feature_names


def test_reduce_shrinks_and_keeps_module_coverage():
    n = 60
    rng = np.random.default_rng(3)
    labels = two_class_labels(n)
    signals = [f"m{k}_s{i}" for k in range(5) for i in range(20)]
    matrix = rng.normal(size=(n, len(signals)))
    matrix[:, 7] += [0 if l == "modA" else 8 for l in labels]
    ds = dataset_with_signals(matrix, signals, labels, stats=("mean",))
    coverage = {s: s.split("_")[0] for s in signals}
    reduced, history = reduce_signals(
        ds, coverage, keep_fraction=0.6, max_signals=60, params=FAST
    )
    kept = reduced.signal_names()
    assert len(kept) <= 60
    assert {coverage[s] for s in kept} == {f"m{k}" for k in range(5)}
    counts = [len(h.retained) for h in history]
    assert counts == sorted(counts, reverse=True)
    assert all(a > b for a, b in zip(counts, counts[1:]))


def test_reduce_pins_single_signal_module():
    n = 50
    rng = np.random.default_rng(4)
    labels = two_class_labels(n)
    signals = ["lone_sig"] + [f"big_s{i}" for i in range(19)]
    matrix = rng.normal(size=(n, 20)) * 0.1
    matrix[:, 0] = 0.0  # the lone module's signal is constant: zero importance
    matrix[:, 5] += [0 if l == "modA" else 9 for l in labels]
    ds = dataset_with_signals(matrix, signals, labels, stats=("mean",))
    coverage = {s: ("lone" if s == "lone_sig" else "big") for s in signals}
    reduced, _ = reduce_signals(
        ds, coverage, keep_fraction=0.5, max_signals=5, params=FAST
    )
    assert "lone_sig" in reduced.signal_names()
    assert len(reduced.signal_names()) <= 5 + 1  # limit plus the pinned signal


def test_reduce_stops_when_pinning_keeps_every_signal():
    # three one-signal modules: keeping ceil(0.6 * 3) = 2 leaves one module
    # to pin back, so the pass drops nothing and reduction stops there
    n = 30
    rng = np.random.default_rng(6)
    labels = two_class_labels(n)
    signals = ["c_sig", "a_sig", "b_sig"]
    matrix = rng.normal(size=(n, 3))
    matrix[:, 1] += [0 if l == "modA" else 5 for l in labels]
    ds = dataset_with_signals(matrix, signals, labels)
    coverage = {s: s[0] for s in signals}
    reduced, history = reduce_signals(ds, coverage, max_signals=1, params=FAST)
    assert reduced.signal_names() == signals
    assert len(history) == 1
    importance = history[0].per_signal_importance
    assert history[0].retained == sorted(signals, key=lambda s: (-importance[s], s))
    assert history[0].retained[0] == "a_sig"


def test_coverage_gap_detected():
    ds = dataset_with_signals(np.zeros((6, 2)), ["a", "b"], two_class_labels(6))
    with pytest.raises(CoverageGap):
        reduce_signals(
            ds, {"a": "m1", "b": "m1"}, targets=["m1", "ghost"], params=FAST
        )


def test_reduced_columns_keep_original_relative_order():
    n = 40
    rng = np.random.default_rng(5)
    labels = two_class_labels(n)
    signals = [f"s{i}" for i in range(10)]
    matrix = rng.normal(size=(n, 10))
    matrix[:, 3] += [0 if l == "modA" else 7 for l in labels]
    ds = dataset_with_signals(matrix, signals, labels)
    coverage = {s: "m" for s in signals}
    reduced, _ = reduce_signals(ds, coverage, max_signals=4, params=FAST)
    kept = reduced.signal_names()
    original_order = [s for s in signals if s in kept]
    assert kept == original_order
    expected_names = [f"{s}__{st}" for s in kept for st in ("mean", "std")]
    assert reduced.feature_names == expected_names


def test_history_json_shape():
    n = 40
    rng = np.random.default_rng(6)
    labels = two_class_labels(n)
    signals = [f"s{i}" for i in range(8)]
    matrix = rng.normal(size=(n, 8))
    matrix[:, 0] += [0 if l == "modA" else 7 for l in labels]
    ds = dataset_with_signals(matrix, signals, labels, stats=("mean",))
    coverage = {s: "m" for s in signals}
    _, history = reduce_signals(ds, coverage, max_signals=3, params=FAST)
    import json

    entries = json.loads(history_json(history, coverage))
    assert entries
    assert {"iteration", "retained_count", "per_module_coverage"} <= set(entries[0])
