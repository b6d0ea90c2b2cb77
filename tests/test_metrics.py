import io
import json

import numpy as np
import pytest

from wavetriage.extract import Dataset
from wavetriage.metrics import (
    EmptyTest,
    MetricsReport,
    confusion_matrix,
    evaluate,
    macro_f1,
    macro_rates,
    roc_auc_macro,
    roc_points,
    topk_accuracy,
    trapezoid_auc,
)
from wavetriage.models import KNNParams, fit

from test_models import blobs, make_dataset


def brute_force_metrics(y_true, y_pred, n_classes):
    """Independent per-class counting reference for TPR/FPR/F1."""
    tprs, fprs, f1s = [], [], []
    for c in sorted(set(y_true)):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        tn = sum(1 for t, p in zip(y_true, y_pred) if t != c and p != c)
        tprs.append(tp / (tp + fn) if tp + fn else 0.0)
        if fp + tn:
            fprs.append(fp / (fp + tn))
        f1s.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    return mean(tprs), mean(fprs), mean(f1s)


def brute_force_auc(scores, positive):
    """Mann-Whitney pairwise reference, mathematically equal to the
    tie-handled trapezoid ROC AUC."""
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


def test_hand_confusion_eq1_values():
    confusion = np.array([[8, 2], [3, 7]])
    tpr, fpr = macro_rates(confusion, [0, 1])
    assert tpr == (0.8 + 0.7) / 2 == 0.75
    assert fpr == (3 / 10 + 2 / 10) / 2 == 0.25


def test_perfect_curve_trapezoid():
    assert trapezoid_auc(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])) == 1.0


def test_roc_points_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    positive = np.array([True, True, False, False])
    fpr, tpr = roc_points(scores, positive)
    assert trapezoid_auc(fpr, tpr) == 1.0
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0


def test_perfect_predictor_report():
    ds = blobs(seed=1)
    model = fit("knn", ds, KNNParams(k=1))
    report = evaluate(model, ds)
    assert report.top1 == report.top3 == 1.0
    assert report.macro_f1 == report.macro_tpr == 1.0
    assert report.macro_fpr == 0.0
    assert report.auc_roc_macro == 1.0
    assert np.array_equal(report.confusion, np.diag([40, 40, 40]))


def test_empty_test_rejected():
    ds = blobs()
    model = fit("knn", ds, KNNParams())
    empty = Dataset(ds.feature_names, np.empty((0, 4)), [], [])
    with pytest.raises(EmptyTest):
        evaluate(model, empty)


def test_unknown_label_rejected():
    ds = blobs()
    model = fit("knn", ds, KNNParams())
    bad = make_dataset(np.zeros((1, 4)), ["never_seen"])
    with pytest.raises(EmptyTest):
        evaluate(model, bad)


def test_topk_monotone_and_one_at_m():
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(5), size=100)
    y = rng.integers(0, 5, size=100)
    accs = [topk_accuracy(probs, y, k) for k in range(1, 6)]
    assert all(a <= b for a, b in zip(accs, accs[1:]))
    assert accs[-1] == 1.0


def test_metrics_match_brute_force_on_random_tables():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(5, 60))
        y = rng.integers(0, m, size=n)
        probs = rng.dirichlet(np.ones(m), size=n)
        preds = np.argmax(probs, axis=1)
        confusion = confusion_matrix(y, preds, m)
        present = sorted(set(y.tolist()))

        tpr, fpr = macro_rates(confusion, present)
        f1 = macro_f1(confusion, present)
        bt, bf, bf1 = brute_force_metrics(y.tolist(), preds.tolist(), m)
        assert abs(tpr - bt) < 1e-9
        assert abs(fpr - bf) < 1e-9
        assert abs(f1 - bf1) < 1e-9

        auc = roc_auc_macro(probs, y, present)
        ref = np.mean(
            [
                brute_force_auc(probs[:, c].tolist(), (y == c).tolist())
                for c in present
                if 0 < (y == c).sum() < n
            ]
        )
        assert abs(auc - ref) < 1e-6


def test_random_scores_give_half_auc():
    rng = np.random.default_rng(23)
    n = 10_000
    y = np.array([0, 1] * (n // 2))
    probs = rng.dirichlet(np.ones(2), size=n)
    auc = roc_auc_macro(probs, y, [0, 1])
    assert abs(auc - 0.5) < 0.03


def test_label_permutation_equivariance():
    ds = blobs(seed=4, spread=6.0)  # imperfect classifier
    model = fit("knn", ds, KNNParams(k=5))
    report = evaluate(model, ds)

    swap = {"mod0": "mod2", "mod1": "mod0", "mod2": "mod1"}
    swapped = make_dataset(ds.matrix, [swap[l] for l in ds.labels])
    model2 = fit("knn", swapped, KNNParams(k=5))
    report2 = evaluate(model2, swapped)

    assert abs(report.macro_tpr - report2.macro_tpr) < 1e-12
    assert abs(report.macro_fpr - report2.macro_fpr) < 1e-12
    assert abs(report.macro_f1 - report2.macro_f1) < 1e-12
    assert abs(report.top1 - report2.top1) < 1e-12
    # confusion permutes: row/col sums are a permutation of each other
    assert sorted(report.confusion.sum(axis=1)) == sorted(report2.confusion.sum(axis=1))


def test_report_json_and_csv_and_svg():
    ds = blobs()
    model = fit("knn", ds, KNNParams())
    report = evaluate(model, ds)
    clone = MetricsReport.from_dict(json.loads(report.to_json()))
    assert clone.top1 == report.top1
    assert np.array_equal(clone.confusion, report.confusion)

    buf = io.StringIO()
    report.confusion_csv(buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("true\\predicted,")

    svg = report.confusion_svg()
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<rect") == 9
