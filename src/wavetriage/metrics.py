"""Classification metrics: top-k accuracy, macro F1, macro TPR/FPR, and
one-vs-rest macro ROC AUC by trapezoidal integration.

Macro averages run over the classes present in the test split, so absent
classes never dilute the mean. The confusion matrix keeps the model's full
class list for a stable shape (rows = true, columns = predicted).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import IO, Sequence

import numpy as np

from .extract import Dataset
from .models import ClassifierModel


class EmptyTest(Exception):
    pass


class MetricsError(Exception):
    """A metrics document that lacks a report key, or that holds more
    reports than the output asked for can draw, or a tick-cap ablation
    that lacks a key."""


@dataclass
class MetricsReport:
    top1: float
    top3: float
    macro_f1: float
    macro_tpr: float
    macro_fpr: float
    auc_roc_macro: float
    confusion: np.ndarray
    classes: list[str]

    def to_dict(self) -> dict:
        return {
            "top1": self.top1,
            "top3": self.top3,
            "macro_f1": self.macro_f1,
            "macro_tpr": self.macro_tpr,
            "macro_fpr": self.macro_fpr,
            "auc_roc_macro": self.auc_roc_macro,
            "classes": list(self.classes),
            "confusion": self.confusion.astype(int).tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, doc) -> "MetricsReport":
        """The report :meth:`to_dict` wrote; a missing key raises
        :class:`MetricsError` naming it."""
        if not isinstance(doc, dict):
            raise MetricsError("a metrics report is a JSON object")
        for key in fields(cls):
            if key.name not in doc:
                raise MetricsError(f"metrics report has no key {key.name!r}")
        return cls(
            top1=doc["top1"],
            top3=doc["top3"],
            macro_f1=doc["macro_f1"],
            macro_tpr=doc["macro_tpr"],
            macro_fpr=doc["macro_fpr"],
            auc_roc_macro=doc["auc_roc_macro"],
            confusion=np.asarray(doc["confusion"], dtype=np.int64),
            classes=list(doc["classes"]),
        )

    def summary(self) -> str:
        """The one-line result that ``eval`` and ``pipeline`` print."""
        return (
            f"top1={self.top1:.3f} top3={self.top3:.3f} f1={self.macro_f1:.3f} "
            f"auc={self.auc_roc_macro:.3f}"
        )

    def confusion_csv(self, out: IO[str]) -> None:
        out.write("true\\predicted," + ",".join(self.classes) + "\n")
        for i, label in enumerate(self.classes):
            out.write(label + "," + ",".join(str(int(v)) for v in self.confusion[i]) + "\n")

    def confusion_svg(self) -> str:
        return confusion_heatmap_svg(self.confusion, self.classes)


def reports_from_json(text: str) -> dict[str, MetricsReport]:
    """The reports of a metrics document: ``{"": report}`` for the one
    report that ``eval`` writes, ``{kind: report}`` for the document of one
    report per model kind that ``pipeline`` writes."""
    doc = json.loads(text)
    if not (isinstance(doc, dict) and doc and all(isinstance(v, dict) for v in doc.values())):
        return {"": MetricsReport.from_dict(doc)}
    reports = {}
    for kind, report in doc.items():
        try:
            reports[kind] = MetricsReport.from_dict(report)
        except MetricsError as exc:
            raise MetricsError(f"model kind {kind!r}: {exc}") from None
    return reports


def _key(doc, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise MetricsError(f"{where} has no key {key!r}")
    return doc[key]


def ablation_from_json(text: str) -> list[tuple[int, float, float]]:
    """``(tick_cap, top1, top3)`` of each entry of a tick-cap ablation,
    ``[{"tick_cap": ..., "metrics": {"top1": ..., "top3": ...}}, ...]``,
    in tick-cap order; a missing key raises :class:`MetricsError` naming
    it and its entry."""
    doc = json.loads(text)
    if not isinstance(doc, list):
        raise MetricsError("a tick-cap ablation is a JSON list")
    rows = []
    for index, entry in enumerate(doc):
        where = f"ablation entry {index}"
        tick_cap = _key(entry, "tick_cap", where)
        metrics = _key(entry, "metrics", where)
        where += "'s metrics"
        rows.append((tick_cap, _key(metrics, "top1", where), _key(metrics, "top3", where)))
    return sorted(rows, key=lambda row: row[0])


def topk_accuracy(probs: np.ndarray, y: np.ndarray, k: int) -> float:
    """Fraction of rows whose true class is among the k highest scores.

    Score ties resolve by class order, matching predict_topk."""
    k = min(k, probs.shape[1])
    order = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    return float(np.mean((order == y[:, None]).any(axis=1)))


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (y_true, y_pred), 1)
    return out


def macro_rates(confusion: np.ndarray, present: Sequence[int]) -> tuple[float, float]:
    """Macro TPR and FPR over the given class indices."""
    total = confusion.sum()
    tprs = []
    fprs = []
    for i in present:
        tp = confusion[i, i]
        fn = confusion[i].sum() - tp
        fp = confusion[:, i].sum() - tp
        tn = total - tp - fn - fp
        tprs.append(tp / (tp + fn) if tp + fn else 0.0)
        if fp + tn:
            fprs.append(fp / (fp + tn))
    tpr = float(np.mean(tprs)) if tprs else 0.0
    fpr = float(np.mean(fprs)) if fprs else 0.0
    return tpr, fpr


def macro_f1(confusion: np.ndarray, present: Sequence[int]) -> float:
    scores = []
    for i in present:
        tp = confusion[i, i]
        fn = confusion[i].sum() - tp
        fp = confusion[:, i].sum() - tp
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores)) if scores else 0.0


def roc_points(scores: np.ndarray, positive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ROC curve points over all distinct score thresholds, from (0,0) to (1,1)."""
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    order = np.argsort(-scores, kind="stable")
    sorted_pos = positive[order].astype(np.float64)
    tp = np.cumsum(sorted_pos)
    fp = np.cumsum(1.0 - sorted_pos)
    distinct = np.nonzero(np.diff(scores[order]))[0]
    cut = np.concatenate([distinct, [scores.size - 1]])
    tpr = np.concatenate([[0.0], tp[cut] / n_pos]) if n_pos else np.zeros(cut.size + 1)
    fpr = np.concatenate([[0.0], fp[cut] / n_neg]) if n_neg else np.zeros(cut.size + 1)
    return fpr, tpr


def trapezoid_auc(fpr: np.ndarray, tpr: np.ndarray) -> float:
    return float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))


def roc_auc_macro(probs: np.ndarray, y: np.ndarray, present: Sequence[int]) -> float:
    """One-vs-rest trapezoid AUC averaged over classes with both outcomes."""
    aucs = []
    for i in present:
        positive = y == i
        if positive.all() or not positive.any():
            continue
        fpr, tpr = roc_points(probs[:, i], positive)
        aucs.append(trapezoid_auc(fpr, tpr))
    return float(np.mean(aucs)) if aucs else 0.0


def align_columns(model: ClassifierModel, test: Dataset) -> np.ndarray:
    """Test matrix restricted/reordered to the model's training columns.

    Lets a model trained after signal reduction evaluate against the full
    test CSV."""
    if not model.feature_names or model.feature_names == test.feature_names:
        return test.matrix
    index = {name: i for i, name in enumerate(test.feature_names)}
    try:
        cols = [index[name] for name in model.feature_names]
    except KeyError as exc:
        raise EmptyTest(f"test dataset is missing feature {exc.args[0]!r}") from None
    return test.matrix[:, cols]


def evaluate(model: ClassifierModel, test: Dataset, k_top: int = 3) -> MetricsReport:
    """Score a fitted model on a labeled test dataset."""
    if len(test) == 0:
        raise EmptyTest("empty test dataset")
    unknown = set(test.labels) - set(model.classes)
    if unknown:
        raise EmptyTest(f"test labels not known to the model: {sorted(unknown)}")

    code = {label: i for i, label in enumerate(model.classes)}
    y = np.asarray([code[label] for label in test.labels], dtype=np.int64)
    probs = model.predict_proba(align_columns(model, test))
    preds = np.argmax(probs, axis=1)

    n_classes = len(model.classes)
    confusion = confusion_matrix(y, preds, n_classes)
    present = sorted(set(y.tolist()))
    tpr, fpr = macro_rates(confusion, present)
    return MetricsReport(
        top1=topk_accuracy(probs, y, 1),
        top3=topk_accuracy(probs, y, k_top),
        macro_f1=macro_f1(confusion, present),
        macro_tpr=tpr,
        macro_fpr=fpr,
        auc_roc_macro=roc_auc_macro(probs, y, present),
        confusion=confusion,
        classes=list(model.classes),
    )


def confusion_heatmap_svg(confusion: np.ndarray, classes: Sequence[str], cell: int = 48) -> str:
    """Self-contained SVG heatmap of a confusion matrix."""
    n = len(classes)
    margin = 110
    size = margin + n * cell + 20
    peak = max(1, int(confusion.max()))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'font-family="monospace" font-size="11">',
        f'<text x="{margin}" y="16">confusion matrix (rows: true, cols: predicted)</text>',
    ]
    for j, label in enumerate(classes):
        x = margin + j * cell + cell // 2
        parts.append(
            f'<text x="{x}" y="{margin - 8}" text-anchor="end" '
            f'transform="rotate(-45 {x} {margin - 8})">{label}</text>'
        )
    for i, label in enumerate(classes):
        y = margin + i * cell
        parts.append(f'<text x="{margin - 6}" y="{y + cell // 2 + 4}" text-anchor="end">{label}</text>')
        for j in range(n):
            value = int(confusion[i, j])
            shade = value / peak
            red = int(255 - 155 * shade)
            green = int(255 - 105 * shade)
            parts.append(
                f'<rect x="{margin + j * cell}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({red},{green},255)" stroke="white"/>'
            )
            parts.append(
                f'<text x="{margin + j * cell + cell // 2}" y="{y + cell // 2 + 4}" '
                f'text-anchor="middle">{value}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
