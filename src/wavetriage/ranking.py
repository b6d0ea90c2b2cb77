"""Signal ranking by boosted-tree importance and iterative reduction.

A signal's importance is the summed total split gain of its member feature
columns. Reduction keeps the top fraction of signals each pass, never drops
a module's last signal (it is pinned instead), and stops once every target
module is covered and the signal count is within the processing limit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import DataError, models
from .extract import Dataset
from .models import SingleClass  # noqa: F401  (re-exported: ranking's own error)
from .trees import GBTParams

# Ranking needs relative gains, not a strong classifier; a light model keeps
# large signal sets tractable.
RANKING_PARAMS = GBTParams(n_rounds=30, max_depth=3, learning_rate=0.3)

KEEP_FRACTION_RANGE = (0.5, 0.7)
DEFAULT_KEEP_FRACTION = 0.6
DEFAULT_MAX_SIGNALS = 5000


class CoverageGap(DataError):
    """A target module had zero signals before any reduction took place."""


@dataclass
class SignalRanking:
    per_signal_importance: dict[str, float]
    iteration: int
    retained: list[str]  # descending importance, ties broken by name


def _sorted_by_importance(signals: Sequence[str], importance: Mapping[str, float]) -> list[str]:
    return sorted(signals, key=lambda name: (-importance[name], name))


def rank_signals(
    train: Dataset, params: GBTParams | None = None, seed: int = 0
) -> SignalRanking:
    """Fit a boosted-tree model and aggregate per-feature gain per signal."""
    model = models.fit("gbt", train, params or RANKING_PARAMS, seed=seed)
    gains = model.feature_importance()
    importance: dict[str, float] = {}
    for name, gain in zip(train.feature_names, gains):
        signal = name.rsplit("__", 1)[0]
        importance[signal] = importance.get(signal, 0.0) + float(gain)
    retained = _sorted_by_importance(list(importance), importance)
    return SignalRanking(per_signal_importance=importance, iteration=0, retained=retained)


def reduce_signals(
    train: Dataset,
    coverage: Mapping[str, str],
    keep_fraction: float = DEFAULT_KEEP_FRACTION,
    max_signals: int = DEFAULT_MAX_SIGNALS,
    targets: Sequence[str] | None = None,
    params: GBTParams | None = None,
    seed: int = 0,
) -> tuple[Dataset, list[SignalRanking]]:
    """Iteratively shrink the signal set by ranked importance.

    ``coverage`` maps every dataset signal to its owning target module.
    Each pass keeps ``ceil(keep_fraction * current)`` top-ranked signals and
    pins every module's last remaining signal. Stops when all modules are
    covered and the count is at most ``max_signals``. Returns the dataset
    restricted to the retained signals (original column order) plus the
    per-iteration ranking history.
    """
    lo, hi = KEEP_FRACTION_RANGE
    if not lo <= keep_fraction <= hi:
        raise ValueError(f"keep_fraction must be within [{lo}, {hi}]")
    signals = train.signal_names()
    missing = [s for s in signals if s not in coverage]
    if missing:
        raise ValueError(f"coverage missing {len(missing)} signals, e.g. {missing[0]!r}")

    modules = set(coverage[s] for s in signals)
    if targets is not None:
        gaps = sorted(set(targets) - modules)
        if gaps:
            raise CoverageGap(f"target modules with zero signals: {gaps}")
        modules |= set(targets)

    def by_module(names: Sequence[str]) -> dict[str, list[str]]:
        grouped: dict[str, list[str]] = {}
        for name in names:
            grouped.setdefault(coverage[name], []).append(name)
        return grouped

    history: list[SignalRanking] = []
    iteration = 0
    while len(signals) > max_signals:
        iteration += 1
        current = train.subset_signals(signals)
        ranking = rank_signals(current, params=params, seed=seed)
        ordered = ranking.retained
        keep_n = math.ceil(keep_fraction * len(signals))
        kept = set(ordered[:keep_n])
        # pinning: a module's best-ranked signal never drops out
        for module, members in by_module(signals).items():
            if not kept.intersection(members):
                kept.add(_sorted_by_importance(members, ranking.per_signal_importance)[0])
        # when pinning puts back every signal the pass would drop, stop
        blocked = len(kept) >= len(signals)
        signals = [s for s in signals if s in kept]
        history.append(
            SignalRanking(
                per_signal_importance=ranking.per_signal_importance,
                iteration=iteration,
                retained=_sorted_by_importance(signals, ranking.per_signal_importance),
            )
        )
        if blocked:
            break
    return train.subset_signals(signals), history


def history_json(history: Sequence[SignalRanking], coverage: Mapping[str, str]) -> str:
    """Reduction history: iteration, retained count, per-module coverage."""
    entries = []
    for ranking in history:
        per_module: dict[str, int] = {}
        for signal in ranking.retained:
            module = coverage.get(signal, "?")
            per_module[module] = per_module.get(module, 0) + 1
        entries.append(
            {
                "iteration": ranking.iteration,
                "retained_count": len(ranking.retained),
                "per_module_coverage": dict(sorted(per_module.items())),
            }
        )
    return json.dumps(entries, indent=2)
