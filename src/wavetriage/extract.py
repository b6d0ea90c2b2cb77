"""Waveform feature extraction: window sampling, length standardization,
statistical compression, and dataset assembly.

A failing waveform becomes one fixed-length sample matrix (ticks x signals),
then one feature row of per-signal summary statistics. Rows from many bug
scenarios stack into a single labeled dataset whose size is independent of
waveform length.
"""

from __future__ import annotations

import csv
import io
import sys
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .selection import SelectionReport
from .vcd import ValueChange

DEFAULT_TICK_CAP = 2000


class ExtractError(Exception):
    pass


class EmptyDump(ExtractError):
    """The waveform body contained no value changes at all."""


class HeaderMismatch(ExtractError):
    pass


class NonFiniteReal(ExtractError):
    """A value in the sampled window is infinite or NaN: a ``real`` change
    such as ``rinf``, ``rnan`` or ``r1e309`` (beyond the float range)."""


@dataclass(frozen=True)
class ValueEncoding:
    """Numeric encoding of four-state values.

    Scalars: 0 -> 0.0, 1 -> 1.0, x -> x_value, z -> z_value. Vectors with all
    bits defined become their unsigned integer value; vectors containing any
    x/z collapse to x_value so "unknown happened" stays visible to the
    statistics. Real values pass through numerically, including ``rinf``,
    ``rnan`` and ``r1e309`` (beyond the float range); ``sample_window``
    rejects them only where they reach the window.

    A defined vector whose value rounds to 2**1024 or above (1024 ones, or
    any set bit at position 1024 or higher) has no float; it saturates to
    ``sys.float_info.max``, so a wide bus keeps its waveform in the dataset
    and still ranks above every smaller value. Leading zeros do not count:
    a wide vector with a small value encodes exactly. Two saturated values
    already sum to ``inf``; ``StatSet.compute`` keeps their statistics finite.
    """

    x_value: float = -1.0
    z_value: float = -2.0

    def encode(self, value: str) -> float:
        if len(value) == 1:
            if value == "0":
                return 0.0
            if value == "1":
                return 1.0
            if value == "x":
                return self.x_value
            return self.z_value
        if value[0] == "r":
            return float(value[1:])
        try:
            return float(int(value, 2))
        except ValueError:
            return self.x_value
        except OverflowError:
            return sys.float_info.max


_BASE_STATS = ("mean", "std", "min", "max")
# Scaled by this, the largest float leaves room for a sum of 2**100 squares.
_OVERFLOW_SCALE = 2.0**600


@dataclass(frozen=True)
class StatSet:
    """Ordered list of per-signal summary statistics.

    Default is the nine-statistic set: mean, sample standard deviation
    (ddof=1), min, max, and the 0.1/0.25/0.5/0.75/0.9 quantiles with linear
    interpolation.
    """

    names: tuple[str, ...] = ("mean", "std", "min", "max", "q10", "q25", "q50", "q75", "q90")

    def __post_init__(self):
        if not self.names:
            raise ValueError("empty stat set")
        for name in self.names:
            if name not in _BASE_STATS and self._quantile_of(name) is None:
                raise ValueError(f"unknown statistic {name!r}")

    @staticmethod
    def _quantile_of(name: str) -> float | None:
        if name.startswith("q") and name[1:].isdigit():
            q = int(name[1:]) / 100.0
            if 0.0 <= q <= 1.0:
                return q
        return None

    def __len__(self) -> int:
        return len(self.names)

    @classmethod
    def parse(cls, spec: str) -> "StatSet":
        return cls(tuple(part.strip() for part in spec.split(",") if part.strip()))

    def compute(self, matrix: np.ndarray) -> np.ndarray:
        """Per-column statistics of a (ticks x signals) matrix -> (signals, n).

        The sums behind mean and std overflow on columns of values near the
        float limit (saturated wide vectors, see ``ValueEncoding``). Such
        columns are computed again scaled down by ``_OVERFLOW_SCALE``: a power
        of two, so every statistic is the one an unbounded exponent range
        would give (exactly so for values of magnitude 2**-422 and above)."""
        if matrix.ndim != 2 or matrix.shape[0] < 1:
            raise ValueError("summarize needs a standardized, non-empty window")
        with np.errstate(over="ignore", invalid="ignore"):
            stats = self._compute(matrix)
        overflowed = ~np.isfinite(stats).all(axis=1) & np.isfinite(matrix).all(axis=0)
        if overflowed.any():
            scaled = self._compute(matrix[:, overflowed] / _OVERFLOW_SCALE)
            stats[overflowed] = scaled * _OVERFLOW_SCALE
        return stats

    def _compute(self, matrix: np.ndarray) -> np.ndarray:
        rows = []
        quantile_names = [n for n in self.names if n not in _BASE_STATS]
        quantiles = {}
        if quantile_names:
            qs = [self._quantile_of(n) for n in quantile_names]
            values = np.quantile(matrix, qs, axis=0)
            quantiles = dict(zip(quantile_names, values))
        for name in self.names:
            if name == "mean":
                rows.append(matrix.mean(axis=0))
            elif name == "std":
                if matrix.shape[0] < 2:
                    rows.append(np.zeros(matrix.shape[1]))
                else:
                    rows.append(matrix.std(axis=0, ddof=1))
            elif name == "min":
                rows.append(matrix.min(axis=0))
            elif name == "max":
                rows.append(matrix.max(axis=0))
            else:
                rows.append(quantiles[name])
        return np.stack(rows, axis=1)


DEFAULT_STATS = StatSet()


@dataclass
class WaveWindow:
    """Sampled tail of one failing waveform: ticks x selected signals."""

    matrix: np.ndarray
    tick_times: np.ndarray
    signals: list[str]
    label: str
    scenario_id: str
    available_ticks: int = 0

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.tick_times = np.asarray(self.tick_times, dtype=np.int64)
        if self.matrix.shape[0] != self.tick_times.shape[0]:
            raise ValueError("tick_times length must match matrix rows")
        if self.matrix.ndim != 2 or self.matrix.shape[1] != len(self.signals):
            raise ValueError("matrix columns must match signal list")


@dataclass
class FeatureRow:
    features: np.ndarray
    feature_names: list[str]
    label: str
    scenario_id: str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.shape != (len(self.feature_names),):
            raise ValueError("feature count must match feature_names")
        if not np.isfinite(self.features).all():
            raise ValueError("non-finite feature value")


@dataclass
class Dataset:
    feature_names: list[str]
    matrix: np.ndarray
    labels: list[str]
    scenario_ids: list[str]

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.shape != (len(self.labels), len(self.feature_names)):
            raise ValueError("dataset shape mismatch")
        if len(self.scenario_ids) != len(self.labels):
            raise ValueError("scenario_ids length mismatch")

    def __len__(self) -> int:
        return len(self.labels)

    def signal_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for name in self.feature_names:
            seen.setdefault(name.rsplit("__", 1)[0], None)
        return list(seen)

    def subset_signals(self, keep: Iterable[str]) -> "Dataset":
        keep_set = set(keep)
        indices = [
            i
            for i, name in enumerate(self.feature_names)
            if name.rsplit("__", 1)[0] in keep_set
        ]
        return Dataset(
            feature_names=[self.feature_names[i] for i in indices],
            matrix=self.matrix[:, indices],
            labels=list(self.labels),
            scenario_ids=list(self.scenario_ids),
        )


def sample_window(
    changes: Iterable[ValueChange],
    selection: SelectionReport,
    tick_cap: int = DEFAULT_TICK_CAP,
    encoding: ValueEncoding = ValueEncoding(),
    label: str = "",
    scenario_id: str = "",
) -> WaveWindow:
    """Sample the last ``tick_cap`` distinct timestamps of a waveform.

    ``changes`` must be the unfiltered change stream so that every timestamp
    in the file defines a sample row; each row holds every selected signal's
    last-known value (forward fill). Signals never assigned before the
    window start hold the encoding's ``x_value``. A non-finite value
    in the window raises ``NonFiniteReal``; one overwritten before the window
    start is harmless.
    """
    if tick_cap < 1:
        raise ValueError("tick_cap must be >= 1")
    if not selection.selected:
        raise ValueError("empty selection")

    names = selection.full_names()
    columns: dict[str, list[int]] = {}
    for index, (_, id_code, _, _) in enumerate(selection.selected):
        columns.setdefault(id_code, []).append(index)

    changes = iter(changes)
    first = next(changes, None)
    if first is None:
        raise EmptyDump(f"no value changes in dump for scenario {scenario_id!r}")

    # The state is a plain list; only the last tick_cap rows are kept.
    current = [encoding.x_value] * len(names)
    rows: deque[list[float]] = deque(maxlen=tick_cap)
    times: deque[int] = deque(maxlen=tick_cap)
    encoded: dict[str, float] = {}
    cur_time = first[0]
    available = 1

    for t, id_code, value in chain((first,), changes):
        if t > cur_time:
            rows.append(current[:])
            times.append(cur_time)
            cur_time = t
            available += 1
        cols = columns.get(id_code)
        if cols:
            number = encoded.get(value)
            if number is None:
                number = encoded[value] = encoding.encode(value)
            for col in cols:
                current[col] = number
    rows.append(current)
    times.append(cur_time)

    matrix = np.array(list(rows), dtype=np.float64)
    finite = np.isfinite(matrix)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteReal(
            f"signal {names[col]!r} holds non-finite value {matrix[row, col]} "
            f"at time {times[row]} in the sampled window"
        )
    return WaveWindow(
        matrix=matrix,
        tick_times=np.array(list(times), dtype=np.int64),
        signals=list(names),
        label=label,
        scenario_id=scenario_id,
        available_ticks=available,
    )


def standardize(window: WaveWindow, tick_cap: int = DEFAULT_TICK_CAP) -> WaveWindow:
    """Force the window to exactly ``tick_cap`` rows.

    Longer windows keep their last rows; shorter ones get all-zero rows
    prepended so the failure edge stays at the final row. Padding rows carry
    tick time -1.
    """
    rows = window.matrix.shape[0]
    if rows == tick_cap:
        return window
    if rows > tick_cap:
        return replace(
            window,
            matrix=window.matrix[-tick_cap:],
            tick_times=window.tick_times[-tick_cap:],
        )
    pad = tick_cap - rows
    matrix = np.vstack([np.zeros((pad, window.matrix.shape[1])), window.matrix])
    times = np.concatenate([np.full(pad, -1, dtype=np.int64), window.tick_times])
    return replace(window, matrix=matrix, tick_times=times)


def feature_names_for(signals: Sequence[str], stats: StatSet = DEFAULT_STATS) -> list[str]:
    return [f"{signal}__{stat}" for signal in signals for stat in stats.names]


def summarize(window: WaveWindow, stats: StatSet = DEFAULT_STATS) -> FeatureRow:
    """Compress a standardized window to one signal-major feature row."""
    table = stats.compute(window.matrix)  # (signals, n)
    return FeatureRow(
        features=table.ravel(),
        feature_names=feature_names_for(window.signals, stats),
        label=window.label,
        scenario_id=window.scenario_id,
    )


def assemble(rows: Sequence[FeatureRow]) -> Dataset:
    """Stack feature rows into one dataset; input order is preserved."""
    if not rows:
        raise ExtractError("no feature rows to assemble")
    header = rows[0].feature_names
    for row in rows[1:]:
        if row.feature_names != header:
            raise HeaderMismatch(
                f"feature names of scenario {row.scenario_id!r} differ from the first row"
            )
    return Dataset(
        feature_names=list(header),
        matrix=np.stack([row.features for row in rows], axis=0),
        labels=[row.label for row in rows],
        scenario_ids=[row.scenario_id for row in rows],
    )


# ---------------------------------------------------------------------------
# CSV interchange

def write_dataset_csv(dataset: Dataset, out: IO[str]) -> None:
    """Final dataset CSV: ``scenario_id,label,<feature names...>``.

    Values use fixed-width scientific notation (17 significant digits), so
    float64 round-trips exactly and the file size depends only on the
    row/column counts, not on the window length that produced the values.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["scenario_id", "label", *dataset.feature_names])
    for i in range(len(dataset)):
        writer.writerow(
            [dataset.scenario_ids[i], dataset.labels[i]]
            + [_dataset_value(v) for v in dataset.matrix[i].tolist()]
        )


def _dataset_value(v: float) -> str:
    return f"{v:.17e}"


def _csv_line_length(fields: list) -> int:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return len(buf.getvalue())


def _formatted_size(values: np.ndarray, fmt: Callable[[float], str]) -> int:
    """``sum(len(fmt(v)) for v in values)``, formatting each distinct value
    once. Values are told apart by their bits, so ``-0.0`` and ``0.0``
    (which format differently) stay apart."""
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits, counts = np.unique(flat.view(np.int64), return_counts=True)
    return sum(
        n * len(fmt(v)) for v, n in zip(bits.view(np.float64).tolist(), counts.tolist())
    )


def dataset_csv_sizes(dataset: Dataset) -> tuple[int, list[int]]:
    """Characters of the header line and of each row line that
    :func:`write_dataset_csv` writes, without formatting the rows."""
    header = _csv_line_length(["scenario_id", "label", *dataset.feature_names])
    width = len(dataset.feature_names)  # one comma before each value
    rows = [
        _csv_line_length([scenario_id, label]) + width + _formatted_size(values, _dataset_value)
        for scenario_id, label, values in zip(dataset.scenario_ids, dataset.labels, dataset.matrix)
    ]
    return header, rows


def _records(reader, width: int, parse: Callable[[list[str]], tuple]) -> Iterator[tuple]:
    """``parse(record)`` for each non-empty record that a CSV ``reader``
    reads after the header; a record of other than ``width`` fields, or
    one that ``parse`` rejects with a ValueError, raises ExtractError
    naming its line."""
    for record in reader:
        if not record:
            continue
        if len(record) != width:
            raise ExtractError(
                f"line {reader.line_num}: {len(record)} fields, but the header has {width}"
            )
        try:
            parsed = parse(record)
        except ValueError as exc:
            raise ExtractError(f"line {reader.line_num}: {exc}") from None
        yield parsed


def read_dataset_csv(stream: IO[str]) -> Dataset:
    """The dataset :func:`write_dataset_csv` wrote; a record with another
    field count than the header, or a value that is not a number, raises
    ExtractError naming its line."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if not header or header[:2] != ["scenario_id", "label"]:
        raise ExtractError("not a dataset CSV: expected scenario_id,label header")
    feature_names = header[2:]
    scenario_ids: list[str] = []
    labels: list[str] = []
    rows: list[list[float]] = []
    for scenario_id, label, values in _records(
        reader, len(header), lambda record: (record[0], record[1], [float(v) for v in record[2:]])
    ):
        scenario_ids.append(scenario_id)
        labels.append(label)
        rows.append(values)
    matrix = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(feature_names)))
    return Dataset(
        feature_names=feature_names,
        matrix=matrix,
        labels=labels,
        scenario_ids=scenario_ids,
    )


def write_rough_csv(window: WaveWindow, out: IO[str]) -> None:
    """Per-tick debug CSV of one window: ``tick,<full names...>``."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["tick", *window.signals])
    times = window.tick_times.tolist()
    for i, row in enumerate(window.matrix):
        writer.writerow([times[i]] + [repr(v) for v in row.tolist()])


def read_rough_csv(stream: IO[str], label: str, scenario_id: str) -> WaveWindow:
    """The window :func:`write_rough_csv` wrote; the file holds neither
    its label nor its scenario id. A record with another field count than
    the header, or a tick or value that is not a number, raises
    ExtractError naming its line."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if not header or header[0] != "tick":
        raise ExtractError("not a rough CSV: expected a tick,<signals> header")
    ticks, values = [], []
    for tick, row in _records(
        reader, len(header), lambda record: (int(record[0]), [float(v) for v in record[1:]])
    ):
        ticks.append(tick)
        values.append(row)
    return WaveWindow(
        matrix=np.asarray(values),
        tick_times=np.asarray(ticks),
        signals=header[1:],
        label=label,
        scenario_id=scenario_id,
    )


def rough_csv_size(window: WaveWindow) -> int:
    """Characters :func:`write_rough_csv` writes for ``window``, without
    formatting the rows: each row is the tick, one comma and ``repr`` per
    value, and a newline (no ``repr`` of a float needs CSV quoting)."""
    rows, signals = window.matrix.shape
    ticks = sum(len(str(t)) for t in window.tick_times.tolist())
    values = _formatted_size(window.matrix, repr)
    return _csv_line_length(["tick", *window.signals]) + rows * (signals + 1) + ticks + values
