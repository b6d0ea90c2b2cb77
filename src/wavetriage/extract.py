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
from itertools import islice
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import DataError
from .selection import SelectionReport
from .vcd import _BODY_KEYWORDS, _DROP_VECTOR_CHARS, ChangeStream, ValueChange

DEFAULT_TICK_CAP = 2000


class ExtractError(DataError):
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


_ENCODING = ValueEncoding()  # the encoding sample_window samples with

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

    One window builder has two feeders. A :class:`~wavetriage.vcd.ChangeStream`
    from ``vcd.stream_changes`` hands over its text blocks, which are decoded
    into columns with numpy; a block the decoder declines goes through the
    stream's per-token loop, which raises any error in it, and so does a
    body given line by line or already pulled from. Any other
    iterable of ``ValueChange`` is collected into the same columns, 4,096
    changes at a time.
    """
    if tick_cap < 1:
        raise ValueError("tick_cap must be >= 1")
    if not selection.selected:
        raise ValueError("empty selection")

    names = selection.full_names()
    ids = _SelectedIds(selection)
    window = _WindowBuilder(len(names), tick_cap)
    if isinstance(changes, ChangeStream) and not changes.id_filter:
        for block in changes.blocks(ids.decode):
            # the columns of a decoded block, or the changes of one it declined
            window.add([block] if isinstance(block, tuple) else ids.collect(block))
    else:
        window.add(ids.collect(changes))
    if window.time is None:
        raise EmptyDump(f"no value changes in dump for scenario {scenario_id!r}")

    matrix, times = window.rows()
    finite = np.isfinite(matrix)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteReal(
            f"signal {names[col]!r} holds non-finite value {matrix[row, col]} "
            f"at time {times[row]} in the sampled window"
        )
    return WaveWindow(
        matrix=matrix,
        tick_times=times,
        signals=list(names),
        label=label,
        scenario_id=scenario_id,
        available_ticks=window.available,
    )


# The columns of a run of changes: every change's time, then the position
# among them, the column and the encoded value of each selected write.
_Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_COLLECT_CHUNK = 4096
_KEY_BYTES = 7  # an id's bytes and their count fill one 8-byte key
_WORD_BITS = 64  # a vector up to this wide is decoded as one integer
_MAX_FAST_DIGITS = 18  # a longer timestamp may not fit an int64
_MAX_FAST_TIME = 2**63 - 1  # the last time an int64 holds
_PAD = " " * 64  # in front of a block: a window of 64 bytes fits before any token's end
_SHORTEST_KEYWORD = min(map(len, _BODY_KEYWORDS))

# Token classes by first byte, and the ones that only a token's place gives.
_OTHER, _SCALAR, _STAMP, _WORD, _VECTOR, _REAL, _VECTOR_ID, _SKIPPED = range(8)
_FIRST_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_FIRST_CLASS[list(b"01xXzZ")] = _SCALAR
_FIRST_CLASS[ord("#")] = _STAMP
_FIRST_CLASS[ord("$")] = _WORD
_FIRST_CLASS[list(b"bB")] = _VECTOR
_FIRST_CLASS[list(b"rR")] = _REAL
# the bytes a right-aligned span of c bytes fills in a little-endian 8-byte word
_FILLED = np.array([((1 << 8 * c) - 1) << 8 * (8 - c) for c in range(9)], dtype="<u8")
_DIGIT_WEIGHTS = np.array([10**e if e <= _MAX_FAST_DIGITS else 0 for e in range(23, -1, -1)], dtype=np.int64)
# In an 8-byte word of 0/1/x/X/z/Z characters: bit 0 of each, the factor
# that gathers those eight bits into the top byte (the first character
# highest), and bit 6, which only x, X, z and Z have.
_LOW_BITS = np.uint64(0x0101010101010101)
_GATHER_BITS = np.uint64(0x8040201008040201)
_UNKNOWN_BITS = np.uint64(0x4040404040404040)
# the number of a scalar's value byte, and of a one-bit vector's
_CODE_NUMBER = np.full(256, np.nan)
_CODE_NUMBER[list(b"01xXzZ")] = [0.0, 1.0] + [_ENCODING.x_value] * 2 + [_ENCODING.z_value] * 2


_BLANK = np.zeros(256, dtype=bool)  # the bytes str.split() splits at
_BLANK[list(b"\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0")] = True


def _split_points(data: np.ndarray) -> np.ndarray:
    """Where ``data`` (latin-1 text that starts and ends blank) turns from
    whitespace to a token or back, as ``str.split()`` sees it."""
    blank = np.take(_BLANK, data)
    return np.flatnonzero(blank[1:] != blank[:-1]) + 1


def _right_aligned(
    data: np.ndarray, ends: np.ndarray, lengths: np.ndarray, width: int, fill: int
) -> np.ndarray:
    """The spans ``data[end - length:end]`` right-aligned in rows of
    ``width`` bytes (a multiple of 8, at most ``len(_PAD)``) with ``fill``
    before them, as one little-endian 8-byte word per 8 bytes."""
    windows = np.ndarray((len(data) - width + 1,), dtype=f"V{width}", buffer=data, strides=(1,))
    words = windows[ends - width].view("<u8").reshape(len(ends), width // 8)
    filled = _FILLED[np.clip(lengths[:, None] - 8 * np.arange(width // 8 - 1, -1, -1), 0, 8)]
    return (words & filled) | (np.uint64(fill * 0x0101010101010101) & ~filled)


def _keys(data: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """One key per id ``data[end - length:end]`` of at most ``_KEY_BYTES``
    bytes: its bytes, with its length in front."""
    return _right_aligned(data, ends, lengths, 8, 0)[:, 0] | lengths.astype(np.uint64)


def _comments(text: str, starts: np.ndarray, firsts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """Which tokens ``text[start:end]`` lie in a comment, from a
    ``$comment`` to the next ``$end``, both included; None when the last
    comment goes on past the text."""
    inside = np.zeros(len(starts), dtype=bool)
    opened = None
    for k in np.flatnonzero((firsts == ord("$")) & ((lengths == 4) | (lengths == 8))).tolist():
        token = text[starts[k] : starts[k] + lengths[k]]
        if opened is None and token == "$comment":
            opened = k
        elif opened is not None and token == "$end":
            inside[opened : k + 1] = True
            opened = None
    return None if opened is not None else inside


class _Encoded(dict):
    """Each value string's number, encoded once."""

    def __missing__(self, value: str) -> float:
        number = self[value] = _ENCODING.encode(value)
        return number


class _SelectedIds:
    """The selected id codes and their columns, for both feeders of the window."""

    def __init__(self, selection: SelectionReport):
        columns: dict[str, list[int]] = {}
        for index, (_, id_code, _, _) in enumerate(selection.selected):
            columns.setdefault(id_code, []).append(index)
        self.group = {id_code: g for g, id_code in enumerate(columns)}
        self.counts = np.array([len(cols) for cols in columns.values()])  # an id may alias columns
        self.columns = np.array([col for cols in columns.values() for col in cols])
        self.first_column = np.cumsum(self.counts) - self.counts
        self.encoded = _Encoded()

        # the ids that fit a key, by key; a longer one is looked up by its text
        fits = {}
        for id_code, g in self.group.items():
            try:
                raw = id_code.encode("latin-1")
            except UnicodeEncodeError:
                continue  # a block that holds it does not encode
            if len(raw) <= _KEY_BYTES:
                fits[raw] = g
        lengths = np.array([len(raw) for raw in fits], dtype=np.intp)
        data = np.frombuffer(_PAD.encode() + b"".join(fits), np.uint8)
        keys = _keys(data, len(_PAD) + np.cumsum(lengths), lengths)
        order = np.argsort(keys)
        self.keys = keys[order]
        self.key_group = np.array(list(fits.values()), dtype=np.intp)[order]

    def writes(self, times, positions, groups, values) -> _Columns:
        """The columns of changes at ``times`` whose selected ones sit at
        ``positions`` with id ``groups`` and ``values``."""
        counts = self.counts[groups]
        item = np.repeat(np.arange(len(groups)), counts)
        nth = np.arange(len(item)) - np.repeat(np.cumsum(counts) - counts, counts)
        return times, positions[item], self.columns[self.first_column[groups[item]] + nth], values[item]

    def collect(self, changes: Iterable[ValueChange]) -> Iterator[_Columns]:
        """The columns of any iterable of changes, ``_COLLECT_CHUNK`` at a time."""
        changes = iter(changes)
        group, encoded = self.group.get, self.encoded
        while chunk := list(islice(changes, _COLLECT_CHUNK)):
            # each run of equal times once, by where it starts
            firsts, stamps, positions, groups, numbers = [], [], [], [], []
            last = None
            for k, (t, id_code, value) in enumerate(chunk):
                if t != last:
                    firsts.append(k)
                    stamps.append(t)
                    last = t
                g = group(id_code)
                if g is not None:
                    positions.append(k)
                    groups.append(g)
                    numbers.append(encoded[value])
            runs = np.diff(firsts, append=len(chunk))
            yield self.writes(
                np.repeat(np.array(stamps, dtype=np.int64), runs),
                np.array(positions, dtype=np.intp),
                np.array(groups, dtype=np.intp),
                np.array(numbers, dtype=np.float64),
            )

    def lookup(self, text: str, data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """The id group of each id ``text[start:end]`` (``data`` is its
        bytes), or -1."""
        lengths = ends - starts
        groups = np.full(len(ends), -1, dtype=np.intp)
        if len(self.keys):
            keys = _keys(data, ends, lengths)  # of no use for a longer id, which is looked up below
            near = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
            groups = np.where(self.keys[near] == keys, self.key_group[near], -1)
        for k in np.flatnonzero(lengths > _KEY_BYTES).tolist():
            groups[k] = self.group.get(text[starts[k] : ends[k]], -1)
        return groups

    def decode(self, text: str, time: int) -> tuple[_Columns, int, int] | None:
        """The columns of one block of body text that starts at a record
        boundary after the timestamp ``time``, the block's last timestamp,
        and how many of its characters were read: a last value whose id is
        in the next block is left to be read with that block. None for a
        block that is not latin-1, that ends inside a comment, or that the
        per-token loop of :class:`~wavetriage.vcd.ChangeStream` would
        reject or read otherwise."""
        if time > _MAX_FAST_TIME:
            return None
        text = _PAD + text + " "
        try:
            data = np.frombuffer(text.encode("latin-1"), np.uint8)
        except UnicodeEncodeError:
            return None
        bounds = _split_points(data)
        starts, ends = bounds[0::2], bounds[1::2]
        lengths = ends - starts
        first = data[starts]
        kind = np.take(_FIRST_CLASS, first)
        skipped = _comments(text, starts, first, lengths)
        if skipped is None:
            return None
        used = len(text) - len(_PAD) - 1

        # In a run of tokens that start with b/B/r/R, values and their ids
        # alternate; the token after a run that ends on a value is its id.
        values = np.flatnonzero(((kind == _VECTOR) | (kind == _REAL)) & ~skipped)
        if len(values):
            run_start = np.ones(len(values), dtype=bool)
            run_start[1:] = values[1:] != values[:-1] + 1
            nth = np.arange(len(values))
            values = values[(nth - np.maximum.accumulate(np.where(run_start, nth, 0))) % 2 == 0]
            if values[-1] == len(kind) - 1:  # its id is in the next block
                used = int(starts[values[-1]]) - len(_PAD)
                values = values[:-1]
            if skipped[values + 1].any():
                return None  # a value before $comment
            kind[values + 1] = _VECTOR_ID
        kind[skipped] = _SKIPPED
        if (kind == _OTHER).any() or (lengths[kind == _SCALAR] < 2).any():
            return None
        # a word must be a keyword, and an id no keyword
        word = kind == _WORD
        maybe_keyword = (kind == _VECTOR_ID) & (first == ord("$")) & (lengths >= _SHORTEST_KEYWORD)
        for k in np.flatnonzero(word | maybe_keyword).tolist():
            if (text[starts[k] : ends[k]] in _BODY_KEYWORDS) != word[k]:
                return None

        # each token's number: a scalar's, or the value's before an id
        numbers = np.take(_CODE_NUMBER, first)
        bits = lengths[values] - 1
        word_vector = (kind[values] == _VECTOR) & (bits >= 1) & (bits <= _WORD_BITS)
        for k in values[~word_vector].tolist():
            # a real, or a vector without bits or too wide for one integer
            token = text[starts[k] : ends[k]]
            if token[0] in "rR":
                try:
                    float(token[1:])
                except ValueError:
                    return None
                value = "r" + token[1:]
            else:
                value = token[1:].lower()
                if not value or value.translate(_DROP_VECTOR_CHARS):
                    return None
            numbers[k + 1] = self.encoded[value]
        # the others by width class, each right-aligned in rows of 8, 16, 32 or 64 bytes
        vectors, bits = values[word_vector], bits[word_vector]
        width_class = np.searchsorted([8, 16, 32], bits)
        for c in np.flatnonzero(np.bincount(width_class, minlength=4)).tolist():
            at = np.flatnonzero(width_class == c)
            words = _right_aligned(data, ends[vectors[at]], bits[at], 8 << c, ord("0"))
            chars = words.view(np.uint8)
            if not (((chars & 0xFE) == ord("0")) | ((chars & 0xDD) == ord("X"))).all():
                return None  # a character other than 0, 1, x, X, z and Z
            # bit 0 of each character, eight to a byte, the first one highest
            packed = ((words & _LOW_BITS) * _GATHER_BITS) >> np.uint64(56)
            shifts = np.arange(8 * words.shape[1] - 8, -1, -8, dtype=np.uint64)
            number = (packed << shifts).sum(axis=1).astype(np.float64)
            number[np.bitwise_or.reduce(words & _UNKNOWN_BITS, axis=1) != 0] = _ENCODING.x_value
            one_bit = bits[at] == 1
            number[one_bit] = np.take(_CODE_NUMBER, words[one_bit, -1] >> np.uint64(56))
            numbers[vectors[at] + 1] = number

        stamps = np.flatnonzero(kind == _STAMP)
        digits = lengths[stamps] - 1
        if (digits < 1).any() or (digits > _MAX_FAST_DIGITS).any():
            return None
        width = -(-int(digits.max(initial=1)) // 8) * 8
        rows = _right_aligned(data, ends[stamps], digits, width, ord("0")).view(np.uint8) - np.uint8(ord("0"))
        if (rows > 9).any():
            return None
        ticks = rows @ _DIGIT_WEIGHTS[-width:]
        if len(ticks) and (ticks[0] < time or (ticks[1:] < ticks[:-1]).any()):
            return None  # the per-token loop raises TimeRegression there

        # the changes in file order: each scalar, and the id after each value
        scalar = kind == _SCALAR
        tokens = np.flatnonzero(scalar | (kind == _VECTOR_ID))
        times = np.concatenate(([time], ticks))[np.cumsum(kind == _STAMP)[tokens]]
        groups = self.lookup(text, data, starts[tokens] + scalar[tokens], ends[tokens])
        positions = np.flatnonzero(groups >= 0)
        end_time = int(ticks[-1]) if len(ticks) else time
        columns = self.writes(times, positions, groups[positions], numbers[tokens[positions]])
        return columns, end_time, used


class _WindowBuilder:
    """The last ``tick_cap`` rows of a waveform, built from its columns run
    by run: a scatter of each run's writes, then a forward fill."""

    def __init__(self, signals: int, tick_cap: int):
        self.tick_cap = tick_cap
        self.state = np.full(signals, _ENCODING.x_value)  # the open row
        self.time: int | None = None  # the open row's time
        self.available = 0
        self.kept: deque[tuple[np.ndarray, np.ndarray]] = deque()  # closed rows and their times
        self.kept_rows = 0

    def add(self, runs: Iterable[_Columns]) -> None:
        for times, positions, columns, values in runs:
            if len(times):
                self._add(times, positions, columns, values)

    def _add(self, times, positions, columns, values) -> None:
        signals = len(self.state)
        if self.time is None:
            self.time, self.available = times[0], 1
        # a change opens a row when its time is past every earlier one
        latest = np.maximum.accumulate(times)
        opens = np.empty(len(times), dtype=bool)
        opens[0] = latest[0] > self.time
        opens[1:] = latest[1:] > latest[:-1]
        row_of = np.cumsum(opens)
        opened = int(row_of[-1])
        row_times = np.concatenate(([self.time], latest[opens]))
        low = max(0, opened + 1 - self.tick_cap)  # rows before it cannot reach the window

        rows = row_of[positions] - low
        cut = int(np.searchsorted(rows, 0))
        if cut:  # writes before the kept rows land in the state they start from
            last = np.full(signals, -1, dtype=np.intp)
            np.maximum.at(last, columns[:cut], np.arange(cut))
            written = np.flatnonzero(last >= 0)
            self.state[written] = values[last[written]]
        writer = np.full((opened + 1 - low, signals), -1, dtype=np.intp)
        np.maximum.at(writer.reshape(-1), rows[cut:] * signals + columns[cut:], np.arange(cut, len(rows)))
        writer = np.maximum.accumulate(writer, axis=0)
        source = np.where(writer >= 0, writer + signals, np.arange(signals))
        matrix = np.concatenate((self.state, values))[source]

        self._keep(matrix[:-1], row_times[low:opened])
        self.state = matrix[-1]
        self.time = row_times[opened]
        self.available += opened

    def _keep(self, rows: np.ndarray, times: np.ndarray) -> None:
        """Keep closed rows, dropping the oldest runs while the others
        still hold the ``tick_cap - 1`` rows before the open one."""
        if len(rows):
            self.kept.append((rows, times))
            self.kept_rows += len(rows)
        while self.kept and self.kept_rows - len(self.kept[0][0]) >= self.tick_cap - 1:
            self.kept_rows -= len(self.kept.popleft()[0])

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The window's matrix and its row times."""
        kept = list(self.kept) + [(self.state[None], np.array([self.time], dtype=np.int64))]
        matrix = np.concatenate([rows for rows, _ in kept])[-self.tick_cap :]
        times = np.concatenate([t for _, t in kept])[-self.tick_cap :]
        return matrix, times


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
    matrix = np.zeros((tick_cap, window.matrix.shape[1]))
    matrix[pad:] = window.matrix
    times = np.full(tick_cap, -1, dtype=np.int64)
    times[pad:] = window.tick_times
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
    ExtractError naming its line; so does a file with no signal column or
    no row, which :func:`write_rough_csv` never writes (a window has at
    least one signal and one tick)."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if not header or header[0] != "tick":
        raise ExtractError("not a rough CSV: expected a tick,<signals> header")
    if len(header) == 1:
        raise ExtractError("rough CSV has no signal column after 'tick'")
    ticks, values = [], []
    for tick, row in _records(
        reader, len(header), lambda record: (int(record[0]), [float(v) for v in record[1:]])
    ):
        ticks.append(tick)
        values.append(row)
    if not ticks:
        raise ExtractError("rough CSV has no rows after its header")
    return WaveWindow(
        matrix=np.asarray(values),
        tick_times=np.asarray(ticks),
        signals=header[1:],
        label=label,
        scenario_id=scenario_id,
    )


_TEN_POWERS = 10 ** np.arange(1, 20, dtype=np.uint64)


def rough_csv_size(window: WaveWindow) -> int:
    """Characters :func:`write_rough_csv` writes for ``window``, without
    formatting the rows: each row is the tick, one comma and ``repr`` per
    value, and a newline (no ``repr`` of a float needs CSV quoting).

    The leading rows of :func:`standardize`'s padding (tick ``-1``, every
    value ``0.0``) are counted by arithmetic: ``-1`` and ``0.0`` take 2 and
    3 characters."""
    rows, signals = window.matrix.shape
    ticks = window.tick_times
    blank = ticks == -1
    head = rows if blank.all() else int(np.argmin(blank))  # the leading rows at tick -1
    lead = window.matrix[:head]
    zero = ((lead == 0) & ~np.signbit(lead)).all(axis=1)  # every value +0.0, not -0.0
    pad = head if zero.all() else int(np.argmin(zero))
    rest = ticks[pad:]
    # str(t) has one digit, one per power of ten up to |t|, and a sign below zero
    digits = 1 + np.searchsorted(_TEN_POWERS, np.abs(rest).astype(np.uint64), side="right")
    tick_chars = pad * 2 + int(digits.sum()) + int((rest < 0).sum())
    values = pad * signals * 3 + _formatted_size(window.matrix[pad:], repr)
    return _csv_line_length(["tick", *window.signals]) + rows * (signals + 1) + tick_chars + values
