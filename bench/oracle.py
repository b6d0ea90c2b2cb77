"""Independent feature-row oracle for the benchmark's correctness checks.

It imports nothing from wavetriage. It reads a VCD file line by line,
forward-fills the requested signals over every timestamp at which some
value changes, keeps the last ``tick_cap`` rows (or prepends zero rows up
to that length) and computes the nine statistics with plain numpy.
"""

from __future__ import annotations

import numpy as np

STATS = ("mean", "std", "min", "max", "q10", "q25", "q50", "q75", "q90")
QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90)
UNKNOWN = -1.0  # x, never assigned, or a vector holding x/z bits
HIGH_Z = -2.0


def _encode(value: str) -> float:
    if value == "0":
        return 0.0
    if value == "1":
        return 1.0
    if value == "x":
        return UNKNOWN
    if value == "z":
        return HIGH_Z
    if value[0] == "r":
        return float(value[1:])
    if set(value) <= {"0", "1"}:
        return float(int(value, 2))
    return UNKNOWN


def _read_header(handle) -> dict[str, str]:
    """Full signal name -> id code, up to ``$enddefinitions``."""
    ids: dict[str, str] = {}
    scopes: list[str] = []
    for line in handle:
        words = line.split()
        if not words:
            continue
        if words[0] == "$scope":
            scopes.append(words[2])
        elif words[0] == "$upscope":
            scopes.pop()
        elif words[0] == "$var":
            # $var <kind> <width> <id> <name> [<range>] $end
            name = words[4] + "".join(w for w in words[5:-1] if w.startswith("["))
            ids[".".join(scopes + [name])] = words[3]
        elif words[0] == "$enddefinitions":
            return ids
    raise ValueError("no $enddefinitions in waveform header")


def window(path, signals: list[str], tick_cap: int) -> np.ndarray:
    """The standardized (tick_cap x signals) sample matrix of one waveform."""
    with open(path, "r", encoding="latin-1") as handle:
        ids = _read_header(handle)
        columns: dict[str, list[int]] = {}
        for col, name in enumerate(signals):
            columns.setdefault(ids[name], []).append(col)
        current = [UNKNOWN] * len(signals)
        rows: list[list[float]] = []
        row_time = None  # time of the row being filled
        time = 0
        pending = None  # vector or real value waiting for its id
        for line in handle:
            for word in line.split():
                if pending is not None:
                    value, pending, code = pending, None, word
                elif word[0] == "#":
                    time = int(word[1:])
                    continue
                elif word[0] in "01xzXZ":
                    value, code = word[0].lower(), word[1:]
                elif word[0] in "bB":
                    pending = word[1:].lower()
                    continue
                elif word[0] in "rR":
                    pending = "r" + word[1:]
                    continue
                else:  # $dumpvars, $end and friends
                    continue
                # every change opens the row of its timestamp, even one of
                # a signal that is not requested
                if row_time is None:
                    row_time = time
                elif time > row_time:
                    rows.append(list(current))
                    row_time = time
                for col in columns.get(code, ()):
                    current[col] = _encode(value)
        if row_time is None:
            raise ValueError(f"{path}: no value changes")
        rows.append(current)
    matrix = np.array(rows[-tick_cap:], dtype=np.float64)
    if matrix.shape[0] < tick_cap:
        pad = np.zeros((tick_cap - matrix.shape[0], len(signals)))
        matrix = np.vstack([pad, matrix])
    return matrix


def feature_row(path, signals: list[str], tick_cap: int) -> dict[str, float]:
    """``<signal>__<stat>`` -> value for every requested signal."""
    matrix = window(path, signals, tick_cap)
    table = [
        matrix.mean(axis=0),
        matrix.std(axis=0, ddof=1) if matrix.shape[0] > 1 else np.zeros(len(signals)),
        matrix.min(axis=0),
        matrix.max(axis=0),
        *np.quantile(matrix, QUANTILES, axis=0),
    ]
    return {
        f"{signal}__{stat}": float(table[s][c])
        for c, signal in enumerate(signals)
        for s, stat in enumerate(STATS)
    }


def mismatches(expected: dict[str, float], names: list[str], values, rel: float = 1e-9) -> list[str]:
    """Feature names whose value differs from the oracle by more than ``rel``
    relative (with a 1e-12 absolute floor for values that are zero)."""
    bad = []
    for name, got in zip(names, values):
        want = expected[name]
        if abs(got - want) > rel * max(abs(got), abs(want)) + 1e-12:
            bad.append(f"{name}: got {got!r}, oracle {want!r}")
    return bad


def signals_of(feature_names: list[str]) -> list[str]:
    """Signal names in column order from ``<signal>__<stat>`` names."""
    seen: dict[str, None] = {}
    for name in feature_names:
        seen.setdefault(name.rsplit("__", 1)[0], None)
    return list(seen)
