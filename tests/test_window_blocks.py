"""The columnar window path against the per-token loop and against the
window sampler as it was before it read blocks: the same window, or the
same error, for the same body, at any block size."""

import io
import subprocess
import sys
from collections import deque
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetriage import DataError, extract, vcd
from wavetriage.extract import EmptyDump, NonFiniteReal, ValueEncoding, WaveWindow, sample_window
from wavetriage.selection import SelectionReport

ENC = ValueEncoding()
BLOCK_SIZES = (1, 7, 4096, 1 << 18)
# ids that a value token could be taken for, and one of more than 7 bytes
IDS = ["!", "b", "B7", "r", "R", "9", "$", "$end1", "bx", "long_identifier"]


def reference_sample_window(changes, selection, tick_cap, label="", scenario_id=""):
    """``extract.sample_window`` as it was before it read columnar blocks:
    one Python branch and one state copy per change and per row."""
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

    current = [ENC.x_value] * len(names)
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
                number = encoded[value] = ENC.encode(value)
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


def outcome(sample, body: bytes, selection, tick_cap: int, feed):
    """The window's rows, times and timestamp count, or the error's class and message."""
    try:
        window = sample(feed(vcd.stream_changes(io.BytesIO(body))), selection, tick_cap)
    except DataError as exc:
        return type(exc), str(exc)
    return window.matrix.tobytes(), window.tick_times.tobytes(), window.available_ticks


# widths to 80, past the 64 bits that the decoder reads as one integer; half
# of them defined, since a random 01xzXZ vector of a few bits is all but
# certain to hold an x or a z
bits = st.integers(1, 80).flatmap(
    lambda n: st.one_of(st.text("01", min_size=n, max_size=n), st.text("01xzXZ", min_size=n, max_size=n))
)
ident = st.sampled_from(IDS)
common_record = st.one_of(
    st.tuples(st.sampled_from("01xzXZ"), ident).map("".join),
    st.tuples(st.sampled_from("bB"), bits, ident).map(lambda r: f"{r[0]}{r[1]} {r[2]}"),
    st.integers(0, 3).map(lambda step: ("step", step)),
)
rare_record = st.one_of(
    st.tuples(st.sampled_from(["r1.5", "R-0.0", "r2e3", "rinf"]), ident).map(" ".join),
    st.sampled_from(["$dumpvars", "$end", "$comment #1 b1 ! 0$ $end", "$comment $comment b1 $end"]),
)
bad_record = st.sampled_from(["#x", "bq !", "$bogus", "#-1", "b01", "1", "#0", "b1 $comment", "r1.x !"])


@st.composite
def bodies(draw):
    """A body of records in file order: changes before the first timestamp,
    repeated and skipped timestamps, in half the bodies reals and
    keywords, and in about one body of four a bad record (``#0`` goes back
    in time once a timestamp has moved on)."""
    records = st.one_of(common_record, rare_record) if draw(st.booleans()) else common_record
    tokens, time = [], 0
    for _ in range(draw(st.integers(1, 80))):
        item = draw(records)
        if isinstance(item, tuple):
            time += item[1]
            item = f"#{time}"
        tokens.append(item)
    bad = draw(st.one_of(st.none(), st.none(), st.none(), bad_record))
    if bad is not None:
        tokens.insert(draw(st.integers(0, len(tokens))), bad)
    gaps = st.sampled_from([" ", "\n", "\t", "\r\n", "  \n"])
    seps = draw(st.lists(gaps, min_size=len(tokens), max_size=len(tokens)))
    return "".join(t + s for t, s in zip(tokens, seps)).encode("latin-1")


@st.composite
def selections(draw):
    id_codes = draw(st.lists(ident, min_size=1, max_size=6))
    entries = [(f"top.s{i}", id_code, 64, "m") for i, id_code in enumerate(id_codes)]
    entries.append(("top.alias", entries[0][1], 64, "m"))  # one id in two columns
    return SelectionReport(entries, 0, {"m": len(entries)})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(body=bodies(), selection=selections(), tick_cap=st.integers(1, 30))
def test_block_path_matches_the_per_token_loop_and_the_old_sampler(body, selection, tick_cap):
    for block in BLOCK_SIZES:
        with mock.patch.object(vcd, "_BLOCK_CHARS", block):
            columnar = outcome(sample_window, body, selection, tick_cap, lambda s: s)
            per_token = outcome(sample_window, body, selection, tick_cap, lambda s: (c for c in s))
            old = outcome(reference_sample_window, body, selection, tick_cap, lambda s: s)
            # a stream already pulled from samples what is left of it
            pulled = outcome(sample_window, body, selection, tick_cap, after_one)
            pulled_old = outcome(reference_sample_window, body, selection, tick_cap, after_one)
        assert columnar == per_token == old, block
        assert pulled == pulled_old, block


def after_one(stream):
    next(stream, None)
    return stream


def test_wide_vectors_reals_comments_and_long_ids_are_decoded_in_the_block():
    """Only a bad record, text that is not latin-1 or a comment cut by the
    block's end leave a block to the per-token loop."""
    wide = [
        "1" * 64,
        # added up in floats byte by byte from the top, this one rounds the other way
        "1100111010011001100100111100101100110000000010101001010001110110",
        "1" * 53 + "0" * 10 + "1",
        "1" + "0" * 52 + "1" + "0" * 10,  # halfway: to even
        "0" * 70 + "101",
        "1" * 80,
        "10X1",
        "x" + "0" * 20,  # unknown in its top byte only
        "z",
    ]
    ids = [chr(ord("!") + k) for k in range(len(wide))]
    lines = ["$comment b1 $end", "#0", "$dumpvars", "r1.5 long_identifier", "1!", "$end", "#1"]
    lines += [f"b{v} {i}" for v, i in zip(wide, ids)] + ["R-2.5e3 long_identifier", "#2", "b0 !"]
    body = ("\n".join(lines) + "\n").encode()
    entries = [(f"top.w{k}", i, 80, "m") for k, i in enumerate(ids)] + [("top.r", "long_identifier", 64, "m")]
    selection = SelectionReport(entries, 0, {"m": len(entries)})
    decoded = []
    real_decode = extract._SelectedIds.decode
    with mock.patch.object(
        extract._SelectedIds, "decode", lambda self, *a: decoded.append(real_decode(self, *a)) or decoded[-1]
    ):
        window = sample_window(vcd.stream_changes(io.BytesIO(body)), selection, 10)
    assert len(decoded) == 1 and decoded[0] is not None
    old = reference_sample_window(vcd.stream_changes(io.BytesIO(body)), selection, 10)
    assert window.matrix.tobytes() == old.matrix.tobytes()
    assert window.tick_times.tolist() == old.tick_times.tolist() == [0, 1, 2]
    assert window.matrix[1].tolist() == [ENC.encode(v.lower()) for v in wide] + [-2500.0]


def test_parsing_modules_load_no_numpy():
    """The parsing side stays standard library only."""
    src = Path(vcd.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "import wavetriage.vcd, wavetriage.rtl, wavetriage.selection, wavetriage.mutate, wavetriage.sysio\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(src)!r})\n" + script],
        capture_output=True, text=True,
    )
    assert proc.stdout.split() == ["False"], proc.stderr
