import io
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetriage.extract import (
    Dataset,
    EmptyDump,
    ExtractError,
    FeatureRow,
    HeaderMismatch,
    NonFiniteReal,
    StatSet,
    ValueEncoding,
    WaveWindow,
    assemble,
    dataset_csv_sizes,
    read_dataset_csv,
    read_rough_csv,
    rough_csv_size,
    sample_window,
    standardize,
    summarize,
    write_dataset_csv,
    write_rough_csv,
)
from wavetriage.selection import SelectionReport
from wavetriage.vcd import ValueChange

ENC = ValueEncoding()
NON_FINITE_REALS = ["rinf", "r-inf", "rnan", "r1e309", "r-1e309"]


def make_selection(*entries):
    selected = [(name, id_code, width, "mod") for name, id_code, width in entries]
    return SelectionReport(
        selected=selected, dropped_count=0, per_target_counts={"mod": len(selected)}
    )


def window_of(matrix, label="mod", scenario_id="s0"):
    matrix = np.asarray(matrix, dtype=float)
    return WaveWindow(
        matrix=matrix,
        tick_times=np.arange(matrix.shape[0]),
        signals=[f"top.s{i}" for i in range(matrix.shape[1])],
        label=label,
        scenario_id=scenario_id,
    )


class TestEncoding:
    def test_scalars(self):
        assert ENC.encode("0") == 0.0
        assert ENC.encode("1") == 1.0
        assert ENC.encode("x") == -1.0
        assert ENC.encode("z") == -2.0

    def test_defined_vector_is_unsigned_value(self):
        assert ENC.encode("1010") == 10.0
        assert ENC.encode("0001") == 1.0

    def test_vector_with_unknown_collapses_to_x(self):
        assert ENC.encode("x01") == -1.0
        assert ENC.encode("1z0") == -1.0

    def test_real_passthrough(self):
        assert ENC.encode("r3.25") == 3.25

    @pytest.mark.parametrize("value", NON_FINITE_REALS)
    def test_non_finite_real_passthrough(self, value):
        assert not math.isfinite(ENC.encode(value))

    @pytest.mark.parametrize(
        "value",
        ["1" * 1024, "1" + "0" * 1024, "1" * 4096, "1" + "0" * 4095],
        ids=["1024-ones", "1025-bits", "4096-ones", "4096-bits"],
    )
    def test_vector_beyond_float_range_saturates(self, value):
        assert ENC.encode(value) == sys.float_info.max

    def test_wide_vector_with_leading_zeros_is_exact(self):
        assert ENC.encode("0" * 1977 + "1" * 24) == float(2**24 - 1)
        assert ENC.encode("0" * 978 + "1" * 1023) == float(2**1023 - 1)
        assert ENC.encode("1" * 1023) < ENC.encode("1" * 1024)


class TestSampleWindow:
    def test_forward_fill_across_unrelated_ticks(self):
        # sig "!" changes at 0 and 5; "@" also changes at 9 so timestamps are {0,5,9}
        changes = [
            ValueChange(0, "!", "0"),
            ValueChange(0, "@", "0"),
            ValueChange(5, "!", "1"),
            ValueChange(9, "@", "1"),
        ]
        sel = make_selection(("top.a", "!", 1))
        win = sample_window(changes, sel, tick_cap=2)
        assert win.tick_times.tolist() == [5, 9]
        assert win.matrix[:, 0].tolist() == [1.0, 1.0]
        assert win.available_ticks == 3

    def test_cap_larger_than_available(self):
        changes = [ValueChange(0, "!", "0"), ValueChange(5, "!", "1")]
        sel = make_selection(("top.a", "!", 1))
        win = sample_window(changes, sel, tick_cap=100)
        assert win.matrix.shape == (2, 1)

    def test_never_assigned_signal_is_x(self):
        changes = [ValueChange(0, "@", "1"), ValueChange(3, "@", "0")]
        sel = make_selection(("top.a", "!", 1), ("top.b", "@", 1))
        win = sample_window(changes, sel, tick_cap=10)
        assert win.matrix[:, 0].tolist() == [ENC.x_value] * 2

    def test_empty_dump(self):
        with pytest.raises(EmptyDump):
            sample_window([], make_selection(("top.a", "!", 1)), tick_cap=5)

    def test_aliased_id_fans_out(self):
        changes = [ValueChange(0, "!", "1")]
        sel = make_selection(("top.a", "!", 1), ("top.u.b", "!", 1))
        win = sample_window(changes, sel, tick_cap=5)
        assert win.matrix.tolist() == [[1.0, 1.0]]

    @pytest.mark.parametrize("value", NON_FINITE_REALS)
    def test_non_finite_real_in_window_raises(self, value):
        changes = [
            ValueChange(0, "!", "r1.5"),
            ValueChange(3, "@", "1"),
            ValueChange(5, "!", value),
            ValueChange(9, "@", "0"),
        ]
        sel = make_selection(("top.b", "@", 1), ("top.a", "!", 64))
        with pytest.raises(NonFiniteReal, match=r"signal 'top\.a' holds non-finite value .* at time 5 "):
            sample_window(changes, sel, tick_cap=2)

    @pytest.mark.parametrize("value", NON_FINITE_REALS)
    def test_non_finite_real_before_window_is_harmless(self, value):
        changes = [
            ValueChange(0, "!", value),
            ValueChange(3, "!", "r2.5"),
            ValueChange(5, "@", "1"),
            ValueChange(9, "@", "0"),
        ]
        sel = make_selection(("top.a", "!", 64), ("top.b", "@", 1))
        win = sample_window(changes, sel, tick_cap=2)
        assert win.tick_times.tolist() == [5, 9]
        assert win.matrix.tolist() == [[2.5, 1.0], [2.5, 0.0]]
        assert np.isfinite(summarize(standardize(win, 2)).features).all()

    def test_matches_brute_force_replay(self):
        rng = random.Random(5)
        for _ in range(30):
            n_sigs = rng.randrange(1, 10)
            ids = [chr(33 + i) for i in range(n_sigs)]
            changes = []
            t = 0
            for _ in range(rng.randrange(1, 100)):
                t += rng.randrange(0, 3)
                changes.append(ValueChange(t, rng.choice(ids), rng.choice("01xz")))
            cap = rng.randrange(1, 12)
            sel = make_selection(*[(f"top.s{i}", ids[i], 1) for i in range(n_sigs)])
            win = sample_window(changes, sel, tick_cap=cap)

            # oracle: per kept timestamp, replay the full list from scratch
            stamps = sorted({c.time for c in changes})[-cap:]
            expected = []
            for stamp in stamps:
                row = []
                for code in ids:
                    past = [c.value for c in changes if c.id_code == code and c.time <= stamp]
                    row.append(ENC.encode(past[-1]) if past else ENC.x_value)
                expected.append(row)
            assert win.tick_times.tolist() == stamps
            assert win.matrix.tolist() == expected


class TestStandardize:
    def test_trim_keeps_last_rows(self):
        win = window_of(np.arange(25).reshape(25, 1))
        out = standardize(win, tick_cap=20)
        assert out.matrix[:, 0].tolist() == list(range(5, 25))

    def test_pad_prepends_zeros(self):
        win = window_of(np.ones((12, 2)))
        out = standardize(win, tick_cap=20)
        assert out.matrix.shape == (20, 2)
        assert out.matrix[:8].sum() == 0.0
        assert out.matrix[8:].sum() == 24.0
        assert out.tick_times[:8].tolist() == [-1] * 8

    def test_exact_length_is_identity(self):
        win = window_of(np.ones((7, 3)))
        assert standardize(win, tick_cap=7) is win

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 60), st.integers(1, 20))
    def test_length_law(self, rows, cap):
        if rows == 0:
            matrix = np.empty((0, 2))
        else:
            matrix = np.arange(rows * 2).reshape(rows, 2)
        win = window_of(matrix)
        assert standardize(win, tick_cap=cap).matrix.shape[0] == cap


class TestSummarize:
    def test_constant_column(self):
        row = summarize(window_of(np.full((10, 1), 5.0)))
        assert row.features.tolist() == [5.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]

    def test_two_point_column(self):
        row = summarize(window_of(np.array([[0.0], [1.0]])))
        by_name = dict(zip(row.feature_names, row.features))
        assert by_name["top.s0__mean"] == 0.5
        assert math.isclose(by_name["top.s0__std"], math.sqrt(0.5), abs_tol=1e-12)
        assert by_name["top.s0__q50"] == 0.5

    def test_signal_major_layout(self):
        row = summarize(window_of(np.zeros((4, 3))))
        assert len(row.features) == 27
        assert row.feature_names[:2] == ["top.s0__mean", "top.s0__std"]
        assert row.feature_names[9] == "top.s1__mean"

    def test_matches_brute_force_statistics(self):
        rng = np.random.default_rng(11)
        stats = StatSet()
        for _ in range(20):
            rows = int(rng.integers(2, 40))
            cols = int(rng.integers(1, 6))
            matrix = rng.normal(size=(rows, cols)) * 10
            got = summarize(window_of(matrix), stats).features

            def brute_quantile(values, q):
                ordered = sorted(values)
                pos = q * (len(ordered) - 1)
                lo, hi = int(math.floor(pos)), int(math.ceil(pos))
                frac = pos - lo
                return ordered[lo] * (1 - frac) + ordered[hi] * frac

            expected = []
            for c in range(cols):
                col = [float(v) for v in matrix[:, c]]
                mean = sum(col) / len(col)
                var = sum((v - mean) ** 2 for v in col) / (len(col) - 1)
                expected += [mean, math.sqrt(var), min(col), max(col)]
                expected += [brute_quantile(col, q) for q in (0.1, 0.25, 0.5, 0.75, 0.9)]
            assert np.allclose(got, expected, atol=1e-9, rtol=0)

    def test_columns_near_the_float_limit_stay_finite(self):
        big = sys.float_info.max
        column = [big, -2.0, big, 3.0, big]
        plain = np.array([0.5, 1.0, -4.0, 2.0, 7.0])
        stats = StatSet()
        got = stats.compute(np.column_stack([column, plain]))
        assert np.isfinite(got).all()
        # the ordinary column is computed as before, bit for bit
        assert got[1].tobytes() == stats.compute(plain[:, None])[0].tobytes()
        by_name = dict(zip(stats.names, got[0]))
        # exact references, scaled by big so that nothing overflows
        scaled = [v / big for v in column]
        mean = sum(scaled) / len(scaled)
        var = sum((v - mean) ** 2 for v in scaled) / (len(scaled) - 1)
        assert by_name["mean"] == pytest.approx(mean * big, rel=1e-15)
        assert by_name["std"] == pytest.approx(math.sqrt(var) * big, rel=1e-15)
        assert (by_name["min"], by_name["max"], by_name["q50"]) == (-2.0, big, big)
        assert by_name["q25"] == 3.0

    def test_custom_stat_set_parse(self):
        stats = StatSet.parse("mean,q50")
        row = summarize(window_of(np.ones((3, 2))), stats)
        assert row.feature_names == [
            "top.s0__mean",
            "top.s0__q50",
            "top.s1__mean",
            "top.s1__q50",
        ]

    def test_unknown_stat_rejected(self):
        with pytest.raises(ValueError):
            StatSet(("mean", "mode"))


class TestAssemble:
    def rows(self, labels):
        return [
            FeatureRow(
                features=np.array([float(i), 1.0]),
                feature_names=["a__mean", "a__std"],
                label=label,
                scenario_id=f"s{i}",
            )
            for i, label in enumerate(labels)
        ]

    def test_header_mismatch(self):
        rows = self.rows(["A", "B"])
        rows[1].feature_names = ["b__mean", "b__std"]
        with pytest.raises(HeaderMismatch):
            assemble(rows)

    def test_row_size_independent_of_window_length(self):
        short = summarize(window_of(np.ones((5, 3))))
        long = summarize(window_of(np.ones((500, 3))))
        assert len(short.features) == len(long.features)


class TestCsv:
    def test_round_trip(self):
        ds = assemble(
            [
                FeatureRow(np.array([1.5, -2.0]), ["a__mean", "a__std"], "A", "s0"),
                FeatureRow(np.array([0.25, 3.5]), ["a__mean", "a__std"], "B", "s1"),
            ]
        )
        buf = io.StringIO()
        write_dataset_csv(ds, buf)
        clone = read_dataset_csv(io.StringIO(buf.getvalue()))
        assert clone.feature_names == ds.feature_names
        assert clone.labels == ds.labels
        assert clone.scenario_ids == ds.scenario_ids == ["s0", "s1"]
        assert np.array_equal(clone.matrix, ds.matrix)

    def test_write_is_deterministic(self):
        ds = assemble([FeatureRow(np.array([1.0]), ["a__mean"], "A", "s0")])
        a, b = io.StringIO(), io.StringIO()
        write_dataset_csv(ds, a)
        write_dataset_csv(ds, b)
        assert a.getvalue() == b.getvalue()

    def test_rough_csv_shape(self):
        win = window_of(np.arange(6).reshape(3, 2))
        buf = io.StringIO()
        write_rough_csv(win, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "tick,top.s0,top.s1"
        assert len(lines) == 4

    def test_rough_csv_round_trip(self):
        # padding rows (tick -1), a signed zero and a value repr writes in full
        win = standardize(window_of([[0.1, -0.0], [1e-300, 2.0 / 3.0]]), 4)
        buf = io.StringIO()
        write_rough_csv(win, buf)
        clone = read_rough_csv(io.StringIO(buf.getvalue()), "mod", "s7")
        assert clone.signals == win.signals
        assert clone.tick_times.tolist() == [-1, -1, 0, 1]
        assert clone.matrix.tobytes() == win.matrix.tobytes()
        assert (clone.label, clone.scenario_id) == ("mod", "s7")

    @pytest.mark.parametrize("text", ["", "scenario_id,label\n"])
    def test_read_rough_csv_rejects_another_file(self, text):
        with pytest.raises(ExtractError, match="not a rough CSV"):
            read_rough_csv(io.StringIO(text), "mod", "s0")

    @pytest.mark.parametrize(
        "text, says",
        [
            ("scenario_id,label,a__mean\ns0,A,1.5\ns1,B\n", "line 3: 2 fields, but the header has 3"),
            ("scenario_id,label,a__mean\ns0,A,1.5,2\n", "line 2: 4 fields, but the header has 3"),
            ("scenario_id,label,a__mean\n\ns0,A,1.5e\n", "line 3: could not convert string to float: '1.5e'"),
            ('scenario_id,label,a__mean\n"s\n0",A,x\n', "line 3: could not convert string to float: 'x'"),
        ],
    )
    def test_read_dataset_csv_names_the_line_of_a_bad_record(self, text, says):
        with pytest.raises(ExtractError) as info:
            read_dataset_csv(io.StringIO(text))
        assert str(info.value) == says

    @pytest.mark.parametrize(
        "text, says",
        [
            ("tick,top.s0,top.s1\n0,1.0,2.0\n1,1.0\n", "line 3: 2 fields, but the header has 3"),
            ("tick,top.s0\n0.5,1.0\n", "line 2: invalid literal for int() with base 10: '0.5'"),
            ("tick,top.s0\n0,1.0\n1,one\n", "line 3: could not convert string to float: 'one'"),
        ],
    )
    def test_read_rough_csv_names_the_line_of_a_bad_record(self, text, says):
        with pytest.raises(ExtractError) as info:
            read_rough_csv(io.StringIO(text), "mod", "s0")
        assert str(info.value) == says

    def test_dataset_subset_signals(self):
        ds = assemble(
            [
                FeatureRow(
                    np.array([1.0, 2.0, 3.0, 4.0]),
                    ["a__mean", "a__std", "b__mean", "b__std"],
                    "A",
                    "s0",
                )
            ]
        )
        assert ds.signal_names() == ["a", "b"]
        sub = ds.subset_signals(["b"])
        assert sub.feature_names == ["b__mean", "b__std"]
        assert sub.matrix.tolist() == [[3.0, 4.0]]


# Values whose formatted length is easy to get wrong: signed zeros, the x/z
# encodings, reals, the 2- to 3-digit exponent edge of "%.17e", a float below
# a power of ten that formats as that power (1e153 < 10**153) and subnormals.
EDGE_VALUES = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    -2.0,
    3.14159,
    -123456.789,
    1e-5,
    1e16,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1e99,
    9.999999999999999e99,
    1e100,
    -1e100,
    1e-99,
    9.99999999999999999e-100,
    1e-100,
    1.0000000000000001e-100,
    1e153,
    2.2250738585072014e-308,
    5e-324,
    -5e-324,
    1.5e-310,
]


class TestByteCounts:
    def _edge_matrix(self, rows=7):
        rng = random.Random(5)
        return np.array([[rng.choice(EDGE_VALUES) for _ in range(len(EDGE_VALUES))] for _ in range(rows)])

    def test_rough_size_equals_formatted_length(self):
        matrix = np.vstack([np.array([EDGE_VALUES]), self._edge_matrix()])
        for cap in (matrix.shape[0], 3, 40):  # as is, trimmed, zero-padded
            win = standardize(window_of(matrix), cap)
            buf = io.StringIO()
            write_rough_csv(win, buf)
            assert rough_csv_size(win) == len(buf.getvalue())

    def test_rough_size_of_a_sampled_window(self):
        sel = make_selection(("top.a", "!", 1), ("top.b", "%", 8), ("top.r", "&", 64))
        changes = [
            ValueChange(0, "!", "x"),
            ValueChange(3, "%", "1x01"),
            ValueChange(3, "!", "z"),
            ValueChange(8, "&", "r-0.0"),
            ValueChange(12, "%", "11111111"),
            ValueChange(12, "&", "r1e-320"),
        ]
        win = standardize(sample_window(changes, sel, tick_cap=10), 10)
        buf = io.StringIO()
        write_rough_csv(win, buf)
        assert rough_csv_size(win) == len(buf.getvalue())

    def test_rough_size_of_a_mostly_padded_window(self):
        # standardize's padding rows (tick -1, every value 0.0) are counted
        # by arithmetic; the rows after them are formatted as ever
        matrix = np.vstack([np.zeros((3, 4)), np.array([EDGE_VALUES[:4]]), np.zeros((1, 4))])
        win = standardize(window_of(matrix), 2000)
        win.tick_times[-5:] = [-1, 0, 9, 10**18, 7]
        buf = io.StringIO()
        write_rough_csv(win, buf)
        assert rough_csv_size(win) == len(buf.getvalue())

    def test_rough_size_of_a_read_back_window_with_negative_zero(self):
        # -0.0 formats as 4 characters: a tick -1 row holding it ends the padding
        text = "tick,top.a,top.b\n-1,0.0,0.0\n-1,0.0,-0.0\n-1,0.0,0.0\n-12,-0.0,1.5\n3,0.0,0.0\n"
        win = read_rough_csv(io.StringIO(text), "mod", "s0")
        buf = io.StringIO()
        write_rough_csv(win, buf)
        assert buf.getvalue() == text
        assert rough_csv_size(win) == len(text)

    def test_rough_size_keeps_quoted_signal_names(self):
        win = window_of(np.zeros((2, 2)))
        win.signals = ['top.a,b', 'top."q"']
        buf = io.StringIO()
        write_rough_csv(win, buf)
        assert rough_csv_size(win) == len(buf.getvalue())

    def test_dataset_sizes_equal_formatted_lengths(self):
        matrix = np.vstack([np.array([EDGE_VALUES]), self._edge_matrix(5)])
        names = [f"s{i}__mean" for i in range(matrix.shape[1])]
        ds = Dataset(
            feature_names=names,
            matrix=matrix,
            labels=["alu", "a,b", 'q"q', "", "x", "y"],
            scenario_ids=["s0", "s1", "s2", "", "s 4", "s5#01"],
        )
        buf = io.StringIO()
        write_dataset_csv(ds, buf)
        header, rows = dataset_csv_sizes(ds)
        lines = buf.getvalue().splitlines(keepends=True)
        assert [header, *rows] == [len(line) for line in lines]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
    def test_sizes_of_random_floats(self, values):
        matrix = np.array([values, values[::-1]])
        buf = io.StringIO()
        write_rough_csv(window_of(matrix), buf)
        assert rough_csv_size(window_of(matrix)) == len(buf.getvalue())
        ds = Dataset([f"f{i}" for i in range(len(values))], matrix, ["a", "b"], ["s0", "s1"])
        buf = io.StringIO()
        write_dataset_csv(ds, buf)
        header, rows = dataset_csv_sizes(ds)
        assert header + sum(rows) == len(buf.getvalue())

    def test_dataset_sizes_of_an_empty_dataset(self):
        ds = Dataset(["a__mean"], np.empty((0, 1)), [], [])
        buf = io.StringIO()
        write_dataset_csv(ds, buf)
        assert dataset_csv_sizes(ds) == (len(buf.getvalue()), [])
