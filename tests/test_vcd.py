import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetriage import vcd
from wavetriage.vcd import (
    DuplicateFullName,
    MalformedChange,
    MalformedHeader,
    Scope,
    ScopeTree,
    SignalDecl,
    TimeRegression,
    Timescale,
    UndeclaredId,
    ValueChange,
    list_full_names,
    parse_header,
    stream_changes,
    write_vcd,
)

EXAMPLE_1 = "$timescale 1ns $end\n$scope module top $end\n$var wire 1 ! clk $end\n$upscope $end\n$enddefinitions $end\n"


def parse_all(text, id_filter=frozenset()):
    stream = io.StringIO(text)
    tree = parse_header(stream)
    return tree, list(stream_changes(stream, id_filter))


def test_parse_minimal_header():
    tree = parse_header(io.StringIO(EXAMPLE_1))
    assert tree.timescale == Timescale(1, "ns")
    assert list_full_names(tree) == [("top.clk", "!", 1)]


def test_parse_single_line_header_and_body():
    text = (
        "$timescale 1ns $end $scope module top $end $var wire 1 ! clk $end "
        "$upscope $end $enddefinitions $end\n"
        "#0 0! #5 1!\n"
    )
    stream = io.StringIO(text)
    tree = parse_header(stream)
    assert list_full_names(tree) == [("top.clk", "!", 1)]
    assert list(stream_changes(stream, {"!"})) == [
        ValueChange(0, "!", "0"),
        ValueChange(5, "!", "1"),
    ]


def test_nested_scope_full_name():
    text = (
        "$timescale 10us $end\n"
        "$scope module top $end\n"
        "$scope module u_alu $end\n"
        "$var reg 1 # busy $end\n"
        "$upscope $end\n$upscope $end\n"
        "$enddefinitions $end\n"
    )
    tree = parse_header(io.StringIO(text))
    assert list_full_names(tree) == [("top.u_alu.busy", "#", 1)]
    assert tree.timescale == Timescale(10, "us")


def test_missing_enddefinitions_is_malformed():
    text = "$timescale 1ns $end\n$scope module top $end\n$var wire 1 ! clk $end\n$upscope $end\n"
    with pytest.raises(MalformedHeader):
        parse_header(io.StringIO(text))


def test_unknown_var_kind_maps_to_other():
    text = "$scope module t $end\n$var tri0 1 ! n $end\n$upscope $end\n$enddefinitions $end\n"
    tree = parse_header(io.StringIO(text))
    sig = next(tree.iter_signals())
    assert sig.kind == "other"
    assert sig.kind_raw == "tri0"


def test_real_var_flagged():
    text = "$scope module t $end\n$var real 64 ! v $end\n$upscope $end\n$enddefinitions $end\n"
    tree = parse_header(io.StringIO(text))
    sig = next(tree.iter_signals())
    assert sig.kind == "other"
    assert sig.kind_raw == "real"


def test_duplicate_full_name_rejected():
    text = (
        "$scope module t $end\n"
        "$var wire 1 ! a $end\n"
        "$var wire 1 @ a $end\n"
        "$upscope $end\n$enddefinitions $end\n"
    )
    with pytest.raises(DuplicateFullName):
        parse_header(io.StringIO(text))


def test_aliased_id_under_two_scopes():
    text = (
        "$scope module t $end\n"
        "$var wire 1 ! a $end\n"
        "$scope module u $end\n"
        "$var wire 1 ! a_mirror $end\n"
        "$upscope $end\n$upscope $end\n$enddefinitions $end\n"
    )
    tree = parse_header(io.StringIO(text))
    names = list_full_names(tree)
    assert names == [("t.a", "!", 1), ("t.u.a_mirror", "!", 1)]
    assert names[0][1] == names[1][1]


def test_var_with_bit_range_token():
    text = "$scope module t $end\n$var wire 8 % data [7:0] $end\n$upscope $end\n$enddefinitions $end\n"
    tree = parse_header(io.StringIO(text))
    assert list_full_names(tree) == [("t.data[7:0]", "%", 8)]


def test_stream_changes_basic_and_filter():
    body = "#0\n0!\n#5\n1!\n"
    _, changes = parse_all(EXAMPLE_1 + body, {"!"})
    assert changes == [ValueChange(0, "!", "0"), ValueChange(5, "!", "1")]
    _, excluded = parse_all(EXAMPLE_1 + body, {"@"})
    assert excluded == []


def test_stream_changes_vector_with_x():
    header = "$scope module t $end\n$var wire 4 % bus $end\n$upscope $end\n$enddefinitions $end\n"
    _, changes = parse_all(header + "#3\nbx01 %\n")
    assert changes == [ValueChange(3, "%", "x01")]


def test_changes_before_first_timestamp_are_at_zero():
    _, changes = parse_all(EXAMPLE_1 + "$dumpvars\nx!\n$end\n#4\n1!\n")
    assert changes == [ValueChange(0, "!", "x"), ValueChange(4, "!", "1")]


def test_time_regression_raises():
    stream = io.StringIO(EXAMPLE_1 + "#5\n1!\n#2\n0!\n")
    parse_header(stream)
    with pytest.raises(TimeRegression, match="5 -> 2"):
        list(stream_changes(stream))


def test_malformed_change_strict_raises():
    with pytest.raises(MalformedChange):
        parse_all(EXAMPLE_1 + "#0\nq!\n")


def test_timestamp_overflow_is_error():
    with pytest.raises(MalformedChange):
        parse_all(EXAMPLE_1 + f"#{2**64}\n1!\n")


def test_write_canonical_bytes():
    tree = parse_header(io.StringIO(EXAMPLE_1))
    out = write_vcd(tree, [ValueChange(0, "!", "0"), ValueChange(5, "!", "1")])
    assert out == (EXAMPLE_1 + "#0\n0!\n#5\n1!\n").encode()


def test_write_empty_changes_header_only():
    tree = parse_header(io.StringIO(EXAMPLE_1))
    data = write_vcd(tree, [])
    stream = io.StringIO(data.decode())
    tree2 = parse_header(stream)
    assert tree2 == tree
    assert list(stream_changes(stream)) == []


def test_write_undeclared_id_rejected():
    tree = parse_header(io.StringIO(EXAMPLE_1))
    with pytest.raises(UndeclaredId):
        write_vcd(tree, [ValueChange(0, "?", "1")])


def test_write_time_regression_rejected():
    tree = parse_header(io.StringIO(EXAMPLE_1))
    with pytest.raises(TimeRegression):
        write_vcd(tree, [ValueChange(5, "!", "1"), ValueChange(3, "!", "0")])


def _random_tree_and_changes(rng, n_signals=50, n_changes=200):
    ids = [chr(33 + i) if 33 + i < 127 else f"s{i}" for i in range(n_signals)]
    top = Scope(name="top")
    inner = Scope(name="u_core")
    top.items.append(inner)
    widths = {}
    for i, code in enumerate(ids):
        width = rng.choice([1, 1, 4, 8, 16])
        widths[code] = width
        decl = SignalDecl(
            id_code=code,
            name=f"sig{i}",
            width=width,
            kind=rng.choice(["wire", "reg", "logic"]),
            scope_path=("top", "u_core") if i % 2 else ("top",),
        )
        (inner if i % 2 else top).items.append(decl)
    tree = ScopeTree(timescale=Timescale(10, "ps"), roots=[top])
    changes = []
    t = 0
    for _ in range(n_changes):
        t += rng.randrange(0, 3)
        code = rng.choice(ids)
        w = widths[code]
        if w == 1:
            value = rng.choice("01xz")
        else:
            length = rng.randrange(1, w + 1)
            value = "".join(rng.choice("01xz") for _ in range(length))
        changes.append(ValueChange(t, code, value))
    return tree, changes


def test_random_round_trip():
    rng = random.Random(7)
    tree, changes = _random_tree_and_changes(rng, n_signals=50, n_changes=10_000)
    data = write_vcd(tree, changes)
    stream = io.StringIO(data.decode("latin-1"))
    tree2 = parse_header(stream)
    changes2 = list(stream_changes(stream))
    assert tree2 == tree
    assert changes2 == changes


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_trip_property(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    tree, changes = _random_tree_and_changes(
        rng, n_signals=rng.randrange(1, 12), n_changes=rng.randrange(0, 60)
    )
    blob = write_vcd(tree, changes)
    stream = io.StringIO(blob.decode("latin-1"))
    assert parse_header(stream) == tree
    assert list(stream_changes(stream)) == changes


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_filter_soundness_property(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    tree, changes = _random_tree_and_changes(
        rng, n_signals=rng.randrange(2, 10), n_changes=rng.randrange(0, 80)
    )
    ids = sorted({c.id_code for c in changes})
    chosen = frozenset(rng.sample(ids, k=rng.randrange(0, len(ids) + 1))) if ids else frozenset()
    blob = write_vcd(tree, changes).decode("latin-1")

    stream = io.StringIO(blob)
    parse_header(stream)
    unfiltered = list(stream_changes(stream))

    stream = io.StringIO(blob)
    parse_header(stream)
    filtered = list(stream_changes(stream, chosen))

    expected = [c for c in unfiltered if c.id_code in chosen] if chosen else unfiltered
    assert filtered == expected


def test_fuzz_mutations_never_crash():
    rng = random.Random(99)
    tree, changes = _random_tree_and_changes(rng, n_signals=8, n_changes=40)
    base = bytearray(write_vcd(tree, changes))
    crashes = 0
    for _ in range(2000):
        mutated = bytearray(base)
        for _ in range(rng.randrange(1, 4)):
            op = rng.randrange(3)
            pos = rng.randrange(len(mutated))
            if op == 0:
                mutated[pos] = rng.randrange(256)
            elif op == 1:
                del mutated[pos]
            else:
                mutated.insert(pos, rng.randrange(256))
        stream = io.BytesIO(bytes(mutated))
        try:
            parse_header(stream)
            for _ in stream_changes(stream):
                pass
        except vcd.VcdError:
            pass
        except Exception:  # noqa: BLE001 - the property under test
            crashes += 1
    assert crashes == 0


# ---------------------------------------------------------------------------
# Block tokenizer: the same changes and errors as line-by-line splitting,
# whatever the block size and the kind of stream.


def _line_by_line_changes(lines, id_filter=frozenset()):
    """Reference parser: split each line on its own (the parser's behaviour
    before it read in blocks)."""
    keep_all = not id_filter

    current_time = 0
    pending_value = None
    in_comment = False
    for raw in lines:
        if isinstance(raw, bytes):
            raw = raw.decode("latin-1")
        for tok in raw.split():
            if in_comment:
                if tok == "$end":
                    in_comment = False
                continue
            if pending_value is not None:
                value, pending_value = pending_value, None
                if tok in vcd._BODY_KEYWORDS:
                    raise MalformedChange(f"vector value without identifier before {tok!r}")
                if keep_all or tok in id_filter:
                    yield ValueChange(current_time, tok, value)
                continue
            c0 = tok[0]
            if c0 == "#":
                try:
                    t = int(tok[1:])
                except ValueError:
                    raise MalformedChange(f"bad timestamp {tok!r}")
                if t < 0 or t > vcd.MAX_TICK:
                    raise MalformedChange(f"timestamp {tok!r} outside 64-bit tick range")
                if t < current_time:
                    raise TimeRegression(f"timestamp went backwards: {current_time} -> {t}")
                current_time = t
            elif c0 in "01xzXZ":
                ident = tok[1:]
                if not ident:
                    raise MalformedChange(f"scalar change {tok!r} missing identifier")
                if keep_all or ident in id_filter:
                    yield ValueChange(current_time, ident, c0.lower())
            elif c0 in "bB":
                bits = tok[1:].lower()
                if not bits or not set("01xz").issuperset(bits):
                    raise MalformedChange(f"bad vector value {tok!r}")
                pending_value = bits
            elif c0 in "rR":
                num = tok[1:]
                try:
                    float(num)
                except ValueError:
                    raise MalformedChange(f"bad real value {tok!r}")
                pending_value = "r" + num
            elif tok in vcd._BODY_KEYWORDS:
                if tok == "$comment":
                    in_comment = True
            else:
                raise MalformedChange(f"unrecognized change record {tok!r}")
    if pending_value is not None:
        raise MalformedChange("vector value at end of file missing identifier")


def _outcome(parse, stream, **kw):
    """Changes and the raised error of one parse."""
    changes = []
    try:
        for change in parse(stream, **kw):
            changes.append(change)
    except vcd.VcdError as exc:
        error = (type(exc), str(exc))
    else:
        error = None
    return changes, error


def _streams(body: bytes):
    text = body.decode("latin-1")
    yield io.BytesIO(body)
    yield io.StringIO(text)
    yield text.splitlines(keepends=True)
    yield body.splitlines(keepends=True)


TRICKY_BODIES = [
    b"#0\nb1010 %\n1!\n#15\nbx01 %\n0!\n",
    b"#0 1! $comment a comment that spans blocks #99 b1 % $end #12345 0!",  # no newline
    b"#0\n$dumpvars\nx!\nb0 %\n$end\n#7\nr1.25e-3 &\nR2 &\n",
    b"#0\nbq %\n1!\n",  # bad vector value
    b"#0\nb01\n$end\n#2\n1!\n",  # vector without identifier before a keyword
    b"#3\n1!\n#1\n0!\n#x\n",  # the time regression raises before the bad timestamp
    b"#0\n1!\nb10",  # vector at end of file missing identifier
    b"#0\r\n1!\r\n\t#4 \x0b0! \x0cz!\x1cX!\n",  # every whitespace split() knows
    b"#1 b10  \n\n   %  0!",  # value and identifier on different lines
]


@pytest.mark.parametrize("body", TRICKY_BODIES)
@pytest.mark.parametrize("block", [1, 2, 3, 7, 1 << 18])
@pytest.mark.parametrize("filtered", [True, False])
def test_block_tokenizer_matches_line_by_line(monkeypatch, body, block, filtered):
    monkeypatch.setattr(vcd, "_BLOCK_CHARS", block)
    id_filter = {"%"} if filtered else frozenset()
    want = _outcome(_line_by_line_changes, body.splitlines(keepends=True), id_filter=id_filter)
    for stream in _streams(body):
        assert _outcome(stream_changes, stream, id_filter=id_filter) == want


def test_block_tokenizer_after_header_on_a_file(tmp_path, monkeypatch):
    monkeypatch.setattr(vcd, "_BLOCK_CHARS", 5)
    rng = random.Random(3)
    tree, changes = _random_tree_and_changes(rng, n_signals=20, n_changes=500)
    path = tmp_path / "w.vcd"
    path.write_bytes(write_vcd(tree, changes))
    for mode in ("rb", "r"):
        with open(path, mode) as stream:
            assert parse_header(stream) == tree
            assert list(stream_changes(stream)) == changes


def test_block_tokenizer_yields_value_changes():
    stream = io.BytesIO(b"#0\n1!\nb01 %\n")
    changes = list(stream_changes(stream))
    assert all(type(c) is ValueChange for c in changes)
    assert [c.id_code for c in changes] == ["!", "%"]


@pytest.mark.parametrize("block", [1, 4, 13, 1 << 18])
def test_block_tokenizer_matches_line_by_line_on_mutated_dumps(monkeypatch, block):
    monkeypatch.setattr(vcd, "_BLOCK_CHARS", block)
    rng = random.Random(block)
    tree, changes = _random_tree_and_changes(rng, n_signals=8, n_changes=40)
    base = write_vcd(tree, changes)
    body_start = base.index(b"$enddefinitions $end\n") + len(b"$enddefinitions $end\n")
    base = bytearray(base[body_start:] + b"$comment note $end\nr-1.5e3 !\n")
    for _ in range(300):
        mutated = bytearray(base)
        for _ in range(rng.randrange(1, 4)):
            pos = rng.randrange(len(mutated))
            op = rng.randrange(3)
            if op == 0:
                mutated[pos] = rng.randrange(256)
            elif op == 1:
                del mutated[pos]
            else:
                mutated.insert(pos, rng.choice(b" \n$#bx!r"))
        body = bytes(mutated)
        rng.random()  # once drew a lenient/strict switch; kept so the same bodies are checked
        want = _outcome(_line_by_line_changes, body.splitlines(keepends=True))
        assert _outcome(stream_changes, io.BytesIO(body)) == want
