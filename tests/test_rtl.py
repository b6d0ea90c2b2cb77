import ast
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wavetriage
from wavetriage.cli import main as cli_main
from wavetriage.fixtures import MODULE_POOL, gen_design
from wavetriage.rtl import (
    DesignSources,
    DuplicateModule,
    ModuleLookupTable,
    ParseError,
    Token,
    UnknownModule,
    is_identifier,
    module_body_ranges,
    scan_sources,
    signals_for_targets,
    tokenize,
)


def scan_text(text, path="unit.sv"):
    return scan_sources(DesignSources(files=[(path, text)]))


SPEC_EXAMPLE = "module m(input wire a); logic [3:0] s; m2 u1(.x(a)); endmodule"


def test_spec_example_table():
    table = scan_text(SPEC_EXAMPLE)
    assert table.entries["m"] == {"wire": {"a"}, "logic [3:0]": {"s"}}
    assert table.instances["m"] == [("m2", "u1")]


def test_two_modules_one_file():
    table = scan_text("module a; wire x; endmodule\nmodule b; reg y; endmodule")
    assert set(table.entries) == {"a", "b"}
    assert table.entries["a"] == {"wire": {"x"}}
    assert table.entries["b"] == {"reg": {"y"}}


def test_duplicate_module_rejected():
    with pytest.raises(DuplicateModule):
        scan_text("module a; endmodule\nmodule a; endmodule")


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        scan_text("module m;\n  !!bad!!\nendmodule")
    assert err.value.line == 2
    assert err.value.file == "unit.sv"


def test_comment_and_whitespace_insensitive():
    plain = "module m(input wire a);\nlogic [3:0] s;\nm2 u1(.x(a));\nendmodule"
    noisy = (
        "module m ( input /* dir */ wire a ) ;  // ports\n"
        "   logic   [3 : 0]   s ;\n"
        "/* instance */ m2 u1 ( .x(a) ) ;\n"
        "endmodule // m\n"
    )
    assert scan_text(plain).to_json() == scan_text(noisy).to_json()


def test_non_ansi_ports():
    text = (
        "module m(a, b, q);\n"
        "  input a;\n"
        "  input [3:0] b;\n"
        "  output reg q;\n"
        "  wire t;\n"
        "endmodule"
    )
    table = scan_text(text)
    assert table.entries["m"] == {
        "wire": {"a", "t"},
        "wire [3:0]": {"b"},
        "reg": {"q"},
    }


def test_parameters_recorded_not_selected():
    text = (
        "module m #(parameter WIDTH = 8, parameter DEPTH = 4) (input wire a);\n"
        "  localparam IDLE = 2'd0;\n"
        "  wire [WIDTH-1:0] d;\n"
        "endmodule"
    )
    table = scan_text(text)
    assert table.params["m"] == {"WIDTH", "DEPTH", "IDLE"}
    assert table.leaf_names("m") == {"a", "d"}


def test_procedural_bodies_opaque():
    text = (
        "module m(input wire clk);\n"
        "  reg [7:0] q;\n"
        "  always_ff @(posedge clk) begin\n"
        "    if (q == 8'hff) q <= 8'd0;\n"
        "    else q <= q + 8'd1;\n"
        "  end\n"
        "  always_comb begin : named_blk\n"
        "    case (q[1:0])\n"
        "      2'd0: ;\n"
        "      default: ;\n"
        "    endcase\n"
        "  end\n"
        "endmodule"
    )
    table = scan_text(text)
    assert table.leaf_names("m") == {"clk", "q"}


def test_multiple_declarators_one_line():
    table = scan_text("module m; wire a, b, c; reg [1:0] x, y; endmodule")
    assert table.entries["m"]["wire"] == {"a", "b", "c"}
    assert table.entries["m"]["reg [1:0]"] == {"x", "y"}


def test_declaration_with_init_expr():
    table = scan_text("module m; wire [3:0] a = {2'b01, 2'b10}, b; endmodule")
    assert table.entries["m"]["wire [3:0]"] == {"a", "b"}


def test_escaped_identifier_kept_byte_exact():
    table = scan_text("module m; wire \\bus!name ; endmodule")
    assert table.entries["m"]["wire"] == {"\\bus!name"}


def test_generate_block_instances_and_decls():
    text = (
        "module m(input wire clk);\n"
        "  genvar i;\n"
        "  generate\n"
        "    for (i = 0; i < 4; i = i + 1) begin : gen_lane\n"
        "      wire lane_busy;\n"
        "      child u_lane (.clk(clk));\n"
        "    end\n"
        "  endgenerate\n"
        "endmodule\n"
        "module child(input wire clk); endmodule"
    )
    table = scan_text(text)
    assert ("child", "u_lane") in table.instances["m"]
    assert "lane_busy" in table.leaf_names("m")
    assert "i" in table.params["m"]
    assert "i" not in table.leaf_names("m")


def test_instance_array_and_multiple_instances():
    text = "module m; child u0(), u1(); child u_arr[3:0](); endmodule module child; endmodule"
    table = scan_text(text)
    assert table.instances["m"] == [("child", "u0"), ("child", "u1"), ("child", "u_arr")]


def test_functions_and_tasks_skipped():
    text = (
        "module m;\n"
        "  function automatic [7:0] add1(input [7:0] v); add1 = v + 1; endfunction\n"
        "  task do_it; begin end endtask\n"
        "  wire w;\n"
        "endmodule"
    )
    table = scan_text(text)
    assert table.leaf_names("m") == {"w"}


def test_every_var_appears_under_one_type():
    text = "module m(a); input [3:0] a; reg [3:0] a; endmodule"
    table = scan_text(text)
    groups = [dt for dt, names in table.entries["m"].items() if "a" in names]
    assert groups == ["reg [3:0]"]


def test_signals_for_targets_basic():
    table = scan_text(SPEC_EXAMPLE + " module m2(input wire x); reg q; endmodule")
    assert signals_for_targets(table, {"m"}) == {"m": {"a", "s"}}
    result = signals_for_targets(table, {"m", "m2"})
    assert result == {"m": {"a", "s"}, "m2": {"x", "q"}}


def test_signals_for_targets_empty_and_unknown():
    table = scan_text(SPEC_EXAMPLE)
    assert signals_for_targets(table, set()) == {}
    with pytest.raises(UnknownModule):
        signals_for_targets(table, {"nope"})


def test_signals_for_targets_monotone():
    table = scan_text(
        "module a; wire x; b u(); endmodule module b; wire y; endmodule"
    )
    small = signals_for_targets(table, {"a"})
    big = signals_for_targets(table, {"a", "b"})
    for target, names in small.items():
        assert big[target] >= names


def test_json_round_trip():
    table = scan_text(SPEC_EXAMPLE)
    clone = ModuleLookupTable.from_json(table.to_json())
    assert clone.entries == table.entries
    assert clone.instances == table.instances


def test_duplicate_module_across_files_rejected():
    sources = DesignSources(
        files=[("a.sv", "module a; endmodule"), ("other.sv", "module a; wire x; endmodule")]
    )
    with pytest.raises(DuplicateModule) as err:
        scan_sources(sources)
    assert err.value.name == "a"


def test_tokenizer_offsets_are_byte_exact():
    text = "module m; // c\nwire a;\nendmodule"
    for tok in tokenize(text):
        assert text[tok.start : tok.end] == tok.text


def test_module_body_ranges():
    text = "module a; wire x; endmodule module b; endmodule"
    tokens = tokenize(text)
    ranges = module_body_ranges(tokens)
    assert set(ranges) == {"a", "b"}
    start, end = ranges["a"]
    assert [t.text for t in tokens[start:end]] == [";", "wire", "x", ";"]


def test_is_identifier():
    tokens = tokenize("foo 12 'd4 wire \\esc!")
    assert [is_identifier(t) for t in tokens] == [True, False, False, False, True]


# ---------------------------------------------------------------------------
# The lexer against the character loop it replaced

_REF_ID_START = re.compile(r"[A-Za-z_]")
_REF_ID_CHARS = re.compile(r"[A-Za-z0-9_$]")
_REF_NUM_CHARS = re.compile(r"[0-9a-fA-FxXzZ_?.]")
_REF_MULTI_OPS = (
    "<<<=", ">>>=",
    "===", "!==", "==?", "!=?", "<<<", ">>>", "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "**", "+:", "-:",
    "::", "->", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", "~&", "~|", "~^", "^~", "@*",
)


def _reference_tokenize(text, file, tokens):
    """The tokenizer's former per-character loop, appending to ``tokens`` so
    that a ParseError leaves the tokens read before it. It never returns on
    a non-ASCII digit (``str.isdigit`` accepts it and no branch consumes
    it), so it takes ASCII text only."""
    assert text.isascii()
    i = 0
    n = len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f":
            i += 1
            continue
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    raise ParseError(file, line, "closing */")
                line += text.count("\n", i, j)
                i = j + 2
                continue
        if c == "(" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*)", i + 2)
            if j < 0:
                raise ParseError(file, line, "closing *)")
            line += text.count("\n", i, j)
            i = j + 2
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            if j >= n:
                raise ParseError(file, line, "closing quote")
            tokens.append(Token(text[i : j + 1], i, j + 1, line))
            i = j + 1
            continue
        if c == "\\":
            j = i + 1
            while j < n and not text[j].isspace():
                j += 1
            tokens.append(Token(text[i:j], i, j, line))
            i = j
            continue
        if c == "`":
            j = i + 1
            while j < n and _REF_ID_CHARS.match(text[j]):
                j += 1
            tokens.append(Token(text[i:j], i, j, line))
            i = j
            continue
        if _REF_ID_START.match(c):
            j = i + 1
            while j < n and _REF_ID_CHARS.match(text[j]):
                j += 1
            tokens.append(Token(text[i:j], i, j, line))
            i = j
            continue
        if c.isdigit() or (c == "'" and i + 1 < n and text[i + 1] in "bodhBODH01xXzZ"):
            j = i
            seen_quote = False
            while j < n:
                ch = text[j]
                if ch == "'" and not seen_quote:
                    seen_quote = True
                    j += 1
                    if j < n and text[j] in "sS":
                        j += 1
                    if j < n and text[j] in "bodhBODH":
                        j += 1
                    continue
                if _REF_NUM_CHARS.match(ch):
                    j += 1
                    continue
                break
            tokens.append(Token(text[i:j], i, j, line))
            i = j
            continue
        matched = False
        for op in _REF_MULTI_OPS:
            if text.startswith(op, i):
                tokens.append(Token(op, i, i + len(op), line))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        tokens.append(Token(c, i, i + 1, line))
        i += 1


def assert_lexes_as_reference(text):
    """``tokenize`` gives the reference's tokens, or its ParseError, on
    ``text``. The intended differences are left out: text holding ``(*)``
    is not compared, and after a string literal that holds a newline the
    lines are not either."""
    if "(*)" in text:
        return
    ref, ref_error = [], None
    try:
        _reference_tokenize(text, "f.sv", ref)
    except ParseError as exc:
        ref_error = exc
    try:
        got, error = tokenize(text, "f.sv"), None
    except ParseError as exc:
        got, error = None, exc
    lines = not any(tok.text.startswith('"') and "\n" in tok.text for tok in ref)
    if ref_error is not None:
        assert error is not None, text
        assert (error.file, error.expected) == (ref_error.file, ref_error.expected), text
        assert not lines or error.line == ref_error.line, text
        return
    assert error is None, text

    def rows(tokens):
        return [(t.text, t.start, t.end, t.line)[: 4 if lines else 3] for t in tokens]

    assert rows(got) == rows(ref), text


@pytest.fixture(scope="module")
def fixture_texts(tmp_path_factory):
    """The .sv texts of fixture designs of every size, three seeds each."""
    root = tmp_path_factory.mktemp("lexer_designs")
    texts = []
    for n_modules in range(2, len(MODULE_POOL) + 1):
        for seed in range(3):
            design = gen_design(root / f"d{n_modules}_{seed}", n_modules=n_modules, seed=seed)
            texts += [path.read_text() for path in design.source_paths()]
    return texts


def test_lexer_matches_reference_on_fixture_designs(fixture_texts):
    assert len(fixture_texts) > 45
    for text in fixture_texts:
        assert_lexes_as_reference(text)


def test_lexer_matches_reference_on_every_verilog_text_in_tests():
    texts = [
        node.value
        for path in sorted(Path(__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "endmodule" in node.value
    ]
    assert len(texts) > 20
    for text in texts:
        if text.isascii():
            assert_lexes_as_reference(text)


_FUZZ_PIECES = (
    *"()*/\\\"`'\n \t\r\f\v\x1c;,[]{}#@$=<>!&|^~+-:%?._",
    *"azAZbhsSxX09",
    "wire", "module", "(* a *)", "/* c */", "// l\n", "8'hFF", "'sd3", "4'b1?x_z",
    "(**)", "*)", "*/", "\\esc", "`define", "\"s\\\"\n\"", "1.5e3", "'h", "<<<=",
)


def test_lexer_matches_reference_on_fuzz_inputs(fixture_texts):
    rng = random.Random(20)
    corpus = "\n".join(fixture_texts[:8])
    for _ in range(12_000):  # random slices of real designs
        start = rng.randrange(len(corpus))
        assert_lexes_as_reference(corpus[start : start + rng.randrange(1, 120)])
    printable = [chr(c) for c in range(32, 127)]
    for _ in range(12_000):  # a Verilog-ish alphabet, and any printable character
        pieces = [
            rng.choice(_FUZZ_PIECES) if rng.random() < 0.8 else rng.choice(printable)
            for _ in range(rng.randrange(1, 24))
        ]
        assert_lexes_as_reference("".join(pieces))


ALWAYS_STAR = """module m(input wire a, output reg y);
  always @(*) y = a;
  wire after_star;
  (* keep *) reg after_attr;
endmodule
"""


def test_always_star_is_an_event_list_not_an_attribute():
    assert [t.text for t in tokenize("@(*)")] == ["@", "(", "*", ")"]
    table = scan_text(ALWAYS_STAR)
    assert table.entries["m"] == {"wire": {"a", "after_star"}, "reg": {"y", "after_attr"}}


def test_scan_command_accepts_always_star(tmp_path, capsys):
    source = tmp_path / "m.sv"
    source.write_text(ALWAYS_STAR)
    out = tmp_path / "tau.json"
    assert cli_main(["scan", "--sources", str(source), "--json", str(out)]) == 0
    assert ModuleLookupTable.from_json(out.read_text()).leaf_names("m") == {"a", "y", "after_star", "after_attr"}


def test_non_ascii_digit_is_a_parse_error_at_its_line():
    # The child's address space and run time are capped, so a lexer that
    # never returns on this input fails the test instead of exhausting memory.
    child = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from wavetriage.rtl import DesignSources, ParseError, scan_sources, tokenize\n"
        "print([t.text for t in tokenize('wire a\\u00b2;')])\n"
        "try:\n"
        "    scan_sources(DesignSources(files=[('u.sv', 'module m; wire a\\u00b2; endmodule')]))\n"
        "except ParseError as exc:\n"
        "    print(exc.line, exc)\n"
    )
    src = str(Path(wavetriage.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, encoding="utf-8", timeout=10, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['wire', 'a', '\u00b2', ';']",
        "1 u.sv:1: expected ',' or ';' (found '\u00b2')",
    ]


def test_parse_error_after_a_two_line_string_names_its_line():
    text = 'module m;\n  initial $display("one\ntwo");\n  !\nendmodule\n'
    with pytest.raises(ParseError) as err:
        scan_text(text)
    assert err.value.line == 4
    assert [t.line for t in tokenize(text) if t.text in ("!", "endmodule")] == [4, 5]
