import pytest

from wavetriage.rtl import (
    DesignSources,
    DuplicateModule,
    ModuleLookupTable,
    ParseError,
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
