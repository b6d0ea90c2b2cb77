import random
import sys

import pytest

from wavetriage.mutate import (
    BUG_TYPES,
    CheckCommands,
    HashMismatch,
    MutationSpec,
    NoEligibleSite,
    StaleFile,
    append_cache,
    apply,
    generate_scenario,
    inject_batch,
    load_cache,
    plan,
    plan_scenario,
    read_source,
    replay_cached,
    revert,
    revert_all,
    run_scenario,
)
from wavetriage.rtl import DesignSources, UnknownModule, scan_sources

MODULE_TEXT = """module m(
  input  wire a,
  input  wire b,
  input  wire clk,
  output reg  [7:0] q
);
  wire y;
  wire t;
  reg [7:0] acc;

  assign y = a & b;
  assign t = ~a;

  always_ff @(posedge clk) begin
    if (a && b) begin
      acc <= acc + 8'd1;
    end else begin
      acc <= 8'd0;
    end
    q <= acc;
  end
endmodule
"""


def table_for(text=MODULE_TEXT):
    return scan_sources(DesignSources(files=[("m.sv", text)]))


def plan_for(bug_type, seed=0, text=MODULE_TEXT):
    return plan(text, table_for(text), "m", bug_type, seed, file="m.sv")


def apply_text(spec, text):
    return text[: spec.site_start] + spec.replacement + text[spec.site_end :]


class TestPlan:
    def test_missing_assignment_comments_out(self):
        text = "module m(input wire a, input wire b, output wire y);\nassign y = a & b;\nendmodule\n"
        spec = plan(text, table_for(text), "m", "missing_assignment", 0, file="m.sv")
        assert spec.original == "assign y = a & b;"
        assert spec.replacement == "// assign y = a & b;"

    def test_logic_bug_negates_condition(self):
        text = "module m(input wire en, input wire rdy, output reg q, input wire clk);\nalways_ff @(posedge clk) begin if (en && rdy) q <= 1'b1; end\nendmodule\n"
        table = table_for(text)
        for seed in range(20):
            spec = plan(text, table, "m", "logic_bug", seed, file="m.sv")
            if spec.original == "en && rdy":
                assert spec.replacement == "!(en && rdy)"
                return
        raise AssertionError("condition site never chosen")

    def test_logic_bug_flips_edge(self):
        for seed in range(30):
            spec = plan_for("logic_bug", seed)
            if spec.original in ("posedge", "negedge"):
                assert spec.replacement == ("negedge" if spec.original == "posedge" else "posedge")
                return
        raise AssertionError("edge site never chosen")

    def test_logic_bug_no_site(self):
        text = "module m(input wire a, output wire y);\nassign y = a;\nendmodule\n"
        with pytest.raises(NoEligibleSite):
            plan(text, table_for(text), "m", "logic_bug", 0, file="m.sv")

    def test_wrong_assignment_constant_or_identifier(self):
        table = table_for()
        names = table.leaf_names("m")
        for seed in range(10):
            spec = plan_for("wrong_assignment", seed)
            assert spec.replacement != spec.original
            ok_ident = spec.replacement in names
            ok_const = "'" in spec.replacement
            assert ok_ident or ok_const

    def test_bitwise_swaps_one_operator(self):
        seen = set()
        for seed in range(20):
            spec = plan_for("bitwise_corruption", seed)
            seen.add((spec.original, spec.replacement))
            if spec.original == "~":
                assert spec.replacement == ""
            else:
                assert spec.original in "&|^"
                assert spec.replacement in "&|^"
                assert spec.replacement != spec.original
        assert len(seen) > 1

    def test_data_size_changes_range_by_one(self):
        spec = plan_for("data_size", 3)
        assert spec.original.startswith("[") and spec.replacement.startswith("[")
        import re

        msb_old, lsb_old = map(int, re.findall(r"\d+", spec.original)[:2])
        msb_new, lsb_new = map(int, re.findall(r"\d+", spec.replacement)[:2])
        assert lsb_new == lsb_old
        assert abs(msb_new - msb_old) == 1

    def test_unknown_module(self):
        with pytest.raises(UnknownModule):
            plan_for_module_missing = plan(MODULE_TEXT, table_for(), "ghost", "logic_bug", 0)

    def test_deterministic(self):
        for bug_type in BUG_TYPES:
            assert plan_for(bug_type, 7) == plan_for(bug_type, 7)

    def test_excluded_sites_skipped(self):
        spec = plan_for("missing_assignment", 0)
        key = (spec.file, spec.site_start, spec.site_end, spec.bug_type)
        spec2 = plan(
            MODULE_TEXT, table_for(), "m", "missing_assignment", 0, file="m.sv",
            excluded=frozenset({key}),
        )
        assert spec2.site() != spec.site()


class TestApplyRevert:
    def write_design(self, tmp_path, text=MODULE_TEXT):
        (tmp_path / "m.sv").write_text(text)
        return tmp_path

    def test_apply_then_revert_byte_identical(self, tmp_path):
        design = self.write_design(tmp_path)
        spec = plan_for("missing_assignment", 1)
        record = apply(spec, design)
        assert read_source(design / "m.sv") != MODULE_TEXT
        revert(record, design)
        assert read_source(design / "m.sv") == MODULE_TEXT

    def test_write_failing_mid_way_leaves_original_bytes(self, tmp_path, monkeypatch):
        import builtins

        from wavetriage import mutate

        class HalfWrite:
            """A file handle whose write stops half-way with a full disk."""

            def __init__(self, handle):
                self.handle = handle

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise OSError(28, "No space left on device")

        design = self.write_design(tmp_path)
        spec = plan_for("missing_assignment", 1)
        monkeypatch.setattr(
            mutate, "open", lambda *a, **kw: HalfWrite(builtins.open(*a, **kw)), raising=False
        )
        with pytest.raises(OSError):
            apply(spec, design)
        monkeypatch.undo()
        assert read_source(design / "m.sv") == MODULE_TEXT
        assert sorted(p.name for p in design.iterdir()) == ["m.sv"]

    def test_write_keeps_file_mode(self, tmp_path):
        design = self.write_design(tmp_path)
        (design / "m.sv").chmod(0o640)
        apply(plan_for("missing_assignment", 1), design)
        assert (design / "m.sv").stat().st_mode & 0o777 == 0o640

    def test_apply_twice_is_stale(self, tmp_path):
        design = self.write_design(tmp_path)
        spec = plan_for("logic_bug", 2)
        apply(spec, design)
        with pytest.raises(StaleFile):
            apply(spec, design)

    def test_revert_detects_external_change(self, tmp_path):
        design = self.write_design(tmp_path)
        record = apply(plan_for("logic_bug", 2), design)
        (design / "m.sv").write_text("tampered")
        with pytest.raises(HashMismatch):
            revert(record, design)

    def test_multi_patch_reverse_revert(self, tmp_path):
        rng = random.Random(11)
        for _ in range(20):
            design = self.write_design(tmp_path)
            kinds = rng.sample(list(BUG_TYPES), k=2)
            specs = plan_scenario(design, "m.sv", table_for(), "m", kinds, rng.randrange(1000))
            records = [apply(s, design) for s in specs]
            assert read_source(design / "m.sv") != MODULE_TEXT
            revert_all(records, design)
            assert read_source(design / "m.sv") == MODULE_TEXT


PY = sys.executable


def checks(compile_rc=0, test_rc=1, **kw):
    return CheckCommands(
        compile=f"{PY} -c 'import sys; sys.exit({compile_rc})'",
        test=f"{PY} -c 'import sys; sys.exit({test_rc})'",
        **kw,
    )


class TestScenarioLoop:
    def setup_design(self, tmp_path):
        (tmp_path / "m.sv").write_text(MODULE_TEXT)
        return tmp_path

    def test_accepted_leaves_patch_applied(self, tmp_path):
        design = self.setup_design(tmp_path)
        cache = tmp_path / "cache.jsonl"
        specs = plan_scenario(design, "m.sv", table_for(), "m", ["logic_bug"], 5)
        scenario = run_scenario("sc1", specs, checks(0, 1), design, cache_path=cache)
        assert scenario.status == "accepted"
        assert scenario.label == "m"
        assert read_source(design / "m.sv") != MODULE_TEXT
        assert len(load_cache(cache)) == 1

    def test_syntax_reject_reverts(self, tmp_path):
        design = self.setup_design(tmp_path)
        log = tmp_path / "failures.jsonl"
        specs = plan_scenario(design, "m.sv", table_for(), "m", ["logic_bug"], 5)
        scenario = run_scenario(
            "sc2", specs, checks(compile_rc=1), design, failure_log_path=log
        )
        assert scenario.status == "rejected_syntax"
        assert read_source(design / "m.sv") == MODULE_TEXT
        assert "syntax" in log.read_text()

    def test_ineffective_reject_reverts(self, tmp_path):
        design = self.setup_design(tmp_path)
        specs = plan_scenario(design, "m.sv", table_for(), "m", ["bitwise_corruption"], 5)
        scenario = run_scenario("sc3", specs, checks(test_rc=0), design)
        assert scenario.status == "rejected_ineffective"
        assert read_source(design / "m.sv") == MODULE_TEXT

    def test_missing_check_command_reverts_and_raises(self, tmp_path):
        from wavetriage.mutate import CommandNotFound

        design = self.setup_design(tmp_path)
        specs = plan_scenario(design, "m.sv", table_for(), "m", ["logic_bug"], 5)
        bad = CheckCommands(compile="no_such_tool {design_dir}", test="true")
        with pytest.raises(CommandNotFound):
            run_scenario("sc_nf", specs, bad, design)
        assert read_source(design / "m.sv") == MODULE_TEXT

    def test_timeout_counts_as_ineffective(self, tmp_path):
        design = self.setup_design(tmp_path)
        log = tmp_path / "failures.jsonl"
        specs = plan_scenario(design, "m.sv", table_for(), "m", ["logic_bug"], 5)
        slow = CheckCommands(
            compile=f"{PY} -c 'import time; time.sleep(5)'",
            test=f"{PY} -c 'import sys; sys.exit(1)'",
            timeout=0.5,
        )
        scenario = run_scenario("sc_t", specs, slow, design, failure_log_path=log)
        assert scenario.status == "rejected_ineffective"
        assert read_source(design / "m.sv") == MODULE_TEXT
        assert "timeout" in log.read_text()

    def test_missing_waveform_rejects(self, tmp_path):
        design = self.setup_design(tmp_path)
        specs = plan_scenario(design, "m.sv", table_for(), "m", ["logic_bug"], 5)
        scenario = run_scenario(
            "sc4",
            specs,
            checks(0, 1, vcd_out="{design_dir}/out_{scenario_id}.vcd"),
            design,
        )
        assert scenario.status == "rejected_ineffective"
        assert read_source(design / "m.sv") == MODULE_TEXT

    def test_cache_replay_reproduces_identical_diff(self, tmp_path):
        design = self.setup_design(tmp_path)
        cache = tmp_path / "cache.jsonl"
        specs = plan_scenario(design, "m.sv", table_for(), "m", ["wrong_assignment"], 9)
        scenario = run_scenario("sc5", specs, checks(0, 1), design, cache_path=cache)
        assert scenario.status == "accepted"
        mutated = read_source(design / "m.sv")
        revert_all(scenario.patches, design)

        entry = load_cache(cache)[0]
        records = replay_cached(entry, design)
        assert read_source(design / "m.sv") == mutated
        revert_all(records, design)
        assert read_source(design / "m.sv") == MODULE_TEXT

    def test_generate_scenario_retries_and_excludes(self, tmp_path):
        design = self.setup_design(tmp_path)
        tried = []

        def planner(attempt, excluded):
            specs = plan_scenario(
                design, "m.sv", table_for(), "m", ["missing_assignment"], attempt, excluded=excluded
            )
            tried.append(specs[0].site())
            return specs

        scenario = generate_scenario(
            "sc6", planner, checks(test_rc=0), design, max_attempts=3
        )
        assert scenario.status == "rejected_ineffective"
        assert scenario.attempts == 3
        assert len(set(tried)) == 3  # exclusions forced three distinct sites
        assert read_source(design / "m.sv") == MODULE_TEXT

    def test_generate_scenario_accepts_first_try(self, tmp_path):
        design = self.setup_design(tmp_path)

        def planner(attempt, excluded):
            return plan_scenario(
                design, "m.sv", table_for(), "m", ["logic_bug"], 100 + attempt, excluded=excluded
            )

        scenario = generate_scenario("sc7", planner, checks(0, 1), design)
        assert scenario.status == "accepted"
        assert scenario.attempts == 1

    def test_inject_batch_round_robin_ids_and_seeds(self, tmp_path):
        design = self.setup_design(tmp_path)
        bug_types = ["logic_bug", "missing_assignment"]
        batch = inject_batch(design, ["m"], bug_types, 3, checks(0, 1), seed_base=7)
        assert [(m, b) for m, b, _ in batch] == [
            ("m", "logic_bug"),
            ("m", "missing_assignment"),
            ("m", "logic_bug"),
        ]
        for i, (_, bug_type, scenario) in enumerate(batch):
            assert scenario.scenario_id == f"inject-m-{i:04d}"
            assert scenario.status == "accepted" and scenario.attempts == 1
            expected = plan_scenario(design, "m.sv", table_for(), "m", [bug_type], 7 + i * 101)
            assert [p.spec for p in scenario.patches] == expected
        assert read_source(design / "m.sv") == MODULE_TEXT


def test_check_commands_from_dict_defaults():
    check = CheckCommands.from_dict({"compile": "make lint", "test": "make regress"})
    assert check == CheckCommands(compile="make lint", test="make regress")
    assert check.timeout == 60.0 and check.vcd_out is None
