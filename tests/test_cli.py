import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavetriage import cli, sysio
from wavetriage.cli import main
from wavetriage.fixtures import (
    build_scenarios,
    gen_design,
    gen_failing_vcd,
    materialize_corpus,
    simulator_command,
)
from wavetriage.extract import read_dataset_csv
from wavetriage.metrics import MetricsReport, reports_from_json
from wavetriage.mutate import load_cache

PY = sys.executable


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    design = gen_design(root, n_modules=3, seed=5)
    scenarios = build_scenarios(design, train_per_module=4, test_per_module=2, seed=5)
    materialize_corpus(design, scenarios, ticks=60)
    return design


def run(*argv):
    return main(list(argv))


@pytest.fixture
def replaced(monkeypatch):
    """The set of paths that ``sysio.replace_file`` has put in place
    since the test began."""
    paths = set()
    real_replace = os.replace

    def record(src, dst):
        real_replace(src, dst)
        paths.add(Path(dst))

    monkeypatch.setattr(sysio.os, "replace", record)
    return paths


def files_under(root, skip=frozenset()):
    return {p for p in Path(root).rglob("*") if p.is_file() and not skip & set(p.parts)}


def test_cli_opens_no_file_for_writing():
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert "write_text(" not in source
    assert not re.search(r"open\([^)]*[\"'][wax]", source)


def test_usage_error_is_exit_1():
    assert run("scan", "--no-such-flag") == 1


def test_unknown_subcommand_is_exit_1():
    assert run("frobnicate") == 1


def test_scan_and_error_paths(corpus, tmp_path):
    out = tmp_path / "tau.json"
    sources = sorted(str(p) for p in corpus.root.glob("*.sv"))
    assert run("scan", "--sources", *sources, "--json", str(out)) == 0
    doc = json.loads(out.read_text())
    assert set(corpus.modules) <= set(doc["modules"])
    assert (tmp_path / "tau.json.manifest.json").exists()

    bad = tmp_path / "bad.sv"
    bad.write_text("module m;\n !!\nendmodule")
    assert run("scan", "--sources", str(bad), "--json", str(tmp_path / "x.json")) == 2


def test_select_lookup_table_that_is_not_an_object_is_exit_2_naming_the_file(corpus, tmp_path, capsys):
    tau = tmp_path / "tau.json"
    tau.write_text("[]")
    wave = tmp_path / "wave.vcd"
    gen_failing_vcd(corpus, corpus.modules[0], ticks=50, seed=1000, out_path=wave)
    code = run(
        "select", "--vcd", str(wave), "--tau", str(tau), "--targets", ",".join(corpus.modules),
        "--top-module", "soc_top", "--dut-root", "tb.dut", "--json", str(tmp_path / "sel.json"),
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {tau}: a lookup table is a JSON object\n"


def test_select_lookup_table_without_a_target_module_is_exit_2_naming_the_file(corpus, tmp_path, capsys):
    tau = tmp_path / "tau.json"
    sources = sorted(str(p) for p in corpus.root.glob("*.sv"))
    assert run("scan", "--sources", *sources, "--json", str(tau)) == 0
    doc = json.loads(tau.read_text())
    del doc["modules"]["alu_core"]
    tau.write_text(json.dumps(doc))
    wave = tmp_path / "wave.vcd"
    gen_failing_vcd(corpus, corpus.modules[0], ticks=50, seed=1000, out_path=wave)
    out = tmp_path / "sel.json"
    capsys.readouterr()
    code = run(
        "select", "--vcd", str(wave), "--tau", str(tau), "--targets", ",".join(corpus.modules),
        "--top-module", "soc_top", "--dut-root", "tb.dut", "--json", str(out),
    )
    assert "alu_core" in corpus.modules
    assert code == 2
    assert capsys.readouterr().err == f"error: {tau}: unknown module 'alu_core'\n"
    assert not out.exists()


def _select_on(corpus, tmp_path, wave, capsys):
    """``select``'s exit code and stderr on the waveform ``wave``."""
    tau = tmp_path / "tau.json"
    sources = sorted(str(p) for p in corpus.root.glob("*.sv"))
    assert run("scan", "--sources", *sources, "--json", str(tau)) == 0
    capsys.readouterr()
    code = run(
        "select", "--vcd", str(wave), "--tau", str(tau), "--targets", ",".join(corpus.modules),
        "--top-module", "soc_top", "--dut-root", "tb.dut", "--json", str(tmp_path / "sel.json"),
    )
    return code, capsys.readouterr().err


def test_select_on_a_cut_header_is_exit_2_naming_the_waveform(corpus, tmp_path, capsys):
    wave = tmp_path / "wave.vcd"
    gen_failing_vcd(corpus, corpus.modules[0], ticks=50, seed=1000, out_path=wave)
    text = wave.read_text()
    wave.write_text(text[: text.index("$enddefinitions")])
    assert _select_on(corpus, tmp_path, wave, capsys) == (
        2, f"error: {wave}: unexpected end of file before $enddefinitions\n"
    )


def test_select_on_a_signal_declared_twice_is_exit_2_naming_the_waveform_and_the_signal(
    corpus, tmp_path, capsys
):
    wave = tmp_path / "wave.vcd"
    wave.write_text(
        "$timescale 1ns $end\n$scope module x $end\n$var wire 1 ! a $end\n"
        "$var wire 1 % a $end\n$upscope $end\n$enddefinitions $end\n#0\n0!\n"
    )
    assert _select_on(corpus, tmp_path, wave, capsys) == (
        2, f"error: {wave}: signal 'x.a' declared twice\n"
    )


def test_a_data_error_exit_loads_no_numpy_and_no_orchestrate(tmp_path):
    """``scan`` of a bad source exits 2 without importing the modules that
    define the external-command errors: one never loaded cannot have raised."""
    bad = tmp_path / "bad.sv"
    bad.write_text("module m;\n !!\nendmodule")
    script = (
        "import sys\n"
        "from wavetriage import cli\n"
        f"code = cli.main(['scan', '--sources', {str(bad)!r}, '--json', {str(tmp_path / 'x.json')!r}])\n"
        "print(code, 'numpy' in sys.modules, 'wavetriage.orchestrate' in sys.modules)\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [PY, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}
    )
    assert proc.stdout.split() == ["2", "False", "False"], proc.stderr


def _selected_fixture_waveform(corpus, tmp_path):
    """A fixture waveform and the selection report ``select`` writes for it."""
    tau = tmp_path / "tau.json"
    sources = sorted(str(p) for p in corpus.root.glob("*.sv"))
    assert run("scan", "--sources", *sources, "--json", str(tau)) == 0
    wave = tmp_path / "wave.vcd"
    gen_failing_vcd(corpus, corpus.modules[0], ticks=60, seed=1000, out_path=wave)
    sel = tmp_path / "sel.json"
    assert run(
        "select", "--vcd", str(wave), "--tau", str(tau), "--targets", ",".join(corpus.modules),
        "--top-module", "soc_top", "--dut-root", "tb.dut", "--json", str(sel),
    ) == 0
    return wave, sel


def test_extract_rejects_a_backward_timestamp(corpus, tmp_path, capsys):
    wave, sel = _selected_fixture_waveform(corpus, tmp_path)
    header = wave.read_text(encoding="latin-1").split("$enddefinitions $end\n", 1)[0]
    wave.write_text(header + "$enddefinitions $end\n#0\n0!\n#5\n1!\n#2\n0!\n#6\n1!\n", encoding="latin-1")
    rough = tmp_path / "rough.csv"
    capsys.readouterr()
    code = run(
        "extract", "--vcd", str(wave), "--selection", str(sel), "--label", corpus.modules[0],
        "--scenario-id", "back-0", "--tick-cap", "50", "--rough-csv", str(rough),
    )
    err = capsys.readouterr().err
    assert code == 2
    assert str(wave) in err and "back-0" in err and "5 -> 2" in err
    assert not rough.exists()


def test_extract_rejects_a_selection_the_waveform_does_not_declare(corpus, tmp_path, capsys):
    wave, sel = _selected_fixture_waveform(corpus, tmp_path)
    renamed = tmp_path / "renamed.vcd"
    text = wave.read_text(encoding="latin-1")
    renamed.write_text(text.replace("$scope module dut $end", "$scope module dux $end", 1), encoding="latin-1")
    first = json.loads(sel.read_text())["selected"][0][:3]
    rough = tmp_path / "rough.csv"
    capsys.readouterr()
    code = run(
        "extract", "--vcd", str(renamed), "--selection", str(sel), "--label", corpus.modules[0],
        "--scenario-id", "dux-0", "--tick-cap", "50", "--rough-csv", str(rough),
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {renamed} (scenario dux-0): selected signal {tuple(first)!r} ")
    assert not rough.exists()
    assert run("select", "--vcd", str(renamed), "--tau", str(tmp_path / "tau.json"),
               "--targets", ",".join(corpus.modules), "--top-module", "soc_top",
               "--dut-root", "tb.dut", "--json", str(tmp_path / "sel2.json")) == 2


def test_select_extract_compress_train_eval_chain(corpus, tmp_path, replaced):
    tau = tmp_path / "tau.json"
    sources = sorted(str(p) for p in corpus.root.glob("*.sv"))
    assert run("scan", "--sources", *sources, "--json", str(tau)) == 0

    # two waveforms per module for train, one for eval
    rough_files = []
    test_rough = []
    for module in corpus.modules:
        for k, split_rough in ((0, rough_files), (1, rough_files), (2, test_rough)):
            wave = tmp_path / f"{module}_{k}.vcd"
            gen_failing_vcd(corpus, module, ticks=60, seed=1000 + 17 * k, out_path=wave)
            sel = tmp_path / f"sel_{module}_{k}.json"
            assert (
                run(
                    "select",
                    "--vcd", str(wave),
                    "--tau", str(tau),
                    "--targets", ",".join(corpus.modules),
                    "--top-module", "soc_top",
                    "--dut-root", "tb.dut",
                    "--json", str(sel),
                )
                == 0
            )
            rough = tmp_path / f"rough_{module}_{k}.csv"
            assert (
                run(
                    "extract",
                    "--vcd", str(wave),
                    "--selection", str(sel),
                    "--label", module,
                    "--scenario-id", f"{module}-{k}",
                    "--tick-cap", "50",
                    "--rough-csv", str(rough),
                )
                == 0
            )
            split_rough.append(str(rough))

    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    assert run("compress", "--rough-csv", *rough_files, "--out", str(train_csv)) == 0
    assert run("compress", "--rough-csv", *test_rough, "--out", str(test_csv)) == 0

    model = tmp_path / "model.bin"
    assert run("train", "--train", str(train_csv), "--kind", "knn", "--out", str(model)) == 0

    metrics = tmp_path / "metrics.json"
    eval_svg, eval_csv = tmp_path / "eval.svg", tmp_path / "eval.csv"
    assert run(
        "eval", "--model", str(model), "--test", str(test_csv), "--json", str(metrics),
        "--svg", str(eval_svg), "--confusion-csv", str(eval_csv),
    ) == 0
    doc = json.loads(metrics.read_text())
    assert {"top1", "top3", "macro_f1", "auc_roc_macro", "confusion"} <= set(doc)

    # report rendering over the metrics JSON
    svg, confusion = tmp_path / "confusion.svg", tmp_path / "confusion.csv"
    assert run("report", "--metrics", str(metrics), "--svg", str(svg), "--confusion-csv", str(confusion)) == 0
    assert svg.read_text().startswith("<svg")
    assert svg.read_bytes() == eval_svg.read_bytes()
    assert confusion.read_text().startswith("true\\predicted,")
    assert confusion.read_bytes() == eval_csv.read_bytes()

    # every file of the chain, each manifest and sidecar included, took its
    # place through sysio.replace_file
    manifests = {p for p in files_under(tmp_path) if p.name.endswith(".manifest.json")}
    assert {p.name for p in manifests} >= {
        "tau.json.manifest.json", "train.csv.manifest.json", "model.bin.manifest.json",
        "metrics.json.manifest.json",
    }
    assert files_under(tmp_path) <= replaced


def test_eval_missing_model_is_exit_2(tmp_path):
    missing = tmp_path / "missing.bin"
    assert run("eval", "--model", str(missing), "--test", str(missing), "--json", str(tmp_path / "m.json")) == 2


def test_inject_subcommand(corpus, tmp_path, replaced):
    config = {
        "design_dir": str(corpus.root),
        "modules": list(corpus.modules),
        "bug_types": ["logic_bug", "missing_assignment", "data_size"],
        "seed": 4,
        "check": {
            "compile": f"{PY} {corpus.root}/check_compile.py {{design_dir}}",
            "test": f"{PY} {corpus.root}/check_test.py {{design_dir}}",
        },
        "cache": str(tmp_path / "cache.jsonl"),
        "failure_log": str(tmp_path / "failures.jsonl"),
    }
    cfg_path = tmp_path / "inject.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "inject_summary.json"
    assert run("inject", "--config", str(cfg_path), "--count", "6", "--json", str(out)) == 0
    summary = json.loads(out.read_text())
    assert summary["accepted"] >= 1
    assert len(summary["scenarios"]) == 6
    assert {out, Path(str(out) + ".manifest.json")} <= replaced
    # sources restored after the run
    for src in corpus.root.glob("*.sv"):
        assert src.read_text() == (corpus.root / "golden" / src.name).read_text()


CORE_WRAP_SV = """module core_wrap(input wire a, input wire b, output wire y);
  core u_core(.a(a), .b(b), .y(y));
endmodule
"""

CORE_SV = """module core(input wire a, input wire b, output wire y);
  assign y = a & b;
endmodule
"""


def write_prefix_design(tmp_path, modules):
    """core_wrap in a_top.sv sorts before core in core.sv, and its name
    starts with "core"; the check commands accept every mutation."""
    design = tmp_path / "design"
    design.mkdir()
    (design / "a_top.sv").write_text(CORE_WRAP_SV)
    (design / "core.sv").write_text(CORE_SV)
    config = {
        "design_dir": str(design),
        "modules": modules,
        "bug_types": ["bitwise_corruption"],
        "check": {
            "compile": f"{PY} -c 'import sys; sys.exit(0)'",
            "test": f"{PY} -c 'import sys; sys.exit(1)'",
        },
        "cache": str(tmp_path / "cache.jsonl"),
    }
    cfg_path = tmp_path / "inject.json"
    cfg_path.write_text(json.dumps(config))
    return design, cfg_path


def test_inject_mutates_the_file_that_declares_the_module(tmp_path):
    design, cfg_path = write_prefix_design(tmp_path, ["core"])
    assert run("inject", "--config", str(cfg_path), "--keep-applied") == 0
    assert (design / "a_top.sv").read_text() == CORE_WRAP_SV
    assert (design / "core.sv").read_text() != CORE_SV
    (entry,) = load_cache(tmp_path / "cache.jsonl")
    assert [spec["file"] for spec in entry["specs"]] == ["core.sv"]


def test_inject_undeclared_module_is_exit_2_before_any_edit(tmp_path, capsys):
    design, cfg_path = write_prefix_design(tmp_path, ["core", "nope"])
    assert run("inject", "--config", str(cfg_path), "--count", "2", "--keep-applied") == 2
    assert "nope" in capsys.readouterr().err
    assert (design / "a_top.sv").read_text() == CORE_WRAP_SV
    assert (design / "core.sv").read_text() == CORE_SV
    assert not (tmp_path / "cache.jsonl").exists()


@pytest.mark.parametrize("key", ["modules", "bug_types"])
def test_inject_empty_list_is_exit_2_before_any_edit(tmp_path, capsys, key):
    design, cfg_path = write_prefix_design(tmp_path, ["core"])
    config = json.loads(cfg_path.read_text())
    config[key] = []
    cfg_path.write_text(json.dumps(config))
    assert run("inject", "--config", str(cfg_path), "--count", "1", "--keep-applied") == 2
    assert repr(key) in capsys.readouterr().err
    assert (design / "core.sv").read_text() == CORE_SV
    assert not (tmp_path / "cache.jsonl").exists()


@pytest.mark.parametrize(
    "key, says",
    [
        ("modules", "config has no key 'modules'"),
        ("check", "config has no key 'check'"),
        ("check.compile", "check object has no key 'compile'"),
        ("design_dir", "config has no key 'design_dir'"),
    ],
    ids=["modules", "check", "check.compile", "design_dir"],
)
def test_inject_config_without_a_key_is_exit_2_naming_it_and_the_file(tmp_path, capsys, key, says):
    design, cfg_path = write_prefix_design(tmp_path, ["core"])
    config = json.loads(cfg_path.read_text())
    del (config["check"] if "." in key else config)[key.rsplit(".", 1)[-1]]
    cfg_path.write_text(json.dumps(config))
    assert run("inject", "--config", str(cfg_path), "--keep-applied") == 2
    assert capsys.readouterr().err == f"error: {cfg_path}: {says}\n"
    assert (design / "core.sv").read_text() == CORE_SV
    assert not (tmp_path / "cache.jsonl").exists()


def test_inject_empty_check_command_is_exit_2_and_reverts(tmp_path, capsys):
    design, cfg_path = write_prefix_design(tmp_path, ["core"])
    config = json.loads(cfg_path.read_text())
    config["check"]["compile"] = ""
    cfg_path.write_text(json.dumps(config))
    assert run("inject", "--config", str(cfg_path), "--count", "1", "--keep-applied") == 2
    assert "names no program" in capsys.readouterr().err
    assert (design / "a_top.sv").read_text() == CORE_WRAP_SV
    assert (design / "core.sv").read_text() == CORE_SV
    assert not (tmp_path / "cache.jsonl").exists()


def test_inject_config_that_is_not_an_object_is_exit_2_naming_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "inject.json"
    cfg_path.write_text("[]")
    assert run("inject", "--config", str(cfg_path)) == 2
    assert capsys.readouterr().err == f"error: {cfg_path}: an inject config is a JSON object\n"


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("count", "abc", "an integer"),
        ("count", True, "an integer"),
        ("seed", 2.7, "an integer"),
        ("max_attempts", 2.7, "an integer"),
        ("check.timeout", True, "a number"),
        ("check.vcd_out", 5, "a string"),
        ("cache", 5, "a string"),
        ("design_dir", 5, "a string"),
        ("modules", "core", "a list of strings"),
        ("bug_types", "logic_bug", "a list of strings"),
        ("check.compile", 5, "a string"),
    ],
)
def test_inject_config_value_of_the_wrong_json_type_is_exit_2_naming_the_key(tmp_path, capsys, key, value, expected):
    design, cfg_path = write_prefix_design(tmp_path, ["core"])
    config = json.loads(cfg_path.read_text())
    (config["check"] if "." in key else config)[key.rsplit(".", 1)[-1]] = value
    cfg_path.write_text(json.dumps(config))
    assert run("inject", "--config", str(cfg_path), "--keep-applied") == 2
    says = f"config key {key!r} must be {expected}, not {json.dumps(value)}"
    assert capsys.readouterr().err == f"error: {cfg_path}: {says}\n"
    assert (design / "core.sv").read_text() == CORE_SV


def test_inject_finds_the_package_without_pythonpath(tmp_path, monkeypatch):
    # the check commands run as child processes that inherit this environment
    monkeypatch.delenv("PYTHONPATH", raising=False)
    design = gen_design(tmp_path / "design", n_modules=3, seed=5)
    config = {
        "design_dir": str(design.root),
        "modules": list(design.modules),
        "bug_types": ["logic_bug", "missing_assignment"],
        "check": {
            "compile": f"{PY} {design.root}/check_compile.py {{design_dir}}",
            "test": f"{PY} {design.root}/check_test.py {{design_dir}}",
        },
    }
    cfg_path = tmp_path / "inject.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "summary.json"
    assert run("inject", "--config", str(cfg_path), "--count", "3", "--json", str(out)) == 0
    assert json.loads(out.read_text())["accepted"] >= 1


def pipeline_config(corpus, out_dir, **overrides):
    config = {
        "design_dir": str(corpus.root),
        "targets": list(corpus.modules),
        "top_module": "soc_top",
        "dut_root": "tb.dut",
        "simulator": simulator_command(),
        "tick_cap": 50,
        "worker_count": 2,
        "train_per_module": 4,
        "test_per_module": 2,
        "seed": 5,
        "models": ["knn"],
        "out_dir": str(out_dir),
    }
    config.update(overrides)
    cfg_path = Path(str(out_dir) + ".json")
    cfg_path.write_text(json.dumps(config))
    return cfg_path


def test_pipeline_injection_stage(corpus, tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    injection = {
        "enabled": True,
        "count": 3,
        "bug_types": ["logic_bug", "missing_assignment", "data_size"],
        "check": {
            "compile": f"{PY} {{design_dir}}/check_compile.py {{design_dir}}",
            "test": f"{PY} {{design_dir}}/check_test.py {{design_dir}}",
        },
        "cache": str(cache),
    }
    plain = tmp_path / "plain"
    injected = tmp_path / "injected"
    assert run("pipeline", "--config", str(pipeline_config(corpus, plain))) == 0
    capsys.readouterr()
    cfg_path = pipeline_config(corpus, injected, injection=injection)
    assert run("pipeline", "--config", str(cfg_path)) == 0
    out = capsys.readouterr().out
    accepted = int(out.split("injection: ")[1].split("/")[0])
    assert accepted >= 1
    assert len(load_cache(cache)) == accepted
    for src in corpus.root.glob("*.sv"):
        assert src.read_bytes() == (corpus.root / "golden" / src.name).read_bytes()
    for name in ("train.csv", "test.csv"):
        assert (injected / name).read_bytes() == (plain / name).read_bytes()


def test_pipeline_injection_honours_vcd_out(corpus, tmp_path, capsys):
    # the check commands never write this file, so no scenario is accepted
    injection = {
        "enabled": True,
        "count": 2,
        "bug_types": ["logic_bug"],
        "max_attempts": 1,
        "check": {
            "compile": f"{PY} {{design_dir}}/check_compile.py {{design_dir}}",
            "test": f"{PY} {{design_dir}}/check_test.py {{design_dir}}",
            "vcd_out": "{design_dir}/{scenario_id}.vcd",
        },
        "cache": str(tmp_path / "cache.jsonl"),
    }
    cfg_path = pipeline_config(
        corpus, tmp_path / "run", injection=injection, train_per_module=1, test_per_module=1
    )
    assert run("pipeline", "--config", str(cfg_path)) == 0
    assert "injection: 0/2 scenario(s) accepted" in capsys.readouterr().out
    assert not (tmp_path / "cache.jsonl").exists()


@pytest.mark.parametrize(
    "targets, bug_types, key",
    [([], ["logic_bug"], "targets"), (None, [], "injection.bug_types")],
)
def test_pipeline_injection_empty_list_is_exit_2(corpus, tmp_path, capsys, targets, bug_types, key):
    injection = {
        "enabled": True,
        "count": 2,
        "bug_types": bug_types,
        "check": {"compile": f"{PY} -c pass", "test": f"{PY} -c pass"},
    }
    out_dir = tmp_path / "run"
    cfg_path = pipeline_config(
        corpus, out_dir, injection=injection, targets=list(corpus.modules) if targets is None else targets
    )
    assert run("pipeline", "--config", str(cfg_path)) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("injection.count", "abc", "an integer"),
        ("injection.max_attempts", 2.7, "an integer"),
        ("injection.check.timeout", True, "a number"),
    ],
)
def test_pipeline_injection_value_of_the_wrong_json_type_is_exit_2(corpus, tmp_path, capsys, key, value, expected):
    injection = {"enabled": True, "check": {"compile": f"{PY} -c pass", "test": f"{PY} -c pass"}}
    *path, last = key.split(".")[1:]
    (injection[path[0]] if path else injection)[last] = value
    out_dir = tmp_path / "run"
    cfg_path = pipeline_config(corpus, out_dir, injection=injection)
    assert run("pipeline", "--config", str(cfg_path)) == 2
    says = f"config key {key!r} must be {expected}, not {json.dumps(value)}"
    assert capsys.readouterr().err == f"error: {cfg_path}: {says}\n"
    assert not out_dir.exists()


def test_pipeline_reduce_writes_history(corpus, tmp_path, replaced):
    out_dir = tmp_path / "run"
    # one worker, so the rough CSVs are written in this process
    cfg_path = pipeline_config(corpus, out_dir, reduce=True, max_signals=8, keep_rough=True, worker_count=1)
    assert run("pipeline", "--config", str(cfg_path)) == 0
    written = files_under(out_dir, skip={"scratch"})
    assert {p.name for p in written if p.parent == out_dir} == {
        "train.csv", "test.csv", "stage_sizes.json", "reduction_history.json", "model_knn.bin",
        "metrics.json", "metrics.json.manifest.json",
    }
    assert len([p for p in written if p.parent.name == "rough"]) == len(corpus.modules) * (4 + 2)
    assert written <= replaced
    history = json.loads((out_dir / "reduction_history.json").read_text())
    assert history[-1]["retained_count"] <= 8
    assert set(history[-1]["per_module_coverage"]) == set(corpus.modules)


def test_pipeline_subcommand(corpus, tmp_path):
    out_dir = tmp_path / "run"
    config = {
        "design_dir": str(corpus.root),
        "targets": list(corpus.modules),
        "top_module": "soc_top",
        "dut_root": "tb.dut",
        "simulator": simulator_command(),
        "tick_cap": 50,
        "worker_count": 2,
        "train_per_module": 4,
        "test_per_module": 2,
        "seed": 5,
        "models": ["knn"],
        "out_dir": str(out_dir),
    }
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(config))
    assert run("pipeline", "--config", str(cfg_path)) == 0
    assert (out_dir / "train.csv").exists()
    assert (out_dir / "test.csv").exists()
    assert (out_dir / "stage_sizes.json").exists()
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert "knn" in metrics
    sizes = json.loads((out_dir / "stage_sizes.json").read_text())
    assert sizes["raw"] > 0 and sizes["final"] > 0
    assert (out_dir / "metrics.json.manifest.json").exists()


def test_reduction_coverage_needs_no_waveform(corpus, tmp_path):
    """Signal -> module coverage for reduction comes from the dataset's own
    signal names, equal to pruning a waveform header, with no waveform in
    the run directory."""
    from wavetriage.extract import Dataset
    from wavetriage.orchestrate import PipelineConfig, _coverage_from_design, design_table
    from wavetriage.rtl import signals_for_targets
    from wavetriage.selection import prune
    from wavetriage.vcd import list_full_names, parse_header

    table = design_table(corpus.root)
    with open(sorted((corpus.root / "vcds").glob("*.vcd"))[0], "rb") as stream:
        header = list_full_names(parse_header(stream))
    selected = prune(
        header,
        signals_for_targets(table, corpus.modules),
        table.instances,
        top_module="soc_top",
        dut_root="tb.dut",
    ).selected
    kept = selected[::2]
    dataset = Dataset(
        feature_names=[f"{name}__{stat}" for name, _, _, _ in kept for stat in ("mean", "std")],
        matrix=[[0.0] * (2 * len(kept))],
        labels=["a"],
        scenario_ids=["s0"],
    )
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    cfg = PipelineConfig(
        design_dir=str(corpus.root),
        targets=list(corpus.modules),
        top_module="soc_top",
        dut_root="tb.dut",
        out_dir=str(out_dir),
    )
    coverage = _coverage_from_design(cfg, dataset)
    assert coverage == {name: owner for name, _, _, owner in kept}
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "env, flag", [("40", None), ("40", "30"), (None, None)], ids=["env", "env-and-flag", "neither"]
)
def test_tick_cap_from_flag_then_environment_then_config(corpus, tmp_path, monkeypatch, env, flag):
    """Precedence is flag > ``WAVETRIAGE_*`` environment > config > default:
    ``extract`` has no config (default 2000), the pipeline config says 50."""
    if env is None:
        monkeypatch.delenv("WAVETRIAGE_TICK_CAP", raising=False)
    else:
        monkeypatch.setenv("WAVETRIAGE_TICK_CAP", env)
    flag_args = [] if flag is None else ["--tick-cap", flag]
    chosen = flag or env

    tau = tmp_path / "tau.json"
    assert run("scan", "--sources", *sorted(str(p) for p in corpus.root.glob("*.sv")), "--json", str(tau)) == 0
    wave = str(sorted((corpus.root / "vcds").glob("*.vcd"))[0])
    sel = tmp_path / "sel.json"
    targets = ",".join(corpus.modules)
    select = ["--targets", targets, "--top-module", "soc_top", "--dut-root", "tb.dut"]
    assert run("select", "--vcd", wave, "--tau", str(tau), *select, "--json", str(sel)) == 0
    rough = tmp_path / "rough.csv"
    extract = ["--label", corpus.modules[0], "--scenario-id", "s0", "--rough-csv", str(rough)]
    assert run("extract", "--vcd", wave, "--selection", str(sel), *extract, *flag_args) == 0
    sidecar = json.loads(Path(str(rough) + ".meta.json").read_text())
    assert sidecar["tick_cap"] == int(chosen or 2000)

    out_dir = tmp_path / "run"
    cfg_path = pipeline_config(corpus, out_dir, worker_count=1, train_per_module=1, test_per_module=1)
    assert run("pipeline", "--config", str(cfg_path), *flag_args) == 0
    manifest = json.loads((out_dir / "metrics.json.manifest.json").read_text())
    assert manifest["settings"]["tick_cap"] == int(chosen or 50)


def test_pipeline_names_the_first_failed_job(corpus, tmp_path, capsys):
    config = {
        "design_dir": str(corpus.root),
        "targets": list(corpus.modules),
        "top_module": "soc_top",
        "dut_root": "tb.dut",
        "simulator": "sh -c 'echo license server down >&2; exit 7' sim {vcd_out}",
        "retry_limit": 0,
        "train_per_module": 1,
        "test_per_module": 1,
        "seed": 5,
        "models": ["knn"],
        "out_dir": str(tmp_path / "run"),
    }
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(config))
    assert run("pipeline", "--config", str(cfg_path)) != 0
    err = capsys.readouterr().err
    first = f"train-{sorted(corpus.modules)[0]}-0000"
    assert f"{len(corpus.modules)} job(s) failed after retries; first: {first} (exit code 7)" in err
    assert "license server down" in err


def test_pipeline_result_lines_and_failed_job_lines(corpus, tmp_path, capsys):
    """The injection line, one line per split and one per model kind on
    stdout; one line per split with failed jobs on stderr, naming the first
    of them. The ``-0001`` scenarios fail, and the run goes on without them."""
    cache = tmp_path / "cache.jsonl"
    injection = {
        "enabled": True,
        "count": 3,
        "bug_types": ["logic_bug", "missing_assignment", "data_size"],
        "check": {
            "compile": f"{PY} {{design_dir}}/check_compile.py {{design_dir}}",
            "test": f"{PY} {{design_dir}}/check_test.py {{design_dir}}",
        },
        "cache": str(cache),
    }
    fail_one = (
        "sh -c 'case $1 in *-0001) echo license server down >&2; exit 7;; esac; shift; exec \"$@\"'"
        " sim {scenario_id}"
    )
    out_dir = tmp_path / "run"
    cfg_path = pipeline_config(
        corpus,
        out_dir,
        injection=injection,
        simulator=f"{fail_one} {simulator_command()}",
        retry_limit=0,
        train_per_module=2,
        test_per_module=2,
        models=["knn", "gbt"],
    )
    assert run("pipeline", "--config", str(cfg_path)) == 0
    captured = capsys.readouterr()

    lines = [f"injection: {len(load_cache(cache))}/3 scenario(s) accepted (cached)"]
    for split in ("train", "test"):
        with open(out_dir / f"{split}.csv", encoding="utf-8") as handle:
            dataset = read_dataset_csv(handle)
        assert len(dataset) == len(corpus.modules)
        csv_path = out_dir / f"{split}.csv"
        lines.append(f"{split}: {len(dataset)} rows x {len(dataset.feature_names)} features -> {csv_path}")
    reports = reports_from_json((out_dir / "metrics.json").read_text())
    lines += [f"{kind}: {report.summary()}" for kind, report in reports.items()]
    assert list(reports) == ["knn", "gbt"]
    assert captured.out == "".join(line + "\n" for line in lines)

    first = sorted(corpus.modules)[0]
    assert captured.err == "".join(
        f"{split}: {len(corpus.modules)} job(s) failed after retries; first: {split}-{first}-0001 "
        "(exit code 7), stderr tail:\nlicense server down\n"
        for split in ("train", "test")
    )


@pytest.mark.parametrize(
    "config, argv, env, says",
    [
        ({}, ["--workers", "0"], {}, "--workers: config key 'worker_count' must be >= 1, not 0"),
        (
            {},
            [],
            {"WAVETRIAGE_WORKERS": "0"},
            "WAVETRIAGE_WORKERS: config key 'worker_count' must be >= 1, not 0",
        ),
        ({}, ["--tick-cap", "0"], {}, "--tick-cap: config key 'tick_cap' must be >= 1, not 0"),
        ({"tick_cap": 0}, [], {}, "{config}: config key 'tick_cap' must be >= 1, not 0"),
        ({"reseed_count": 0}, [], {}, "{config}: config key 'reseed_count' must be >= 1, not 0"),
        (
            {},
            ["--stats", "mean,bogus"],
            {},
            "--stats: config key 'stats' is not a stat set: unknown statistic 'bogus'",
        ),
        ({"stats": []}, [], {}, "{config}: config key 'stats' is not a stat set: empty stat set"),
        (
            {"models": ["knn", "xgb"]},
            [],
            {},
            "{config}: config key 'models' names unknown model kind 'xgb'; known: knn, random_forest, gbt",
        ),
        (
            {"injection": {"enabled": True, "count": 1}},
            [],
            {},
            "{config}: config key 'injection' has no key 'check'",
        ),
        (
            {"injection": {"enabled": True, "count": 1, "check": {"test": "true"}}},
            [],
            {},
            "{config}: check object has no key 'compile'",
        ),
        (
            {},
            [],
            {"WAVETRIAGE_TICK_CAP": "abc"},
            "environment variable WAVETRIAGE_TICK_CAP: invalid literal for int() with base 10: 'abc'",
        ),
    ],
    ids=[
        "workers-flag", "workers-env", "tick-cap-flag", "tick-cap-config", "reseed-count", "stats-flag",
        "stats-empty", "models", "injection-check", "check-compile", "env-not-an-int",
    ],
)
def test_pipeline_bad_setting_is_exit_2_before_out_dir(
    corpus, tmp_path, capsys, monkeypatch, config, argv, env, says
):
    """A flag, a ``WAVETRIAGE_*`` variable and a config value pass the same
    checks, and the message names the key and where its value came from."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out_dir = tmp_path / "run"
    cfg_path = pipeline_config(corpus, out_dir, **config)
    assert run("pipeline", "--config", str(cfg_path), *argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {says.format(config=cfg_path)}\n"
    assert captured.out == ""
    assert not out_dir.exists()


def test_pipeline_without_a_simulator_is_exit_2_before_any_job(corpus, tmp_path, capsys):
    cfg_path = pipeline_config(corpus, tmp_path / "run")
    config = json.loads(cfg_path.read_text())
    del config["simulator"]
    cfg_path.write_text(json.dumps(config))
    assert run("pipeline", "--config", str(cfg_path)) == 2
    assert "config key 'simulator' is empty" in capsys.readouterr().err
    assert not (tmp_path / "run" / "scratch").exists()


def test_pipeline_non_finite_real_is_exit_2(corpus, tmp_path, capsys):
    """Every simulation writes a waveform whose ``*_acc_q`` register is
    redeclared ``real`` with a value beyond the float range."""
    source = sorted((corpus.root / "vcds").glob("*.vcd"))[0]
    header, body = source.read_text(encoding="latin-1").split("$enddefinitions $end\n", 1)
    var = next(line for line in header.splitlines() if line.startswith("$var reg 8 ") and "_acc_q" in line)
    code = var.split()[3]
    header = header.replace(var, var.replace("$var reg 8 ", "$var real 64 "))
    body = "".join(
        f"r1e309 {code}\n" if line.startswith("b") and line.split()[1] == code else line
        for line in body.splitlines(keepends=True)
    )
    bad = tmp_path / "bad.vcd"
    bad.write_text(header + "$enddefinitions $end\n" + body, encoding="latin-1")
    cfg_path = pipeline_config(
        corpus,
        tmp_path / "run",
        simulator=f"cp {shlex.quote(str(bad))} {{vcd_out}}",
        worker_count=1,
        train_per_module=1,
        test_per_module=1,
    )
    assert run("pipeline", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    first = f"train-{sorted(corpus.modules)[0]}-0000"
    assert f"{first}/wave_00.vcd (scenario {first}): signal " in err
    assert "_acc_q' holds non-finite value inf at time " in err


def metrics_report(top1=0.9):
    return MetricsReport(
        top1=top1, top3=0.98, macro_f1=0.9, macro_tpr=0.9, macro_fpr=0.02,
        auc_roc_macro=0.99, confusion=np.eye(2, dtype=int), classes=["a", "b"],
    )


def test_report_ablation_table(tmp_path, corpus):
    m_path = tmp_path / "m.json"
    m_path.write_text(metrics_report().to_json())
    ablation = [
        {"tick_cap": 200, "metrics": {"top1": 0.91, "top3": 0.97}},
        {"tick_cap": 2000, "metrics": {"top1": 0.93, "top3": 0.99}},
    ]
    a_path = tmp_path / "ablation.json"
    a_path.write_text(json.dumps(ablation))
    assert run("report", "--metrics", str(m_path), "--ablation", str(a_path)) == 0


def test_report_renders_each_kind_of_a_pipeline_metrics_file(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    doc = {"gbt": metrics_report(0.75).to_dict(), "knn": metrics_report(0.5).to_dict()}
    path.write_text(json.dumps(doc, indent=2))
    assert run("report", "--metrics", str(path)) == 0
    blocks = capsys.readouterr().out.split("\n\n")
    assert [block.splitlines()[:2] for block in blocks] == [
        ["classification report (gbt)", "  top-1 accuracy : 0.7500"],
        ["classification report (knn)", "  top-1 accuracy : 0.5000"],
    ]

    svg = tmp_path / "confusion.svg"
    for flag in ("--svg", "--confusion-csv"):
        assert run("report", "--metrics", str(path), flag, str(svg)) == 2
        assert f"{path} holds 2: gbt, knn" in capsys.readouterr().err
    assert not svg.exists()

    path.write_text(json.dumps({"knn": doc["knn"]}))
    assert run("report", "--metrics", str(path), "--svg", str(svg)) == 0
    assert capsys.readouterr().out.startswith("classification report (knn)\n")
    assert svg.read_text() == metrics_report().confusion_svg()


@pytest.mark.parametrize("per_kind", [False, True], ids=["eval", "pipeline"])
def test_report_names_a_missing_metrics_key_and_the_file(tmp_path, capsys, per_kind):
    doc = metrics_report().to_dict()
    del doc["top3"]
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({"gbt": doc} if per_kind else doc))
    assert run("report", "--metrics", str(path)) == 2
    kind = "model kind 'gbt': " if per_kind else ""
    assert capsys.readouterr().err == f"error: {path}: {kind}metrics report has no key 'top3'\n"


def test_report_streams_the_confusion_csv_to_dev_stdout_as_a_pipe(tmp_path):
    path = tmp_path / "m.json"
    report = metrics_report()
    path.write_text(report.to_json())
    code = "import sys; from wavetriage.cli import main; sys.exit(main(sys.argv[1:]))"
    args = ["report", "--metrics", str(path), "--confusion-csv", "/dev/stdout"]
    env = {**os.environ, "PYTHONPATH": str(Path(sysio.__file__).parent.parent)}
    proc = subprocess.run([PY, "-c", code, *args], capture_output=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    csv_text = sysio.rendered(report.confusion_csv)
    assert proc.stdout.decode().startswith(csv_text + "classification report\n")
    assert "confusion CSV  : /dev/stdout" in proc.stdout.decode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_pipeline_injection_without_a_simulator_is_exit_2_before_injecting(corpus, tmp_path, capsys):
    injection = {
        "enabled": True,
        "count": 2,
        "bug_types": ["logic_bug"],
        "check": {
            "compile": f"{PY} {{design_dir}}/check_compile.py {{design_dir}}",
            "test": f"{PY} {{design_dir}}/check_test.py {{design_dir}}",
        },
    }
    out_dir = tmp_path / "run"
    cfg_path = pipeline_config(corpus, out_dir, injection=injection, simulator="")
    assert run("pipeline", "--config", str(cfg_path)) == 2
    captured = capsys.readouterr()
    assert "config key 'simulator' is empty" in captured.err
    assert "injection:" not in captured.out
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["worker", "targets"], ids=["unknown", "missing"])
def test_pipeline_config_key_errors_are_exit_2_before_any_stage(corpus, tmp_path, capsys, key):
    out_dir = tmp_path / "run"
    cfg_path = pipeline_config(corpus, out_dir)
    config = json.loads(cfg_path.read_text())
    if key == "worker":
        config["worker"] = 2
    else:
        del config["targets"]
    cfg_path.write_text(json.dumps(config))
    assert run("pipeline", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    if key == "worker":
        assert err.startswith(f"error: {cfg_path}: unknown config key 'worker'; known keys: design_dir, ")
        assert ", worker_count, " in err
    else:
        assert err == f"error: {cfg_path}: config key 'targets' is missing\n"
    assert not out_dir.exists()


def test_pipeline_config_value_of_the_wrong_type_is_exit_2_before_any_stage(corpus, tmp_path, capsys):
    out_dir = tmp_path / "run"
    cfg_path = pipeline_config(corpus, out_dir, tick_cap="abc")
    assert run("pipeline", "--config", str(cfg_path)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg_path}: config key 'tick_cap' must be an integer, not \"abc\"\n"
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.fixture(scope="module")
def stage_files(corpus, tmp_path_factory):
    """The inputs of every reading command, each written by the command
    that owns its format: a lookup table, a selection report, rough CSVs
    with their ``.meta.json``, a dataset CSV, a model and an ablation."""
    root = tmp_path_factory.mktemp("stage_files")
    wave, sel = _selected_fixture_waveform(corpus, root)
    rough = []
    for k, module in enumerate(corpus.modules[:2]):
        wave = root / f"{module}.vcd"
        gen_failing_vcd(corpus, module, ticks=60, seed=1000 + k, out_path=wave)
        rough.append(root / f"rough_{module}.csv")
        assert run(
            "extract", "--vcd", str(wave), "--selection", str(sel), "--label", module,
            "--scenario-id", f"{module}-0", "--tick-cap", "20", "--rough-csv", str(rough[-1]),
        ) == 0
    dataset = root / "dataset.csv"
    assert run("compress", "--rough-csv", *map(str, rough), "--out", str(dataset)) == 0
    model = root / "model.bin"
    assert run("train", "--train", str(dataset), "--kind", "knn", "--out", str(model)) == 0
    metrics = root / "metrics.json"
    metrics.write_text(metrics_report().to_json())
    ablation = root / "ablation.json"
    ablation.write_text(json.dumps([{"tick_cap": 200, "metrics": {"top1": 0.9, "top3": 0.95}}]))
    return {
        "tau": root / "tau.json", "selection": sel, "rough": rough[0], "dataset": dataset,
        "model": model, "metrics": metrics, "ablation": ablation,
    }


def _stage_command(files, tmp_path, name, path):
    """The command that reads input ``name`` of ``files``, given ``path``
    in its place."""
    files = {"test": files["dataset"], **files, name: path}
    if name == "meta":
        files["rough"] = Path(str(path).removesuffix(".meta.json"))
    out = str(tmp_path / "out")
    return {
        "tau": ["select", "--vcd", str(tmp_path / "wave.vcd"), "--tau", str(files["tau"]),
                "--targets", "m", "--top-module", "soc_top", "--json", out],
        "selection": ["extract", "--vcd", str(tmp_path / "wave.vcd"), "--selection",
                      str(files["selection"]), "--label", "m", "--scenario-id", "s",
                      "--rough-csv", out],
        "meta": ["compress", "--rough-csv", str(files["rough"]), "--out", out],
        "rough": ["compress", "--rough-csv", str(files["rough"]), "--out", out],
        "dataset": ["train", "--train", str(files["dataset"]), "--kind", "knn", "--out", out],
        "test": ["eval", "--model", str(files["model"]), "--test", str(files["test"]), "--json", out],
        "metrics": ["report", "--metrics", str(files["metrics"])],
        "ablation": ["report", "--metrics", str(files["metrics"]), "--ablation", str(files["ablation"])],
    }[name]


@pytest.mark.parametrize("name", ["tau", "selection", "meta", "metrics", "ablation"])
def test_a_truncated_json_input_is_named_in_its_error(corpus, stage_files, tmp_path, capsys, name):
    source = Path(str(stage_files["rough"]) + ".meta.json") if name == "meta" else stage_files[name]
    cut = tmp_path / source.name
    text = source.read_text()
    cut.write_text(text[: len(text) // 2])
    if name == "meta":
        (tmp_path / stage_files["rough"].name).write_bytes(stage_files["rough"].read_bytes())
    gen_failing_vcd(corpus, corpus.modules[0], ticks=60, seed=1000, out_path=tmp_path / "wave.vcd")
    capsys.readouterr()
    assert run(*_stage_command(stage_files, tmp_path, name, cut)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cut}: "), err
    assert re.search(r": line \d+ column \d+ \(char \d+\)\n$", err), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["rough", "dataset", "test"])
@pytest.mark.parametrize("damage", ["cut", "not a number"])
def test_a_damaged_csv_input_is_named_with_its_line(stage_files, tmp_path, capsys, name, damage):
    source = stage_files["dataset" if name == "test" else name]
    lines = source.read_text().splitlines(keepends=True)
    if damage == "cut":  # cut off in mid-row
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        says = "fields, but the header has"
    else:
        fields = lines[-1].split(",")
        lines[-1] = ",".join([*fields[:-1], "1.0x\n"])
        says = "could not convert string to float: '1.0x'"
    damaged = tmp_path / source.name
    damaged.write_text("".join(lines))
    if name == "rough":
        Path(str(damaged) + ".meta.json").write_bytes(Path(str(source) + ".meta.json").read_bytes())
    capsys.readouterr()
    assert run(*_stage_command(stage_files, tmp_path, name, damaged)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {damaged}: line {len(lines)}: "), err
    assert says in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, says",
    [
        ("tick\n5\n", "rough CSV has no signal column after 'tick'"),
        ("tick,a\n", "rough CSV has no rows after its header"),
    ],
    ids=["no signal column", "no rows"],
)
def test_compress_rejects_a_rough_csv_without_signals_or_rows(tmp_path, capsys, text, says):
    """``extract`` never writes a rough CSV without a signal or a tick, so
    ``compress`` names such a file as a data error instead of compressing
    it to a dataset of 0 features or failing on the matrix shape."""
    rough = tmp_path / "rough.csv"
    rough.write_text(text)
    Path(str(rough) + ".meta.json").write_text(json.dumps({"label": "m", "scenario_id": "s"}))
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert run("compress", "--rough-csv", str(rough), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {rough}: {says}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "entry, says",
    [
        ({"cap": 200, "metrics": {"top1": 0.9, "top3": 0.95}}, "ablation entry 1 has no key 'tick_cap'"),
        ({"tick_cap": 200}, "ablation entry 1 has no key 'metrics'"),
        ({"tick_cap": 200, "metrics": {}}, "ablation entry 1's metrics has no key 'top1'"),
        ({"tick_cap": 200, "metrics": {"top1": 0.9}}, "ablation entry 1's metrics has no key 'top3'"),
    ],
)
def test_report_names_a_missing_ablation_key_and_the_file(stage_files, tmp_path, capsys, entry, says):
    path = tmp_path / "ablation.json"
    good = {"tick_cap": 2000, "metrics": {"top1": 0.93, "top3": 0.99}}
    path.write_text(json.dumps([good, entry]))
    capsys.readouterr()
    assert run("report", "--metrics", str(stage_files["metrics"]), "--ablation", str(path)) == 2
    assert capsys.readouterr().err == f"error: {path}: {says}\n"


@pytest.mark.parametrize(
    "name, doc, says",
    [
        ("selection", {"selected": []}, "selection report has no key 'dropped_count'"),
        ("meta", {"scenario_id": "s"}, "rough CSV sidecar has no key 'label'"),
    ],
    ids=["selection", "meta"],
)
def test_a_json_input_without_a_key_is_named_with_the_key(
    corpus, stage_files, tmp_path, capsys, name, doc, says
):
    path = tmp_path / ("rough.csv.meta.json" if name == "meta" else "sel.json")
    path.write_text(json.dumps(doc))
    if name == "meta":
        (tmp_path / "rough.csv").write_bytes(stage_files["rough"].read_bytes())
    gen_failing_vcd(corpus, corpus.modules[0], ticks=60, seed=1000, out_path=tmp_path / "wave.vcd")
    capsys.readouterr()
    assert run(*_stage_command(stage_files, tmp_path, name, path)) == 2
    assert capsys.readouterr().err == f"error: {path}: {says}\n"
    assert not (tmp_path / "out").exists()


def _damaged(doc, path, value):
    """``doc`` with ``value`` at key ``path``; an integer step into an
    object takes its key of that position."""
    *steps, last = path
    target = doc
    for step in steps:
        target = target[list(target)[step] if isinstance(step, int) and isinstance(target, dict) else step]
    target[last] = value
    return doc


@pytest.mark.parametrize(
    "name, path, value, says",
    [
        ("tau", ("modules",), [], "lookup table key 'modules' must be an object"),
        ("tau", ("modules", 0, "logic"), "abc",
         "lookup table key 'modules.alu_core.logic' must be a list of strings"),
        ("selection", ("selected", 0), [1, 2], "selection report key 'selected[0]' must be a list of 4 values"),
        ("selection", ("dropped_count",), 2.7, "selection report key 'dropped_count' must be an integer"),
        ("selection", ("dropped_count",), True, "selection report key 'dropped_count' must be an integer"),
        ("meta", ("label",), 5, "rough CSV sidecar key 'label' must be a string"),
        ("metrics", ("classes",), 5, "metrics report key 'classes' must be a list of strings"),
        ("metrics", ("top1",), "a", "metrics report key 'top1' must be a number"),
        ("metrics", ("confusion",), [[1]], "metrics report key 'confusion' must be a 2 x 2 matrix"),
        ("ablation", (0, "tick_cap"), "x", "ablation entry 0 key 'tick_cap' must be an integer"),
    ],
    ids=[
        "tau-modules", "tau-group", "selection-entry", "selection-float", "selection-bool", "meta-label",
        "metrics-classes", "metrics-top1", "metrics-confusion", "ablation-tick-cap",
    ],
)
def test_a_json_value_of_the_wrong_type_is_named_with_its_key_before_any_output(
    corpus, stage_files, tmp_path, capsys, name, path, value, says
):
    source = Path(str(stage_files["rough"]) + ".meta.json") if name == "meta" else stage_files[name]
    damaged = tmp_path / source.name
    damaged.write_text(json.dumps(_damaged(json.loads(source.read_text()), path, value)))
    if name == "meta":
        (tmp_path / stage_files["rough"].name).write_bytes(stage_files["rough"].read_bytes())
    gen_failing_vcd(corpus, corpus.modules[0], ticks=60, seed=1000, out_path=tmp_path / "wave.vcd")
    argv = _stage_command(stage_files, tmp_path, name, damaged)
    if name == "metrics":  # the confusion matrix is drawn only after every check
        argv += ["--confusion-csv", str(tmp_path / "out")]
    capsys.readouterr()
    assert run(*argv) == 2
    says = f"{says}, not {json.dumps(value)}"
    assert capsys.readouterr().err == f"error: {damaged}: {says}\n"
    assert not (tmp_path / "out").exists()


def test_eval_on_a_cut_model_file_is_exit_2_naming_it(stage_files, tmp_path, capsys):
    cut = tmp_path / "model.bin"
    cut.write_bytes(stage_files["model"].read_bytes()[:2000])
    capsys.readouterr()
    out = tmp_path / "out"
    assert run("eval", "--model", str(cut), "--test", str(stage_files["dataset"]), "--json", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cut} is not a model file: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_an_environment_value_that_does_not_parse_is_named(
    corpus, stage_files, tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("WAVETRIAGE_TICK_CAP", "abc")
    gen_failing_vcd(corpus, corpus.modules[0], ticks=60, seed=1000, out_path=tmp_path / "wave.vcd")
    capsys.readouterr()
    assert run(*_stage_command(stage_files, tmp_path, "selection", stage_files["selection"])) == 2
    assert capsys.readouterr().err == (
        "error: environment variable WAVETRIAGE_TICK_CAP: invalid literal for int() with base 10: 'abc'\n"
    )
    assert not (tmp_path / "out").exists()


# one value of each JSON type, for the damage table below
_JSON_EXAMPLES = {
    "null": None, "bool": True, "int": 7, "float": 2.5, "string": "x", "list": [1], "object": {"k": 1},
}


def _json_damage(doc):
    """``(case, damaged copy)`` for each key path of ``doc``: its value
    replaced by a value of each other JSON type, and, in an object, its key
    dropped. A list is entered at its first item only."""
    def paths(value, path):
        items = value.items() if isinstance(value, dict) else enumerate(value[:1] if isinstance(value, list) else ())
        for key, item in items:
            yield path + (key,), item
            yield from paths(item, path + (key,))

    for path, value in paths(doc, ()):
        kind = next(name for name, example in _JSON_EXAMPLES.items() if type(example) is type(value))
        for name, example in _JSON_EXAMPLES.items():
            if name != kind:
                yield f"{list(path)} = {name}", _damaged(json.loads(json.dumps(doc)), path, example)
        if isinstance(path[-1], str):
            damaged = json.loads(json.dumps(doc))
            parent = damaged
            for step in path[:-1]:
                parent = parent[step]
            del parent[path[-1]]
            yield f"{list(path)} dropped", damaged


@pytest.fixture(scope="module")
def damage_inputs(corpus, stage_files, tmp_path_factory):
    """reader -> (valid document, argv that reads it from ``{path}`` and
    writes to ``{out}``, the pattern of a downstream error that a
    well-typed document with the wrong content may cause instead)."""
    root = tmp_path_factory.mktemp("damage")
    wave = root / "wave.vcd"
    gen_failing_vcd(corpus, corpus.modules[0], ticks=60, seed=1000, out_path=wave)
    design = root / "design"
    shutil.copytree(corpus.root, design, ignore=shutil.ignore_patterns("vcds"))
    inject = {
        "design_dir": str(design),
        "modules": [corpus.modules[0]],
        "bug_types": ["logic_bug"],
        "count": 0,
        "seed": 1,
        "check": {
            "compile": f"{PY} {design}/check_compile.py {{design_dir}}",
            "test": f"{PY} {design}/check_test.py {{design_dir}}",
            "timeout": 60.0,
        },
        "cache": str(root / "cache.jsonl"),
        "failure_log": str(root / "failures.jsonl"),
        "max_attempts": 2,
    }
    injection = {k: v for k, v in inject.items() if k not in ("design_dir", "modules", "seed")}
    pipeline_path = pipeline_config(corpus, root / "run", injection={"enabled": True, **injection})
    select = ["select", "--vcd", str(wave), "--tau", "{path}", "--targets", ",".join(corpus.modules),
              "--top-module", "soc_top", "--dut-root", "tb.dut", "--json", "{out}"]
    extract = ["extract", "--vcd", str(wave), "--selection", "{path}", "--label", "m", "--scenario-id", "s",
               "--tick-cap", "20", "--rough-csv", "{out}"]
    metrics = [metrics_report(0.75).to_dict(), metrics_report(0.5).to_dict()]
    ablation = [{"tick_cap": 200, "metrics": {"top1": 0.9, "top3": 0.95}}, {"tick_cap": 20, "metrics": metrics[0]}]
    report = ["report", "--metrics", str(stage_files["metrics"]), "--ablation", "{path}"]
    return {
        "tau": (json.loads(stage_files["tau"].read_text()), select, r"unknown module|no signals selected"),
        "selection": (json.loads(stage_files["selection"].read_text()), extract, None),
        "meta": (json.loads(Path(str(stage_files["rough"]) + ".meta.json").read_text()),
                 ["compress", "--rough-csv", "{path}", "--out", "{out}"], None),
        "metrics": (metrics[0], ["report", "--metrics", "{path}", "--confusion-csv", "{out}"], None),
        "metrics-per-kind": (dict(zip(("gbt", "knn"), metrics)), ["report", "--metrics", "{path}"], None),
        "ablation": (ablation, report, None),
        "inject": (inject, ["inject", "--config", "{path}", "--json", "{out}"], None),
        "pipeline": (json.loads(pipeline_path.read_text()), ["pipeline", "--config", "{path}"], None),
    }


@pytest.mark.parametrize(
    "reader", ["tau", "selection", "meta", "metrics", "metrics-per-kind", "ablation", "inject", "pipeline"]
)
def test_damaged_json_input_exits_0_or_2_naming_the_file(
    damage_inputs, stage_files, tmp_path, capsys, monkeypatch, reader
):
    """Every key path of a valid input, replaced by each other JSON type
    and dropped: the command that reads it exits 0 or 2, never 1, and an
    exit 2 prints one ``error:`` line that names the damaged file, or the
    command's own error for a well-typed document whose content it cannot
    use. ``pipeline`` stops after its checks: its stages are not readers."""
    from wavetriage import orchestrate

    monkeypatch.setattr(orchestrate, "run_pipeline", lambda cfg, on_step: [tmp_path / "metrics.json"])
    doc, argv, downstream = damage_inputs[reader]
    path = tmp_path / "input.json"
    if reader == "meta":  # compress finds the sidecar beside its rough CSV
        shutil.copy(stage_files["rough"], tmp_path / "rough.csv")
        path = tmp_path / "rough.csv.meta.json"
    out = tmp_path / "out"
    argv = [arg.format(path=str(path).removesuffix(".meta.json"), out=out) for arg in argv]
    failures, cases = [], list(_json_damage(doc))
    for case, damaged in cases:
        path.write_text(json.dumps(damaged))
        capsys.readouterr()
        try:
            code = main(argv)
        except Exception as exc:  # what main lets through exits 1 with a traceback
            failures.append(f"{case}: raised {exc!r}")
            continue
        err = capsys.readouterr().err
        named = err.startswith(f"error: {path}: ") or downstream and re.match(f"error: ({downstream})", err)
        if code not in (0, 2) or code == 2 and not (named and err.count("\n") == 1):
            failures.append(f"{case}: exit {code}: {err!r}")
    assert len(cases) >= 20 and failures == []
