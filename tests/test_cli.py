import json
import sys
from pathlib import Path

import pytest

from wavetriage.cli import main
from wavetriage.fixtures import (
    build_scenarios,
    gen_design,
    gen_failing_vcd,
    materialize_corpus,
    simulator_command,
)
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


def test_select_extract_compress_train_eval_chain(corpus, tmp_path):
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
    assert run("eval", "--model", str(model), "--test", str(test_csv), "--json", str(metrics)) == 0
    doc = json.loads(metrics.read_text())
    assert {"top1", "top3", "macro_f1", "auc_roc_macro", "confusion"} <= set(doc)

    # report rendering over the metrics JSON
    svg = tmp_path / "confusion.svg"
    assert run("report", "--metrics", str(metrics), "--svg", str(svg)) == 0
    assert svg.read_text().startswith("<svg")


def test_eval_missing_model_is_exit_2(tmp_path):
    missing = tmp_path / "missing.bin"
    assert run("eval", "--model", str(missing), "--test", str(missing), "--json", str(tmp_path / "m.json")) == 2


def test_inject_subcommand(corpus, tmp_path):
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


def test_pipeline_reduce_writes_history(corpus, tmp_path):
    out_dir = tmp_path / "run"
    cfg_path = pipeline_config(corpus, out_dir, reduce=True, max_signals=8)
    assert run("pipeline", "--config", str(cfg_path)) == 0
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


def test_report_ablation_table(tmp_path, corpus):
    from wavetriage.metrics import MetricsReport
    import numpy as np

    report = MetricsReport(
        top1=0.9, top3=0.98, macro_f1=0.9, macro_tpr=0.9, macro_fpr=0.02,
        auc_roc_macro=0.99, confusion=np.eye(2, dtype=int), classes=["a", "b"],
    )
    m_path = tmp_path / "m.json"
    m_path.write_text(report.to_json())
    ablation = [
        {"tick_cap": 200, "metrics": {"top1": 0.91, "top3": 0.97}},
        {"tick_cap": 2000, "metrics": {"top1": 0.93, "top3": 0.99}},
    ]
    a_path = tmp_path / "ablation.json"
    a_path.write_text(json.dumps(ablation))
    assert run("report", "--metrics", str(m_path), "--ablation", str(a_path)) == 0
