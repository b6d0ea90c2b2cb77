import io
import json
import os
import re
import shutil
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from wavetriage.extract import Dataset, EmptyDump, NonFiniteReal, write_dataset_csv
from wavetriage.fixtures import (
    build_scenarios,
    gen_design,
    materialize_corpus,
    simulator_command,
)
from wavetriage.selection import NoSignalsSelected
from wavetriage.vcd import MalformedChange, TimeRegression
from wavetriage.orchestrate import (
    JobResult,
    NoFailingWaveforms,
    PipelineConfig,
    ScratchCollision,
    SimulatorNotFound,
    StageSizeReport,
    design_table,
    dispatch,
    run_data_pipeline,
    scenario_jobs,
)

PY = sys.executable


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    design = gen_design(root, n_modules=4, seed=3)
    scenarios = build_scenarios(design, train_per_module=2, test_per_module=1, seed=3)
    materialize_corpus(design, scenarios, ticks=60)
    return design


def config_for(design, tmp_path, **kw):
    defaults = dict(
        design_dir=str(design.root),
        targets=list(design.modules),
        top_module=design.top_module,
        dut_root=design.dut_root,
        simulator=simulator_command(),
        tick_cap=50,
        worker_count=1,
        seed=3,
        out_dir=str(tmp_path / "out"),
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


def test_scenario_jobs_match_fixture_ids(corpus, tmp_path):
    cfg = config_for(corpus, tmp_path)
    jobs = scenario_jobs(cfg, tmp_path / "scratch", "train", 2)
    manifest = json.loads((corpus.root / "manifest.json").read_text())
    for job in jobs:
        assert job.scenario_id in manifest["scenarios"]


def test_dispatch_same_results_any_worker_count(corpus, tmp_path):
    cfg1 = config_for(corpus, tmp_path, worker_count=1)
    cfg4 = config_for(corpus, tmp_path, worker_count=4)
    jobs1 = scenario_jobs(cfg1, tmp_path / "s1", "train", 2)
    jobs4 = scenario_jobs(cfg4, tmp_path / "s4", "train", 2)
    res1 = dispatch(jobs1, cfg1)
    res4 = dispatch(jobs4, cfg4)
    strip = lambda rs: [(r.scenario_id, r.label, r.status, len(r.vcd_paths)) for r in rs]
    assert strip(res1) == strip(res4)
    assert all(r.status == "done" for r in res1)
    assert all(Path(p).exists() for r in res1 for p in r.vcd_paths)


def test_dispatch_rejects_scratch_collision(corpus, tmp_path):
    cfg = config_for(corpus, tmp_path)
    jobs = scenario_jobs(cfg, tmp_path / "scratch", "train", 1)
    jobs[1].scratch_dir = jobs[0].scratch_dir
    with pytest.raises(ScratchCollision):
        dispatch(jobs, cfg)


def test_dispatch_simulator_not_found(corpus, tmp_path):
    cfg = config_for(corpus, tmp_path, simulator="no_such_simulator_binary {vcd_out}")
    jobs = scenario_jobs(cfg, tmp_path / "scratch", "train", 1)[:1]
    with pytest.raises(SimulatorNotFound):
        dispatch(jobs, cfg)


FLAKY = """
import os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
marker = args["--vcd-out"] + ".tried"
if not os.path.exists(marker):
    open(marker, "w").close()
    sys.exit(1)
open(args["--vcd-out"], "w").write("$enddefinitions $end\\n")
sys.exit(0)
"""

ALWAYS_FAIL = "import sys; sys.exit(1)"


def test_dispatch_retries_then_succeeds(corpus, tmp_path):
    script = tmp_path / "flaky.py"
    script.write_text(FLAKY)
    cfg = config_for(
        corpus,
        tmp_path,
        simulator=f"{PY} {script} --scenario {{scenario_id}} --vcd-out {{vcd_out}}",
        retry_limit=2,
    )
    jobs = scenario_jobs(cfg, tmp_path / "scratch", "train", 1)[:2]
    results = dispatch(jobs, cfg)
    assert all(r.status == "done" for r in results)
    assert all(r.attempts == 2 for r in results)


def test_dispatch_failed_job_marks_and_continues(corpus, tmp_path):
    script = tmp_path / "fail.py"
    script.write_text(ALWAYS_FAIL)
    cfg = config_for(
        corpus, tmp_path, simulator=f"{PY} {script} {{scenario_id}} {{vcd_out}}", retry_limit=1
    )
    jobs = scenario_jobs(cfg, tmp_path / "scratch", "train", 1)
    results = dispatch(jobs, cfg)
    assert all(r.status == "failed" for r in results)
    assert all(r.attempts == 2 for r in results)
    with pytest.raises(NoFailingWaveforms):
        run_data_pipeline(results, cfg)


def test_failed_job_keeps_exit_code_and_stderr(corpus, tmp_path):
    cfg = config_for(
        corpus,
        tmp_path,
        simulator="sh -c 'echo license server down >&2; exit 7' sim {vcd_out}",
        retry_limit=1,
    )
    jobs = scenario_jobs(cfg, tmp_path / "scratch", "train", 1)[:1]
    (result,) = dispatch(jobs, cfg)
    assert result.status == "failed"
    assert result.returncode == 7
    assert not result.timed_out
    assert "license server down" in result.stderr_tail


def test_stderr_tail_keeps_the_last_bytes(corpus, tmp_path):
    script = tmp_path / "noisy.py"
    script.write_text(
        "import sys\nsys.stderr.write('x' * 5000 + 'END')\nsys.exit(3)\n"
    )
    cfg = config_for(corpus, tmp_path, simulator=f"{PY} {script} {{vcd_out}}", retry_limit=0)
    jobs = scenario_jobs(cfg, tmp_path / "scratch", "train", 1)[:1]
    (result,) = dispatch(jobs, cfg)
    assert result.returncode == 3
    assert len(result.stderr_tail) == 2048
    assert result.stderr_tail.endswith("xEND")


def test_timed_out_job_is_marked(corpus, tmp_path):
    cfg = config_for(
        corpus, tmp_path, simulator="sh -c 'sleep 5' sim {vcd_out}", sim_timeout=0.2, retry_limit=0
    )
    jobs = scenario_jobs(cfg, tmp_path / "scratch", "train", 1)[:1]
    (result,) = dispatch(jobs, cfg)
    assert result.status == "failed"
    assert result.timed_out
    assert result.returncode is None


def test_done_job_reports_exit_code_zero(corpus, tmp_path):
    cfg = config_for(corpus, tmp_path)
    jobs = scenario_jobs(cfg, tmp_path / "scratch", "train", 1)[:1]
    (result,) = dispatch(jobs, cfg)
    assert result.status == "done"
    assert (result.returncode, result.timed_out) == (0, False)


def test_job_result_positional_constructor_still_works():
    result = JobResult("train-a-0000", "a", "done", ["w.vcd"], 0.0, 1)
    assert (result.returncode, result.timed_out, result.stderr_tail) == (None, False, "")


def _dataset_bytes(dataset):
    buf = io.StringIO()
    write_dataset_csv(dataset, buf)
    return buf.getvalue().encode()


def test_pipeline_dataset_and_stage_report(corpus, tmp_path):
    # tick_cap high enough that per-tick rows dominate the stage sizes, as
    # in a real run (at tiny caps the repeated CSV header would)
    cfg = config_for(corpus, tmp_path, tick_cap=200)
    jobs = scenario_jobs(cfg, tmp_path / "scratch", "train", 2)
    results = dispatch(jobs, cfg)
    dataset, report = run_data_pipeline(results, cfg)
    assert len(dataset) == len(jobs)
    assert Counter(dataset.labels) == {m: 2 for m in corpus.modules}
    assert report.raw > 0
    assert report.rough >= report.compressed >= report.final > 0
    # repeat run: byte-identical final dataset
    dataset2, report2 = run_data_pipeline(results, cfg)
    assert _dataset_bytes(dataset) == _dataset_bytes(dataset2)
    assert report2.final == report.final


def test_pipeline_identical_across_worker_counts(corpus, tmp_path):
    cfg1 = config_for(corpus, tmp_path, worker_count=1)
    jobs = scenario_jobs(cfg1, tmp_path / "scratch", "train", 2)
    results = dispatch(jobs, cfg1)
    ds1, _ = run_data_pipeline(results, cfg1)
    cfg2 = config_for(corpus, tmp_path, worker_count=2)
    ds2, _ = run_data_pipeline(results, cfg2)
    assert _dataset_bytes(ds1) == _dataset_bytes(ds2)


def test_tick_cap_flagging(corpus, tmp_path):
    cfg = config_for(corpus, tmp_path, tick_cap=10)  # far below the ~60 real ticks
    jobs = scenario_jobs(cfg, tmp_path / "scratch", "test", 1)
    results = dispatch(jobs, cfg)
    _, report = run_data_pipeline(results, cfg)
    assert sorted(report.tick_capped) == sorted(j.scenario_id for j in jobs)


def test_keep_rough_writes_files(corpus, tmp_path):
    cfg = config_for(corpus, tmp_path, keep_rough=True)
    jobs = scenario_jobs(cfg, tmp_path / "scratch", "test", 1)[:2]
    results = dispatch(jobs, cfg)
    run_data_pipeline(results, cfg)
    rough = list((Path(cfg.out_dir) / "rough").glob("*.csv"))
    assert len(rough) == 2
    header = rough[0].read_text().splitlines()[0]
    assert header.startswith("tick,")


def test_config_json_round_trip(tmp_path, corpus):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "design_dir": str(corpus.root),
                "targets": list(corpus.modules),
                "top_module": "soc_top",
                "dut_root": "tb.dut",
                "simulator": simulator_command(),
                "worker_count": 2,
                "tick_cap": 128,
            }
        )
    )
    cfg = PipelineConfig.from_json_file(path)
    assert cfg.worker_count == 2
    assert cfg.tick_cap == 128
    assert cfg.stats[0] == "mean"


def test_config_null_values_stand_for_defaults(tmp_path, corpus):
    path = tmp_path / "cfg.json"
    nulls = {"tick_cap": None, "seed": None, "keep_fraction": None, "max_signals": None, "dut_root": None}
    path.write_text(json.dumps({"design_dir": str(corpus.root), "targets": ["a"], "top_module": "t", **nulls}))
    cfg = PipelineConfig.from_json_file(path)
    default = PipelineConfig(design_dir=str(corpus.root), targets=["a"], top_module="t")
    assert cfg == default


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("tick_cap", "abc", "an integer"),
        ("tick_cap", True, "an integer"),
        ("tick_cap", 2.0, "an integer"),
        ("keep_fraction", "0.5", "a number"),
        ("reduce", 1, "true or false"),
        ("targets", "a", "a list of strings"),
        ("models", ["knn", 3], "a list of strings"),
        ("dut_root", 0, "a string"),
        ("injection", [], "an object"),
    ],
)
def test_config_value_of_the_wrong_json_type_is_named(tmp_path, key, value, expected):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"design_dir": "d", "targets": ["a"], "top_module": "t", key: value}))
    with pytest.raises(ValueError) as info:
        PipelineConfig.from_json_file(path)
    assert str(info.value) == f"{path}: config key {key!r} must be {expected}, not {json.dumps(value)}"


def test_config_json_type_of_every_field(tmp_path):
    """Every field has a JSON type that ``from_json_file`` checks, and a
    float field takes an integer."""
    from dataclasses import fields

    from wavetriage.sysio import JSON_TYPES

    assert [f.name for f in fields(PipelineConfig) if f.type.removesuffix(" | None") not in JSON_TYPES] == []
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"design_dir": "d", "targets": ["a"], "top_module": "t", "keep_fraction": 1, "sim_timeout": 5})
    )
    cfg = PipelineConfig.from_json_file(path)
    assert (cfg.keep_fraction, cfg.sim_timeout) == (1, 5)


def test_config_truncated_file_is_named(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"design_dir": "d", "targ')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: Unterminated string starting at"):
        PipelineConfig.from_json_file(path)


def test_reseeds_produce_multiple_rows(corpus, tmp_path):
    cfg = config_for(corpus, tmp_path, reseed_count=2)
    jobs = scenario_jobs(cfg, tmp_path / "scratch", "test", 1)[:2]
    results = dispatch(jobs, cfg)
    assert all(len(r.vcd_paths) == 2 for r in results)
    dataset, _ = run_data_pipeline(results, cfg)
    assert len(dataset) == 4
    assert any("#" in sid for sid in dataset.scenario_ids)


def test_stage_size_report_merge_adds_counts_and_keeps_order():
    total = StageSizeReport(raw=1, rough=2, compressed=3, final=4, tick_capped=["a"])
    total.merge(StageSizeReport(raw=10, rough=20, compressed=30, final=40, tick_capped=["c", "b"]))
    assert total == StageSizeReport(
        raw=11, rough=22, compressed=33, final=44, tick_capped=["a", "c", "b"]
    )


def _fixture_jobs(corpus, count):
    """``count`` done jobs over the corpus waveforms (reused round-robin)."""
    paths = sorted((corpus.root / "vcds").glob("*.vcd"))
    return [
        JobResult(f"job-{i:03d}", path.stem.split("-")[1], "done", [str(path)], 0.0, 1)
        for i, path in enumerate(paths[i % len(paths)] for i in range(count))
    ]


def test_pipeline_identical_for_one_two_and_three_workers(corpus, tmp_path):
    # 17 payloads: two workers get chunks of 2, so the last chunk is short
    jobs = _fixture_jobs(corpus, 17)
    outputs = []
    for workers in (1, 2, 3):
        cfg = config_for(corpus, tmp_path, worker_count=workers, tick_cap=80)
        dataset, report = run_data_pipeline(jobs, cfg)
        outputs.append((_dataset_bytes(dataset), report))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_stage_sizes_equal_the_formatted_csvs(corpus, tmp_path):
    cfg = config_for(corpus, tmp_path, reseed_count=2, keep_rough=True, tick_cap=80)
    jobs = scenario_jobs(cfg, tmp_path / "scratch", "train", 1)
    dataset, report = run_data_pipeline(dispatch(jobs, cfg), cfg)
    rough_files = sorted((Path(cfg.out_dir) / "rough").glob("*.csv"))
    assert len(rough_files) == 2 * len(jobs)
    assert report.rough == sum(len(p.read_text()) for p in rough_files)
    assert report.final == len(_dataset_bytes(dataset))
    per_scenario = {}
    for i, scenario_id in enumerate(dataset.scenario_ids):
        per_scenario.setdefault(scenario_id.split("#")[0], []).append(i)
    assert len(per_scenario) == len(jobs)
    scenario_csvs = [
        Dataset(
            dataset.feature_names,
            dataset.matrix[rows],
            [dataset.labels[i] for i in rows],
            [dataset.scenario_ids[i] for i in rows],
        )
        for rows in per_scenario.values()
    ]
    assert report.compressed == sum(len(_dataset_bytes(ds)) for ds in scenario_csvs)


def _corrupt_body(path, out):
    text = path.read_text(encoding="latin-1")
    header, body = text.split("$enddefinitions $end\n", 1)
    lines = body.splitlines(keepends=True)
    vector = next(i for i, line in enumerate(lines) if line.startswith("b"))
    lines[vector] = "bq " + lines[vector].split()[1] + "\n"
    out.write_text(header + "$enddefinitions $end\n" + "".join(lines), encoding="latin-1")


def _empty_body(path, out):
    text = path.read_text(encoding="latin-1")
    out.write_text(text.split("$enddefinitions $end\n", 1)[0] + "$enddefinitions $end\n")


def _real_target(path, out, values=()):
    """Redeclare the first ``*_acc_q`` register ``real 64``: its values become
    reals, and change ``i`` of it takes ``value`` for each ``(i, value)``."""
    text = path.read_text(encoding="latin-1")
    header, body = text.split("$enddefinitions $end\n", 1)
    lines = header.splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("$var reg 8 ") and "_acc_q" in line)
    _, _, _, code, name, end = lines[at].split()
    lines[at] = f"$var real 64 {code} {name} {end}\n"
    body_lines = body.splitlines(keepends=True)
    changes = [i for i, line in enumerate(body_lines) if line.startswith("b") and line.split()[1] == code]
    assert len(changes) >= 2
    for i in changes:
        body_lines[i] = f"r{int(body_lines[i].split()[0][1:], 2)} {code}\n"
    for i, value in values:
        body_lines[changes[i]] = f"{value} {code}\n"
    out.write_text("".join(lines) + "$enddefinitions $end\n" + "".join(body_lines), encoding="latin-1")


def _non_finite_real(path, out):
    """A ``real`` target whose last value, held to the end, is beyond the
    float range."""
    _real_target(path, out, [(-1, "r1e309")])


def _backward_timestamp(path, out):
    """The header of ``path`` over a body whose timestamps run 0, 5, 2, 6."""
    header = path.read_text(encoding="latin-1").split("$enddefinitions $end\n", 1)[0]
    out.write_text(header + "$enddefinitions $end\n#0\n0!\n#5\n1!\n#2\n0!\n#6\n1!\n", encoding="latin-1")


def _renamed_dut_scope(path, out):
    """``path`` with its ``dut`` scope renamed: nothing lies under ``tb.dut``."""
    text = path.read_text(encoding="latin-1")
    out.write_text(text.replace("$scope module dut $end", "$scope module dux $end", 1), encoding="latin-1")


@pytest.mark.parametrize(
    "corrupt, error",
    [
        (_corrupt_body, MalformedChange),
        (_empty_body, EmptyDump),
        (_non_finite_real, NonFiniteReal),
        (_backward_timestamp, TimeRegression),
        (_renamed_dut_scope, NoSignalsSelected),
    ],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_extraction_error_names_file_and_scenario(corpus, tmp_path, corrupt, error, workers):
    jobs = _fixture_jobs(corpus, 5)
    bad = tmp_path / "bad.vcd"
    corrupt(Path(jobs[3].vcd_paths[0]), bad)
    jobs[3].vcd_paths = [str(bad)]
    cfg = config_for(corpus, tmp_path, worker_count=workers)
    with pytest.raises(error) as info:
        run_data_pipeline(jobs, cfg)
    assert type(info.value) is error
    assert str(bad) in str(info.value)
    assert jobs[3].scenario_id in str(info.value)


def test_read_window_reraises_the_parser_error_itself_naming_file_and_scenario(corpus, tmp_path, monkeypatch):
    """The error of a corrupted waveform reaches the caller as the object
    the parser raised, class and all, with the path and the scenario in
    front of its message."""
    from wavetriage import orchestrate, vcd
    from wavetriage.selection import SelectionReport

    raised = []

    def recording(stream):
        try:
            yield from vcd.stream_changes(stream)
        except vcd.VcdError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(orchestrate, "stream_changes", recording)
    bad = tmp_path / "bad.vcd"
    _corrupt_body(Path(_fixture_jobs(corpus, 1)[0].vcd_paths[0]), bad)
    report = SelectionReport([("tb.dut.x", "!", 1, "m")], 0, {"m": 1})
    with pytest.raises(MalformedChange) as info:
        orchestrate.read_window(bad, lambda tree: report, 20, "m", "s-7")
    (original,) = raised
    assert info.value is original
    assert str(original).startswith(f"{bad} (scenario s-7): ")


def test_non_finite_real_before_the_window_gives_a_row(corpus, tmp_path):
    """An ``rinf`` overwritten before the last ``tick_cap`` ticks never
    reaches the window: the row is that of the all-finite waveform."""
    jobs = _fixture_jobs(corpus, 1)
    source = Path(jobs[0].vcd_paths[0])
    matrices = []
    for name, values in (("finite", []), ("early_inf", [(0, "rinf")])):
        path = tmp_path / f"{name}.vcd"
        _real_target(source, path, values)
        jobs[0].vcd_paths = [str(path)]
        dataset, _ = run_data_pipeline(jobs, config_for(corpus, tmp_path / name, tick_cap=5))
        matrices.append(dataset.matrix)
    assert np.isfinite(matrices[1]).all()
    assert matrices[0].tobytes() == matrices[1].tobytes()


def _widen_target(path, out, width=1100):
    """Declare the first ``*_acc_q`` register ``width`` bits wide and set
    bit ``width - 1`` in every value it takes."""
    text = path.read_text(encoding="latin-1")
    header, body = text.split("$enddefinitions $end\n", 1)
    lines = header.splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("$var reg 8 ") and "_acc_q" in line)
    _, kind, _, code, name, end = lines[at].split()
    lines[at] = f"$var {kind} {width} {code} {name} {end}\n"
    body_lines = body.splitlines(keepends=True)
    widened = 0
    for i, line in enumerate(body_lines):
        if line.startswith("b") and line.split()[1] == code:
            bits = line.split()[0][1:]
            body_lines[i] = f"b1{bits.rjust(width - 1, '0')} {code}\n"
            widened += 1
    assert widened
    out.write_text("".join(lines) + "$enddefinitions $end\n" + "".join(body_lines), encoding="latin-1")
    return name


def test_waveform_with_a_1100_bit_target_gives_a_row(corpus, tmp_path):
    jobs = _fixture_jobs(corpus, 1)
    wide = tmp_path / "wide.vcd"
    name = _widen_target(Path(jobs[0].vcd_paths[0]), wide)
    jobs[0].vcd_paths = [str(wide)]
    dataset, _ = run_data_pipeline(jobs, config_for(corpus, tmp_path))
    assert len(dataset) == 1
    row = dict(zip(dataset.feature_names, dataset.matrix[0]))
    maxima = [v for k, v in row.items() if k.endswith(f".{name}__max")]
    assert maxima.count(sys.float_info.max) == 1  # one instance of the leaf name was widened
    assert np.isfinite(dataset.matrix).all()


def test_design_table_rescans_an_edited_source(corpus, tmp_path):
    """The design table is kept by content: unchanged sources are not
    scanned again, and an edit that keeps the file's size and mtime reaches
    the next call."""
    design_dir = tmp_path / "design"
    design_dir.mkdir()
    for path in corpus.source_paths():
        shutil.copy2(path, design_dir / path.name)
    cfg = config_for(corpus, tmp_path, design_dir=str(design_dir))
    jobs = _fixture_jobs(corpus, 1)
    before, _ = run_data_pipeline(jobs, cfg)
    table = design_table(design_dir)
    assert design_table(design_dir) is table

    # a signal of the first target that no other module declares
    module = corpus.modules[0]
    others = set().union(*(table.leaf_names(m) for m in table.entries if m != module))
    name = next(
        n for n in sorted(table.leaf_names(module) - others)
        if any(f".{n}__" in f for f in before.feature_names)
    )
    renamed = name[:-1] + ("y" if name[-1] == "z" else "z")
    source = design_dir / f"{module}.sv"
    stat = source.stat()
    source.write_text(re.sub(rf"\b{name}\b", renamed, source.read_text()))
    os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (source.stat().st_size, source.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)

    after, _ = run_data_pipeline(jobs, cfg)
    assert design_table(design_dir) is not table
    assert name not in design_table(design_dir).leaf_names(module)
    assert not any(f".{name}__" in f for f in after.feature_names)
    assert set(after.feature_names) < set(before.feature_names)
