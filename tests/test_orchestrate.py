import io
import json
import sys
from pathlib import Path

import pytest

from wavetriage.extract import write_dataset_csv
from wavetriage.fixtures import (
    build_scenarios,
    gen_design,
    materialize_corpus,
    simulator_command,
)
from wavetriage.orchestrate import (
    JobResult,
    NoFailingWaveforms,
    PipelineConfig,
    ScratchCollision,
    SimulatorNotFound,
    StageSizeReport,
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
    assert dataset.class_counts == {m: 2 for m in corpus.modules}
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
    assert cfg.stat_set().names[0] == "mean"


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
