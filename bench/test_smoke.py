"""Smoke test of the benchmark itself: every workload at the smoke size with
every check on, one traced run, and the refusal to run without a source
tree. Takes about half a minute:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, bench_dir: Path = BENCH):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["pipeline-corpus", "triage-long", "reduce-wide"])
def test_workload_passes_its_checks(workload):
    result = last_json(run_bench(workload, trace=0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_run_reports_every_layer_metric():
    result = last_json(run_bench("triage-long", trace=1))
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["vcd.parse_mb_per_s"]["value"] > 0
    assert result["metrics"]["models.gbt_predict_ms"]["value"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("reduce-wide", trace=0, bench_dir=tmp_path / "bench")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
