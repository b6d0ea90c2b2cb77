import io
import json
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from wavetriage import vcd
from wavetriage.extract import sample_window, standardize, summarize
from wavetriage.fixtures import (
    build_scenarios,
    build_scope_tree,
    gen_design,
    gen_failing_vcd,
    materialize_corpus,
    simulator_command,
    UnknownModule,
)
from wavetriage.rtl import scan_sources
from wavetriage.selection import prune


@pytest.fixture(scope="module")
def design(tmp_path_factory):
    return gen_design(tmp_path_factory.mktemp("design"), n_modules=5, seed=7)


def test_design_deterministic(tmp_path):
    a = gen_design(tmp_path / "a", n_modules=5, seed=7)
    b = gen_design(tmp_path / "b", n_modules=5, seed=7)
    for pa, pb in zip(a.source_paths(), b.source_paths()):
        assert pa.name == pb.name
        assert pa.read_text() == pb.read_text()


def test_design_scans_with_expected_modules(design):
    table = scan_sources(design.sources())
    expected = set(design.modules) | {"soc_top", "core_cluster", "periph_cluster", "probe_unit"}
    assert set(table.entries) == expected
    for module in design.modules:
        assert len(table.leaf_names(module)) >= 3


def test_non_target_sibling_exists(design):
    table = scan_sources(design.sources())
    assert "probe_unit" in table.entries
    assert "probe_unit" not in design.modules
    # the probe intentionally reuses a target leaf-name: pruning must rely
    # on instance resolution, not name matching alone
    first = design.modules[0]
    shared = table.leaf_names("probe_unit") & table.leaf_names(first)
    assert shared


def test_vcd_parses_and_prunes(design):
    blob = gen_failing_vcd(design, design.modules[1], ticks=80, seed=3)
    stream = io.StringIO(blob.decode("latin-1"))
    tree = vcd.parse_header(stream)
    hier = vcd.list_full_names(tree)
    assert hier[0][0] == "tb.clk_tb"

    table = scan_sources(design.sources())
    targets = {m: table.leaf_names(m) for m in design.modules}
    report = prune(hier, targets, table.instances, top_module="soc_top", dut_root="tb.dut")
    # every selected signal belongs to a leaf instance; probe/tb dropped
    assert report.dropped_count > 0
    assert all(owner in design.modules for _, _, _, owner in report.selected)
    names = report.full_names()
    assert not any(".u_probe." in n for n in names)
    # two instances of the first leaf module both selected
    first = design.modules[0]
    assert sum(f".u_{first}_a." in n for n in names) > 0
    assert sum(f".u_{first}_b." in n for n in names) > 0


def test_vcd_deterministic_per_seed(design):
    a = gen_failing_vcd(design, design.modules[0], ticks=60, seed=11)
    b = gen_failing_vcd(design, design.modules[0], ticks=60, seed=11)
    c = gen_failing_vcd(design, design.modules[0], ticks=60, seed=12)
    assert a == b
    assert a != c


def test_unknown_label_rejected(design):
    with pytest.raises(UnknownModule):
        gen_failing_vcd(design, "ghost", ticks=60, seed=0)


def test_ticks_lower_bound(design):
    with pytest.raises(ValueError):
        gen_failing_vcd(design, design.modules[0], ticks=10, seed=0)


def window_features(design, label, seed, difficulty, tick_cap=200):
    blob = gen_failing_vcd(design, label, ticks=260, seed=seed, difficulty=difficulty)
    stream = io.StringIO(blob.decode("latin-1"))
    tree = vcd.parse_header(stream)
    hier = vcd.list_full_names(tree)
    table = scan_sources(design.sources())
    targets = {m: table.leaf_names(m) for m in design.modules}
    report = prune(hier, targets, table.instances, top_module="soc_top", dut_root="tb.dut")
    win = sample_window(
        vcd.stream_changes(stream), report, tick_cap=tick_cap, label=label, scenario_id="x"
    )
    return summarize(standardize(win, tick_cap))


def test_easy_signature_separates_classes(design):
    mod_a, mod_b = design.modules[0], design.modules[1]
    rows_a = [window_features(design, mod_a, s, "easy") for s in range(8)]
    rows_b = [window_features(design, mod_b, 100 + s, "easy") for s in range(8)]
    A = np.stack([r.features for r in rows_a])
    B = np.stack([r.features for r in rows_b])
    mu_gap = np.abs(A.mean(0) - B.mean(0))
    pooled = np.sqrt((A.std(0, ddof=1) ** 2 + B.std(0, ddof=1) ** 2) / 2)
    separated = mu_gap >= 3 * np.maximum(pooled, 1e-12)
    assert separated.sum() >= 2


def test_impossible_signature_is_baseline(design):
    mod = design.modules[2]
    f_imp = window_features(design, mod, 5, "impossible")
    f_easy = window_features(design, mod, 5, "easy")
    assert not np.allclose(f_imp.features, f_easy.features)
    # at zero deviation the label module's recipe columns look like any other
    recipe = design.recipes[mod]
    bias_cols = [i for i, n in enumerate(f_imp.feature_names) if recipe.bias_signal in n]
    assert bias_cols  # sanity: the signal is dumped and selected


def test_scenarios_split_disjoint(design):
    scenarios = build_scenarios(design, train_per_module=3, test_per_module=2, seed=1)
    ids = [s.scenario_id for s in scenarios]
    assert len(set(ids)) == len(ids)
    train = {s.scenario_id for s in scenarios if s.split == "train"}
    test = {s.scenario_id for s in scenarios if s.split == "test"}
    assert not train & test
    assert len(train) == 15 and len(test) == 10


def test_manifest_and_replay_sim(design, tmp_path):
    scenarios = build_scenarios(design, train_per_module=1, test_per_module=1, seed=2)
    manifest = materialize_corpus(design, scenarios, ticks=60)
    assert manifest.exists()

    scenario_id = scenarios[0].scenario_id
    out = tmp_path / "replayed.vcd"
    template = simulator_command()
    import shlex

    args = [
        part.format(
            design_dir=str(design.root), scenario_id=scenario_id, seed=0, vcd_out=str(out)
        )
        for part in shlex.split(template)
    ]
    proc = subprocess.run(args, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    expected = design.root / "vcds" / f"{scenario_id}.vcd"
    assert out.read_bytes() == expected.read_bytes()


def test_replay_sim_runs_without_pythonpath(design, tmp_path):
    import os
    import shlex

    scenarios = build_scenarios(design, train_per_module=1, test_per_module=1, seed=2)
    materialize_corpus(design, scenarios, ticks=60)
    scenario_id = scenarios[0].scenario_id
    out = tmp_path / "replayed.vcd"
    args = [
        part.format(
            design_dir=str(design.root), scenario_id=scenario_id, seed=0, vcd_out=str(out)
        )
        for part in shlex.split(simulator_command())
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(args, capture_output=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    expected = design.root / "vcds" / f"{scenario_id}.vcd"
    assert out.read_bytes() == expected.read_bytes()


def _replay_args(design_dir, scenario_id, out):
    """The argv that dispatch runs for one job of the bundled simulator."""
    return [
        part.format(design_dir=str(design_dir), scenario_id=scenario_id, seed=0, vcd_out=str(out))
        for part in shlex.split(simulator_command())
    ]


def _replay_corpus(design):
    """A scenario id of a materialized corpus and its waveform's bytes."""
    scenarios = build_scenarios(design, train_per_module=1, test_per_module=1, seed=2)
    manifest = json.loads(materialize_corpus(design, scenarios, ticks=60).read_text())
    scenario_id = scenarios[0].scenario_id
    return scenario_id, (design.root / manifest["scenarios"][scenario_id]["vcd"]).read_bytes()


def test_replay_sim_unknown_scenario(design, tmp_path):
    out = tmp_path / "x.vcd"
    proc = subprocess.run(_replay_args(design.root, "nope", out), capture_output=True)
    assert proc.returncode == 2
    assert b"unknown scenario 'nope'" in proc.stderr
    assert not out.exists()


def test_replay_sim_missing_source_leaves_no_output(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"scenarios": {"s": {"vcd": "gone.vcd"}}}))
    out = tmp_path / "out" / "x.vcd"
    proc = subprocess.run(_replay_args(tmp_path, "s", out), capture_output=True)
    assert proc.returncode == 1
    assert b"FileNotFoundError" in proc.stderr
    assert not out.exists()


def _imported_modules(importtime_stderr: str) -> list[str]:
    return [
        line.rsplit("|", 1)[1].strip()
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:")
    ]


def test_replay_sim_starts_without_site_or_package_imports(design, tmp_path):
    """Each dispatched job pays one interpreter start: the simulator must
    not import ``site``, ``shutil`` or the package."""
    scenario_id, expected = _replay_corpus(design)
    out = tmp_path / "replayed.vcd"
    args = _replay_args(design.root, scenario_id, out)
    args[1:1] = ["-X", "importtime"]
    proc = subprocess.run(args, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported = _imported_modules(proc.stderr)
    assert "json" in imported  # the report was written
    assert "site" not in imported
    assert [m for m in imported if m == "shutil" or m.split(".")[0] == "wavetriage"] == []
    assert out.read_bytes() == expected


def test_replay_sim_is_isolated_from_the_callers_environment(design, tmp_path):
    """A ``PYTHONPATH`` and working directory that shadow ``json`` and add a
    failing ``sitecustomize`` break a plain interpreter, not the simulator."""
    scenario_id, expected = _replay_corpus(design)
    trap = tmp_path / "trap"
    trap.mkdir()
    (trap / "json.py").write_text("raise RuntimeError('shadowing json was imported')\n")
    (trap / "sitecustomize.py").write_text("import sys\nsys.exit(3)\n")
    env = {**os.environ, "PYTHONPATH": str(trap)}
    plain = subprocess.run([sys.executable, "-c", "import json"], env=env, cwd=trap, capture_output=True)
    assert plain.returncode != 0  # the trap works on a plain start
    out = tmp_path / "replayed.vcd"
    proc = subprocess.run(
        _replay_args(design.root, scenario_id, out), env=env, cwd=trap, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == expected


def test_check_scripts_pass_on_clean_design(design):
    for script in ("check_compile.py", "check_test.py"):
        proc = subprocess.run(
            [sys.executable, str(design.root / script), str(design.root)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr or proc.stdout


def test_scope_tree_matches_layout(design):
    tree = build_scope_tree(design)
    names = vcd.list_full_names(tree)
    assert len(names) == len(design.layout)
    assert len({code for _, code, _ in names}) == len(names)
