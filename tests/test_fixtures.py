import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavetriage import fixtures, vcd
from wavetriage.extract import sample_window, standardize, summarize
from wavetriage.fixtures import (
    DIFFICULTY_SCALE,
    _stable_hash,
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


@pytest.mark.parametrize(
    "cwd, manifest, seed, expected",
    [
        ("", "d/manifest.json", "0", b"a"),
        ("d", "manifest.json", "0", b"a"),
        ("d", "./manifest.json", "0", b"a"),
        ("", "{root}/d/manifest.json", "0", b"a"),
        ("d", "../d/manifest.json", "1", b"b"),
    ],
)
def test_replay_sim_resolves_waveforms_and_makes_the_output_directory(tmp_path, cwd, manifest, seed, expected):
    """A relative waveform path is relative to the manifest's directory, an
    absolute one is taken as it is, and a missing output directory is made."""
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "a.vcd").write_bytes(b"a")
    (tmp_path / "b.vcd").write_bytes(b"b")
    scenarios = {"s": {"vcd": {"0": "a.vcd", "1": str(tmp_path / "b.vcd")}}}
    (tmp_path / "d" / "manifest.json").write_text(json.dumps({"scenarios": scenarios}))
    out = tmp_path / "new" / "dir" / "x.vcd"
    args = [
        sys.executable, "-I", "-S", str(Path(fixtures.__file__).with_name("replay_sim.py")),
        "--manifest", manifest.format(root=tmp_path), "--scenario-id", "s", "--seed", seed,
        "--vcd-out", str(out),
    ]
    proc = subprocess.run(args, capture_output=True, cwd=tmp_path / cwd)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == expected


def _imported_modules(importtime_stderr: str) -> list[str]:
    return [
        line.rsplit("|", 1)[1].strip()
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:")
    ]


def test_replay_sim_starts_without_site_or_package_imports(design, tmp_path):
    """Each dispatched job pays one interpreter start: the simulator must
    not import ``site``, ``shutil``, ``json`` (with its ``re`` and
    ``enum``) or the package."""
    scenario_id, expected = _replay_corpus(design)
    out = tmp_path / "replayed.vcd"
    args = _replay_args(design.root, scenario_id, out)
    args[1:1] = ["-X", "importtime"]
    proc = subprocess.run(args, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported = _imported_modules(proc.stderr)
    assert "_json" in imported  # the report was written
    assert "site" not in imported
    banned = {"shutil", "json", "re", "enum", "wavetriage"}
    assert [m for m in imported if m.split(".")[0] in banned] == []
    assert out.read_bytes() == expected


def test_replay_sim_runs_from_its_cached_bytecode(design, tmp_path):
    """The simulator is imported as a module, not run as a script, so the
    interpreter loads its compiled bytecode instead of compiling the file
    on every job."""
    scenario_id, expected = _replay_corpus(design)
    out = tmp_path / "replayed.vcd"
    args = _replay_args(design.root, scenario_id, out)
    assert subprocess.run(args, capture_output=True).returncode == 0  # the cache is written
    args[1:1] = ["-v"]  # verbose imports name the file each module's code came from
    proc = subprocess.run(args, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    cached = importlib.util.cache_from_source(str(Path(fixtures.__file__).with_name("replay_sim.py")))
    assert f"# code object from '{cached}'" in proc.stderr
    assert out.read_bytes() == expected


@pytest.mark.parametrize(
    "manifest, says",
    [
        (b"", b"Expecting value: line 1 column 1 (char 0)"),
        (b'{"scenarios": {"s": {"vcd": "w.vcd"}}} {}', b"Extra data: line 1 column 40"),
        (b'{"scenarios": {"s": {"vcd": "w.vcd"', b"Expecting ',' delimiter"),
        (b'{"scenarios": {"s": {"vcd": "w.vc', b"Unterminated string starting at"),
        (b'{"scenarios": {"s": {"vcd": "\\xw.vcd"}}}', b"Invalid \\escape"),
        (b"\xff{}", b"codec can't decode byte 0xff"),
        (b"[]", b"no 'scenarios' object"),
        (b'{"scenarios": ["s"]}', b"no 'scenarios' object"),
        (b'{"scenarios": {"s": "w.vcd"}}', b"scenario 's' is not an object with a 'vcd'"),
        (b'{"scenarios": {"s": {"path": "w.vcd"}}}', b"scenario 's' is not an object with a 'vcd'"),
        (b'{"scenarios": {"s": {"vcd": "w.vcd", "sim_latency": "soon"}}}', b"'soon'"),
    ],
)
def test_replay_sim_bad_manifest_exits_2_naming_it(tmp_path, manifest, says):
    """A manifest the simulator cannot read is a data error naming the file,
    not a traceback, and leaves no output behind."""
    (tmp_path / "w.vcd").write_bytes(b"$enddefinitions $end\n")
    path = tmp_path / "manifest.json"
    path.write_bytes(manifest)
    out = tmp_path / "out" / "x.vcd"
    proc = subprocess.run(_replay_args(tmp_path, "s", out), capture_output=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"replay_sim: {path}: ".encode()), proc.stderr
    assert says in proc.stderr and b"Traceback" not in proc.stderr
    assert not out.exists()


_LOAD_CASES = {
    "per-seed vcd": '{"scenarios": {"s": {"vcd": {"0": "a.vcd", "1": "b.vcd"}, "sim_latency": 0.5}}}',
    "whitespace around": ' \t\r\n{"scenarios": {}}\n\t ',
    "constants and overflow": "[NaN, Infinity, -Infinity, 1e400, -0.0, 12, 1.5e-3]",
    "escapes": '"\\u00e9\\ud83d\\ude00\\ud800\\n\\""',
    "trailing data": '{"scenarios": {}} {}',
    "bom": '\ufeff{"scenarios": {}}',
    "empty": "",
    "whitespace only": " \n",
    "form feed is not whitespace": "\x0c{}",
    "truncated in a string": '{"scenarios": {"s": {"vcd": "a.vc',
    "truncated after a value": '{"scenarios": {"s": {"vcd": "a.vcd"',
    "control character in a string": '"a\x01"',
    "trailing comma": '{"a": [1,]}',
    "leading zero": "01",
}


def _load_outcome(load, text):
    try:
        return "value", repr(load(text))
    except ValueError as exc:
        return "rejected", str(exc)


@pytest.mark.parametrize("case", ["materialized manifest", *_LOAD_CASES])
def test_replay_sim_load_matches_json_loads(design, case):
    """The simulator's manifest parser returns what ``json.loads`` returns
    and rejects what it rejects, with the same message (``json.loads``
    alone words its BOM error differently)."""
    from wavetriage.replay_sim import _load

    if case == "materialized manifest":
        scenarios = build_scenarios(design, train_per_module=1, test_per_module=1, seed=2)
        text = materialize_corpus(design, scenarios, ticks=60).read_text()
    else:
        text = _LOAD_CASES[case]
    ours, theirs = _load_outcome(_load, text), _load_outcome(json.loads, text)
    if case == "bom":
        assert ours[0] == theirs[0] == "rejected"
    else:
        assert ours == theirs


def test_replay_sim_is_isolated_from_the_callers_environment(design, tmp_path):
    """A ``PYTHONPATH`` and working directory that shadow ``json`` and
    ``_json`` and add a failing ``sitecustomize`` break a plain
    interpreter, not the simulator."""
    scenario_id, expected = _replay_corpus(design)
    trap = tmp_path / "trap"
    trap.mkdir()
    for name in ("json", "_json"):
        (trap / f"{name}.py").write_text(f"raise RuntimeError('shadowing {name} was imported')\n")
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


def _reference_vcd(design, label_module, ticks, seed, difficulty):
    """The generator as it was before change detection moved to numpy: the
    same column draws, then a tick x signal loop that builds one
    ``ValueChange`` per change and hands them to ``vcd.write_vcd``."""
    scale = DIFFICULTY_SCALE[difficulty]
    rng = np.random.default_rng(seed)
    recipe = design.recipes[label_module]

    tail = min(250, int(ticks * 0.8))
    sub_tail = min(30, tail)
    t_axis = np.arange(ticks)

    tree = build_scope_tree(design)
    columns = []
    for path, name, width, owner in design.layout:
        base = 40.0 + (_stable_hash(name, *path) % 97)
        if width == 1:
            if name in ("clk", "clk_tb"):
                series = (t_axis % 2).astype(np.int64)
            elif name == "rst_n":
                series = (t_axis >= 3).astype(np.int64)
            else:
                series = (rng.random(ticks) < 0.35).astype(np.int64)
            columns.append(series)
            continue
        top = (1 << width) - 1
        is_signature = owner == label_module and name in (
            recipe.bias_signal,
            recipe.stuck_signal,
            recipe.noisy_signal,
        )
        offset = float(rng.normal(0.0, 20.0))
        if name.endswith("_state_q"):
            series = rng.integers(0, 16, size=ticks).astype(np.float64)
            if is_signature and name == recipe.stuck_signal and scale > 0:
                series[ticks - sub_tail :] = float(int(base) % 16)
        else:
            noise = rng.normal(0.0, 6.0, size=ticks)
            series = base + offset + noise
            if is_signature and scale > 0:
                burst = slice(ticks - sub_tail, ticks)
                if name == recipe.bias_signal:
                    series[burst] = base + recipe.bias_level * scale + noise[burst]
                elif name == recipe.noisy_signal:
                    series[burst] = base + offset + rng.normal(
                        0.0, 6.0 + 24.0 * scale, size=sub_tail
                    )
        columns.append(np.clip(np.round(series), 0, top).astype(np.int64))

    codes = [sig.id_code for sig in tree.iter_signals()]
    widths = [sig.width for sig in tree.iter_signals()]
    changes = []
    last = [None] * len(columns)
    for t in range(ticks):
        time = 5 * t
        for i, series in enumerate(columns):
            value = int(series[t])
            if value == last[i]:
                continue
            last[i] = value
            if widths[i] == 1:
                changes.append(vcd.ValueChange(time, codes[i], "01"[value]))
            else:
                changes.append(vcd.ValueChange(time, codes[i], format(value, "b")))
    return vcd.write_vcd(tree, changes)


@pytest.fixture(scope="module", params=[3, 5, 8], ids=lambda n: f"{n}mod")
def sized_design(request, tmp_path_factory):
    n = request.param
    return gen_design(tmp_path_factory.mktemp(f"design{n}"), n_modules=n, seed=n)


@pytest.mark.parametrize("difficulty", sorted(DIFFICULTY_SCALE))
def test_vcd_bytes_match_reference_generator(sized_design, difficulty):
    """The numpy change detection and the per-value line cache write the
    bytes of the per-cell loop plus ``write_vcd``, over designs, seeds,
    difficulties and tick counts (50 is the minimum, 1200 a long dump)."""
    modules = sized_design.modules
    for i, ticks in enumerate((50, 51, 60, 301, 1200)):
        for seed in (i, 1000 + 37 * i):
            label = modules[seed % len(modules)]
            expected = _reference_vcd(sized_design, label, ticks, seed, difficulty)
            assert gen_failing_vcd(sized_design, label, ticks, seed, difficulty) == expected


def test_vcd_out_path_writes_the_returned_bytes(design, tmp_path):
    blob = gen_failing_vcd(design, design.modules[1], ticks=120, seed=9, difficulty="hard")
    out = tmp_path / "w.vcd"
    assert gen_failing_vcd(design, design.modules[1], 120, 9, "hard", out_path=out) is None
    assert out.read_bytes() == blob
    assert [p.name for p in tmp_path.iterdir()] == ["w.vcd"]


def test_vcd_validates_each_distinct_line_once(design, monkeypatch):
    blob = gen_failing_vcd(design, design.modules[0], ticks=90, seed=2)
    stream = io.BytesIO(blob)
    vcd.parse_header(stream)
    distinct = {(c.id_code, c.value) for c in vcd.stream_changes(stream)}
    real_validate = vcd._validate_value
    calls = []

    def counting(value, width):
        calls.append(value)
        return real_validate(value, width)

    monkeypatch.setattr(vcd, "_validate_value", counting)
    assert gen_failing_vcd(design, design.modules[0], ticks=90, seed=2) == blob
    assert len(calls) == len(distinct)


def test_vcd_malformed_value_raises_like_write_vcd(design, monkeypatch):
    monkeypatch.setattr(vcd, "_validate_value", lambda value, width: f"bad {value!r}")
    with pytest.raises(vcd.MalformedChange) as reference:
        _reference_vcd(design, design.modules[0], 60, 0, "easy")
    with pytest.raises(vcd.MalformedChange) as raised:
        gen_failing_vcd(design, design.modules[0], ticks=60, seed=0)
    assert str(raised.value) == str(reference.value)


def test_vcd_failed_write_leaves_old_file_or_none(design, tmp_path, fail_replace_midway):
    kept = tmp_path / "kept.vcd"
    kept.write_bytes(b"old")
    fail_replace_midway()
    for path in (kept, tmp_path / "new.vcd"):
        with pytest.raises(OSError, match="No space"):
            gen_failing_vcd(design, design.modules[0], ticks=60, seed=1, out_path=path)
    assert kept.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.vcd"]


def test_manifest_failed_write_leaves_old_manifest(tmp_path, monkeypatch, fail_replace_midway):
    design = gen_design(tmp_path / "d", n_modules=3, seed=4)
    scenarios = build_scenarios(design, train_per_module=1, test_per_module=0, seed=4)
    manifest = materialize_corpus(design, scenarios, ticks=60)
    before = manifest.read_bytes()
    real_write = fixtures.replace_file

    def fail_manifest(path, data):
        if path.name == "manifest.json":
            fail_replace_midway()
        real_write(path, data)

    monkeypatch.setattr(fixtures, "replace_file", fail_manifest)
    with pytest.raises(OSError, match="No space"):
        materialize_corpus(design, build_scenarios(design, 2, 0, seed=5), ticks=60)
    assert manifest.read_bytes() == before
    assert [p.name for p in design.root.rglob(".*")] == []


def _per_change_vcd(design, label_module, ticks, seed, difficulty):
    """The generator as it was before its per-design dump plan: the same
    column draws, numpy change detection, then a Python loop over the
    changes that puts a timestamp before each tick's first change and
    formats each distinct (signal, value) line once per waveform."""
    scale = DIFFICULTY_SCALE[difficulty]
    rng = np.random.default_rng(seed)
    recipe = design.recipes[label_module]
    sub_tail = 30
    t_axis = np.arange(ticks)
    tree = build_scope_tree(design)
    columns = []
    for path, name, width, owner in design.layout:
        base = 40.0 + (_stable_hash(name, *path) % 97)
        if width == 1:
            if name in ("clk", "clk_tb"):
                series = (t_axis % 2).astype(np.int64)
            elif name == "rst_n":
                series = (t_axis >= 3).astype(np.int64)
            else:
                series = (rng.random(ticks) < 0.35).astype(np.int64)
            columns.append(series)
            continue
        top = (1 << width) - 1
        is_signature = owner == label_module and name in (
            recipe.bias_signal,
            recipe.stuck_signal,
            recipe.noisy_signal,
        )
        offset = float(rng.normal(0.0, 20.0))
        if name.endswith("_state_q"):
            series = rng.integers(0, 16, size=ticks).astype(np.float64)
            if is_signature and name == recipe.stuck_signal and scale > 0:
                series[ticks - sub_tail :] = float(int(base) % 16)
        else:
            noise = rng.normal(0.0, 6.0, size=ticks)
            series = base + offset + noise
            if is_signature and scale > 0:
                burst = slice(ticks - sub_tail, ticks)
                if name == recipe.bias_signal:
                    series[burst] = base + recipe.bias_level * scale + noise[burst]
                elif name == recipe.noisy_signal:
                    series[burst] = base + offset + rng.normal(
                        0.0, 6.0 + 24.0 * scale, size=sub_tail
                    )
        columns.append(np.clip(np.round(series), 0, top).astype(np.int64))

    matrix = np.stack(columns, axis=1)
    changed = np.empty(matrix.shape, dtype=bool)
    changed[0] = True
    np.not_equal(matrix[1:], matrix[:-1], out=changed[1:])
    rows, cols = np.nonzero(changed)
    signals = list(tree.iter_signals())
    lines = {}
    parts = [vcd.header_text(tree)]
    last_row = -1
    for row, col, value in zip(rows.tolist(), cols.tolist(), matrix[rows, cols].tolist()):
        if row != last_row:
            parts.append(f"#{5 * row}\n")
            last_row = row
        line = lines.get((col, value))
        if line is None:
            sig = signals[col]
            text = "01"[value] if sig.width == 1 else format(value, "b")
            line = lines[col, value] = vcd.change_line(text, sig.id_code, sig.width)
        parts.append(line)
    return "".join(parts).encode("latin-1")


@pytest.fixture(scope="module")
def designs_3_8(tmp_path_factory):
    return {n: gen_design(tmp_path_factory.mktemp(f"plan{n}"), n_modules=n, seed=20 + n) for n in (3, 8)}


@pytest.mark.parametrize("ticks", [50, 300, 2400])
@pytest.mark.parametrize("difficulty", sorted(DIFFICULTY_SCALE))
@pytest.mark.parametrize("n_modules", [3, 8])
def test_vcd_bytes_match_the_per_change_loop(designs_3_8, n_modules, difficulty, ticks):
    """The dump plan's lookup and one join write the bytes of the
    per-change loop, over designs, difficulties, tick counts and seeds."""
    design = designs_3_8[n_modules]
    for seed in (ticks, 7 * ticks + 1, 2601):
        label = design.modules[seed % n_modules]
        expected = _per_change_vcd(design, label, ticks, seed, difficulty)
        assert gen_failing_vcd(design, label, ticks, seed, difficulty) == expected


def test_vcd_bytes_follow_the_design_not_the_last_call(tmp_path):
    """Generating from design A, then B, then A gives A's bytes again: each
    design keeps its own plan, and neither call depends on the other."""
    a = gen_design(tmp_path / "a", n_modules=3, seed=1)
    b = gen_design(tmp_path / "b", n_modules=8, seed=2)
    first = gen_failing_vcd(a, a.modules[0], 300, 5, "easy")
    other = gen_failing_vcd(b, b.modules[0], 300, 5, "easy")
    assert gen_failing_vcd(a, a.modules[0], 300, 5, "easy") == first
    assert first == _per_change_vcd(a, a.modules[0], 300, 5, "easy")
    assert other == _per_change_vcd(b, b.modules[0], 300, 5, "easy")
    same_layout = gen_design(tmp_path / "a2", n_modules=3, seed=1)
    assert same_layout.dump_plan() is not a.dump_plan()


def test_vcd_plan_is_rebuilt_when_the_layout_changes(tmp_path):
    design = gen_design(tmp_path / "d", n_modules=3, seed=1)
    gen_failing_vcd(design, design.modules[1], 120, 3, "easy")
    plan = design.dump_plan()
    design.layout = design.layout[:-1]  # the probe's busy_w is no longer dumped
    blob = gen_failing_vcd(design, design.modules[1], 120, 3, "easy")
    assert design.dump_plan() is not plan
    assert blob == _per_change_vcd(design, design.modules[1], 120, 3, "easy")
    assert blob.count(b"$var ") == len(design.layout)
    # with reset alone, most ticks have no change and get no timestamp
    design.layout = [entry for entry in design.layout if entry[1] == "rst_n"]
    blob = gen_failing_vcd(design, design.modules[1], 120, 3, "easy")
    assert blob == _per_change_vcd(design, design.modules[1], 120, 3, "easy")
    assert blob.count(b"\n#") == 2  # at ticks 0 and 3


def test_line_table_finds_wide_keys_across_growth():
    """Keys of any size up to 2**62 are found after the table has grown
    several times, and an absent key probes to a free slot."""
    rng = np.random.default_rng(0)
    keys = np.unique(rng.integers(0, 2**62, size=6000))
    absent, keys = keys[:1000], rng.permutation(keys[1000:])
    table = fixtures._LineTable()
    for batch in np.array_split(keys, 3):
        table.add(batch, np.array([b"%d" % k for k in batch.tolist()], dtype=object))
    assert len(table.keys) >= 2 * len(keys)
    found = table.lines[table.slots(keys)]
    assert found.tolist() == [b"%d" % k for k in keys.tolist()]
    assert (table.keys[table.slots(absent)] == fixtures._EMPTY).all()
