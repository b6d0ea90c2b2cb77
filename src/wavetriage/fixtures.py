"""Desk-scale test assets: generated multi-module Verilog designs, a
"replay simulator" honoring the simulator command-template contract, and
synthetic failing waveforms with per-module statistical signatures.

The waveforms are statistical processes, not simulations: baseline signals
share a stochastic process (including a per-waveform common-mode drift,
like run-to-run operating variation), and the labeled module's signature
signals deviate in the failure-adjacent tail via a bias shift, a stuck-at
run, and a variance toggle. Deviations scale with ``difficulty``; at
``impossible`` they vanish and classifiers can only reach chance level.
Signatures perturb exactly the statistics the summary stage preserves.
"""

from __future__ import annotations

import hashlib
import json
import random
import shlex
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import vcd
from .rtl import DesignSources, scan_sources
from .sysio import replace_file

MODULE_POOL = (
    "ctrl_unit",
    "alu_core",
    "fetch_unit",
    "decode_unit",
    "issue_queue",
    "regfile_bank",
    "lsu_unit",
    "retire_unit",
    "csr_unit",
    "bpred_unit",
    "scoreboard",
    "dma_engine",
    "timer_unit",
    "mmu_unit",
    "fpu_core",
    "cache_ctrl",
)

DIFFICULTY_SCALE = {"easy": 1.0, "medium": 0.5, "hard": 0.25, "impossible": 0.0}

# Per-instance signals emitted into waveforms (keeps desk-scale dumps small;
# the remaining declared signals still exist for mutation sites).
_DUMPED_LEAF_SIGNALS = ("clk", "rst_n", "din", "dout", "_acc_q", "_state_q", "_shift_q", "busy_w")


class FixtureError(Exception):
    pass


class UnknownModule(FixtureError):
    pass


@dataclass(frozen=True)
class SignatureRecipe:
    module: str
    bias_signal: str
    stuck_signal: str
    noisy_signal: str
    bias_level: float


@dataclass
class FixtureDesign:
    root: Path
    seed: int
    modules: list[str]  # target leaf modules
    top_module: str
    dut_root: str
    recipes: dict[str, SignatureRecipe]
    # ordered dump layout: (scope path, leaf name, width, owning target or "")
    layout: list[tuple[tuple[str, ...], str, int, str]] = field(default_factory=list)

    def source_paths(self) -> list[Path]:
        return sorted(self.root.glob("*.sv"))

    def sources(self) -> DesignSources:
        return DesignSources.from_paths(self.source_paths())


_LEAF_TEMPLATE = """module {name} (
  input  wire       clk,
  input  wire       rst_n,
  input  wire [7:0] din,
  output wire [7:0] dout
);
  reg  [7:0]  {p}_acc_q;
  reg  [3:0]  {p}_state_q;
  reg  [7:0]  {p}_shift_q;
  reg  [{hw}:0] {p}_hist_q;
  reg  [7:0]  {p}_dbg_q;
  wire [7:0]  {p}_sum_w;
  wire        busy_w;

  assign {p}_sum_w = {p}_acc_q ^ din;
  assign busy_w = {p}_state_q != 4'd0;
  assign dout = {p}_sum_w & ~{p}_shift_q;

  always_ff @(posedge clk) begin
    if (!rst_n) begin
      {p}_acc_q   <= 8'd{r0};
      {p}_state_q <= 4'd0;
      {p}_shift_q <= 8'd{r1};
      {p}_hist_q  <= {hwbits}'d0;
    end else begin
      {p}_acc_q   <= {p}_acc_q + din;
      {p}_state_q <= {p}_state_q + 4'd1;
      {p}_hist_q  <= {p}_hist_q | {p}_acc_q;
      if (busy_w) begin
        {p}_shift_q <= {p}_shift_q ^ {p}_sum_w;
      end
    end
  end

  // debug mirror, not observed by the regression checkers
  always_ff @(posedge clk) begin
    {p}_dbg_q <= {p}_acc_q ^ 8'h5a;
  end
endmodule
"""

_WRAPPER_TEMPLATE = """module {name} (
  input  wire       clk,
  input  wire       rst_n,
  input  wire [7:0] din,
  output wire [7:0] dout
);
{wires}
{instances}
  assign dout = {merge};
endmodule
"""

_TOP_TEMPLATE = """module soc_top (
  input  wire       clk,
  input  wire       rst_n,
  input  wire [7:0] stim,
  output wire [7:0] result
);
  wire [7:0] core_bus_w;
  wire [7:0] periph_bus_w;
  reg  [7:0] merge_q;

  core_cluster   u_core   (.clk(clk), .rst_n(rst_n), .din(stim), .dout(core_bus_w));
  periph_cluster u_periph (.clk(clk), .rst_n(rst_n), .din(core_bus_w), .dout(periph_bus_w));
  probe_unit     u_probe  (.clk(clk), .din(periph_bus_w));

  always_ff @(posedge clk) begin
    merge_q <= core_bus_w ^ periph_bus_w;
  end
  assign result = merge_q;
endmodule
"""

_PROBE_TEMPLATE = """module probe_unit (
  input  wire       clk,
  input  wire [7:0] din
);
  reg [7:0] mon_q;
  reg [3:0] {alias_name};
  wire      busy_w;

  assign busy_w = din != 8'd0;

  always_ff @(posedge clk) begin
    mon_q <= din;
    {alias_name} <= {alias_name} + 4'd1;
  end
endmodule
"""

_CHECK_COMPILE = '''#!/usr/bin/env python3
"""Compile gate for the fixture design: the sources must scan cleanly and
every module port must keep its golden declared type (an interface-width
drift would fail elaboration against the parent bindings)."""
import json
import pathlib
import sys

sys.path.insert(0, {package_root!r})  # the wavetriage that generated this design
from wavetriage import rtl  # noqa: E402


def main():
    design = pathlib.Path(sys.argv[1])
    golden = json.loads((design / "golden_tau.json").read_text())
    try:
        sources = rtl.DesignSources.from_paths(sorted(design.glob("*.sv")))
        table = rtl.scan_sources(sources)
    except rtl.RtlError as exc:
        print(f"compile failed: {exc}")
        return 1
    for module, ports in golden["ports"].items():
        for name, decl_type in ports.items():
            if table.decl_type_of(module, name) != decl_type:
                print(f"port {module}.{name} changed from {decl_type!r}")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''

_CHECK_TEST = '''#!/usr/bin/env python3
"""Regression stand-in for the fixture design: any behavioral source line
that drifts from the golden snapshot counts as a failing test. Lines that
touch the debug mirrors (name contains "dbg") are not observed by any
checker, so changes there are invisible: an ineffective bug."""
import pathlib
import sys
from itertools import zip_longest


def main():
    design = pathlib.Path(sys.argv[1])
    for src in sorted(design.glob("*.sv")):
        gold = design / "golden" / src.name
        pairs = zip_longest(
            src.read_text().splitlines(), gold.read_text().splitlines(), fillvalue=""
        )
        for current, golden in pairs:
            if current != golden and "dbg" not in current and "dbg" not in golden:
                print(f"mismatch against golden in {src.name}")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''


def _stable_hash(*parts) -> int:
    """Process-independent substream hash (str hash() is randomized)."""
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def _prefix(name: str, index: int) -> str:
    return name.split("_")[0][:4] + str(index)


def gen_design(root, n_modules: int = 8, seed: int = 0) -> FixtureDesign:
    """Generate a deterministic multi-module design plus its regression kit.

    Layout on disk: one .sv per module, a golden/ snapshot, golden_tau.json
    (with the port-interface map), and the check_compile/check_test scripts
    used by the mutation loop.
    """
    if not 2 <= n_modules <= len(MODULE_POOL):
        raise ValueError(f"n_modules must be within 2..{len(MODULE_POOL)}")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    modules = list(MODULE_POOL[:n_modules])
    prefixes = {name: _prefix(name, i) for i, name in enumerate(modules)}
    recipes: dict[str, SignatureRecipe] = {}

    for i, name in enumerate(modules):
        p = prefixes[name]
        hist_width = rng.choice([10, 12, 16])
        text = _LEAF_TEMPLATE.format(
            name=name,
            p=p,
            hw=hist_width - 1,
            hwbits=hist_width,
            r0=rng.randrange(256),
            r1=rng.randrange(1, 256),
        )
        (root / f"{name}.sv").write_text(text)
        recipes[name] = SignatureRecipe(
            module=name,
            bias_signal=f"{p}_acc_q",
            stuck_signal=f"{p}_state_q",
            noisy_signal=f"{p}_shift_q",
            bias_level=90.0 + 12.0 * i,
        )

    # first leaf is instantiated twice to exercise per-instance selection
    core_members = [(modules[0], f"u_{modules[0]}_a"), (modules[0], f"u_{modules[0]}_b")]
    core_members += [(m, f"u_{m}") for m in modules[1:][0::2]]
    periph_members = [(m, f"u_{m}") for m in modules[1:][1::2]]

    def wrapper_text(name: str, members: list[tuple[str, str]]) -> str:
        wires = "\n".join(f"  wire [7:0] lane{i}_w;" for i in range(len(members)))
        insts = "\n".join(
            f"  {mod} {inst} (.clk(clk), .rst_n(rst_n), .din(din), .dout(lane{i}_w));"
            for i, (mod, inst) in enumerate(members)
        )
        merge = " ^ ".join(f"lane{i}_w" for i in range(len(members))) or "din"
        return _WRAPPER_TEMPLATE.format(name=name, wires=wires, instances=insts, merge=merge)

    (root / "core_cluster.sv").write_text(wrapper_text("core_cluster", core_members))
    (root / "periph_cluster.sv").write_text(wrapper_text("periph_cluster", periph_members))
    (root / "soc_top.sv").write_text(_TOP_TEMPLATE)
    (root / "probe_unit.sv").write_text(
        _PROBE_TEMPLATE.format(alias_name=f"{prefixes[modules[0]]}_state_q")
    )

    design = FixtureDesign(
        root=root,
        seed=seed,
        modules=modules,
        top_module="soc_top",
        dut_root="tb.dut",
        recipes=recipes,
    )
    design.layout = _build_layout(design, prefixes, core_members, periph_members)

    # regression kit: golden snapshot, interface map, check scripts
    golden_dir = root / "golden"
    golden_dir.mkdir(exist_ok=True)
    for path in design.source_paths():
        (golden_dir / path.name).write_text(path.read_text())
    table = scan_sources(design.sources())
    ports = {
        "soc_top": ["clk", "rst_n", "stim", "result"],
        "core_cluster": ["clk", "rst_n", "din", "dout"],
        "periph_cluster": ["clk", "rst_n", "din", "dout"],
        "probe_unit": ["clk", "din"],
    }
    for m in modules:
        ports[m] = ["clk", "rst_n", "din", "dout"]
    port_map = {
        m: {name: table.decl_type_of(m, name) for name in names}
        for m, names in ports.items()
    }
    (root / "golden_tau.json").write_text(
        json.dumps({"ports": port_map, "tau": json.loads(table.to_json())}, indent=2)
    )
    package_root = str(Path(__file__).resolve().parent.parent)
    (root / "check_compile.py").write_text(
        _CHECK_COMPILE.replace("{package_root!r}", repr(package_root))
    )
    (root / "check_test.py").write_text(_CHECK_TEST)
    return design


def _build_layout(design, prefixes, core_members, periph_members):
    layout: list[tuple[tuple[str, ...], str, int, str]] = []
    layout.append((("tb",), "clk_tb", 1, ""))
    dut = ("tb", "dut")
    for name, width in (("clk", 1), ("rst_n", 1), ("stim", 8), ("result", 8), ("merge_q", 8)):
        layout.append((dut, name, width, ""))

    def add_cluster(cluster_scope: str, members):
        scope = dut + (cluster_scope,)
        layout.append((scope, "din", 8, ""))
        layout.append((scope, "dout", 8, ""))
        for i, (module, inst) in enumerate(members):
            layout.append((scope, f"lane{i}_w", 8, ""))
            inst_scope = scope + (inst,)
            p = prefixes[module]
            for sig in _DUMPED_LEAF_SIGNALS:
                name = p + sig if sig.startswith("_") else sig
                width = 1 if sig in ("clk", "rst_n", "busy_w") else 8
                if sig == "_state_q":
                    width = 4
                layout.append((inst_scope, name, width, module))

    add_cluster("u_core", core_members)
    add_cluster("u_periph", periph_members)
    probe_scope = dut + ("u_probe",)
    alias = f"{prefixes[design.modules[0]]}_state_q"
    for name, width in (("din", 8), ("mon_q", 8), (alias, 4), ("busy_w", 1)):
        layout.append((probe_scope, name, width, ""))
    return layout


def _id_codes(count: int):
    chars = [chr(i) for i in range(33, 127)]
    codes = []
    n = 0
    while len(codes) < count:
        x = n
        code = chars[x % 94]
        while x >= 94:
            x = x // 94 - 1
            code = chars[x % 94] + code
        codes.append(code)
        n += 1
    return codes


def build_scope_tree(design: FixtureDesign) -> vcd.ScopeTree:
    """ScopeTree for the fixture dump hierarchy, ids in layout order."""
    codes = _id_codes(len(design.layout))
    scopes: dict[tuple[str, ...], vcd.Scope] = {}
    tree = vcd.ScopeTree(timescale=vcd.Timescale(1, "ns"))

    def scope_for(path: tuple[str, ...]) -> vcd.Scope:
        if path in scopes:
            return scopes[path]
        scope = vcd.Scope(name=path[-1], kind="module")
        scopes[path] = scope
        if len(path) == 1:
            tree.roots.append(scope)
        else:
            scope_for(path[:-1]).items.append(scope)
        return scope

    for (path, name, width, _), code in zip(design.layout, codes):
        decl = vcd.SignalDecl(
            id_code=code,
            name=name,
            width=width,
            kind="reg" if name.endswith("_q") else "wire",
            scope_path=path,
        )
        scope_for(path).items.append(decl)
    return tree


def gen_failing_vcd(
    design: FixtureDesign,
    label_module: str,
    ticks: int,
    seed: int,
    difficulty: str = "easy",
    out_path=None,
) -> bytes | None:
    """Emit one failing waveform labeled with ``label_module``.

    Deterministic per (design, label, ticks, seed, difficulty). The label
    module's recipe signals deviate in the final window; everything else
    follows the shared baseline process.

    The drawn columns form a ticks x signals matrix; a cell is a change
    when it is in the first row or differs from the cell above, and numpy's
    row-major ``nonzero`` yields the changes in time order, then layout
    order. Each distinct (signal, value) line is formatted and validated
    once, and the file is encoded in one piece. With ``out_path`` the
    bytes replace that file atomically (see :func:`wavetriage.sysio.replace_file`).
    """
    if label_module not in design.recipes:
        raise UnknownModule(label_module)
    if ticks < 50:
        raise ValueError("ticks must be >= 50")
    scale = DIFFICULTY_SCALE[difficulty]
    rng = np.random.default_rng(seed)
    recipe = design.recipes[label_module]

    sub_tail = 30  # all signature effects burst right before failure
    t_axis = np.arange(ticks)

    tree = build_scope_tree(design)
    columns: list[np.ndarray] = []
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
        # per-signal run-to-run drift: independent nuisance dimensions, the
        # regime where distance-based models degrade and tree splits do not
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
    lines: dict[tuple[int, int], str] = {}
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

    blob = "".join(parts).encode("latin-1")
    if out_path is None:
        return blob
    replace_file(out_path, blob)
    return None


# ---------------------------------------------------------------------------
# Scenario manifests and the replay simulator contract

@dataclass(frozen=True)
class ScenarioSpec:
    scenario_id: str
    label: str
    seed: int
    difficulty: str
    split: str  # "train" or "test"


def build_scenarios(
    design: FixtureDesign,
    train_per_module: int,
    test_per_module: int,
    seed: int = 0,
    difficulty: str = "easy",
) -> list[ScenarioSpec]:
    """Scenario list with strictly separated train/test id ranges."""
    scenarios = []
    for module in design.modules:
        for split, count in (("train", train_per_module), ("test", test_per_module)):
            for i in range(count):
                scenarios.append(
                    ScenarioSpec(
                        scenario_id=f"{split}-{module}-{i:04d}",
                        label=module,
                        seed=_stable_hash(seed, split, module, i) % 2**31,
                        difficulty=difficulty,
                        split=split,
                    )
                )
    return scenarios


def materialize_corpus(
    design: FixtureDesign,
    scenarios: list[ScenarioSpec],
    ticks: int = 300,
    sim_latency: float = 0.0,
    tick_jitter: int = 20,
) -> Path:
    """Precompute one failing VCD per scenario and write manifest.json.

    The replay simulator serves these files through the command-template
    contract; ``sim_latency`` emulates simulator wall time per run.
    """
    vcd_dir = design.root / "vcds"
    vcd_dir.mkdir(exist_ok=True)
    manifest: dict = {"design": design.top_module, "scenarios": {}}
    for spec in scenarios:
        jitter = spec.seed % (tick_jitter + 1)
        path = vcd_dir / f"{spec.scenario_id}.vcd"
        gen_failing_vcd(
            design, spec.label, ticks + jitter, spec.seed, spec.difficulty, out_path=path
        )
        manifest["scenarios"][spec.scenario_id] = {
            "label": spec.label,
            "seed": spec.seed,
            "difficulty": spec.difficulty,
            "split": spec.split,
            "vcd": str(path.relative_to(design.root)),
            "fails": True,
            "sim_latency": sim_latency,
        }
    manifest_path = design.root / "manifest.json"
    replace_file(manifest_path, json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"))
    return manifest_path


def simulator_command() -> str:
    """Command template for the bundled replay simulator.

    It runs by its file path, so the child needs no ``PYTHONPATH``, under
    ``-I -S``: isolated from ``PYTHON*`` variables and the user and script
    directories, and without ``site``. The simulator imports neither
    ``json``, ``re`` nor ``os``, so each job costs about one bare
    interpreter start (see ``replay_sim``)."""
    script = Path(__file__).with_name("replay_sim.py")
    return (
        f"{shlex.quote(sys.executable)} -I -S {shlex.quote(str(script))}"
        " --manifest {design_dir}/manifest.json --scenario-id {scenario_id}"
        " --seed {seed} --vcd-out {vcd_out}"
    )
