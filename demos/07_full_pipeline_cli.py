"""The end-to-end flow through the command-line interface.

Generates a corpus, writes a pipeline config, and invokes the `pipeline`
subcommand: dispatch the replay simulator per scenario, extract and
compress the waveforms, train the configured models, and evaluate. Then
renders the metrics file, one block per model kind, with `report`.
"""

import json
import tempfile
from pathlib import Path

from wavetriage.cli import main
from wavetriage.fixtures import (
    build_scenarios,
    gen_design,
    materialize_corpus,
    simulator_command,
)

root = Path(tempfile.mkdtemp(prefix="pipeline_demo_"))
design = gen_design(root / "design", n_modules=4, seed=9)
scenarios = build_scenarios(design, train_per_module=8, test_per_module=3, seed=9)
materialize_corpus(design, scenarios, ticks=260)

config = {
    "design_dir": str(design.root),
    "targets": list(design.modules),
    "top_module": design.top_module,
    "dut_root": design.dut_root,
    "simulator": simulator_command(),
    "tick_cap": 400,
    "worker_count": 2,
    "train_per_module": 8,
    "test_per_module": 3,
    "seed": 9,
    "models": ["gbt", "knn"],
    "out_dir": str(root / "run"),
}
config_path = root / "pipeline.json"
config_path.write_text(json.dumps(config, indent=2))
print(f"config at {config_path}\n")

rc = main(["pipeline", "--config", str(config_path)])
assert rc == 0, rc

print("\nartifacts:")
for path in sorted((root / "run").iterdir()):
    if path.is_file():
        print(f"  {path.name:<28} {path.stat().st_size:>8} bytes")

sizes = json.loads((root / "run" / "stage_sizes.json").read_text())
print(f"\nstage sizes: raw={sizes['raw']} rough={sizes['rough']} "
      f"compressed={sizes['compressed']} final={sizes['final']}")

print("\nrendered report:")
rc = main(["report", "--metrics", str(root / "run" / "metrics.json")])
assert rc == 0
