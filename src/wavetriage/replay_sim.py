"""Replay "simulator": serves pre-computed failing waveforms.

Conforms to the simulator command-template contract so it can stand in for
an EDA simulator wherever one is configured:

    replay_sim --manifest M --scenario-id ID --seed S --vcd-out PATH

The manifest maps scenario ids to waveform files (optionally one per seed)
and an emulated per-run latency. Exit 0 means the simulation completed and
the waveform was written. Imports stay minimal: process startup is part of
every dispatched job. Only the standard library is imported, because
``fixtures.simulator_command`` runs this file by its path, without the
package on ``sys.path``.
"""

import json
import os
import shutil
import sys
import time


def _parse_args(argv):
    args = {}
    i = 0
    while i < len(argv):
        key = argv[i]
        if not key.startswith("--") or i + 1 >= len(argv):
            raise SystemExit(f"replay_sim: bad argument {key!r}")
        args[key[2:]] = argv[i + 1]
        i += 2
    return args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        manifest_path = args["manifest"]
        scenario_id = args["scenario-id"]
        vcd_out = args["vcd-out"]
    except KeyError as exc:
        print(f"replay_sim: missing required argument --{exc.args[0]}", file=sys.stderr)
        return 2

    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    scenario = manifest["scenarios"].get(scenario_id)
    if scenario is None:
        print(f"replay_sim: unknown scenario {scenario_id!r}", file=sys.stderr)
        return 2

    vcd_rel = scenario["vcd"]
    if isinstance(vcd_rel, dict):  # per-reseed waveforms
        seed = args.get("seed", "0")
        if seed not in vcd_rel:
            print(f"replay_sim: no waveform for seed {seed!r}", file=sys.stderr)
            return 2
        vcd_rel = vcd_rel[seed]

    source = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), vcd_rel)
    out_dir = os.path.dirname(vcd_out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    shutil.copyfile(source, vcd_out)

    latency = float(args.get("latency", scenario.get("sim_latency", 0.0)))
    if latency > 0:
        time.sleep(latency)
    return 0


if __name__ == "__main__":
    sys.exit(main())
