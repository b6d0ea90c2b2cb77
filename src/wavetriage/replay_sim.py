"""Replay "simulator": serves pre-computed failing waveforms.

Conforms to the simulator command-template contract so it can stand in for
an EDA simulator wherever one is configured:

    replay_sim --manifest M --scenario-id ID --seed S --vcd-out PATH

The manifest maps scenario ids to waveform files (optionally one per seed)
and an emulated per-run latency. Exit 0 means the simulation completed and
the waveform was written.

Process start-up is most of what every dispatched job costs, so this file
imports only ``json``, ``os`` and ``sys``, copies the waveform with a plain
binary read and write instead of ``shutil`` (whose imports cost about 11 ms)
and imports ``time`` only when it has to sleep.
``fixtures.simulator_command`` runs it by its path as ``python -I -S``:
``-S`` skips ``site``, which costs tens of milliseconds wherever a
site-packages ``.pth`` file imports a package, and ``-I`` ignores
``PYTHON*`` variables, the user site directory and this file's directory,
so nothing of the caller's environment is imported. What remains is a bare
interpreter start (about 12 ms on a 2-vCPU VM with Python 3.11) plus
``json`` (about 14 ms, mostly ``re``).
"""

import json
import os
import sys

_COPY_CHUNK = 1 << 20


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
    # the source is opened first, so a missing one leaves no output behind
    with open(source, "rb") as src:
        out_dir = os.path.dirname(vcd_out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(vcd_out, "wb") as dst:
            while chunk := src.read(_COPY_CHUNK):
                dst.write(chunk)

    latency = float(args.get("latency", scenario.get("sim_latency", 0.0)))
    if latency > 0:
        import time

        time.sleep(latency)
    return 0


if __name__ == "__main__":
    sys.exit(main())
