"""Replay "simulator": serves pre-computed failing waveforms.

Conforms to the simulator command-template contract so it can stand in for
an EDA simulator wherever one is configured:

    replay_sim --manifest M --scenario-id ID --seed S --vcd-out PATH

The manifest maps scenario ids to waveform files (optionally one per seed)
and an emulated per-run latency. Exit 0 means the simulation completed and
the waveform was written; a manifest that is not one JSON document, or
lacks the ``scenarios`` object or the scenario's ``vcd``, exits 2 and
leaves no output.

Process start-up is most of what every dispatched job costs, so this file
imports only ``sys`` and ``_json``, the C scanner that ``json.loads``
runs, set up as ``json.loads``'s default decoder. ``json`` itself would
cost about 10 ms more, nearly all of it ``re`` and ``enum``, and ``os``
about 2 ms, so paths are POSIX strings and ``os`` is imported only to make
a missing output directory. The waveform is copied with a plain binary
read and write instead of ``shutil`` (whose imports cost about 11 ms), and
``time`` is imported only to sleep. ``fixtures.simulator_command`` runs
``python -I -S -c`` with a line that puts this file's directory, and only
it, on ``sys.path``, imports this module as ``replay_sim`` and exits with
``main()``; so the interpreter loads the cached bytecode instead of
compiling this file, which running it by its path does on every start
(about 1.4 ms). ``-S`` skips ``site``, which costs tens of milliseconds
wherever a site-packages ``.pth`` file imports a package, and ``-I``
ignores ``PYTHON*`` variables, the user site directory and the working
directory, so nothing of the caller's environment is imported. What
remains is about one bare interpreter start (about 10 ms on a 2-vCPU VM
with Python 3.11). Run by its path, the file works the same.
"""

import sys
from _json import make_scanner

_COPY_CHUNK = 1 << 20
_JSON_WHITESPACE = " \t\n\r"


class _Decoder:
    """What ``_json.make_scanner`` reads of ``json.loads``'s default
    decoder: strict strings, ``float`` and ``int`` numbers, the ``NaN``,
    ``Infinity`` and ``-Infinity`` constants, and no hooks."""

    strict = True
    object_hook = None
    object_pairs_hook = None
    parse_float = float
    parse_int = int
    parse_constant = {
        "NaN": float("nan"),
        "Infinity": float("inf"),
        "-Infinity": float("-inf"),
    }.__getitem__


_scan = make_scanner(_Decoder)


def _where(text: str, pos: int) -> str:
    """``pos`` in ``text`` as json's error messages give it."""
    line = text.count("\n", 0, pos) + 1
    column = pos - text.rfind("\n", 0, pos)
    return f"line {line} column {column} (char {pos})"


def _load(text: str):
    """``json.loads(text)``: the same object, and a ValueError for each
    document that ``json.loads`` rejects."""
    start = len(text) - len(text.lstrip(_JSON_WHITESPACE))
    try:
        value, end = _scan(text, start)
    except StopIteration as exc:
        raise ValueError(f"Expecting value: {_where(text, exc.value)}") from None
    except SystemError:
        # before Python 3.12 the scanner raises its JSONDecodeError only
        # once json.decoder is loaded, and fails without an error before;
        # load it, and the same scan raises the error json.loads raises
        import json.decoder  # noqa: F401

        value, end = _scan(text, start)
    extra = len(text) - len(text[end:].lstrip(_JSON_WHITESPACE))
    if extra < len(text):
        raise ValueError(f"Extra data: {_where(text, extra)}")
    return value


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


def _scenarios(manifest_path) -> dict:
    """The manifest's ``scenarios`` object; a ValueError when the file is
    not one JSON document or has no such object."""
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = _load(handle.read())
    scenarios = manifest.get("scenarios") if isinstance(manifest, dict) else None
    if not isinstance(scenarios, dict):
        raise ValueError("the manifest has no 'scenarios' object")
    return scenarios


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        manifest_path = args["manifest"]
        scenario_id = args["scenario-id"]
        vcd_out = args["vcd-out"]
    except KeyError as exc:
        print(f"replay_sim: missing required argument --{exc.args[0]}", file=sys.stderr)
        return 2

    try:
        scenario = _scenarios(manifest_path).get(scenario_id)
        if scenario is None:
            print(f"replay_sim: unknown scenario {scenario_id!r}", file=sys.stderr)
            return 2
        if not isinstance(scenario, dict) or "vcd" not in scenario:
            raise ValueError(f"scenario {scenario_id!r} is not an object with a 'vcd'")
        latency = float(scenario.get("sim_latency", 0.0))
    except ValueError as exc:
        print(f"replay_sim: {manifest_path}: {exc}", file=sys.stderr)
        return 2

    vcd_rel = scenario["vcd"]
    if isinstance(vcd_rel, dict):  # per-reseed waveforms
        seed = args.get("seed", "0")
        if seed not in vcd_rel:
            print(f"replay_sim: no waveform for seed {seed!r}", file=sys.stderr)
            return 2
        vcd_rel = vcd_rel[seed]

    source = vcd_rel
    if not source.startswith("/"):  # relative to the manifest's directory
        source = manifest_path[: manifest_path.rfind("/") + 1] + source
    # the source is opened first, so a missing one leaves no output behind
    with open(source, "rb") as src:
        try:
            dst = open(vcd_out, "wb")
        except FileNotFoundError:  # the output's directory is not there yet
            import os

            os.makedirs(os.path.dirname(vcd_out), exist_ok=True)
            dst = open(vcd_out, "wb")
        with dst:
            while chunk := src.read(_COPY_CHUNK):
                dst.write(chunk)

    if latency > 0:
        import time

        time.sleep(latency)
    return 0


if __name__ == "__main__":
    sys.exit(main())
