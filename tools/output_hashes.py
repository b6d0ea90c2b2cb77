#!/usr/bin/env python3
"""SHA-256 of every output of one seeded ``wavetriage pipeline`` run and of
the stage commands run one at a time.

    python3 tools/output_hashes.py [--ref REF | --check REF]

Generates a fixture corpus from seed ``SEED`` (design, scenarios and their
waveforms), runs ``wavetriage pipeline`` in-process over it with signal
reduction on, and prints one ``sha256  relative-path`` line for each of
``train.csv``, ``test.csv``, ``metrics.json``, ``stage_sizes.json``,
``reduction_history.json`` and the model files. One ``path:content``
line per model kind follows: a SHA-256 of the fitted arrays (tree, bin cut
and gain arrays; for KNN its scaling and training arrays) and of the
model's ``predict_proba`` on ``test.csv``. Those lines do not depend on the
model file format, so they show an unchanged model where only the file's
bytes changed. A ``pipeline:stdout`` line covers the result lines the run
printed, with the temporary root replaced by ``<work>``. One last line
covers the corpus itself: a SHA-256 over ``manifest.json`` and every
``vcds/*.vcd`` in sorted order, each file's relative path and size hashed
in front of its bytes. A second corpus line covers a small ``easy``
corpus (3 modules, 2 train and 2 test scenarios each) that no command
reads: at difficulty ``impossible`` the fixture generator skips the label
module's bias, stuck-at and noisy bursts, so only this line checks them.

Then the stage commands run one at a time on the first test scenario of
each module: ``scan``, ``select`` (on the first of those waveforms),
``extract`` per waveform, ``compress``, ``train``, ``eval --svg
--confusion-csv`` and ``report --svg --confusion-csv``, and last ``report
--ablation`` on the pipeline run's ``metrics.json`` of one report per model
kind, with a tick-cap ablation file this script writes. One
``chain/NAME`` line covers each file they write and the ablation file,
each ``*.manifest.json`` and rough-CSV sidecar included, and one
``chain/COMMAND:stdout`` line what each command printed; the temporary
root is replaced by ``<work>`` in every file and every stdout before it is
hashed.

Last, ``inject`` runs on a copy of the design: 10 scenarios over all five
bug types from seed ``INJECT_SEED``, checked by the design's own ``check_compile.py`` and
``check_test.py``, with a cache and a failure log. One ``inject/NAME`` line
covers its summary JSON, the manifest, the cache and the log, and one
``inject:stdout`` line what it printed, each with ``<work>`` in place of
the temporary root. Outputs are byte-deterministic under a fixed seed, so
two trees that print the same lines generate the same corpus and produce
the same datasets, reduction, models, metrics, stage command outputs and
planned mutations on it.

The corpus has 4 modules with 6 train and 6 test scenarios each, reduced
to at most 12 signals. Its scenarios have difficulty ``impossible``: the
waveforms carry no trace of the label, so the boosted trees fit noise and
grow several levels deep. On separable scenarios every tree is one split,
and a change to the order in which trees grow would not show in the model
files.

``wavetriage`` is imported from this checkout's ``src``. With ``--ref`` it
is imported from the files of that commit instead, exported with
``git archive REF | tar -x`` into a temporary directory as
``tools/bench_pairs.py`` exports the parent, so the checkout is never
touched. With ``--check REF`` it hashes both this checkout and REF, each in
a fresh interpreter, prints every line on which they differ and exits 1 if
there is one, 0 if all lines are the same. Everything the run writes goes
under a temporary directory. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export_tree  # this script's directory leads sys.path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
# inject's seed: under it three of the 10 scenarios are rejected before one
# is accepted, so the failure log and the retry's excluded sites are covered
INJECT_SEED = 3
OUTPUTS = (
    "train.csv",
    "test.csv",
    "metrics.json",
    "stage_sizes.json",
    "reduction_history.json",
)
MODEL_KINDS = ("gbt", "random_forest", "knn")


def output_hashes(work: Path) -> list[str]:
    """Run the pipeline under ``work``; ``sha256  path`` for every output."""
    from wavetriage import cli, fixtures

    design = fixtures.gen_design(work / "design", n_modules=4, seed=SEED)
    scenarios = fixtures.build_scenarios(design, 6, 6, seed=SEED, difficulty="impossible")
    fixtures.materialize_corpus(design, scenarios, ticks=300)
    out_dir = work / "run"
    config = {
        "design_dir": str(design.root),
        "targets": list(design.modules),
        "top_module": design.top_module,
        "dut_root": design.dut_root,
        "simulator": fixtures.simulator_command(),
        "tick_cap": 250,
        "worker_count": 1,
        "train_per_module": 6,
        "test_per_module": 6,
        "seed": SEED,
        "reduce": True,
        "max_signals": 12,
        "models": ["gbt", "random_forest", "knn"],
        "out_dir": str(out_dir),
    }
    config_path = work / "pipeline.json"
    config_path.write_text(json.dumps(config, indent=2))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["pipeline", "--config", str(config_path)])
    if code != 0:
        raise SystemExit(f"wavetriage pipeline exited {code}:\n{stdout.getvalue()}")
    models = [f"model_{kind}.bin" for kind in MODEL_KINDS]
    lines = []
    for name in (*OUTPUTS, *models):
        digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        lines.append(f"{digest}  {name}")
    for name in models:
        lines.append(f"{model_content_hash(out_dir / name, out_dir / 'test.csv')}  {name}:content")
    lines.append(work_hash_line(work, stdout.getvalue().encode("utf-8"), "pipeline:stdout"))
    lines.append(f"{corpus_hash(design.root)}  design/{{manifest.json,vcds/*.vcd}}")
    easy = fixtures.gen_design(work / "easy", n_modules=3, seed=SEED)
    fixtures.materialize_corpus(easy, fixtures.build_scenarios(easy, 2, 2, seed=SEED), ticks=300)
    lines.append(f"{corpus_hash(easy.root)}  easy/{{manifest.json,vcds/*.vcd}}")
    return lines + stage_chain_hashes(work, design) + inject_hashes(work, design)


def work_hash_line(work: Path, data: bytes, name: str) -> str:
    """``sha256  name`` of ``data`` with ``work`` replaced by ``<work>``."""
    return f"{hashlib.sha256(data.replace(str(work).encode('utf-8'), b'<work>')).hexdigest()}  {name}"


def stage_chain_hashes(work: Path, design) -> list[str]:
    """Run the stage commands one at a time under ``work/chain``; ``sha256
    chain/NAME`` for every file they write and ``sha256
    chain/COMMAND:stdout`` for what each printed, with ``work`` replaced by
    ``<work>``."""
    from wavetriage import cli

    chain = work / "chain"
    chain.mkdir()
    scenarios = {module: f"test-{module}-0000" for module in design.modules}
    waves = {module: design.root / "vcds" / f"{sid}.vcd" for module, sid in scenarios.items()}
    tau, sel, data = chain / "tau.json", chain / "sel.json", chain / "data.csv"
    model, metrics, ablation = chain / "model.bin", chain / "metrics.json", chain / "ablation.json"
    steps = [
        ("scan", ["scan", "--sources", *sorted(map(str, design.root.glob("*.sv"))), "--json", tau]),
        ("select", [
            "select", "--vcd", waves[design.modules[0]], "--tau", tau,
            "--targets", ",".join(design.modules), "--top-module", design.top_module,
            "--dut-root", design.dut_root, "--json", sel,
        ]),
        *(
            (f"extract-{module}", [
                "extract", "--vcd", waves[module], "--selection", sel, "--label", module,
                "--scenario-id", sid, "--tick-cap", "250", "--rough-csv", chain / f"{sid}.csv",
            ])
            for module, sid in scenarios.items()
        ),
        ("compress", ["compress", "--rough-csv", *(chain / f"{sid}.csv" for sid in scenarios.values()), "--out", data]),
        ("train", ["train", "--train", data, "--kind", "gbt", "--seed", str(SEED), "--out", model]),
        ("eval", [
            "eval", "--model", model, "--test", data, "--json", metrics,
            "--svg", chain / "eval.svg", "--confusion-csv", chain / "eval_confusion.csv",
        ]),
        ("report", [
            "report", "--metrics", metrics,
            "--svg", chain / "report.svg", "--confusion-csv", chain / "report_confusion.csv",
        ]),
        ("report-pipeline", ["report", "--metrics", work / "run" / "metrics.json", "--ablation", ablation]),
    ]
    # a tick-cap ablation: the pipeline run's gbt report at its tick cap, and a report of scores only
    run_metrics = json.loads((work / "run" / "metrics.json").read_text())
    entries = [{"tick_cap": 250, "metrics": run_metrics["gbt"]}, {"tick_cap": 50, "metrics": {"top1": 0.5, "top3": 0.7}}]
    ablation.write_text(json.dumps(entries, indent=2))
    lines = []
    for name, argv in steps:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([str(arg) for arg in argv])
        if code != 0:
            raise SystemExit(f"wavetriage {name} exited {code}")
        lines.append(work_hash_line(work, stdout.getvalue().encode("utf-8"), f"chain/{name}:stdout"))
    for path in sorted(chain.iterdir()):
        lines.append(work_hash_line(work, path.read_bytes(), f"chain/{path.name}"))
    return lines


def inject_hashes(work: Path, design) -> list[str]:
    """Run ``inject`` on a copy of ``design`` under ``work/inject``;
    ``sha256  inject/NAME`` for every file it writes and ``sha256
    inject:stdout`` for what it printed, with ``work`` replaced by
    ``<work>``. It runs from ``work`` with relative paths, so the config,
    whose hash the manifest holds, names no temporary directory."""
    from wavetriage import cli

    inject = work / "inject"
    shutil.copytree(design.root, inject / "design", ignore=shutil.ignore_patterns("vcds"))
    python = shlex.quote(sys.executable)
    config = {
        "design_dir": "inject/design",
        "modules": list(design.modules),
        "bug_types": ["missing_assignment", "wrong_assignment", "bitwise_corruption", "logic_bug", "data_size"],
        "seed": INJECT_SEED,
        "check": {
            "compile": f"{python} {{design_dir}}/check_compile.py {{design_dir}}",
            "test": f"{python} {{design_dir}}/check_test.py {{design_dir}}",
        },
        "cache": "inject/cache.jsonl",
        "failure_log": "inject/failures.jsonl",
    }
    (inject / "config.json").write_text(json.dumps(config, indent=2))
    stdout = io.StringIO()
    with contextlib.chdir(work), contextlib.redirect_stdout(stdout):
        code = cli.main(["inject", "--config", "inject/config.json", "--count", "10", "--json", "inject/summary.json"])
    if code != 0:
        raise SystemExit(f"wavetriage inject exited {code}")
    names = ("summary.json", "summary.json.manifest.json", "cache.jsonl", "failures.jsonl")
    lines = [work_hash_line(work, (inject / name).read_bytes(), f"inject/{name}") for name in names]
    return lines + [work_hash_line(work, stdout.getvalue().encode("utf-8"), "inject:stdout")]


def model_content_hash(model_path: Path, test_csv: Path) -> str:
    """SHA-256 over a model's fitted arrays and its ``predict_proba`` on
    ``test_csv``, each array's dtype and shape in front of its bytes."""
    from wavetriage.extract import read_dataset_csv
    from wavetriage.metrics import align_columns
    from wavetriage.models import load_model

    model = load_model(model_path)
    impl = model.impl
    fields = ("feature", "threshold", "left", "right", "value")
    if model.kind == "knn":
        arrays = [impl.mean, impl.std, impl.train, impl.y]
    elif model.kind == "random_forest":
        arrays = [getattr(tree, name) for tree in impl.trees for name in fields]
    else:
        trees = [tree for round_trees in impl.trees for tree in round_trees]
        arrays = [getattr(tree, name) for tree in trees for name in fields]
        arrays += [*impl.mapper.cuts, impl.feature_gain]
    with open(test_csv, encoding="utf-8") as handle:
        test = read_dataset_csv(handle)
    arrays.append(model.predict_proba(align_columns(model, test)))
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(f"{array.dtype.str}{array.shape}\0".encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def corpus_hash(design_dir: Path) -> str:
    """SHA-256 over the manifest and the waveforms, in sorted path order;
    each file's path and size go in front of its bytes."""
    digest = hashlib.sha256()
    paths = [design_dir / "manifest.json", *(design_dir / "vcds").glob("*.vcd")]
    for rel in sorted(str(p.relative_to(design_dir)) for p in paths):
        data = (design_dir / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def differing_lines(ref: list[str], mine: list[str]) -> list[str]:
    """The lines of two hash listings that differ, matched by output name:
    ``ref : <line>`` and ``this: <line>`` for each name whose digest
    differs, and one such line alone for a name only one listing has."""
    def by_name(lines):
        return {line.split("  ", 1)[1]: line for line in lines}

    ref_lines, my_lines = by_name(ref), by_name(mine)
    out = []
    for name in dict.fromkeys([*ref_lines, *my_lines]):
        if ref_lines.get(name) != my_lines.get(name):
            if name in ref_lines:
                out.append(f"ref : {ref_lines[name]}")
            if name in my_lines:
                out.append(f"this: {my_lines[name]}")
    return out


def hash_listing(ref: str | None) -> list[str]:
    """This script's lines for ``ref`` (or this checkout), from a fresh
    interpreter, since one process imports only one ``wavetriage``."""
    cmd = [sys.executable, __file__, *(["--ref", ref] if ref else [])]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--ref", help="hash the outputs of this commit, not of this checkout")
    which.add_argument("--check", metavar="REF", help="compare this checkout's lines with REF's")
    args = parser.parse_args(argv)

    if args.check:
        ref, mine = hash_listing(args.check), hash_listing(None)
        differ = differing_lines(ref, mine)
        print("\n".join(differ) if differ else f"all {len(mine)} lines the same as {args.check}")
        return 1 if differ else 0

    with tempfile.TemporaryDirectory(prefix="output_hashes_") as tmp:
        tmp = Path(tmp)
        src = ROOT / "src"
        if args.ref:
            tree = tmp / "tree"
            tree.mkdir()
            export_tree(args.ref, tree)
            src = tree / "src"
        sys.path.insert(0, str(src))
        work = tmp / "work"
        work.mkdir()
        lines = output_hashes(work)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
