"""Command-line entry point: one subcommand per pipeline stage plus the
end-to-end flow.

Exit codes: 0 success; 1 usage error; 2 data error (typed module errors);
3 external command failure. All randomness flows from one --seed expanded
through named substreams, and every run writes a manifest next to its
primary output recording inputs, hashes and settings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

from . import __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_EXTERNAL = 3

_ENV_PREFIX = "WAVETRIAGE_"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _env_override(name: str, flag_value, config_value=None, default=None, cast=str):
    """Precedence: flag > environment > config > default."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(_ENV_PREFIX + name.upper())
    if env is not None:
        return cast(env)
    if config_value is not None:
        return config_value
    return default


def _require_entries(count: int, key: str, entries) -> None:
    """``count`` > 0 scenarios need at least one entry under config ``key``."""
    if count > 0 and not entries:
        raise ValueError(f"config key {key!r} is empty but {count} scenario(s) were requested")


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(primary_output, command: str, settings: dict, inputs, outputs):
    # no timestamps: identical inputs and seeds must yield byte-identical runs
    manifest = {
        "tool_version": __version__,
        "command": command,
        "settings": settings,
        "inputs": {str(p): _sha256_file(p) for p in inputs if Path(p).is_file()},
        "outputs": [str(p) for p in outputs],
    }
    path = Path(str(primary_output) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _data_errors():
    from . import extract, metrics, models, mutate, orchestrate, ranking, rtl, selection, vcd

    return (
        vcd.VcdError,
        rtl.RtlError,
        selection.SelectionError,
        extract.ExtractError,
        models.ModelError,
        metrics.EmptyTest,
        ranking.CoverageGap,
        mutate.MutateError,
        orchestrate.NoFailingWaveforms,
        orchestrate.ScratchCollision,
        ValueError,
    )


def _external_errors():
    from . import mutate, orchestrate

    return (orchestrate.SimulatorNotFound, mutate.CommandNotFound)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_scan(args) -> int:
    from .rtl import DesignSources, scan_sources

    table = scan_sources(DesignSources.from_paths(args.sources))
    out = Path(args.json)
    out.write_text(table.to_json())
    _write_manifest(out, "scan", {"sources": args.sources}, args.sources, [out])
    print(f"scanned {len(args.sources)} file(s): {len(table.entries)} modules -> {out}")
    return EXIT_OK


def cmd_select(args) -> int:
    from .rtl import ModuleLookupTable, signals_for_targets
    from .selection import prune
    from .vcd import list_full_names, parse_header

    table = ModuleLookupTable.from_json(Path(args.tau).read_text())
    targets = [t for t in args.targets.split(",") if t]
    with open(args.vcd, "rb") as stream:
        tree = parse_header(stream)
    report = prune(
        list_full_names(tree),
        signals_for_targets(table, targets),
        table.instances,
        top_module=args.top_module,
        dut_root=args.dut_root,
    )
    out = Path(args.json)
    out.write_text(report.to_json())
    _write_manifest(
        out,
        "select",
        {"targets": targets, "top_module": args.top_module, "dut_root": args.dut_root},
        [args.vcd, args.tau],
        [out],
    )
    print(
        f"selected {len(report.selected)} signals "
        f"({report.dropped_count} dropped) -> {out}"
    )
    return EXIT_OK


def cmd_extract(args) -> int:
    from .extract import sample_window, standardize, write_rough_csv
    from .selection import SelectionReport
    from .vcd import parse_header, stream_changes

    tick_cap = _env_override("tick_cap", args.tick_cap, default=2000, cast=int)
    selection = SelectionReport.from_json(Path(args.selection).read_text())
    with open(args.vcd, "rb") as stream:
        parse_header(stream)
        window = sample_window(
            stream_changes(stream),
            selection,
            tick_cap=tick_cap,
            label=args.label,
            scenario_id=args.scenario_id,
        )
    window = standardize(window, tick_cap)
    out = Path(args.rough_csv)
    with open(out, "w", encoding="utf-8") as handle:
        write_rough_csv(window, handle)
    sidecar = Path(str(out) + ".meta.json")
    sidecar.write_text(
        json.dumps(
            {
                "label": args.label,
                "scenario_id": args.scenario_id,
                "tick_cap": tick_cap,
                "available_ticks": window.available_ticks,
            }
        )
    )
    _write_manifest(
        out,
        "extract",
        {"tick_cap": tick_cap, "scenario_id": args.scenario_id},
        [args.vcd, args.selection],
        [out, sidecar],
    )
    print(f"extracted {window.matrix.shape[0]}x{window.matrix.shape[1]} window -> {out}")
    return EXIT_OK


def cmd_compress(args) -> int:
    import csv

    import numpy as np

    from .extract import DEFAULT_STATS, StatSet, WaveWindow, assemble, summarize, write_dataset_csv

    stats = StatSet.parse(
        _env_override("stats", args.stats, default=",".join(DEFAULT_STATS.names))
    )
    rows = []
    for rough_path in args.rough_csv:
        meta_path = Path(str(rough_path) + ".meta.json")
        if not meta_path.exists():
            raise ValueError(f"missing sidecar {meta_path} (produced by `extract`)")
        meta = json.loads(meta_path.read_text())
        with open(rough_path, "r", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            ticks, values = [], []
            for record in reader:
                ticks.append(int(record[0]))
                values.append([float(v) for v in record[1:]])
        window = WaveWindow(
            matrix=np.asarray(values),
            tick_times=np.asarray(ticks),
            signals=header[1:],
            label=meta["label"],
            scenario_id=meta["scenario_id"],
        )
        rows.append(summarize(window, stats))
    dataset = assemble(rows)
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as handle:
        write_dataset_csv(dataset, handle)
    _write_manifest(out, "compress", {"stats": list(stats.names)}, args.rough_csv, [out])
    print(f"compressed {len(rows)} waveform(s) x {len(dataset.feature_names)} features -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    from .extract import read_dataset_csv
    from .models import fit, save_model
    from .ranking import reduce_signals

    seed = _env_override("seed", args.seed, default=0, cast=int)
    with open(args.train, "r", encoding="utf-8") as handle:
        train = read_dataset_csv(handle)
    settings = {"kind": args.kind, "seed": seed}
    if args.selection:
        from .selection import SelectionReport

        report = SelectionReport.from_json(Path(args.selection).read_text())
        coverage = {name: owner for name, _, _, owner in report.selected}
        keep_fraction = _env_override(
            "keep_fraction", args.keep_fraction, default=0.6, cast=float
        )
        max_signals = _env_override("max_signals", args.max_signals, default=5000, cast=int)
        train, history = reduce_signals(
            train, coverage, keep_fraction=keep_fraction, max_signals=max_signals, seed=seed
        )
        settings.update(
            {
                "keep_fraction": keep_fraction,
                "max_signals": max_signals,
                "reduce_iterations": len(history),
            }
        )
    model = fit(args.kind, train, seed=seed)
    out = Path(args.out)
    save_model(model, out)
    _write_manifest(out, "train", settings, [args.train], [out])
    print(f"fitted {args.kind} on {len(train)} rows x {len(train.feature_names)} features -> {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .extract import read_dataset_csv
    from .metrics import evaluate
    from .models import load_model

    model = load_model(args.model)
    with open(args.test, "r", encoding="utf-8") as handle:
        test = read_dataset_csv(handle)
    report = evaluate(model, test)
    out = Path(args.json)
    out.write_text(report.to_json())
    outputs = [out]
    if args.svg:
        Path(args.svg).write_text(report.confusion_svg())
        outputs.append(Path(args.svg))
    if args.confusion_csv:
        with open(args.confusion_csv, "w", encoding="utf-8") as handle:
            report.confusion_csv(handle)
        outputs.append(Path(args.confusion_csv))
    _write_manifest(out, "eval", {"model": str(args.model)}, [args.model, args.test], outputs)
    print(
        f"top1={report.top1:.3f} top3={report.top3:.3f} f1={report.macro_f1:.3f} "
        f"auc={report.auc_roc_macro:.3f} -> {out}"
    )
    return EXIT_OK


def cmd_inject(args) -> int:
    from . import mutate

    config = json.loads(Path(args.config).read_text())
    seed = _env_override("seed", args.seed, config.get("seed"), default=0, cast=int)
    count = args.count if args.count is not None else int(config.get("count", 1))
    bug_types = config.get("bug_types", mutate.BUG_TYPES)
    _require_entries(count, "modules", config["modules"])
    _require_entries(count, "bug_types", bug_types)
    batch = mutate.inject_batch(
        config["design_dir"],
        config["modules"],
        bug_types,
        count,
        mutate.CheckCommands.from_dict(config["check"]),
        seed * 1_000_003,
        cache_path=config.get("cache"),
        failure_log_path=config.get("failure_log"),
        max_attempts=int(config.get("max_attempts", 5)),
        keep_applied=args.keep_applied,
    )
    results = [
        {
            "scenario_id": scenario.scenario_id,
            "module": module,
            "bug_type": bug_type,
            "status": scenario.status,
            "attempts": scenario.attempts,
        }
        for module, bug_type, scenario in batch
    ]
    summary = {
        "accepted": sum(r["status"] == "accepted" for r in results),
        "rejected_syntax": sum(r["status"] == "rejected_syntax" for r in results),
        "rejected_ineffective": sum(r["status"] == "rejected_ineffective" for r in results),
        "scenarios": results,
    }
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2))
        _write_manifest(Path(args.json), "inject", {"seed": seed}, [args.config], [args.json])
    print(
        f"injected {count} scenario(s): {summary['accepted']} accepted, "
        f"{summary['rejected_syntax']} syntax-rejected, "
        f"{summary['rejected_ineffective']} ineffective"
    )
    return EXIT_OK


def cmd_pipeline(args) -> int:
    from .extract import write_dataset_csv
    from .metrics import evaluate
    from .models import fit, save_model
    from .orchestrate import (
        PipelineConfig,
        StageSizeReport,
        dispatch,
        run_data_pipeline,
        scenario_jobs,
    )

    cfg = PipelineConfig.from_json_file(args.config)
    cfg.worker_count = _env_override("workers", args.workers, cfg.worker_count, 1, int)
    cfg.tick_cap = _env_override("tick_cap", args.tick_cap, cfg.tick_cap, 2000, int)
    cfg.seed = _env_override("seed", args.seed, cfg.seed, 0, int)
    if args.stats:
        cfg.stats = tuple(s.strip() for s in args.stats.split(",") if s.strip())
    cfg.keep_fraction = _env_override(
        "keep_fraction", args.keep_fraction, cfg.keep_fraction, 0.6, float
    )
    cfg.max_signals = _env_override("max_signals", args.max_signals, cfg.max_signals, 5000, int)
    inj = cfg.injection or {}
    if inj.get("enabled"):
        from . import mutate

        count = int(inj.get("count", len(cfg.targets)))
        bug_types = inj.get("bug_types", mutate.BUG_TYPES)
        _require_entries(count, "targets", cfg.targets)
        _require_entries(count, "injection.bug_types", bug_types)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = out_dir / "scratch"

    if inj.get("enabled"):
        # mutate a scratch copy; dispatch still simulates cfg.design_dir
        scratch_design = scratch / "design"
        if scratch_design.exists():
            shutil.rmtree(scratch_design)
        shutil.copytree(cfg.design_dir, scratch_design)
        batch = mutate.inject_batch(
            scratch_design,
            cfg.targets,
            bug_types,
            count,
            mutate.CheckCommands.from_dict(inj["check"]),
            cfg.seed * 7_919,
            cache_path=inj.get("cache"),
            failure_log_path=inj.get("failure_log"),
            max_attempts=int(inj.get("max_attempts", 5)),
        )
        accepted = sum(s.status == mutate.STATUS_ACCEPTED for _, _, s in batch)
        print(f"injection: {accepted}/{count} scenario(s) accepted (cached)")

    datasets = {}
    report_total = StageSizeReport()
    for split, per_module in (("train", cfg.train_per_module), ("test", cfg.test_per_module)):
        jobs = scenario_jobs(cfg, scratch / split, split, per_module)
        results = dispatch(jobs, cfg)
        done = [r for r in results if r.status == "done"]
        failed = [r for r in results if r.status != "done"]
        if failed:
            first = failed[0]
            outcome = "timed out" if first.timed_out else f"exit code {first.returncode}"
            print(
                f"{split}: {len(failed)} job(s) failed after retries; first: "
                f"{first.scenario_id} ({outcome}), stderr tail:\n{first.stderr_tail.rstrip()}",
                file=sys.stderr,
            )
        dataset, report = run_data_pipeline(done, cfg)
        datasets[split] = dataset
        report_total.merge(report)
        csv_path = out_dir / f"{split}.csv"
        with open(csv_path, "w", encoding="utf-8") as handle:
            write_dataset_csv(dataset, handle)
        print(f"{split}: {len(dataset)} rows x {len(dataset.feature_names)} features -> {csv_path}")

    (out_dir / "stage_sizes.json").write_text(report_total.to_json())

    train = datasets["train"]
    if cfg.reduce:
        from .ranking import reduce_signals

        coverage = _coverage_from_design(cfg)
        train, history = reduce_signals(
            train,
            coverage,
            keep_fraction=cfg.keep_fraction,
            max_signals=cfg.max_signals,
            seed=cfg.seed,
        )
        from .ranking import history_json

        (out_dir / "reduction_history.json").write_text(history_json(history, coverage))

    metrics_doc = {}
    for kind in cfg.models:
        model = fit(kind, train, seed=cfg.seed)
        save_model(model, out_dir / f"model_{kind}.bin")
        report = evaluate(model, datasets["test"])
        metrics_doc[kind] = report.to_dict()
        print(
            f"{kind}: top1={report.top1:.3f} top3={report.top3:.3f} "
            f"f1={report.macro_f1:.3f} auc={report.auc_roc_macro:.3f}"
        )
    metrics_path = out_dir / "metrics.json"
    metrics_path.write_text(json.dumps(metrics_doc, indent=2))
    _write_manifest(
        metrics_path,
        "pipeline",
        {"config": str(args.config), "seed": cfg.seed, "workers": cfg.worker_count, "tick_cap": cfg.tick_cap},
        [args.config],
        [metrics_path, out_dir / "stage_sizes.json"],
    )
    return EXIT_OK


def _coverage_from_design(cfg) -> dict[str, str]:
    """signal -> owning target, from pruning one waveform of the corpus."""
    from .orchestrate import design_table
    from .rtl import signals_for_targets
    from .selection import prune
    from .vcd import list_full_names, parse_header

    vcds = sorted(Path(cfg.out_dir).glob("scratch/train/*/wave_*.vcd"))
    if not vcds:
        raise ValueError("no waveforms available to derive signal coverage")
    table = design_table(cfg.design_dir)
    with open(vcds[0], "rb") as stream:
        tree = parse_header(stream)
    report = prune(
        list_full_names(tree),
        signals_for_targets(table, cfg.targets),
        table.instances,
        top_module=cfg.top_module,
        dut_root=cfg.dut_root,
    )
    return {name: owner for name, _, _, owner in report.selected}


def cmd_report(args) -> int:
    from .metrics import MetricsReport

    lines = []
    report = MetricsReport.from_json(Path(args.metrics).read_text())
    lines.append("classification report")
    lines.append(f"  top-1 accuracy : {report.top1:.4f}")
    lines.append(f"  top-3 accuracy : {report.top3:.4f}")
    lines.append(f"  macro F1       : {report.macro_f1:.4f}")
    lines.append(f"  macro TPR      : {report.macro_tpr:.4f}")
    lines.append(f"  macro FPR      : {report.macro_fpr:.4f}")
    lines.append(f"  macro ROC AUC  : {report.auc_roc_macro:.4f}")
    lines.append(f"  classes        : {', '.join(report.classes)}")
    if args.svg:
        Path(args.svg).write_text(report.confusion_svg())
        lines.append(f"  confusion SVG  : {args.svg}")
    if args.confusion_csv:
        with open(args.confusion_csv, "w", encoding="utf-8") as handle:
            report.confusion_csv(handle)
        lines.append(f"  confusion CSV  : {args.confusion_csv}")
    if args.ablation:
        doc = json.loads(Path(args.ablation).read_text())
        lines.append("")
        lines.append("tick-cap ablation")
        lines.append("  tick_cap    top1    top3")
        for entry in sorted(doc, key=lambda e: e["tick_cap"]):
            m = entry["metrics"]
            lines.append(f"  {entry['tick_cap']:>8} {m['top1']:>7.3f} {m['top3']:>7.3f}")
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="wavetriage", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wavetriage {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="build the module lookup table from sources")
    p.add_argument("--sources", nargs="+", required=True)
    p.add_argument("--json", required=True, help="output lookup-table JSON")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("select", help="prune a waveform's hierarchy to target signals")
    p.add_argument("--vcd", required=True)
    p.add_argument("--tau", required=True, help="lookup-table JSON from `scan`")
    p.add_argument("--targets", required=True, help="comma-separated target modules")
    p.add_argument("--top-module", required=True)
    p.add_argument("--dut-root", default=None)
    p.add_argument("--json", required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("extract", help="sample + standardize one waveform window")
    p.add_argument("--vcd", required=True)
    p.add_argument("--selection", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--scenario-id", required=True)
    p.add_argument("--tick-cap", type=int, default=None)
    p.add_argument("--rough-csv", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("compress", help="summarize rough windows into a dataset CSV")
    p.add_argument("--rough-csv", nargs="+", required=True)
    p.add_argument("--stats", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("train", help="fit a classifier on a dataset CSV")
    p.add_argument("--train", required=True)
    p.add_argument("--kind", choices=("knn", "random_forest", "gbt"), default="gbt")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--selection", default=None, help="enable signal reduction with this selection report")
    p.add_argument("--keep-fraction", type=float, default=None)
    p.add_argument("--max-signals", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model on a test CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--json", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--confusion-csv", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inject", help="run seeded bug-injection scenarios")
    p.add_argument("--config", required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", default=None)
    p.add_argument("--keep-applied", action="store_true")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("pipeline", help="end-to-end: inject/simulate/extract/train/eval")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--tick-cap", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stats", default=None, help="comma-separated statistic names")
    p.add_argument("--keep-fraction", type=float, default=None)
    p.add_argument("--max-signals", type=int, default=None)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("report", help="render metrics JSON to text/SVG")
    p.add_argument("--metrics", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--confusion-csv", default=None)
    p.add_argument("--ablation", default=None, help="JSON list of {tick_cap, metrics}")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _external_errors() as exc:
        print(f"external command failure: {exc}", file=sys.stderr)
        return EXIT_EXTERNAL
    except _data_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
