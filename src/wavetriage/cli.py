"""Command-line entry point: one subcommand per pipeline stage plus the
end-to-end flow.

Exit codes: 0 success; 1 usage error; 2 data error (typed module errors);
3 external command failure. All randomness flows from one --seed expanded
through named substreams, and every run writes a manifest next to its
primary output recording inputs, hashes and settings.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

from . import __version__
from .sysio import rendered, replace_text

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
    replace_text(path, json.dumps(manifest, indent=2, sort_keys=True))


@contextlib.contextmanager
def _reading(path):
    """Put ``path`` in front of the message of a data error raised while
    its file is read."""
    from .extract import ExtractError
    from .metrics import MetricsError

    try:
        yield
    except (ExtractError, MetricsError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except ValueError as exc:  # json.JSONDecodeError and UnicodeDecodeError among them
        raise ValueError(f"{path}: {exc}") from None


def _read_json(path, parse=json.loads):
    """``parse`` of the text of ``path``; its data errors name the file."""
    with _reading(path):
        return parse(Path(path).read_text())


def _data_errors():
    from . import extract, metrics, models, mutate, orchestrate, ranking, rtl, selection, vcd

    return (
        vcd.VcdError,
        rtl.RtlError,
        selection.SelectionError,
        extract.ExtractError,
        models.ModelError,
        metrics.EmptyTest,
        metrics.MetricsError,
        ranking.CoverageGap,
        mutate.MutateError,
        orchestrate.NoFailingWaveforms,
        orchestrate.ScratchCollision,
        ValueError,
        FileNotFoundError,
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
    replace_text(out, table.to_json())
    _write_manifest(out, "scan", {"sources": args.sources}, args.sources, [out])
    print(f"scanned {len(args.sources)} file(s): {len(table.entries)} modules -> {out}")
    return EXIT_OK


def cmd_select(args) -> int:
    from .rtl import ModuleLookupTable, signals_for_targets
    from .selection import prune
    from .vcd import list_full_names, parse_header

    table = _read_json(args.tau, ModuleLookupTable.from_json)
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
    replace_text(out, report.to_json())
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
    from .extract import DEFAULT_TICK_CAP, write_rough_csv
    from .orchestrate import read_window
    from .selection import SelectionError, SelectionReport
    from .vcd import list_full_names

    tick_cap = _env_override("tick_cap", args.tick_cap, default=DEFAULT_TICK_CAP, cast=int)
    selection = _read_json(args.selection, SelectionReport.from_json)

    def select(tree):
        declared = set(list_full_names(tree))
        missing = [entry[:3] for entry in selection.selected if entry[:3] not in declared]
        if missing:
            raise SelectionError(f"selected signal {missing[0]!r} is not declared in the waveform")
        return selection

    window = read_window(args.vcd, select, tick_cap, args.label, args.scenario_id)
    out = Path(args.rough_csv)
    replace_text(out, rendered(write_rough_csv, window))
    sidecar = Path(str(out) + ".meta.json")
    replace_text(
        sidecar,
        json.dumps(
            {
                "label": args.label,
                "scenario_id": args.scenario_id,
                "tick_cap": tick_cap,
                "available_ticks": window.available_ticks,
            }
        ),
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
    from .extract import DEFAULT_STATS, StatSet, assemble, read_rough_csv, summarize, write_dataset_csv

    stats = StatSet.parse(
        _env_override("stats", args.stats, default=",".join(DEFAULT_STATS.names))
    )
    rows = []
    for rough_path in args.rough_csv:
        meta_path = Path(str(rough_path) + ".meta.json")
        if not meta_path.exists():
            raise ValueError(f"missing sidecar {meta_path} (produced by `extract`)")
        meta = _read_json(meta_path)
        with open(rough_path, "r", encoding="utf-8") as handle, _reading(rough_path):
            window = read_rough_csv(handle, meta["label"], meta["scenario_id"])
        rows.append(summarize(window, stats))
    dataset = assemble(rows)
    out = Path(args.out)
    replace_text(out, rendered(write_dataset_csv, dataset))
    _write_manifest(out, "compress", {"stats": list(stats.names)}, args.rough_csv, [out])
    print(f"compressed {len(rows)} waveform(s) x {len(dataset.feature_names)} features -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    from .extract import read_dataset_csv
    from .models import fit, save_model
    from .ranking import DEFAULT_KEEP_FRACTION, DEFAULT_MAX_SIGNALS, reduce_signals
    from .selection import SelectionReport

    seed = _env_override("seed", args.seed, default=0, cast=int)
    with open(args.train, "r", encoding="utf-8") as handle, _reading(args.train):
        train = read_dataset_csv(handle)
    settings = {"kind": args.kind, "seed": seed}
    if args.selection:
        report = _read_json(args.selection, SelectionReport.from_json)
        coverage = {name: owner for name, _, _, owner in report.selected}
        keep_fraction = _env_override(
            "keep_fraction", args.keep_fraction, default=DEFAULT_KEEP_FRACTION, cast=float
        )
        max_signals = _env_override(
            "max_signals", args.max_signals, default=DEFAULT_MAX_SIGNALS, cast=int
        )
        train, history = reduce_signals(
            train, coverage, keep_fraction=keep_fraction, max_signals=max_signals, seed=seed
        )
        settings.update(
            keep_fraction=keep_fraction, max_signals=max_signals, reduce_iterations=len(history)
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
    with open(args.test, "r", encoding="utf-8") as handle, _reading(args.test):
        test = read_dataset_csv(handle)
    report = evaluate(model, test)
    out = Path(args.json)
    replace_text(out, report.to_json())
    outputs = [out, *(Path(path) for _, path in _write_confusion(report, args))]
    _write_manifest(out, "eval", {"model": str(args.model)}, [args.model, args.test], outputs)
    print(f"{report.summary()} -> {out}")
    return EXIT_OK


def _write_confusion(report, args) -> list[tuple[str, str]]:
    """Write ``report``'s confusion matrix where ``--svg`` and
    ``--confusion-csv`` ask for it; ``(format, path)`` of each file."""
    written = []
    if args.svg:
        replace_text(args.svg, report.confusion_svg())
        written.append(("SVG", args.svg))
    if args.confusion_csv:
        replace_text(args.confusion_csv, rendered(report.confusion_csv))
        written.append(("CSV", args.confusion_csv))
    return written


def _injection(doc: dict, modules, count: int, keys: tuple[str, str]):
    """``mutate.inject_batch`` bound to the checked settings of ``inject``'s
    config or ``pipeline``'s ``injection`` object; ``keys`` name the config
    keys of ``modules`` and the bug types in errors."""
    from . import mutate

    bug_types = doc.get("bug_types", mutate.BUG_TYPES)
    for key, entries in zip(keys, (modules, bug_types)):
        if count > 0 and not entries:
            raise ValueError(f"config key {key!r} is empty but {count} scenario(s) were requested")
    return functools.partial(
        mutate.inject_batch,
        modules=modules,
        bug_types=bug_types,
        count=count,
        check=mutate.CheckCommands.from_dict(doc["check"]),
        cache_path=doc.get("cache"),
        failure_log_path=doc.get("failure_log"),
        max_attempts=int(doc.get("max_attempts", 5)),
    )


def cmd_inject(args) -> int:
    config = _read_json(args.config)
    seed = _env_override("seed", args.seed, config.get("seed"), default=0, cast=int)
    count = args.count if args.count is not None else int(config.get("count", 1))
    inject = _injection(config, config["modules"], count, ("modules", "bug_types"))
    batch = inject(config["design_dir"], seed_base=seed * 1_000_003, keep_applied=args.keep_applied)
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
        status: sum(r["status"] == status for r in results)
        for status in ("accepted", "rejected_syntax", "rejected_ineffective")
    }
    summary["scenarios"] = results
    if args.json:
        replace_text(args.json, json.dumps(summary, indent=2))
        _write_manifest(Path(args.json), "inject", {"seed": seed}, [args.config], [args.json])
    print(
        f"injected {count} scenario(s): {summary['accepted']} accepted, "
        f"{summary['rejected_syntax']} syntax-rejected, "
        f"{summary['rejected_ineffective']} ineffective"
    )
    return EXIT_OK


# (config field, flag dest, which also names the WAVETRIAGE_* variable, type)
_PIPELINE_OVERRIDES = (
    ("worker_count", "workers", int),
    ("tick_cap", "tick_cap", int),
    ("seed", "seed", int),
    ("keep_fraction", "keep_fraction", float),
    ("max_signals", "max_signals", int),
)


def cmd_pipeline(args) -> int:
    from . import mutate
    from .extract import write_dataset_csv
    from .metrics import evaluate
    from .models import fit, save_model
    from .orchestrate import PipelineConfig, StageSizeReport, dispatch, run_data_pipeline, scenario_jobs

    cfg = PipelineConfig.from_json_file(args.config)
    for field, dest, cast in _PIPELINE_OVERRIDES:
        setattr(cfg, field, _env_override(dest, getattr(args, dest), getattr(cfg, field), cast=cast))
    if args.stats:
        cfg.stats = tuple(s.strip() for s in args.stats.split(",") if s.strip())
    cfg.require_simulator()
    inj = cfg.injection or {}
    if inj.get("enabled"):
        count = int(inj.get("count", len(cfg.targets)))
        inject = _injection(inj, cfg.targets, count, ("targets", "injection.bug_types"))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = out_dir / "scratch"

    if inj.get("enabled"):
        # mutate a scratch copy; dispatch still simulates cfg.design_dir
        scratch_design = scratch / "design"
        if scratch_design.exists():
            shutil.rmtree(scratch_design)
        shutil.copytree(cfg.design_dir, scratch_design)
        batch = inject(scratch_design, seed_base=cfg.seed * 7_919)
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
        replace_text(csv_path, rendered(write_dataset_csv, dataset))
        print(f"{split}: {len(dataset)} rows x {len(dataset.feature_names)} features -> {csv_path}")

    replace_text(out_dir / "stage_sizes.json", report_total.to_json())

    train = datasets["train"]
    if cfg.reduce:
        from .ranking import history_json, reduce_signals

        coverage = _coverage_from_design(cfg, train)
        train, history = reduce_signals(
            train,
            coverage,
            keep_fraction=cfg.keep_fraction,
            max_signals=cfg.max_signals,
            seed=cfg.seed,
        )
        replace_text(out_dir / "reduction_history.json", history_json(history, coverage))

    metrics_doc = {}
    for kind in cfg.models:
        model = fit(kind, train, seed=cfg.seed)
        save_model(model, out_dir / f"model_{kind}.bin")
        report = evaluate(model, datasets["test"])
        metrics_doc[kind] = report.to_dict()
        print(f"{kind}: {report.summary()}")
    metrics_path = out_dir / "metrics.json"
    replace_text(metrics_path, json.dumps(metrics_doc, indent=2))
    _write_manifest(
        metrics_path,
        "pipeline",
        {"config": str(args.config), "seed": cfg.seed, "workers": cfg.worker_count, "tick_cap": cfg.tick_cap},
        [args.config],
        [metrics_path, out_dir / "stage_sizes.json"],
    )
    return EXIT_OK


def _coverage_from_design(cfg, dataset) -> dict[str, str]:
    """signal -> owning target for every signal of ``dataset``, from pruning
    its own signal names against the design (``prune`` decides on the full
    name alone)."""
    from .orchestrate import design_table
    from .rtl import signals_for_targets
    from .selection import prune

    table = design_table(cfg.design_dir)
    report = prune(
        [(name, "", 0) for name in dataset.signal_names()],
        signals_for_targets(table, cfg.targets),
        table.instances,
        top_module=cfg.top_module,
        dut_root=cfg.dut_root,
    )
    return {name: owner for name, _, _, owner in report.selected}


def cmd_report(args) -> int:
    from .metrics import MetricsError, ablation_from_json, reports_from_json

    reports = _read_json(args.metrics, reports_from_json)
    if (args.svg or args.confusion_csv) and len(reports) > 1:
        raise MetricsError(
            f"--svg and --confusion-csv draw one report, but {args.metrics} holds "
            f"{len(reports)}: {', '.join(reports)}"
        )
    lines = []
    for kind, report in reports.items():
        if lines:
            lines.append("")
        lines.append(f"classification report ({kind})" if kind else "classification report")
        lines.append(f"  top-1 accuracy : {report.top1:.4f}")
        lines.append(f"  top-3 accuracy : {report.top3:.4f}")
        lines.append(f"  macro F1       : {report.macro_f1:.4f}")
        lines.append(f"  macro TPR      : {report.macro_tpr:.4f}")
        lines.append(f"  macro FPR      : {report.macro_fpr:.4f}")
        lines.append(f"  macro ROC AUC  : {report.auc_roc_macro:.4f}")
        lines.append(f"  classes        : {', '.join(report.classes)}")
    # writes only for a file of one report (checked above), the loop's last
    for fmt, path in _write_confusion(report, args):
        lines.append(f"  confusion {fmt}  : {path}")
    if args.ablation:
        lines.append("")
        lines.append("tick-cap ablation")
        lines.append("  tick_cap    top1    top3")
        for tick_cap, top1, top3 in _read_json(args.ablation, ablation_from_json):
            lines.append(f"  {tick_cap:>8} {top1:>7.3f} {top3:>7.3f}")
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


if __name__ == "__main__":
    sys.exit(main())
