"""The three benchmark workloads: inputs, one timed round, and the checks.

Every input is generated from the run's seed. A workload's ``setup`` runs in
the benchmark's parent process and leaves its inputs in a directory; the
measuring process then builds the workload object on that directory, loads
what a user would load once (``load``), runs one untimed ``warm_up`` and then
timed rounds. Each round calls ``mark_op`` with an identifier before each
operation (the traced run tags its spans with it) and returns its
operations; ``check`` inspects them outside the timed region and returns
the problems it found.

All calls into wavetriage go through module attributes (``models.fit``, not a
name imported at start-up) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from wavetriage import cli, extract, fixtures, models, orchestrate, ranking
from wavetriage.orchestrate import JobResult, PipelineConfig
from wavetriage.trees import GBTParams

SIZES = {
    "full": {
        "pipeline-corpus": dict(modules=3, train=8, test=10, ticks=300, tick_cap=2000, min_rounds=3),
        "triage-long": dict(
            modules=4, train=5, ticks=300, long_ticks=1200, pool=8, tick_cap=250, min_ops=100
        ),
        "reduce-wide": dict(big_modules=4, signals=160, rows_per_class=30, max_signals=40, min_rounds=3),
    },
    "smoke": {
        "pipeline-corpus": dict(modules=3, train=8, test=10, ticks=300, tick_cap=2000, min_rounds=1),
        "triage-long": dict(
            modules=4, train=5, ticks=300, long_ticks=600, pool=4, tick_cap=250, min_ops=4
        ),
        "reduce-wide": dict(big_modules=4, signals=60, rows_per_class=20, max_signals=20, min_rounds=1),
    },
}

# The triage model is a lighter GBT than the pipeline default (30 rounds,
# not 100) so that fitting it three times per run stays within set-up budget.
TRIAGE_GBT = GBTParams(n_rounds=30)
TOP_K = 3
ORACLE_ROWS_PER_ROUND = 2


def workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def _sub_seed(*parts) -> int:
    blob = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


@dataclass
class Operation:
    """One timed user-visible operation and what the checks need from it."""

    seconds: float
    waveforms: int
    raw_bytes: int = 0
    out_bytes: int = 0
    ok: bool = True
    detail: dict = field(default_factory=dict)


def _timed(fn, *args):
    """Time one operation: (seconds, result), with result None if it raised.

    The program's standard output is discarded; a failure's traceback goes
    to standard error and the run carries on, counting it as failed."""
    start = time.perf_counter()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            result = fn(*args)
    except Exception:
        traceback.print_exc()
        result = None
    return time.perf_counter() - start, result


def _oracle_problems(label: str, vcd_path, tick_cap: int, names: list[str], row) -> list[str]:
    want = oracle.feature_row(vcd_path, oracle.signals_of(names), tick_cap)
    bad = oracle.mismatches(want, names, row)
    return [f"{label}: {len(bad)} features differ from the oracle, e.g. {bad[0]}"] if bad else []


# ---------------------------------------------------------------------------

class Workload:
    # latencies are per operation (else per round) and the run-level check
    per_op_latency = False

    def check_run(self, ops: list[Operation]) -> list[str]:
        return []


class PipelineCorpus(Workload):
    """``wavetriage pipeline`` in-process on an easy fixture corpus."""

    @staticmethod
    def setup(root: Path, seed: int, size: dict):
        design = fixtures.gen_design(root / "design", n_modules=size["modules"], seed=seed)
        scenarios = fixtures.build_scenarios(design, size["train"], size["test"], seed=seed)
        fixtures.materialize_corpus(design, scenarios, ticks=size["ticks"])
        config = {
            "design_dir": str(design.root),
            "targets": list(design.modules),
            "top_module": design.top_module,
            "dut_root": design.dut_root,
            "simulator": fixtures.simulator_command(),
            "tick_cap": size["tick_cap"],
            "worker_count": workers(),
            "train_per_module": size["train"],
            "test_per_module": size["test"],
            "seed": seed,
        }
        (root / "config.json").write_text(json.dumps(config, indent=2))

    def __init__(self, root: Path, seed: int, size: dict):
        self.root, self.seed, self.size = root, seed, size
        self.min_rounds = size["min_rounds"]

    def load(self):
        self.config = json.loads((self.root / "config.json").read_text())

    def warm_up(self):
        cfg = PipelineConfig(**self.config, out_dir=str(self.root / "warm"))
        jobs = orchestrate.scenario_jobs(cfg, self.root / "warm", "test", self.config["test_per_module"])
        results = orchestrate.dispatch(jobs[:4], cfg)
        orchestrate.run_data_pipeline(results, cfg)
        shutil.rmtree(self.root / "warm")

    def run_round(self, index: int, mark_op) -> list[Operation]:
        mark_op(f"pipeline-{index}")
        out_dir = self.root / f"round{index}"
        config_path = self.root / f"round{index}.json"
        config_path.write_text(json.dumps({**self.config, "out_dir": str(out_dir)}))
        seconds, rc = _timed(cli.main, ["pipeline", "--config", str(config_path)])
        n = len(self.config["targets"]) * (self.config["train_per_module"] + self.config["test_per_module"])
        op = Operation(seconds=seconds, waveforms=n, ok=rc == 0, detail={"out_dir": out_dir, "index": index})
        if op.ok:
            waves = list(out_dir.glob("scratch/*/*/wave_*.vcd"))
            op.raw_bytes = sum(p.stat().st_size for p in waves)
            op.out_bytes = sum((out_dir / f"{s}.csv").stat().st_size for s in ("train", "test"))
        return [op]

    def check(self, ops: list[Operation]) -> list[str]:
        problems: list[str] = []
        cfg = self.config
        for op in ops:
            out_dir = op.detail["out_dir"]
            if not op.ok:
                shutil.rmtree(out_dir, ignore_errors=True)
                continue
            rng = random.Random(_sub_seed(self.seed, "oracle", op.detail["index"]))
            for split, per_module in (("train", cfg["train_per_module"]), ("test", cfg["test_per_module"])):
                expected = {f"{split}-{m}-{i:04d}" for m in cfg["targets"] for i in range(per_module)}
                with open(out_dir / f"{split}.csv", newline="") as handle:
                    reader = csv.reader(handle)
                    header = next(reader)
                    records = list(reader)
                ids = [r[0] for r in records]
                if len(ids) != len(expected) or set(ids) != expected:
                    problems.append(
                        f"{split}.csv has {len(ids)} rows for {len(expected)} jobs (a job did not finish as done)"
                    )
                    continue
                for sid, _, *values in rng.sample(records, ORACLE_ROWS_PER_ROUND):
                    problems += _oracle_problems(
                        f"{split} {sid}",
                        out_dir / "scratch" / split / sid / "wave_00.vcd",
                        cfg["tick_cap"],
                        header[2:],
                        [float(v) for v in values],
                    )
            report = json.loads((out_dir / "metrics.json").read_text())
            for kind in ("gbt", "random_forest"):
                if report[kind]["top1"] < 0.90 or report[kind]["top3"] < 0.98:
                    problems.append(f"{kind} top1={report[kind]['top1']:.3f} top3={report[kind]['top3']:.3f}")
            if not report["knn"]["top1"] < report["gbt"]["top1"]:
                problems.append(f"knn top1={report['knn']['top1']:.3f} not below gbt {report['gbt']['top1']:.3f}")
            shutil.rmtree(out_dir)
        return problems


class TriageLong(Workload):
    """One long failing waveform at a time to its top-3 module verdict."""

    per_op_latency = True

    @staticmethod
    def setup(root: Path, seed: int, size: dict):
        design = fixtures.gen_design(root / "design", n_modules=size["modules"], seed=seed)
        scenarios = fixtures.build_scenarios(design, size["train"], 0, seed=seed)
        fixtures.materialize_corpus(design, scenarios, ticks=size["ticks"])
        cfg = PipelineConfig(
            design_dir=str(design.root),
            targets=list(design.modules),
            top_module=design.top_module,
            dut_root=design.dut_root,
            tick_cap=size["tick_cap"],
            worker_count=workers(),
            seed=seed,
        )
        jobs = [
            JobResult(s.scenario_id, s.label, "done", [str(design.root / "vcds" / f"{s.scenario_id}.vcd")], 0.0, 1)
            for s in scenarios
        ]
        train, _ = orchestrate.run_data_pipeline(jobs, cfg)
        model = models.fit("gbt", train, TRIAGE_GBT, seed=seed)
        models.save_model(model, root / "model.bin")
        (root / "long").mkdir()
        waves = []
        for j in range(size["pool"]):
            label = design.modules[j % len(design.modules)]
            path = root / "long" / f"long-{j:03d}.vcd"
            fixtures.gen_failing_vcd(
                design, label, size["long_ticks"], _sub_seed(seed, "long", j), out_path=path
            )
            waves.append({"path": str(path), "label": label})
        doc = {
            "config": {
                "design_dir": cfg.design_dir,
                "targets": cfg.targets,
                "top_module": cfg.top_module,
                "dut_root": cfg.dut_root,
                "tick_cap": cfg.tick_cap,
                "seed": seed,
            },
            "warm_up": jobs[0].vcd_paths[0],
            "waveforms": waves,
        }
        (root / "triage.json").write_text(json.dumps(doc, indent=2))

    def __init__(self, root: Path, seed: int, size: dict):
        self.root, self.seed, self.size = root, seed, size
        self.min_rounds = -(-size["min_ops"] // size["pool"])
        self.doc = json.loads((root / "triage.json").read_text())
        self.cfg = PipelineConfig(**self.doc["config"], worker_count=1)

    def load(self):
        self.model = models.load_model(self.root / "model.bin")

    def triage(self, path: str, label: str, sid: str):
        job = JobResult(sid, label, "done", [path], 0.0, 1)
        dataset, report = orchestrate.run_data_pipeline([job], self.cfg)
        top = models.predict_topk(self.model, dataset.matrix[0], TOP_K)
        return dataset, report, top

    def warm_up(self):
        self.triage(self.doc["warm_up"], self.cfg.targets[0], "warm-up")

    def run_round(self, index: int, mark_op) -> list[Operation]:
        ops = []
        rng = random.Random(_sub_seed(self.seed, "oracle", index))
        sampled = set(rng.sample(range(len(self.doc["waveforms"])), ORACLE_ROWS_PER_ROUND))
        for j, wave in enumerate(self.doc["waveforms"]):
            mark_op(f"triage-{index}-{j}")
            seconds, result = _timed(self.triage, wave["path"], wave["label"], f"triage-{j:03d}")
            if result is None:
                ops.append(Operation(seconds, 1, ok=False))
                continue
            dataset, report, top = result
            detail = {"hit": wave["label"] in [name for name, _ in top]}
            if j in sampled:
                detail["row"] = (wave["path"], dataset.feature_names, dataset.matrix[0].tolist())
            ops.append(Operation(seconds, 1, report.raw, report.final, detail=detail))
        return ops

    def check(self, ops: list[Operation]) -> list[str]:
        problems: list[str] = []
        for op in ops:
            if "row" in op.detail:
                path, names, row = op.detail.pop("row")
                problems += _oracle_problems(f"triage {path}", path, self.cfg.tick_cap, names, row)
        return problems

    def check_run(self, ops: list[Operation]) -> list[str]:
        hits = sum(op.detail["hit"] for op in ops if op.ok)
        done = sum(op.ok for op in ops)
        if done and hits < 0.98 * done:
            return [f"true module in the top {TOP_K} for {hits} of {done} triages (< 98%)"]
        return []


class ReduceWide(Workload):
    """``ranking.reduce_signals`` on a wide synthetic feature table."""

    HOT = "big0_sig0000"

    @staticmethod
    def setup(root: Path, seed: int, size: dict):
        rng = np.random.default_rng(seed)
        big = [f"big{k}" for k in range(size["big_modules"])]
        modules = ["lone_mod"] + big
        n = size["signals"]
        signals = ["lone_sig"] + [f"{big[k % len(big)]}_sig{k // len(big):04d}" for k in range(n - 1)]
        coverage = {"lone_sig": "lone_mod"}
        coverage.update({s: s.split("_")[0] for s in signals[1:]})
        labels = [m for m in modules for _ in range(size["rows_per_class"])]
        X = rng.normal(size=(len(labels), n))
        X[:, 0] = 0.0  # the lone module's only signal: constant, zero gain
        hot = signals.index(ReduceWide.HOT)
        X[:, hot] = [modules.index(label) * 10.0 + rng.normal(0.0, 0.3) for label in labels]
        table = extract.Dataset(
            feature_names=[f"{s}__mean" for s in signals],
            matrix=X,
            labels=labels,
            scenario_ids=[f"sc{i:04d}" for i in range(len(labels))],
        )
        with open(root / "table.csv", "w", encoding="utf-8") as handle:
            extract.write_dataset_csv(table, handle)
        (root / "coverage.json").write_text(json.dumps({"modules": modules, "coverage": coverage}))

    def __init__(self, root: Path, seed: int, size: dict):
        self.root, self.seed, self.size = root, seed, size
        self.min_rounds = size["min_rounds"]

    def load(self):
        with open(self.root / "table.csv", encoding="utf-8") as handle:
            self.table = extract.read_dataset_csv(handle)
        doc = json.loads((self.root / "coverage.json").read_text())
        self.modules, self.coverage = doc["modules"], doc["coverage"]

    def reduce(self, table):
        return ranking.reduce_signals(
            table,
            self.coverage,
            keep_fraction=ranking.DEFAULT_KEEP_FRACTION,
            max_signals=self.size["max_signals"],
            targets=self.modules,
            seed=self.seed,
        )

    def warm_up(self):
        ranking.rank_signals(self.table.subset_signals(self.table.signal_names()[:10]), seed=self.seed)

    def run_round(self, index: int, mark_op) -> list[Operation]:
        mark_op(f"reduce-{index}")
        seconds, result = _timed(self.reduce, self.table)
        if result is None:
            return [Operation(seconds, len(self.table), ok=False)]
        raw = (self.root / "table.csv").stat().st_size
        reduced, history = result
        return [Operation(seconds, len(self.table), raw, detail={"reduced": reduced, "history": history})]

    def check(self, ops: list[Operation]) -> list[str]:
        problems: list[str] = []
        limit = self.size["max_signals"] + 1  # plus the pinned lone signal
        for op in [op for op in ops if op.ok]:
            reduced, history = op.detail.pop("reduced"), op.detail.pop("history")
            out = self.root / "reduced.csv"
            with open(out, "w", encoding="utf-8") as handle:
                extract.write_dataset_csv(reduced, handle)
            op.out_bytes = out.stat().st_size
            kept = reduced.signal_names()
            counts = [len(h.retained) for h in history]
            if len(counts) < 2 or any(a <= b for a, b in zip(counts, counts[1:])):
                problems.append(f"retained counts do not fall strictly over several passes: {counts}")
            if len(kept) > limit:
                problems.append(f"{len(kept)} signals kept, limit {limit}")
            for h in history:
                covered = {self.coverage[s] for s in h.retained}
                if covered != set(self.modules):
                    problems.append(f"pass {h.iteration} covers {sorted(covered)}")
                if h.retained[0] != self.HOT:
                    problems.append(f"pass {h.iteration} ranks {h.retained[0]} first, not {self.HOT}")
            if self.HOT not in kept:
                problems.append(f"planted signal {self.HOT} dropped")
        return problems


WORKLOADS = {
    "pipeline-corpus": PipelineCorpus,
    "triage-long": TriageLong,
    "reduce-wide": ReduceWide,
}
