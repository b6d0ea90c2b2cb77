"""Dispatcher/worker machinery and the parallel data-processing pipeline.

A dispatcher assigns each bug scenario to a worker that runs the configured
simulator command into an isolated scratch directory (retrying crashed
runs); the collected failing waveforms then flow through the extraction
pipeline - sample, standardize, summarize - in parallel, and an ordered
merge assembles the final dataset. Results are canonicalized by scenario id
so the output bytes are identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

from .extract import (
    DEFAULT_STATS,
    DEFAULT_TICK_CAP,
    Dataset,
    ExtractError,
    FeatureRow,
    StatSet,
    WaveWindow,
    assemble,
    dataset_csv_sizes,
    rough_csv_size,
    sample_window,
    standardize,
    summarize,
    write_dataset_csv,  # noqa: F401 - bench/tracing.py patches this name here
    write_rough_csv,
)
from .ranking import DEFAULT_KEEP_FRACTION, DEFAULT_MAX_SIGNALS
from .rtl import DesignSources, ModuleLookupTable, scan_sources, signals_for_targets
from .selection import SelectionError, prune
from .sysio import rendered, replace_text, run_template
from .vcd import VcdError, parse_header, list_full_names, stream_changes


STDERR_TAIL_BYTES = 2048


class OrchestrateError(Exception):
    pass


class SimulatorNotFound(OrchestrateError):
    pass


class ScratchCollision(OrchestrateError):
    pass


class NoFailingWaveforms(OrchestrateError):
    pass


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


# a PipelineConfig field's annotation (``X | None`` is checked as ``X``: a
# null stands for the default) -> the JSON type its value must have
_JSON_TYPES = {
    "str": ("a string", lambda value: isinstance(value, str)),
    "int": ("an integer", lambda value: type(value) is int),
    "float": ("a number", lambda value: type(value) in (int, float)),
    "bool": ("true or false", lambda value: type(value) is bool),
    "dict": ("an object", lambda value: isinstance(value, dict)),
    "list[str]": ("a list of strings", _strings),
    "tuple[str, ...]": ("a list of strings", _strings),
}


@dataclass
class PipelineConfig:
    design_dir: str
    targets: list[str]
    top_module: str
    dut_root: str | None = None
    simulator: str = ""
    sim_timeout: float = 120.0
    tick_cap: int = DEFAULT_TICK_CAP
    worker_count: int = 1
    train_per_module: int = 0
    test_per_module: int = 0
    reseed_count: int = 1
    retry_limit: int = 2
    seed: int = 0
    stats: tuple[str, ...] = DEFAULT_STATS.names
    keep_fraction: float = DEFAULT_KEEP_FRACTION
    max_signals: int = DEFAULT_MAX_SIGNALS
    reduce: bool = False
    models: tuple[str, ...] = ("gbt", "random_forest", "knn")
    keep_rough: bool = False
    out_dir: str = "out"
    injection: dict | None = None

    def __post_init__(self):
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.reseed_count < 1:
            raise ValueError("reseed_count must be >= 1")

    @classmethod
    def from_json_file(cls, path) -> "PipelineConfig":
        """The config in a JSON file, where ``null`` stands for a key's
        default; an unknown key, a missing required one or a value of the
        wrong JSON type raises ValueError naming the key and the file."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except ValueError as exc:  # json.JSONDecodeError among them
                raise ValueError(f"{path}: {exc}") from None
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: a pipeline config is a JSON object")
        doc = {key: value for key, value in doc.items() if value is not None}
        known = {key.name: key for key in fields(cls)}
        unknown = sorted(set(doc) - set(known))
        if unknown:
            raise ValueError(
                f"{path}: unknown config key {unknown[0]!r}; known keys: {', '.join(known)}"
            )
        missing = [name for name, key in known.items() if key.default is MISSING and name not in doc]
        if missing:
            raise ValueError(f"{path}: config key {missing[0]!r} is missing")
        for name, value in doc.items():
            expected, fits = _JSON_TYPES[known[name].type.removesuffix(" | None")]
            if not fits(value):
                raise ValueError(
                    f"{path}: config key {name!r} must be {expected}, not {json.dumps(value)}"
                )
        doc.setdefault("stats", list(DEFAULT_STATS.names))
        doc["stats"] = tuple(doc["stats"])
        if "models" in doc:
            doc["models"] = tuple(doc["models"])
        return cls(**doc)

    def require_simulator(self) -> None:
        """Raise ValueError when no simulator command is configured."""
        if not self.simulator.strip():
            raise ValueError("config key 'simulator' is empty: no simulator command to run")


@dataclass
class ScenarioJob:
    scenario_id: str
    label: str
    seed: int
    scratch_dir: Path
    reseed_count: int = 1


@dataclass
class JobResult:
    scenario_id: str
    label: str
    status: str  # "done" or "failed"
    vcd_paths: list[str]
    wall_time: float
    attempts: int
    # outcome of the last simulator attempt
    returncode: int | None = None  # None when it timed out
    timed_out: bool = False
    stderr_tail: str = ""  # last STDERR_TAIL_BYTES of its stderr

    def to_dict(self) -> dict:
        return asdict(self)


def scenario_jobs(cfg: PipelineConfig, scratch_root, split: str, per_module: int) -> list[ScenarioJob]:
    """Jobs for one split; ids follow the ``{split}-{module}-{index}`` scheme
    shared with the fixture manifests, keeping train/test ranges disjoint."""
    jobs = []
    for module in cfg.targets:
        for i in range(per_module):
            scenario_id = f"{split}-{module}-{i:04d}"
            digest = hashlib.sha256(
                f"{cfg.seed}\x1f{split}\x1f{module}\x1f{i}".encode()
            ).digest()
            jobs.append(
                ScenarioJob(
                    scenario_id=scenario_id,
                    label=module,
                    seed=int.from_bytes(digest[:4], "big"),
                    scratch_dir=Path(scratch_root) / scenario_id,
                    reseed_count=cfg.reseed_count,
                )
            )
    return jobs


def _run_one_job(job: ScenarioJob, cfg: PipelineConfig) -> JobResult:
    start = time.perf_counter()
    job.scratch_dir.mkdir(parents=True, exist_ok=True)
    vcd_paths: list[str] = []
    attempts = 0
    returncode, timed_out, stderr = None, False, b""

    def result(status: str) -> JobResult:
        return JobResult(
            scenario_id=job.scenario_id,
            label=job.label,
            status=status,
            vcd_paths=vcd_paths,
            wall_time=time.perf_counter() - start,
            attempts=attempts,
            returncode=returncode,
            timed_out=timed_out,
            stderr_tail=stderr[-STDERR_TAIL_BYTES:].decode("utf-8", errors="replace"),
        )

    for reseed in range(job.reseed_count):
        out = job.scratch_dir / f"wave_{reseed:02d}.vcd"
        for _ in range(cfg.retry_limit + 1):
            attempts += 1
            try:
                returncode, stderr = run_template(
                    cfg.simulator,
                    cfg.sim_timeout,
                    design_dir=cfg.design_dir,
                    scenario_id=job.scenario_id,
                    seed=job.seed + reseed,
                    vcd_out=str(out),
                )
            except FileNotFoundError as exc:
                raise SimulatorNotFound(f"simulator command not found: {exc.filename!r}") from exc
            timed_out = returncode is None
            if returncode == 0 and out.exists():
                break
        else:
            return result("failed")
        vcd_paths.append(str(out))
    return result("done")


def dispatch(jobs: Sequence[ScenarioJob], cfg: PipelineConfig) -> list[JobResult]:
    """Run every job exactly once to a terminal status.

    Workers pull jobs concurrently (the simulator runs as a subprocess, so
    threads give full process-level parallelism); failed runs retry up to
    the configured limit. Results come back ordered by scenario id, making
    the outcome independent of scheduling."""
    cfg.require_simulator()
    seen: set[str] = set()
    for job in jobs:
        key = str(job.scratch_dir)
        if key in seen:
            raise ScratchCollision(f"two jobs share scratch dir {key}")
        seen.add(key)

    if cfg.worker_count == 1:
        results = [_run_one_job(job, cfg) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=cfg.worker_count) as pool:
            results = list(pool.map(lambda j: _run_one_job(j, cfg), jobs))
    return sorted(results, key=lambda r: r.scenario_id)


# ---------------------------------------------------------------------------
# Data-processing pipeline

@dataclass
class StageSizeReport:
    """Byte counts per pipeline stage: raw waveforms, rough per-tick CSV,
    per-scenario compressed CSV, and the final dataset CSV."""

    raw: int = 0
    rough: int = 0
    compressed: int = 0
    final: int = 0
    tick_capped: list[str] = field(default_factory=list)

    def merge(self, other: "StageSizeReport") -> None:
        """Add ``other``'s counts to this report and append its tick-capped ids."""
        self.raw += other.raw
        self.rough += other.rough
        self.compressed += other.compressed
        self.final += other.final
        self.tick_capped += other.tick_capped

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def read_window(vcd_path, select, tick_cap: int, label: str, scenario_id: str) -> WaveWindow:
    """The standardized window of one waveform.

    ``select`` maps the waveform's parsed header to the
    :class:`~wavetriage.selection.SelectionReport` of the signals to sample.
    An error in the file or in its selection keeps its class and names the
    path and the scenario.
    """
    try:
        with open(vcd_path, "rb") as stream:
            selection = select(parse_header(stream))
            window = sample_window(
                stream_changes(stream),
                selection,
                tick_cap=tick_cap,
                label=label,
                scenario_id=scenario_id,
            )
        return standardize(window, tick_cap)
    except (VcdError, ExtractError, SelectionError) as exc:
        raise type(exc)(f"{vcd_path} (scenario {scenario_id}): {exc}") from exc


def _process_waveform(payload) -> tuple[FeatureRow, int, bool]:
    """``(row, rough CSV bytes, tick-capped)`` of one waveform."""
    (
        vcd_path,
        label,
        scenario_id,
        target_signals,
        instances,
        top_module,
        dut_root,
        tick_cap,
        stat_names,
        rough_out,
    ) = payload

    def select(tree):
        return prune(
            list_full_names(tree), target_signals, instances, top_module=top_module, dut_root=dut_root
        )

    window = read_window(vcd_path, select, tick_cap, label, scenario_id)
    if rough_out is not None:
        replace_text(rough_out, rendered(write_rough_csv, window))
    row = summarize(window, StatSet(tuple(stat_names)))
    return row, rough_csv_size(window), window.available_ticks >= tick_cap


_last_design: tuple[str, ModuleLookupTable] | None = None


def design_table(design_dir) -> ModuleLookupTable:
    """Lookup table of the ``*.sv`` sources in ``design_dir``.

    The sources are read on every call, but scanned only when they differ
    from the last call's: the table is kept under the sha256 of every path
    and its text, so an edited source, even one with the same size and
    mtime, is scanned again. Callers must not modify the returned table.
    """
    global _last_design
    sources = DesignSources.from_paths(sorted(Path(design_dir).glob("*.sv")))
    digest = hashlib.sha256()
    for path, text in sources.files:
        for part in (path.encode(), text.encode()):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    key = digest.hexdigest()
    if _last_design is None or _last_design[0] != key:
        _last_design = (key, scan_sources(sources))
    return _last_design[1]


def run_data_pipeline(
    done_jobs: Sequence[JobResult], cfg: PipelineConfig
) -> tuple[Dataset, StageSizeReport]:
    """Extract and compress every failing waveform of the done jobs.

    Per-waveform work runs in parallel across processes; the merge orders
    rows by (scenario id, reseed index) so the final CSV is byte-identical
    for any worker count.
    """
    work = []
    raw_bytes = 0
    for result in sorted(done_jobs, key=lambda r: r.scenario_id):
        if result.status != "done":
            continue
        for k, path in enumerate(result.vcd_paths):
            raw_bytes += Path(path).stat().st_size
            work.append((result, k, path))
    if not work:
        raise NoFailingWaveforms("no completed jobs with failing waveforms")

    table = design_table(cfg.design_dir)
    target_signals = {m: sorted(v) for m, v in signals_for_targets(table, cfg.targets).items()}

    rough_dir = None
    if cfg.keep_rough:
        rough_dir = Path(cfg.out_dir) / "rough"
        rough_dir.mkdir(parents=True, exist_ok=True)

    payloads = []
    for result, k, path in work:
        rough_out = (
            str(rough_dir / f"{result.scenario_id}_{k:02d}.csv") if rough_dir else None
        )
        payloads.append(
            (
                path,
                result.label,
                f"{result.scenario_id}#{k:02d}" if result.vcd_paths[1:] else result.scenario_id,
                target_signals,
                table.instances,
                cfg.top_module,
                cfg.dut_root,
                cfg.tick_cap,
                tuple(cfg.stats),
                rough_out,
            )
        )

    if cfg.worker_count == 1 or len(payloads) < 4:
        outputs = [_process_waveform(p) for p in payloads]
    else:
        # about four chunks per worker, so no worker idles while another
        # still holds a large share of the payloads
        chunksize = max(1, len(payloads) // (4 * cfg.worker_count))
        with ProcessPoolExecutor(max_workers=cfg.worker_count) as pool:
            outputs = list(pool.map(_process_waveform, payloads, chunksize=chunksize))

    report = StageSizeReport(raw=raw_bytes)
    rows = []
    for row, rough_bytes, capped in outputs:
        rows.append(row)
        report.rough += rough_bytes
        if capped:
            report.tick_capped.append(row.scenario_id)

    dataset = assemble(rows)
    # the per-scenario CSVs hold the same rows as the final CSV, and each
    # repeats its header
    header, row_sizes = dataset_csv_sizes(dataset)
    scenarios = {row.scenario_id.split("#")[0] for row in rows}
    report.final = header + sum(row_sizes)
    report.compressed = report.final + (len(scenarios) - 1) * header
    return dataset, report
