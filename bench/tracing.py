"""Span tracing around the calls into each wavetriage layer.

The tracer patches public functions (and the names other modules bound to
them) with wrappers that record one span per call: name, start, end,
parent span and the operation identifier the benchmark set. Spans stay in
memory and are written out when the run ends. Nothing here changes what a
call returns, so a traced run produces the same outputs as an untraced one.

Extraction worker processes inherit the wrappers when the pool forks them;
each worker appends the spans of one waveform to its own file in the sink
directory, and the measuring process merges those files at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

# Changes are pulled from the parser in chunks so that timing the parser
# costs one clock read per chunk, not one per value change.
_CHUNK = 4096


class Tracer:
    def __init__(self, sink_dir: Path | None = None):
        self.spans: list[dict] = []
        self.op = ""
        self.sink_dir = sink_dir
        self.pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        span_id = f"{os.getpid()}-{next(self._ids)}"
        record = {
            "id": span_id,
            "parent": stack[-1] if stack else None,
            "op": self.op,
            "name": name,
            "attrs": attrs,
        }
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_call=None):
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``on_call(attrs, args, kwargs, result)`` may add attributes (byte
        counts, node counts) to the span after the call returns.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        target = getattr(owner, attr)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = target(*args, **kwargs)
                if on_call is not None:
                    on_call(attrs, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def replace(self, owner, attr: str, new):
        """Put ``new`` in place of ``owner.attr`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap_worker_entry(self, owner, attr: str, name: str, on_call=None):
        """Like :meth:`wrap`, for a function that pool workers run: in a
        worker process the spans recorded during the call go to the sink."""
        self.wrap(owner, attr, name, on_call)
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def flushing(*args, **kwargs):
            mark = len(self.spans)
            try:
                return inner(*args, **kwargs)
            finally:
                if os.getpid() != self.pid and self.sink_dir is not None:
                    with open(self.sink_dir / f"spans-{os.getpid()}.jsonl", "a") as handle:
                        for record in self.spans[mark:]:
                            handle.write(json.dumps(record) + "\n")
                    del self.spans[mark:]

        setattr(owner, attr, flushing)

    def wrap_stream(self, owner, attr: str):
        """Time a change-stream generator factory chunk by chunk."""
        target = getattr(owner, attr)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            return TimedStream(target(*args, **kwargs))

        self.replace(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def collect_worker_spans(self):
        if self.sink_dir is None:
            return
        for path in sorted(self.sink_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                self.spans.extend(json.loads(line) for line in handle if line.strip())
            path.unlink()


class TimedStream:
    """Iterator over a change stream that records parse time and counts.

    ``ids`` (set by the window sampler's wrapper) are the selected id codes;
    changes of those ids are counted as useful, outside the timed pulls.
    """

    def __init__(self, inner):
        self.inner = inner
        self.seconds = 0.0
        self.changes = 0
        self.useful = 0
        self.ids: frozenset[str] | None = None

    def __iter__(self):
        clock = time.perf_counter
        while True:
            t0 = clock()
            chunk = list(islice(self.inner, _CHUNK))
            self.seconds += clock() - t0
            if not chunk:
                return
            self.changes += len(chunk)
            if self.ids is not None:
                ids = self.ids
                self.useful += sum(1 for change in chunk if change.id_code in ids)
            yield from chunk


class _CountingWriter:
    """Forwards writes and counts the characters formatted."""

    def __init__(self, out):
        self.out, self.chars = out, 0

    def write(self, text):
        self.chars += len(text)
        return self.out.write(text)


def install_setup_layers(tracer: Tracer):
    """Wrap the layers a workload's set-up calls: fixture generation and
    model fitting (extraction during set-up stays untraced)."""
    from wavetriage import fixtures, models

    tracer.wrap(models, "fit", "models.fit", _fit_counts)
    tracer.wrap(fixtures, "gen_failing_vcd", "fixtures.gen_failing_vcd", _gen_bytes)


def _fit_counts(attrs, args, kwargs, result):
    attrs["kind"] = result.kind
    if result.kind == "gbt":
        attrs["nodes"] = sum(len(tree.feature) for rnd in result.impl.trees for tree in rnd)
        cuts = result.impl.mapper.cuts
        attrs["features"] = len(cuts)
        attrs["splittable"] = sum(1 for c in cuts if len(c) > 0)


def _gen_bytes(attrs, args, kwargs, result):
    out = kwargs.get("out_path")
    attrs["bytes"] = os.path.getsize(out) if out is not None else len(result)


def install_layers(tracer: Tracer):
    """Wrap the public entry points of every measured layer."""
    from wavetriage import cli, extract, metrics, models, orchestrate, ranking, rtl

    def waveform_bytes(attrs, args, kwargs, result):
        attrs["bytes"] = os.path.getsize(args[0][0])

    def dispatch_counts(attrs, args, kwargs, result):
        attrs["jobs"] = len(result)
        attrs["attempts"] = sum(r.attempts for r in result)
        attrs["sim_s"] = sum(r.wall_time for r in result)

    def pipeline_counts(attrs, args, kwargs, result):
        attrs["waveforms"] = len(result[0])

    def predict_kind(attrs, args, kwargs, result):
        attrs["kind"] = args[0].kind

    def reduce_counts(attrs, args, kwargs, result):
        attrs["passes"] = len(result[1])

    sample_window = orchestrate.sample_window
    write_rough_csv = orchestrate.write_rough_csv

    @functools.wraps(sample_window)
    def traced_sample_window(changes, selection, *args, **kwargs):
        if isinstance(changes, TimedStream):
            changes.ids = selection.id_codes()
        with tracer.span("extract.sample_window") as attrs:
            window = sample_window(changes, selection, *args, **kwargs)
        if isinstance(changes, TimedStream):
            attrs.update(parse_s=changes.seconds, changes=changes.changes, useful=changes.useful)
        attrs.update(rows=int(window.matrix.shape[0]), timestamps=int(window.available_ticks))
        return window

    @functools.wraps(write_rough_csv)
    def traced_rough_csv(window, out):
        counter = _CountingWriter(out)
        with tracer.span("extract.rough_csv") as attrs:
            write_rough_csv(window, counter)
        attrs["chars"] = counter.chars

    tracer.replace(orchestrate, "sample_window", traced_sample_window)
    tracer.replace(orchestrate, "write_rough_csv", traced_rough_csv)
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(orchestrate, "dispatch", "orchestrate.dispatch", dispatch_counts)
    tracer.wrap(orchestrate, "run_data_pipeline", "orchestrate.run_data_pipeline", pipeline_counts)
    tracer.wrap_worker_entry(orchestrate, "_process_waveform", "orchestrate.waveform", waveform_bytes)
    tracer.wrap(orchestrate, "parse_header", "vcd.parse_header")
    tracer.wrap_stream(orchestrate, "stream_changes")
    tracer.wrap(orchestrate, "prune", "selection.prune")
    tracer.wrap(orchestrate, "summarize", "extract.summarize")
    tracer.wrap(orchestrate, "write_dataset_csv", "extract.dataset_csv")
    tracer.wrap(extract, "write_dataset_csv", "extract.dataset_csv")
    tracer.wrap(orchestrate, "scan_sources", "rtl.scan")
    tracer.wrap(rtl.DesignSources, "from_paths", "rtl.read_sources")
    tracer.wrap(models.ClassifierModel, "predict_proba", "models.predict_proba", predict_kind)
    tracer.wrap(models, "predict_topk", "models.predict_topk")
    tracer.wrap(models, "load_model", "models.load_model")
    tracer.wrap(metrics, "evaluate", "metrics.evaluate")
    tracer.wrap(ranking, "reduce_signals", "ranking.reduce_signals", reduce_counts)
    tracer.wrap(ranking, "rank_signals", "ranking.rank_signals")
    tracer.wrap(extract.Dataset, "subset_signals", "ranking.subset")
    install_setup_layers(tracer)


# ---------------------------------------------------------------------------
# Per-layer metrics from a list of spans

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[dict], operations: int, overhead_pct: float) -> dict[str, float]:
    """Per-layer figures; a layer the workload never calls reads 0.

    ``operations`` is the number of traced operations (pipeline runs,
    triages or reductions); per-operation totals divide by it.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return by_name.get(name, [])

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    windows = named("extract.sample_window")
    parse_s = sum(dur(s) for s in named("vcd.parse_header")) + attr_sum(
        "extract.sample_window", "parse_s"
    )
    changes = attr_sum("extract.sample_window", "changes")
    waveforms = named("orchestrate.waveform")
    pipelines = named("orchestrate.run_data_pipeline")
    pipeline_ids = {s["id"] for s in pipelines}
    rtl_s = sum(
        dur(s)
        for s in named("rtl.scan") + named("rtl.read_sources")
        if s["parent"] in pipeline_ids
    )
    dispatches = named("orchestrate.dispatch")
    jobs = attr_sum("orchestrate.dispatch", "jobs")
    attempts = attr_sum("orchestrate.dispatch", "attempts")

    fits = named("models.fit")
    rank_ids = {s["id"] for s in named("ranking.rank_signals")}
    gbt_fits = [s for s in fits if s["attrs"].get("kind") == "gbt"]
    model_gbt = [s for s in gbt_fits if s["parent"] not in rank_ids]
    rank_fits = [s for s in gbt_fits if s["parent"] in rank_ids]
    nodes = sum(s["attrs"]["nodes"] for s in gbt_fits)
    features = sum(s["attrs"]["features"] for s in gbt_fits)
    splittable = sum(s["attrs"]["splittable"] for s in gbt_fits)

    gens = named("fixtures.gen_failing_vcd")
    gen_s = sum(dur(s) for s in gens)

    cli_self = []
    for main in named("cli.main"):
        children = [s for s in spans if s["parent"] == main["id"]]
        cli_self.append(dur(main) - sum(dur(c) for c in children))

    window_self = [dur(s) - s["attrs"].get("parse_s", 0.0) for s in windows]
    return {
        "vcd.parse_mb_per_s": _ratio(sum(s["attrs"]["bytes"] for s in waveforms) / 1e6, parse_s),
        "vcd.changes_per_s": _ratio(changes, parse_s),
        "vcd.useful_change_share": _ratio(attr_sum("extract.sample_window", "useful"), changes),
        "rtl.scan_ms": 1e3 * _ratio(rtl_s, len(pipelines)),
        "selection.prune_ms": 1e3 * _mean(dur(s) for s in named("selection.prune")),
        "extract.sample_window_ms": 1e3 * _mean(window_self),
        "extract.window_row_share": _ratio(
            attr_sum("extract.sample_window", "rows"), attr_sum("extract.sample_window", "timestamps")
        ),
        "extract.rough_count_ms": 1e3 * _mean(dur(s) for s in named("extract.rough_csv")),
        "extract.rough_mb_formatted": _ratio(attr_sum("extract.rough_csv", "chars") / 1e6, len(waveforms)),
        "extract.summarize_ms": 1e3 * _mean(dur(s) for s in named("extract.summarize")),
        "extract.dataset_csv_ms": 1e3
        * _ratio(sum(dur(s) for s in named("extract.dataset_csv")), operations),
        "orchestrate.dispatch_ms_per_job": 1e3 * _ratio(sum(dur(s) for s in dispatches), jobs),
        "orchestrate.attempts_per_job": _ratio(attempts, jobs),
        "replay_sim.run_ms": 1e3 * _ratio(attr_sum("orchestrate.dispatch", "sim_s"), attempts),
        "orchestrate.extract_ms_per_waveform": 1e3
        * _ratio(sum(dur(s) for s in pipelines), attr_sum("orchestrate.run_data_pipeline", "waveforms")),
        "trees.gbt_fit_s": _mean(dur(s) for s in model_gbt),
        "trees.gbt_nodes": _ratio(nodes, len(gbt_fits)),
        "trees.gbt_us_per_node": 1e6 * _ratio(sum(dur(s) for s in gbt_fits), nodes),
        "trees.splittable_feature_share": _ratio(splittable, features),
        "trees.rf_fit_s": _mean(dur(s) for s in fits if s["attrs"].get("kind") == "random_forest"),
        "trees.rank_fit_s": _mean(dur(s) for s in rank_fits),
        "ranking.passes": _mean(s["attrs"]["passes"] for s in named("ranking.reduce_signals")),
        "ranking.pass_s": _mean(dur(s) for s in named("ranking.rank_signals")),
        "ranking.subset_ms": 1e3 * _mean(dur(s) for s in named("ranking.subset")),
        "models.gbt_predict_ms": 1e3
        * _mean(dur(s) for s in named("models.predict_proba") if s["attrs"].get("kind") == "gbt"),
        "models.load_ms": 1e3 * _mean(dur(s) for s in named("models.load_model")),
        "metrics.evaluate_ms": 1e3 * _mean(dur(s) for s in named("metrics.evaluate")),
        "fixtures.gen_ms_per_waveform": 1e3 * _ratio(gen_s, len(gens)),
        "fixtures.gen_mb_per_s": _ratio(sum(s["attrs"]["bytes"] for s in gens) / 1e6, gen_s),
        "cli.pipeline_self_s": _mean(cli_self),
        "trace.overhead_pct": overhead_pct,
    }
