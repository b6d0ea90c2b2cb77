#!/usr/bin/env python3
"""wavetriage benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|smoke]

Sets the workload up several times from the seed (the median is
``setup_s``), then starts a fresh process that loads the inputs, runs one
untimed warm-up and timed rounds for about S seconds, and checks every
output. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.
Exit code 0 means every check passed; 1 means a check failed; 2 means the
source tree was not found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up runs at least this many times, and more (up to the cap) while the
# repetitions total less than SETUP_MIN_SECONDS, so that a set-up of a few
# milliseconds still gives a steady median.
SETUP_REPEATS = {"full": 3, "smoke": 1}
SETUP_MIN_SECONDS = {"full": 1.0, "smoke": 0.0}
SETUP_MAX_REPEATS = 25
# p90 of at least 100 triages leaves at least 10 beyond it
TAIL_MIN_SAMPLES = 100
CHILD_DEADLINE_S = 170.0


def prepare_environment():
    """Import wavetriage from this checkout's ``src``, never from elsewhere,
    with single-threaded BLAS and no ``WAVETRIAGE_*`` overrides. ``src`` goes
    on ``PYTHONPATH`` too, because the replay simulator runs as
    ``python -m wavetriage.replay_sim`` in a subprocess."""
    if not (SRC / "wavetriage" / "__init__.py").is_file():
        print(f"benchmark: no source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("WAVETRIAGE_")]:
        del os.environ[var]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))
    import wavetriage

    if Path(wavetriage.__file__).resolve().parent != SRC / "wavetriage":
        print(f"benchmark: wavetriage imported from {wavetriage.__file__}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SETUP_REPEATS), default="full")
    parser.add_argument("--phase", choices=("all", "measure"), default="all", help=argparse.SUPPRESS)
    parser.add_argument("--work", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def with_units(values: dict[str, float], kind: str) -> dict[str, dict]:
    units = declared_metrics(kind)
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------------
# Measuring process

def measure(args) -> dict:
    import tracing
    import workloads

    size = workloads.SIZES[args.size][args.workload]
    workload = workloads.WORKLOADS[args.workload](Path(args.work), args.seed, size)
    tracer = None
    if args.trace:
        sink = Path(args.work) / "spans"
        sink.mkdir()
        tracer = tracing.Tracer(sink)
        tracing.install_layers(tracer)
        tracer.op = "load"
    workload.load()
    if tracer:
        tracer.uninstall()
    workload.warm_up()

    def mark_op(name: str):
        if tracer:
            tracer.op = name

    # with tracing on, odd rounds are traced and even rounds are not, so the
    # run measures its own tracing overhead
    min_rounds = max(workload.min_rounds, 2 if tracer else 1)
    ops: list = []
    round_seconds: dict[bool, list[float]] = {False: [], True: []}
    traced_ops = 0
    problems: list[str] = []
    timed = 0.0
    index = 0
    while index < min_rounds or timed < args.seconds:
        traced = bool(tracer) and index % 2 == 1
        if traced:
            tracing.install_layers(tracer)
        try:
            round_ops = workload.run_round(index, mark_op)
        finally:
            if traced:
                tracer.uninstall()
        took = sum(op.seconds for op in round_ops)
        timed += took
        round_seconds[traced].append(took)
        traced_ops += len(round_ops) if traced else 0
        problems += workload.check(round_ops)
        ops += round_ops
        index += 1
    problems += workload.check_run(ops)

    done = [op for op in ops if op.ok]
    if not done:
        problems.append("no operation completed")
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "problems": problems,
        "metrics": {},
    }
    if not done:
        return result
    if tracer:
        tracer.collect_worker_spans()
        untraced = statistics.median(round_seconds[False])
        overhead = 100.0 * (statistics.median(round_seconds[True]) - untraced) / untraced
        result.update(spans=tracer.spans, traced_ops=traced_ops, overhead_pct=overhead)
        return result

    latencies = [1e3 * op.seconds for op in done] if workload.per_op_latency else [
        1e3 * s for s in round_seconds[False]
    ]
    if len(latencies) >= TAIL_MIN_SAMPLES:
        tail = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    else:
        tail = max(latencies)
    result["metrics"] = {
        "wall_s": statistics.median(round_seconds[False]),
        "waveforms_per_s": sum(op.waveforms for op in done) / sum(op.seconds for op in done),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "compression_ratio": sum(op.raw_bytes for op in done) / sum(op.out_bytes for op in done),
        "peak_rss_mb": peak_rss_mb(),
    }
    return result


# ---------------------------------------------------------------------------
# Parent process

def run(args) -> int:
    import tracing
    import workloads

    size = workloads.SIZES[args.size][args.workload]
    spec = workloads.WORKLOADS[args.workload]
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    started = time.perf_counter()
    try:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install_setup_layers(tracer)
            tracer.op = "setup"
        setup_times: list[float] = []
        while len(setup_times) < SETUP_REPEATS[args.size] or (
            sum(setup_times) < SETUP_MIN_SECONDS[args.size] and len(setup_times) < SETUP_MAX_REPEATS
        ):
            if setup_times:
                shutil.rmtree(target)
            target = work / f"setup{len(setup_times)}"
            target.mkdir(parents=True)
            t0 = time.perf_counter()
            spec.setup(target, args.seed, size)
            setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()

        child_args = [
            sys.executable, str(Path(__file__).resolve()), "--phase", "measure",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size, "--work", str(target),
        ]
        deadline = max(10.0, CHILD_DEADLINE_S - (time.perf_counter() - started))
        # a process group of its own, so that on a timeout its simulator
        # and pool processes are stopped with it
        proc = subprocess.Popen(child_args, stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=deadline)
        except BaseException as exc:  # a timeout or an interrupt: stop the group
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            print(f"benchmark: measuring process stopped after {deadline:.0f} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"benchmark: measuring process exited with {proc.returncode}", file=sys.stderr)
            return 1
        child = json.loads(stdout.strip().splitlines()[-1])
        for problem in child["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)

        if not child["attempted"] - child["failed"]:
            metrics = {}
        elif args.trace:
            spans = tracer.spans + child["spans"]
            metrics = with_units(
                tracing.layer_metrics(spans, child["traced_ops"], child["overhead_pct"]), "per_layer"
            )
            traces = OUT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            (traces / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
        else:
            metrics = with_units(
                {"setup_s": statistics.median(setup_times), **child["metrics"]}, "end_to_end"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0 if child["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.phase == "measure":
        print(json.dumps(measure(args)))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
