#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly on one commit.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]
                            [--seconds S] [--against PREVIOUS.json]

Each run is a fresh ``bench/run.py`` process with its own seed. For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, against the
metric's bound from BENCHMARK.json. It fails when a spread exceeds its
bound (``setup_s`` is shown but not gated: its bound limits how far its
median may move), when a run fails a check, or when the share of failed
operations differs between runs. With ``--against`` it also fails when a
median is worse than the earlier set's by more than the bound. The raw
values go to ``.bench_out/steady/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "exit": proc.returncode}
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old if old else 0.0
    return -change if better == "higher" else change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--against", default=None)
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    previous = json.loads(Path(args.against).read_text()) if args.against else None
    record = {"runs": {}, "summary": {}}
    failures = []
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            result = run_once(workload, seed, args.seconds)
            result["seed"], result["elapsed_s"] = seed, time.perf_counter() - start
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} in {result['elapsed_s']:.1f} s",
                  flush=True)
        record["runs"][workload] = runs
        if not all(r["correct"] and r["exit"] == 0 for r in runs):
            failures.append(f"{workload}: a run failed its checks")
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) > 1:
            failures.append(f"{workload}: failed-operation shares differ: {sorted(shares)}")

        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        summary = record["summary"][workload] = {}
        for name, metric in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                failures.append(f"{workload} {name}: fewer than two values")
                continue
            s = summary[name] = summarize(values)
            gated = name != "setup_s"
            flag = ""
            if gated and s["spread"] > metric["bound"]:
                flag = "  SPREAD > BOUND"
                failures.append(f"{workload} {name}: spread {s['spread']:.3f} > bound {metric['bound']}")
            elif gated and s["spread"] > metric["bound"] / 3:
                flag = "  (spread > bound/3)"
            if previous and name in previous["summary"].get(workload, {}):
                old = previous["summary"][workload][name]["median"]
                drift = worse_by(s["median"], old, metric["better"])
                flag += f"  vs earlier median {old:.6g}: {100 * drift:+.1f}% worse"
                if drift > metric["bound"]:
                    failures.append(f"{workload} {name}: median {100 * drift:.1f}% worse than the earlier set")
            print(f"  {name:<18} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>8.4f} {metric['bound']:>6}{flag}")
        print(flush=True)

    out_dir = ROOT / ".bench_out" / "steady"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(record, indent=2))
    print(f"raw values: {out}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("steady" if not failures else "NOT STEADY")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
