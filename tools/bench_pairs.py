#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs.

    python3 tools/bench_pairs.py --parent REF --pr N --workload NAME --seeds 101-110 \\
        [--workload NAME --seeds ...]

The parent is exported with ``git archive REF | tar -x`` into a temporary
directory, so the checkout is never touched; the change is this checkout's
working tree. For every seed, both sides run
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` from
their own tree, with T the ``run_seconds`` of ``BENCHMARK.json``, and the
side that runs first alternates from seed to seed.

``BENCH_<N>.json`` at the repository root holds the last JSON line of
every run and, per workload and end-to-end metric, each side's median and
quartiles and the change's wins out of all pairs (ties count for
neither). A gain is claimable when the change wins at least nine tenths of
the pairs and the medians differ, in the better direction, by more than
the parent's interquartile range. The runs of a metric are steady when
each side's interquartile range is at most the metric's ``bound`` in
``BENCHMARK.json`` times the parent's median; a metric that is not steady
cannot show a change either way.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def parse_seeds(spec: str) -> list[int]:
    """``101-110`` or ``5,7,9`` (or a mix) -> a list of seeds."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def export_tree(ref: str, dest: Path) -> str:
    """Write the files of ``ref`` under ``dest``; return its full hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its exit code and last JSON line (None if absent)."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    result = None
    for line in reversed(proc.stdout.splitlines()):
        if line.strip():
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                pass
            break
    return {"exit_code": proc.returncode, "result": result}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0] if values else None
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values) if values else None, "q1": q1, "q3": q3}


def failures(pairs: list[dict], side: str) -> dict:
    """Failed operations out of those attempted, and runs that did not pass."""
    results = [pair[side]["result"] or {} for pair in pairs]
    return {
        "failed": sum(r.get("failed", 0) for r in results),
        "attempted": sum(r.get("attempted", 0) for r in results),
        "runs_not_passed": sum(pair[side]["exit_code"] != 0 for pair in pairs),
    }


def summarize(pairs: list[dict], directions: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per metric: both sides' medians and quartiles, the change's wins and
    whether both sides' runs are steady."""
    out = {}
    for name, better in directions.items():
        both = []
        for pair in pairs:
            sides = [
                (pair[s]["result"] or {}).get("metrics", {}).get(name, {}).get("value")
                for s in ("parent", "change")
            ]
            if None not in sides:
                both.append(sides)
        if not both:
            continue
        parent = [p for p, _ in both]
        change = [c for _, c in both]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in both)
        ps, cs = spread(parent), spread(change)
        gap = sign * (cs["median"] - ps["median"])
        spread_limit = bounds[name] * abs(ps["median"])
        out[name] = {
            "better": better,
            "parent": ps,
            "change": cs,
            "change_wins": wins,
            "pairs": len(both),
            "median_change_pct": (
                100.0 * (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else None
            ),
            "gain_claimable": wins >= WIN_SHARE * len(pairs) and gap > ps["q3"] - ps["q1"],
            "spread_limit": spread_limit,
            "steady": all(side["q3"] - side["q1"] <= spread_limit for side in (ps, cs)),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", action="append", required=True, help="one per --workload")
    args = parser.parse_args(argv)
    if len(args.seeds) != len(args.workload):
        parser.error("give one --seeds per --workload")
    out = ROOT / f"BENCH_{args.pr}.json"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        parent_sha = export_tree(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        doc = {
            "parent": parent_sha,
            "change": "working tree of " + subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            ).stdout.strip(),
            "command": "python3 bench/run.py --workload W --seed S --seconds "
            f"{seconds:g} --trace 0",
            "machine": {
                # the workloads size their worker pools from the affinity
                "cpus": {"cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))},
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "rule": f"gain claimable when the change wins >= {WIN_SHARE:.0%} of pairs "
            "and the median gap exceeds the parent's interquartile range; steady when "
            "each side's interquartile range is at most bound x the parent's median",
            "workloads": {},
        }
        index = 0
        for workload, seed_spec in zip(args.workload, args.seeds):
            pairs = []
            for seed in parse_seeds(seed_spec):
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                index += 1
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, seed, seconds)
                    exit_code = pair[side]["exit_code"]
                    print(f"{workload} seed {seed} {side}: exit {exit_code}", file=sys.stderr)
                pairs.append(pair)
                doc["workloads"][workload] = {
                    "failures": {side: failures(pairs, side) for side in trees},
                    "metrics": summarize(pairs, directions, bounds),
                    "runs": pairs,
                }
                out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
