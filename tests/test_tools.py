"""The statistics of ``tools/bench_pairs.py``: seed lists, quartiles, and the
per-metric summary that decides whether a benchmark shows a gain; and the
line comparison of ``tools/output_hashes.py --check``. No benchmark or
pipeline runs here."""

import importlib.util
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # output_hashes imports bench_pairs by name
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")
output_hashes = _load("output_hashes")

DIRECTIONS = {"wall_s": "lower", "waveforms_per_s": "higher"}
BOUNDS = {"wall_s": 0.25, "waveforms_per_s": 0.25}


def side(**values):
    return {"exit_code": 0, "result": {"metrics": {k: {"value": v} for k, v in values.items()}}}


def pairs_of(parent, change, name="wall_s"):
    return [{"parent": side(**{name: p}), "change": side(**{name: c})} for p, c in zip(parent, change)]


PARENT = [2.0, 2.1, 1.9, 2.05, 1.95, 2.0, 2.02, 1.98, 2.1, 1.9]


def test_parse_seeds_mixes_ranges_and_single_seeds():
    assert bench_pairs.parse_seeds("101-103,7") == [101, 102, 103, 7]
    assert bench_pairs.parse_seeds("5") == [5]


def test_spread_of_one_value_and_of_several():
    assert bench_pairs.spread([3.5]) == {"median": 3.5, "q1": 3.5, "q3": 3.5}
    assert bench_pairs.spread([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}


def test_a_clear_gain_is_claimable():
    change = [p - 0.4 for p in PARENT]
    change[3] = PARENT[3] + 0.01  # one loss: 9 of 10 wins is enough
    out = bench_pairs.summarize(pairs_of(PARENT, change), DIRECTIONS, BOUNDS)["wall_s"]
    assert out["better"] == "lower"
    assert out["change_wins"] == 9 and out["pairs"] == 10
    assert out["median_change_pct"] < 0
    assert out["gain_claimable"] and out["steady"]


def test_higher_is_better_counts_wins_upwards():
    change = [p + 1.0 for p in PARENT]
    up = bench_pairs.summarize(pairs_of(PARENT, change, "waveforms_per_s"), DIRECTIONS, BOUNDS)
    assert up["waveforms_per_s"]["change_wins"] == 10
    assert up["waveforms_per_s"]["gain_claimable"]
    down = bench_pairs.summarize(pairs_of(PARENT, change), DIRECTIONS, BOUNDS)
    assert down["wall_s"]["change_wins"] == 0
    assert not down["wall_s"]["gain_claimable"]


def test_a_gain_needs_nine_tenths_of_the_pairs():
    change = [p - 0.4 for p in PARENT]
    change[0] = change[1] = 5.0
    out = bench_pairs.summarize(pairs_of(PARENT, change), DIRECTIONS, BOUNDS)["wall_s"]
    assert out["change_wins"] == 8
    assert not out["gain_claimable"]


def test_a_gain_needs_a_gap_wider_than_the_parents_interquartile_range():
    q1, q3 = bench_pairs.spread(PARENT)["q1"], bench_pairs.spread(PARENT)["q3"]
    narrow = [p - 0.9 * (q3 - q1) for p in PARENT]
    out = bench_pairs.summarize(pairs_of(PARENT, narrow), DIRECTIONS, BOUNDS)["wall_s"]
    assert out["change_wins"] == 10
    assert not out["gain_claimable"]
    wide = [p - 1.1 * (q3 - q1) for p in PARENT]
    assert bench_pairs.summarize(pairs_of(PARENT, wide), DIRECTIONS, BOUNDS)["wall_s"]["gain_claimable"]


@pytest.mark.parametrize("noisy", ["parent", "change"])
def test_steady_bounds_each_sides_interquartile_range(noisy):
    wild = [1.0, 3.0, 1.2, 2.8, 1.1, 2.9, 1.0, 3.0, 1.2, 2.8]
    parent, change = (wild, PARENT) if noisy == "parent" else (PARENT, wild)
    out = bench_pairs.summarize(pairs_of(parent, change), DIRECTIONS, BOUNDS)["wall_s"]
    assert out["spread_limit"] == pytest.approx(0.25 * bench_pairs.spread(parent)["median"])
    assert not out["steady"]
    calm = bench_pairs.summarize(pairs_of(PARENT, PARENT), DIRECTIONS, BOUNDS)["wall_s"]
    assert calm["steady"] and calm["change_wins"] == 0


def test_a_pair_without_a_result_on_one_side_is_skipped():
    pairs = pairs_of(PARENT, [p - 0.4 for p in PARENT])
    pairs[4]["change"] = {"exit_code": 1, "result": None}
    out = bench_pairs.summarize(pairs, DIRECTIONS, BOUNDS)
    assert out["wall_s"]["pairs"] == 9
    assert out["wall_s"]["parent"] == bench_pairs.spread(PARENT[:4] + PARENT[5:])
    assert "waveforms_per_s" not in out  # no pair reports it
    assert bench_pairs.failures(pairs, "change")["runs_not_passed"] == 1


def test_output_hash_listings_compare_by_output_name():
    ref = ["aa  train.csv", "bb  metrics.json", "cc  model_gbt.bin"]
    assert output_hashes.differing_lines(ref, list(ref)) == []
    mine = ["aa  train.csv", "bx  metrics.json", "dd  model_knn.bin"]
    assert output_hashes.differing_lines(ref, mine) == [
        "ref : bb  metrics.json",
        "this: bx  metrics.json",
        "ref : cc  model_gbt.bin",
        "this: dd  model_knn.bin",
    ]
