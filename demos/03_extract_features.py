"""Compress waveforms into fixed-size statistical feature rows.

One failing waveform becomes: last-N-ticks sample matrix (forward-filled),
length-standardized window (zeros prepended so the failure edge stays at
the final row), then one row of per-signal summary statistics. Rows from
many runs assemble into a single labeled CSV whose size is independent of
waveform length.
"""

import io
import sys
from collections import Counter

from wavetriage.extract import (
    StatSet,
    assemble,
    sample_window,
    standardize,
    summarize,
    write_dataset_csv,
)
from wavetriage.selection import SelectionReport
from wavetriage.vcd import ValueChange

selection = SelectionReport(
    selected=[("dut.acc", "!", 8, "alu"), ("dut.busy", '"', 1, "alu")],
    dropped_count=0,
    per_target_counts={"alu": 2},
)

# a counting register plus a busy flag; the dump has 6 distinct timestamps
changes = [
    ValueChange(0, "!", "0"), ValueChange(0, '"', "0"),
    ValueChange(5, "!", "101"), ValueChange(10, '"', "1"),
    ValueChange(15, "!", "1100"), ValueChange(20, "!", "10000"),
    ValueChange(25, '"', "0"),
]

window = sample_window(changes, selection, tick_cap=4, label="alu", scenario_id="run-0")
print("sampled window (last 4 of 6 ticks, forward-filled):")
for t, row in zip(window.tick_times, window.matrix):
    print(f"  t={t:<3} {row.tolist()}")

window = standardize(window, tick_cap=6)
print(f"\nstandardized to 6 rows (zeros prepended): first row {window.matrix[0].tolist()}")

stats = StatSet.parse("mean,std,min,max,q50")
row = summarize(window, stats)
print(f"\nfeature row ({len(row.features)} = 2 signals x {len(stats)} stats):")
for name, value in zip(row.feature_names, row.features):
    print(f"  {name:<20} {value:.4f}")

second = summarize(
    standardize(
        sample_window(changes[:4], selection, tick_cap=6, label="ctrl", scenario_id="run-1"),
        6,
    ),
    stats,
)
dataset = assemble([row, second])
print(f"\nassembled dataset: {dict(Counter(dataset.labels))}")
write_dataset_csv(dataset, sys.stdout)
