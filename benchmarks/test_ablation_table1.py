"""Ablations on the Table-1 modelling choices (DESIGN.md §5, items 1/2/6).

Shows how each choice moves the discovery-time table, and guards the
directions the Bluetooth timing arithmetic predicts.
"""

from __future__ import annotations

from conftest import save_result

from repro.experiments.sweep import (
    sweep_table1_backoff_reentry,
    sweep_table1_phase_mode,
    sweep_table1_scan_interleaving,
)


def test_ablation_phase_mode():
    sweep = sweep_table1_phase_mode(trials=300)
    save_result("ablation_table1_phase_mode", sweep.render())
    fixed = sweep.row("fixed")
    sequence = sweep.row("sequence")
    # Both modes preserve the headline shape: same < mixed < different.
    for row in (fixed, sequence):
        assert row.values[0] < row.values[2] < row.values[1]
    # The walking phase leaks train membership across a trial, which can
    # only blur the classification: the same-train mean rises.
    assert sequence.values[0] >= fixed.values[0] - 0.15


def test_ablation_backoff_reentry():
    sweep = sweep_table1_backoff_reentry(trials=300)
    save_result("ablation_table1_backoff_reentry", sweep.render())
    immediate = sweep.row("immediate")
    next_window = sweep.row("next_window")
    # Waiting for the next scheduled scan window after the backoff adds
    # up to a full 2.56 s interval to every discovery.
    assert next_window.values[0] > immediate.values[0] + 0.5
    assert next_window.values[1] > immediate.values[1] + 0.5


def test_ablation_scan_interleaving():
    sweep = sweep_table1_scan_interleaving(trials=300)
    save_result("ablation_table1_scan_interleaving", sweep.render())
    interleaved = sweep.row("inquiry+page scan (paper)")
    pure = sweep.row("inquiry scan only")
    # Halving the inquiry-scan rate (to make room for page scan) costs
    # about half a scan interval on the same-train mean.
    assert interleaved.values[0] > pure.values[0] + 0.3
    # The paper's own observation: an interleaved slave is still "close
    # to the results obtained in the case in which the slave is
    # continuously listening" — within roughly a second.
    assert interleaved.values[0] - pure.values[0] < 1.5
