"""Benchmark `section5`: regenerates the scheduling-policy numbers of §5.

Paper reference: a 3.84 s inquiry window discovers ≈95 % of 20 slaves;
a walking user crosses the 20 m piconet in ≈15.4 s; the tracking load is
≈24 % of the operational cycle.

The paper's 95 % is an analytical projection (50 % same-train fully
discovered + 90 % of the other train) that ignores response contention;
the full simulation with FHS collisions and receiver capture lands in
the high 80s, and the contention-free ablation
(`test_ablation_figure2.py`) brackets it from above at ≈99 %.
"""

from __future__ import annotations

from conftest import save_result

from repro.experiments.duty_cycle import (
    PAPER_REFERENCE,
    Section5Config,
    run_section5,
)


def _run_full():
    result = run_section5(Section5Config(replications=100))
    save_result("section5_duty_cycle", result.render())
    return result


def test_section5_reproduction():
    result = _run_full()

    # Crossing time: 20 m / 1.3 m/s — matches to three digits.
    assert abs(result.crossing_seconds - PAPER_REFERENCE["crossing_seconds"]) < 0.05

    # Tracking load ≈ 24 %.
    assert 0.23 <= result.tracking_load <= 0.26

    # Discovery fraction: clearly above the one-train bound (~50 %+ε)
    # and within 15 % of the paper's analytic 95 %.
    fraction = result.discovered_fraction
    assert 0.80 <= fraction <= 1.0
    assert abs(fraction - PAPER_REFERENCE["discovered_fraction"]) < 0.15

    # Statistical quality: the Wilson interval is tight at n = 2000.
    low, high = result.discovered_ci95
    assert high - low < 0.05
