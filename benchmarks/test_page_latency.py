"""Benchmark `page-latency`: connection setup on the slot-level pager.

Extension experiment for §3.2 (the paper measures only discovery).
Guards the physics the page machinery must produce:

* with a fresh clock estimate the master hits the slave's next
  page-scan window: mean latency well under one 1.28 s scan interval;
* staleness degrades gracefully — a scrambled estimate picks the wrong
  train ~50 % of the time and pays ~half a train dwell, never failing;
* everything connects within the 10.24 s HCI timeout.
"""

from __future__ import annotations

from conftest import save_result

from repro.experiments.page_latency import PageLatencyConfig, run_page_latency


def _run_full():
    result = run_page_latency(PageLatencyConfig(samples_per_case=300))
    save_result("page_latency", result.render())
    return result


def test_page_latency():
    result = _run_full()

    fresh = result.case_for(0.0)
    half_flip = result.case_for(8.5)
    full_flip = result.case_for(17.5)

    # Everything connects within the 10.24 s timeout.
    for case in result.cases:
        assert case.timeouts == 0

    # Fresh estimate: correct train prediction, fast rendezvous.
    assert fresh.wrong_train_fraction < 0.15
    assert fresh.latency.mean < 1.28

    # An 8-period shift flips the predicted train for ~half the phase
    # positions; a 17-period shift for nearly all of them.
    assert 0.3 <= half_flip.wrong_train_fraction <= 0.7
    assert full_flip.wrong_train_fraction > 0.8

    # Wrong trains cost latency, bounded by about two scan intervals
    # plus a dwell.
    assert full_flip.latency.mean > fresh.latency.mean
    assert full_flip.latency.maximum < 4.0
    assert half_flip.latency.maximum < 4.5
