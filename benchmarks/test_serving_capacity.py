"""Benchmark `serving`: slave service under the §5 schedule (extension).

§5 reserves 11.56 s per cycle for "serving the slaves applications" but
never quantifies the service.  Guards the arithmetic the DM1 link model
must produce: per-slave goodput divides exactly by occupancy, a BIPS
navigation answer (500 B) reaches a full seven-slave piconet well
within one cycle, and the serving window is vastly over-provisioned for
BIPS's own traffic.
"""

from __future__ import annotations

import pytest
from conftest import save_result

from repro.experiments.serving import ServingConfig, run_serving


def _run_full():
    result = run_serving(ServingConfig())
    save_result("serving_capacity", result.render())
    return result


def test_serving_capacity():
    result = _run_full()

    one = result.point_for(1)
    seven = result.point_for(7)

    # Goodput divides exactly by occupancy (round-robin fairness).
    assert one.goodput_bytes_per_second == pytest.approx(
        7 * seven.goodput_bytes_per_second
    )
    # A lone slave sees ~10 kB/s of DM1 payload under the §5 schedule.
    assert 9_000 < one.goodput_bytes_per_second < 11_000

    # Every navigation answer is delivered, even at full occupancy...
    for point in result.points:
        assert point.messages_pending == 0
    # ...and within a third of a second (30 DM1 rounds x 7 slaves).
    assert seven.message_latency.maximum < 0.35

    # Latency grows linearly-ish with occupancy.
    latencies = [point.message_latency.mean for point in result.points]
    assert latencies == sorted(latencies)

    # BIPS's own traffic barely dents the serving window.
    assert seven.payload_fraction < 0.05
