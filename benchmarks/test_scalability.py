"""Benchmark `scalability`: server load vs building size.

Guards the §2 architecture claim: with delta reporting, the central
server's presence traffic is driven by user movement, not by how many
workstations are deployed.
"""

from __future__ import annotations

from conftest import save_result

from repro.experiments.scalability import ScalabilityConfig, run_scalability


def _run_full():
    result = run_scalability(ScalabilityConfig())
    save_result("scalability", result.render())
    return result


def test_scaling_with_building_size():
    result = _run_full()
    smallest = result.point_for(4)
    largest = result.point_for(32)

    # Presence traffic tracks movement (same users, same walks): an 8x
    # larger deployment must not inflate deltas by more than ~2x (walks
    # on a bigger graph can differ a bit).
    assert largest.presence_updates <= 2.5 * max(1, smallest.presence_updates)

    # Total LAN messages grow only by the per-workstation hello and the
    # spread of walks, far below proportionally.
    assert largest.lan_messages < smallest.lan_messages + 3 * (32 - 4) + 100

    # Tracking quality is independent of deployment size.
    for point in result.points:
        assert point.mean_accuracy > 0.75

    # Idle workstations are cheap: per-room event cost must not grow
    # with deployment size (it in fact shrinks, since walkers cover a
    # smaller fraction of rooms).
    assert largest.events_per_room <= smallest.events_per_room
