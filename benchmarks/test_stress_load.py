"""Stress check: a loaded building for 20 simulated minutes.

Guards correctness under load: 20 users over 12 rooms keep tracking
quality in the expected band, piconets saturate gracefully at the
7-slave limit, and the LAN stays delta-quiet.
"""

from __future__ import annotations

from conftest import save_result

from repro.analysis.tables import render_table
from repro.building.layouts import academic_department
from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation


def _run_stress():
    sim = BIPSSimulation(
        plan=academic_department(),
        config=BIPSConfig(seed=808, enroll_users=True),
    )
    rng = sim.rng.child("stress")
    rooms = sim.plan.room_ids()
    user_count = 20
    for index in range(user_count):
        userid = f"u-{index:02d}"
        sim.add_user(userid, f"U{index:02d}")
        sim.login(userid)
        sim.walk(userid, start_room=rng.choice(rooms), hops=8,
                 start_at_seconds=rng.uniform(0.0, 120.0))
    sim.run(until_seconds=1200.0)
    return sim


def test_stress_twenty_users():
    sim = _run_stress()
    report = sim.tracking_report()

    save_result(
        "stress_load",
        render_table(
            ["metric", "value"],
            [
                ["users", len(report.users)],
                ["mean accuracy", f"{report.mean_accuracy * 100:.1f}%"],
                ["p90 detection latency",
                 f"{report.latency_percentile(90):.1f}s"],
                ["presence deltas", sim.server.presence_updates_received],
                ["kernel events", sim.kernel.events_fired],
                ["enrolled total",
                 sum(ws.enrolled for ws in sim.workstations.values())],
            ],
            title="Stress run: 20 users, 12 rooms, 1200 s",
        ),
    )

    assert len(report.users) == 20
    assert report.mean_accuracy > 0.75
    # Detection latency stays bounded by the duty cycle even under load.
    assert report.latency_percentile(90) < 2.5 * 15.4
    # Delta reporting: the LAN carries a few messages per user-minute.
    per_user_minute = sim.server.presence_updates_received / (20 * 20.0)
    assert per_user_minute < 3.0
    # Enrolment ran and respected the per-piconet limit.
    assert sum(ws.enrolled for ws in sim.workstations.values()) >= 20
    for workstation in sim.workstations.values():
        assert workstation.piconet.active_count <= 7
