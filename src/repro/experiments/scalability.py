"""Experiment `scalability`: how BIPS scales with building size (extension).

The paper's architecture argument (§2) is that delta reporting makes the
central server's load proportional to user *movement*, not to the
number of workstations.  This harness grows the building (a linear wing
of N rooms) with a fixed user population and verifies the claim: LAN
presence traffic and tracking quality should be flat in N while the
per-workstation cost stays constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.tables import render_table
from repro.building.layouts import linear_wing
from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation
from repro.runner.executor import ExperimentRunner

#: Runner experiment name; part of every point's seed derivation.
EXPERIMENT = "scalability"


@dataclass(frozen=True)
class ScalabilityConfig:
    """Parameters of the scaling sweep."""

    room_counts: tuple[int, ...] = (4, 8, 16, 32)
    user_count: int = 8
    hops_per_user: int = 5
    duration_seconds: float = 400.0
    seed: int = 20031006

    def __post_init__(self) -> None:
        if not self.room_counts or any(n < 2 for n in self.room_counts):
            raise ValueError(f"invalid room counts: {self.room_counts}")
        if self.user_count <= 0:
            raise ValueError(f"user count must be positive: {self.user_count}")


@dataclass(frozen=True)
class ScalabilityPoint:
    """Measurements for one building size."""

    rooms: int
    users: int
    lan_messages: int
    presence_updates: int
    mean_accuracy: float
    kernel_events: int

    @property
    def updates_per_user_minute(self) -> float:
        """Presence deltas per user per simulated minute."""
        return self.presence_updates / self.users

    @property
    def events_per_room(self) -> float:
        """Kernel events per room — the per-workstation simulation cost."""
        return self.kernel_events / self.rooms


@dataclass
class ScalabilityResult:
    """The sweep with rendering."""

    config: ScalabilityConfig
    points: list[ScalabilityPoint] = field(default_factory=list)

    def point_for(self, rooms: int) -> ScalabilityPoint:
        """Find one sweep point."""
        for point in self.points:
            if point.rooms == rooms:
                return point
        raise KeyError(f"no point for {rooms} rooms")

    def render(self) -> str:
        """The scaling table."""
        rows = [
            [
                point.rooms,
                point.users,
                point.presence_updates,
                point.lan_messages,
                f"{point.mean_accuracy * 100:.1f}%",
                point.kernel_events,
            ]
            for point in self.points
        ]
        return render_table(
            ["rooms", "users", "presence deltas", "LAN msgs", "accuracy", "kernel events"],
            rows,
            title=(
                f"BIPS scaling with building size ({self.config.user_count} users, "
                f"{self.config.duration_seconds:.0f}s): server load tracks movement, "
                "not deployment size"
            ),
        )


def point_payload(config: ScalabilityConfig, index: int, seed: int) -> dict:
    """One building size (runner entry point).

    Each point gets an independent derived seed; the paper's flatness
    claim is about scaling shape, not about replaying one stream across
    building sizes.
    """
    rooms = config.room_counts[index]
    sim = BIPSSimulation(plan=linear_wing(rooms), config=BIPSConfig(seed=seed))
    rng = sim.rng.child("scalability")
    room_ids = sim.plan.room_ids()
    for user_index in range(config.user_count):
        userid = f"u-{user_index}"
        sim.add_user(userid, f"U{user_index}")
        sim.login(userid)
        sim.walk(
            userid,
            start_room=rng.choice(room_ids),
            hops=config.hops_per_user,
            start_at_seconds=rng.uniform(0.0, 30.0),
        )
    sim.run(until_seconds=config.duration_seconds)
    return {
        "rooms": rooms,
        "users": config.user_count,
        "lan_messages": sim.lan.stats.sent,
        "presence_updates": sim.server.presence_updates_received,
        "mean_accuracy": sim.tracking_report().mean_accuracy,
        "kernel_events": sim.kernel.events_fired,
    }


def run_scalability(
    config: Optional[ScalabilityConfig] = None,
    runner: Optional[ExperimentRunner] = None,
) -> ScalabilityResult:
    """Run the full sweep."""
    config = config if config is not None else ScalabilityConfig()
    runner = runner if runner is not None else ExperimentRunner()
    result = ScalabilityResult(config=config)
    payloads = runner.map_trials(
        EXPERIMENT, config, point_payload, len(config.room_counts)
    )
    result.points.extend(ScalabilityPoint(**payload) for payload in payloads)
    return result
