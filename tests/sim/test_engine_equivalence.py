"""Object vs batched engine: byte-identical observable behaviour.

Flipping ``BIPS_SIM_ENGINE`` changes *nothing* an experiment can
observe — result payloads, CSV output, domain metrics, tracking
reports — whether run serial or parallel, with faults injected or
not.  Only engine-internal ``sim.*`` telemetry (event counts, batch
counters) may differ, by design.
"""

from __future__ import annotations

from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation
from repro.experiments.figure2 import Figure2Config, run_figure2
from repro.experiments.table1 import Table1Config, run_table1
from repro.obs.metrics import MetricsRegistry
from repro.runner.executor import ExperimentRunner
from repro.sim.batch import ENGINE_ENV_VAR

TABLE1 = Table1Config(trials=8, seed=1313)
FIGURE2 = Figure2Config(slave_counts=(3,), replications=2, seed=1414)


def _domain_metrics(registry: MetricsRegistry) -> list[dict]:
    """Registry snapshot minus engine-internal ``sim.*`` telemetry."""
    return [
        record
        for record in registry.snapshot()
        if not str(record.get("name", "")).startswith("sim.")
    ]


class TestExperimentEquivalence:
    """Whole experiments, engine picked via the environment knob."""

    def test_table1_identical(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "object")
        object_csv = run_table1(TABLE1).to_csv()
        monkeypatch.setenv(ENGINE_ENV_VAR, "batched")
        batched_csv = run_table1(TABLE1).to_csv()
        assert object_csv == batched_csv

    def test_figure2_identical(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "object")
        object_csv = run_figure2(FIGURE2).to_csv()
        monkeypatch.setenv(ENGINE_ENV_VAR, "batched")
        batched_csv = run_figure2(FIGURE2).to_csv()
        assert object_csv == batched_csv

    def test_table1_domain_metrics_identical(self, monkeypatch):
        snapshots = []
        for engine in ("object", "batched"):
            monkeypatch.setenv(ENGINE_ENV_VAR, engine)
            registry = MetricsRegistry()
            run_table1(TABLE1, metrics=registry)
            snapshots.append(_domain_metrics(registry))
        assert snapshots[0] == snapshots[1]

    def test_table1_under_chaos_faults_identical(self, monkeypatch):
        config = Table1Config(trials=8, seed=1313, faults="chaos", fault_seed=7)
        monkeypatch.setenv(ENGINE_ENV_VAR, "object")
        object_csv = run_table1(config).to_csv()
        monkeypatch.setenv(ENGINE_ENV_VAR, "batched")
        batched_csv = run_table1(config).to_csv()
        assert object_csv == batched_csv

    def test_batched_serial_vs_jobs_identical(self, monkeypatch):
        # Workers inherit the environment, so --jobs runs flip with it.
        monkeypatch.setenv(ENGINE_ENV_VAR, "batched")
        serial_csv = run_table1(TABLE1, runner=ExperimentRunner()).to_csv()
        parallel_csv = run_table1(TABLE1, runner=ExperimentRunner(jobs=2)).to_csv()
        assert serial_csv == parallel_csv

class TestFacadeEquivalence:
    """The end-to-end BIPS simulation on either engine."""

    @staticmethod
    def _run(engine: str) -> tuple[str, list[dict]]:
        sim = BIPSSimulation(
            config=BIPSConfig(seed=77, coverage_overlap_fraction=0.2), engine=engine
        )
        rooms = sim.plan.room_ids()
        for index in range(3):
            userid = f"user-{index}"
            sim.add_user(userid, f"User {index}")
            sim.login(userid)
            sim.walk(userid, start_room=rooms[index % len(rooms)], hops=3)
        sim.run(until_seconds=90)
        return sim.tracking_report().describe(), _domain_metrics(sim.metrics)

    def test_tracking_report_and_metrics_identical(self):
        object_run = self._run("object")
        batched_run = self._run("batched")
        assert object_run[0] == batched_run[0]
        assert object_run[1] == batched_run[1]

    def test_engine_attribute_resolved(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "batched")
        assert BIPSSimulation().engine == "batched"
        assert BIPSSimulation(engine="object").engine == "object"

    def test_batched_emits_batch_telemetry(self):
        sim = BIPSSimulation(config=BIPSConfig(seed=11), engine="batched")
        sim.add_user("u", "U")
        sim.login("u")
        sim.walk("u", start_room=sim.plan.room_ids()[0], hops=2)
        sim.run(until_seconds=60)
        names = {record["name"] for record in sim.metrics.snapshot()}
        assert "sim.batch.advances" in names
        assert "sim.batch.slave_steps" in names
