"""The three paper workloads, built only from public entry points.

Each workload has two halves:

* ``prepare(seed)`` builds everything the first item needs (configs,
  the runner, for ``tracking`` the whole simulation with its users);
  its cost is part of set-up time, not of the run;
* ``run_pass(state)`` does the workload's fixed work once and returns a
  :class:`PassResult`: per-item host times, a digest of every output
  the program produced, the operation counts and the simulated outcome
  metrics.

The workload seed is the only input; every program-side seed (the
``Table1Config``/``Figure2Config`` seeds, the BIPS seed, start rooms,
walk start times and query targets) is derived from it here, so the
program receives only generated configs.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.building.layouts import academic_department
from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation
from repro.experiments.figure2 import Figure2Config, run_figure2
from repro.experiments.table1 import PAPER_REFERENCE, Table1Config, run_table1
from repro.runner.executor import ExperimentRunner

#: Trials per ``table1`` pass (the paper ran 500; ten times as many keeps
#: a pass near one second, long enough to time against host noise).
TABLE1_TRIALS = 5000

#: The ``tracking`` deployment: users walking, hops each, simulated
#: horizon, and the query/step period in simulated seconds.  The horizon
#: gives 200 steps, about one second of host time per pass.
TRACKING_USERS = 40
TRACKING_HOPS = 6
TRACKING_SECONDS = 1000.0
TRACKING_STEP_SECONDS = 5.0

#: Replications per slave count in a ``figure2`` pass (the paper grid has
#: 60).  Half the grid keeps a pass near three seconds, so a run repeats
#: every replication a dozen times: on a shared host that is what makes
#: each replication's fastest time steady.  Thirty is the fewest for
#: which the 10-slave landmark stays inside the paper band on every
#: seed (over 120 seeds it ranged 0.76-0.85; at twenty it reached 0.755).
FIGURE2_REPLICATIONS = 30

#: The §4.2 reference the figure2 landmark is compared with
#: (EXPERIMENTS.md): about 90% of 10 slaves found in the first window.
FIGURE2_PAPER_P10_WINDOW1 = 0.90

#: Paper bands already asserted by the paper-reproduction checks under
#: ``benchmarks/``: table1 means within 35% of the paper, the figure2
#: 10-slave window-1 landmark within [0.75, 0.97].
TABLE1_BAND = 0.35
FIGURE2_BAND = (0.75, 0.97)


def derive_seed(seed: int, purpose: str) -> int:
    """A 32-bit program seed derived from the workload seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class PassResult:
    """What one pass of a workload produced."""

    item_seconds: list[float]
    digest: str
    #: Operations: trials, replications or queries.
    attempted: int
    failed: int
    #: Names of output checks that failed in this pass.
    check_failures: list[str] = field(default_factory=list)
    #: Simulated outcome metrics: name -> (value, unit); exact per seed.
    model: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Exact counts read from public counters after the pass.
    counters: dict[str, int] = field(default_factory=dict)


class TimedRunner(ExperimentRunner):
    """A serial, cache-less runner that times every trial function call
    and keeps a digest of the payloads it hands back.

    ``after_item``, when set, runs after each trial outside its timing
    (the traced run reads public counters there).
    """

    def __init__(self) -> None:
        super().__init__(jobs=1, cache=None)
        self.item_seconds: list[float] = []
        self.after_item: Optional[Callable[[], None]] = None
        self._hash = hashlib.sha256()

    def map_trials(self, experiment: str, config: Any, fn: Callable, count: int) -> list:
        items = self.item_seconds
        clock = time.perf_counter

        def timed(cfg: Any, index: int, seed: int) -> Any:
            started = clock()
            payload = fn(cfg, index, seed)
            items.append(clock() - started)
            if self.after_item is not None:
                self.after_item()
            return payload

        payloads = super().map_trials(experiment, config, timed, count)
        self._hash.update(experiment.encode())
        self._hash.update(json.dumps(payloads, sort_keys=True).encode())
        return payloads

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


# -- table1 -----------------------------------------------------------------


def prepare_table1(seed: int) -> dict:
    return {
        "config": Table1Config(trials=TABLE1_TRIALS, seed=derive_seed(seed, "table1")),
        "runner": TimedRunner(),
    }


def run_table1_pass(state: dict) -> PassResult:
    runner: TimedRunner = state["runner"]
    result = run_table1(state["config"], runner=runner)
    errors = {
        "same": result.same_summary.mean,
        "different": result.different_summary.mean,
        "mixed": result.mixed_summary.mean,
    }
    relative = {
        key: abs(mean - PAPER_REFERENCE[key]) / PAPER_REFERENCE[key]
        for key, mean in errors.items()
    }
    checks = [f"table1.{key}_within_35pct" for key, r in relative.items() if not r < TABLE1_BAND]
    if result.undiscovered:
        checks.append("table1.all_discovered")
    trials = len(result.trials)
    return PassResult(
        item_seconds=runner.item_seconds,
        digest=runner.digest,
        attempted=trials,
        failed=trials if checks else 0,
        check_failures=checks,
        model={"paper_error": (sum(relative.values()) / len(relative), "ratio")},
    )


# -- figure2 ----------------------------------------------------------------


def prepare_figure2(seed: int) -> dict:
    return {
        "config": Figure2Config(
            replications=FIGURE2_REPLICATIONS, seed=derive_seed(seed, "figure2")
        ),
        "runner": TimedRunner(),
    }


def run_figure2_pass(state: dict) -> PassResult:
    runner: TimedRunner = state["runner"]
    config: Figure2Config = state["config"]
    result = run_figure2(config, runner=runner)
    landmark = result.curve_for(10).probability_by(config.inquiry_window_seconds)
    low, high = FIGURE2_BAND
    checks = [] if low <= landmark <= high else ["figure2.p10_window1_in_band"]
    replications = config.replications * len(config.slave_counts)
    return PassResult(
        item_seconds=runner.item_seconds,
        digest=runner.digest,
        attempted=replications,
        failed=replications if checks else 0,
        check_failures=checks,
        model={
            "paper_error": (abs(landmark - FIGURE2_PAPER_P10_WINDOW1), "ratio"),
            "p10_window1": (landmark, "ratio"),
        },
    )


# -- tracking ---------------------------------------------------------------


def prepare_tracking(seed: int) -> dict:
    sim = BIPSSimulation(
        plan=academic_department(),
        config=BIPSConfig(seed=derive_seed(seed, "tracking.bips")),
    )
    rooms = sim.plan.room_ids()
    draw = random.Random(derive_seed(seed, "tracking.users"))
    userids = []
    usernames = []
    for index in range(TRACKING_USERS):
        userid, username = f"u-{index:03d}", f"User{index:03d}"
        sim.add_user(userid, username)
        sim.login(userid)
        sim.walk(
            userid,
            start_room=draw.choice(rooms),
            hops=TRACKING_HOPS,
            start_at_seconds=draw.uniform(0.0, 60.0),
        )
        userids.append(userid)
        usernames.append(username)
    return {
        "sim": sim,
        "userids": userids,
        "usernames": usernames,
        # Target of user i at step k: (i + 1 + (offset + k) % (n - 1)) % n,
        # never the querier itself.
        "target_offset": draw.randrange(TRACKING_USERS - 1),
    }


def run_tracking_pass(state: dict) -> PassResult:
    sim = state["sim"]
    userids: list[str] = state["userids"]
    usernames: list[str] = state["usernames"]
    offset: int = state["target_offset"]
    count = len(userids)
    steps = int(TRACKING_SECONDS / TRACKING_STEP_SECONDS)
    clock = time.perf_counter
    item_seconds = []
    sent: list[int] = []
    for step in range(steps):
        started = clock()
        shift = 1 + (offset + step) % (count - 1)
        for index, userid in enumerate(userids):
            target = usernames[(index + shift) % count]
            sent.append(sim.query_location_via_lan(userid, target))
            sent.append(sim.query_path_via_lan(userid, target))
        sim.run(until_seconds=(step + 1) * TRACKING_STEP_SECONDS)
        item_seconds.append(clock() - started)
    return _tracking_result(sim, userids, sent, item_seconds)


def _tracking_result(sim, userids, sent, item_seconds) -> PassResult:
    responses = {}
    for userid in userids:
        for message in sim.user(userid).inbox:
            query_id = getattr(message, "query_id", None)
            if query_id is not None:
                responses[query_id] = message
    unanswered = [query_id for query_id in sent if query_id not in responses]
    report = sim.tracking_report()
    latency: Optional[float] = report.mean_detection_latency_seconds
    digest = hashlib.sha256()
    for query_id in sorted(responses):
        digest.update(repr(responses[query_id]).encode())
    for user in report.users:
        digest.update(repr(user).encode())
    counters = {
        "kernel_events": sim.kernel.events_fired,
        "lan_sent": sim.lan.stats.sent,
        "presence_updates": sim.server.presence_updates_received,
        "answered": len(sent) - len(unanswered),
    }
    digest.update(json.dumps(counters, sort_keys=True).encode())
    checks = ["tracking.every_query_answered"] if unanswered else []
    model = {"tracking_accuracy": (report.mean_accuracy, "ratio")}
    if latency is not None:
        model["detection_latency_s"] = (latency, "s")
    return PassResult(
        item_seconds=item_seconds,
        digest=digest.hexdigest(),
        attempted=len(sent),
        failed=len(unanswered),
        check_failures=checks,
        model=model,
        counters=counters,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int], dict]
    run_pass: Callable[[dict], PassResult]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("table1", prepare_table1, run_table1_pass),
        Workload("figure2", prepare_figure2, run_figure2_pass),
        Workload("tracking", prepare_tracking, run_tracking_pass),
    )
}
