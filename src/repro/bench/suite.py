"""The pinned benchmark suite.

Workload shapes are part of the baseline contract: every parameter
that affects a measurement is listed in the case's ``params`` tuple,
which feeds the config digest in the emitted JSON.  Changing a
workload therefore *voids* comparison against older baselines for
that case rather than producing a silent apples-to-oranges delta.

The suite is written to also run against **older revisions** of this
repository (that is how the fast-path speedup is measured): it probes
for the modern kernel API (``post``) and falls back to the legacy one,
skipping cases the old code cannot express.
"""

from __future__ import annotations

from typing import Callable, Optional

from .harness import BenchCase, BenchSkip, Workload

# -- kernel event throughput -------------------------------------------------

#: Total events per kernel-throughput run.
KERNEL_EVENTS = 200_000
#: Concurrent self-rescheduling chains (stations on the slot grid).
KERNEL_CHAINS = 16
#: Tick stride between a chain's events (one Bluetooth slot).
KERNEL_STRIDE_TICKS = 2


def kernel_heap_factory() -> Workload:
    """Self-rescheduling event chains on the binary-heap scheduler."""
    from repro.sim.kernel import Kernel

    kernel = Kernel()
    sched: Callable[..., object] = getattr(kernel, "post", kernel.schedule)

    def run() -> int:
        target = KERNEL_EVENTS
        fired = 0

        def chain() -> None:
            nonlocal fired
            fired += 1
            if fired < target:
                sched(KERNEL_STRIDE_TICKS, chain)

        for _ in range(KERNEL_CHAINS):
            sched(0, chain)
        kernel.run_until(KERNEL_STRIDE_TICKS * target)
        return fired

    return run


# -- hopping inverse lookup --------------------------------------------------

#: Table1 trials recorded (about 4.5 lookups each, about 20,000 in all).
HOPPING_TRIALS = 4_500


def hopping_replay_factory() -> Workload:
    """``next_tx_of_position`` over the lookups of real table1 trials.

    The factory runs the first ``HOPPING_TRIALS`` trials of a table1
    run of that size and records every ``(schedule, position,
    from_tick, before_tick)`` lookup the scanners make; the workload
    replays that stream.
    """
    try:
        from repro.bluetooth.hopping import InquiryTransmitSchedule
        from repro.experiments.table1 import Table1Config, run_trial
    except ImportError as exc:
        raise BenchSkip(f"table1 trial unavailable: {exc}") from exc

    stream: list[tuple[InquiryTransmitSchedule, int, int, int]] = []
    lookup = InquiryTransmitSchedule.next_tx_of_position

    def record(
        schedule: InquiryTransmitSchedule, position: int, from_tick: int, before_tick: int
    ) -> Optional[int]:
        stream.append((schedule, position, from_tick, before_tick))
        return lookup(schedule, position, from_tick, before_tick)

    config = Table1Config(trials=HOPPING_TRIALS)
    setattr(InquiryTransmitSchedule, "next_tx_of_position", record)
    try:
        for trial in range(HOPPING_TRIALS):
            run_trial(config, trial)
    finally:
        setattr(InquiryTransmitSchedule, "next_tx_of_position", lookup)
    if not stream:
        raise BenchSkip("table1 made no next_tx lookups")

    def run() -> int:
        for schedule, position, from_tick, before_tick in stream:
            schedule.next_tx_of_position(position, from_tick, before_tick)
        return len(stream)

    return run


# -- figure2 small grid ------------------------------------------------------

FIGURE2_SLAVES = 8
FIGURE2_HORIZON_SECONDS = 14.0
FIGURE2_REPLICATIONS = 4
FIGURE2_SEED = 20260805


def figure2_small_factory() -> Workload:
    """A small-population figure2 cell, measured in sim ticks."""
    from repro.experiments.figure2 import Figure2Config, replication_payload
    from repro.sim.clock import ticks_from_seconds

    config = Figure2Config(
        slave_counts=(FIGURE2_SLAVES,),
        replications=FIGURE2_REPLICATIONS,
        horizon_seconds=FIGURE2_HORIZON_SECONDS,
    )
    ticks = ticks_from_seconds(FIGURE2_HORIZON_SECONDS) * FIGURE2_REPLICATIONS

    def run() -> int:
        for replication in range(FIGURE2_REPLICATIONS):
            replication_payload(config, replication, FIGURE2_SEED + replication)
        return ticks

    return run


# -- table1 small grid -------------------------------------------------------

TABLE1_TRIALS = 300
TABLE1_SEED = 20260806


def table1_small_factory() -> Workload:
    """A short burst of table1 discovery trials."""
    from repro.experiments.table1 import Table1Config, trial_payload

    config = Table1Config()

    def run() -> int:
        for index in range(TABLE1_TRIALS):
            trial_payload(config, index, TABLE1_SEED + index)
        return TABLE1_TRIALS

    return run


# -- inquiry engines at scale ------------------------------------------------

#: RNG seed for the piconet-population builders.
SWARM_SEED = 20260808
#: Dense single piconet: 100 slaves under one inquiring master.
SWARM_PICONET_SLAVES = 100
SWARM_PICONET_WINDOW_TICKS = 3_200
SWARM_PICONET_PERIOD_TICKS = 16_000
SWARM_PICONET_HORIZON_TICKS = 44_800
#: Piconet fleet: 1000 independent masters firing short, staggered
#: inquiry bursts over 100 scanning slaves each.
SWARM_FLEET_PICONETS = 1_000
SWARM_FLEET_SLAVES = 100
SWARM_FLEET_WINDOW_TICKS = 160
SWARM_FLEET_PERIOD_TICKS = 16_000
SWARM_FLEET_HORIZON_TICKS = 16_000


def _swarm_workload(
    engine: str,
    piconets: int,
    slaves: int,
    window_ticks: int,
    period_ticks: int,
    horizon_ticks: int,
) -> Workload:
    """Identical piconet population on per-slave scanners or a swarm.

    Continuous train-locked scanners under periodically inquiring
    masters.  Construction happens here (untimed); the workload runs
    the kernel to the horizon, so the object/batched pair measures
    exactly the engine difference on the same simulated load.
    """
    try:
        from repro.bluetooth.address import BDAddr
        from repro.bluetooth.btclock import CLKN_WRAP, BluetoothClock
        from repro.bluetooth.hopping import TrainStrategy, periodic_inquiry
        from repro.bluetooth.inquiry import InquiryProcedure
        from repro.bluetooth.scan import InquiryScanner, PhaseMode, ScanConfig
        from repro.sim.kernel import Kernel
        from repro.sim.rng import RandomStream
    except ImportError as exc:
        raise BenchSkip(f"piconet model unavailable: {exc}") from exc
    if engine == "batched":
        try:
            from repro.bluetooth.swarm import InquiryScanSwarm
        except ImportError as exc:
            raise BenchSkip(f"no inquiry swarm in this revision: {exc}") from exc
    kernel = Kernel()
    root = RandomStream(SWARM_SEED, "bench-swarm")
    scan = ScanConfig.continuous(phase_mode=PhaseMode.TRAIN_LOCKED)
    for piconet in range(piconets):
        prng = root.child("piconet", str(piconet))
        schedule = periodic_inquiry(
            window_ticks,
            period_ticks,
            strategy=TrainStrategy.A_ONLY,
            start=prng.randint(0, period_ticks - window_ticks - 1),
        )
        master = InquiryProcedure(kernel, schedule, name=f"master-{piconet}")
        swarm = (
            InquiryScanSwarm(
                kernel, schedule, master.channel, config=scan, name=str(piconet)
            )
            if engine == "batched"
            else None
        )
        for slave in range(slaves):
            rng = prng.child("slave", str(slave))
            clock = BluetoothClock(offset=rng.randint(0, CLKN_WRAP - 1))
            base_phase = rng.randint(0, 15)
            address = BDAddr(0x10000 * piconet + slave + 1)
            if swarm is not None:
                row = swarm.add_slave(
                    address,
                    rng=rng.child("draws"),
                    clock=clock,
                    base_phase=base_phase,
                    horizon_tick=horizon_ticks,
                )
                swarm.start_row(row)
            else:
                InquiryScanner(
                    kernel,
                    address,
                    schedule,
                    master.channel,
                    rng=rng.child("draws"),
                    config=scan,
                    clock=clock,
                    base_phase=base_phase,
                    horizon_tick=horizon_ticks,
                ).start()

    def run() -> int:
        kernel.run_until(horizon_ticks)
        return horizon_ticks

    return run


def swarm_piconet_100_object_factory() -> Workload:
    """One 100-slave piconet on the per-object scanner engine."""
    return _swarm_workload(
        "object",
        1,
        SWARM_PICONET_SLAVES,
        SWARM_PICONET_WINDOW_TICKS,
        SWARM_PICONET_PERIOD_TICKS,
        SWARM_PICONET_HORIZON_TICKS,
    )


def swarm_piconet_100_batched_factory() -> Workload:
    """One 100-slave piconet on the batched swarm engine."""
    return _swarm_workload(
        "batched",
        1,
        SWARM_PICONET_SLAVES,
        SWARM_PICONET_WINDOW_TICKS,
        SWARM_PICONET_PERIOD_TICKS,
        SWARM_PICONET_HORIZON_TICKS,
    )


def swarm_piconets_1000_object_factory() -> Workload:
    """1000 piconets x 100 slaves on the per-object scanner engine."""
    return _swarm_workload(
        "object",
        SWARM_FLEET_PICONETS,
        SWARM_FLEET_SLAVES,
        SWARM_FLEET_WINDOW_TICKS,
        SWARM_FLEET_PERIOD_TICKS,
        SWARM_FLEET_HORIZON_TICKS,
    )


def swarm_piconets_1000_batched_factory() -> Workload:
    """1000 piconets x 100 slaves on the batched swarm engine."""
    return _swarm_workload(
        "batched",
        SWARM_FLEET_PICONETS,
        SWARM_FLEET_SLAVES,
        SWARM_FLEET_WINDOW_TICKS,
        SWARM_FLEET_PERIOD_TICKS,
        SWARM_FLEET_HORIZON_TICKS,
    )


# -- end-to-end tick rate ----------------------------------------------------

E2E_USERS = 8
E2E_DURATION_SECONDS = 600.0


def e2e_tick_rate_factory() -> Workload:
    """Full BIPS pipeline (radio + LAN + server) tick rate."""
    from repro.experiments.e2e import E2EConfig, run_e2e
    from repro.sim.clock import ticks_from_seconds

    config = E2EConfig(user_count=E2E_USERS, duration_seconds=E2E_DURATION_SECONDS)
    ticks = ticks_from_seconds(E2E_DURATION_SECONDS)

    def run() -> int:
        run_e2e(config)
        return ticks

    return run


# -- the pinned suite --------------------------------------------------------

SUITE: tuple[BenchCase, ...] = (
    BenchCase(
        name="kernel_events_heap",
        factory=kernel_heap_factory,
        unit="events",
        params=(
            ("events", KERNEL_EVENTS),
            ("chains", KERNEL_CHAINS),
            ("stride_ticks", KERNEL_STRIDE_TICKS),
            ("scheduler", "heap"),
        ),
        smoke=True,
    ),
    BenchCase(
        name="hopping_next_tx_table1_replay",
        factory=hopping_replay_factory,
        unit="lookups",
        params=(("trials", HOPPING_TRIALS),),
        smoke=True,
    ),
    BenchCase(
        name="figure2_small_grid",
        factory=figure2_small_factory,
        unit="sim_ticks",
        params=(
            ("slaves", FIGURE2_SLAVES),
            ("horizon_seconds", FIGURE2_HORIZON_SECONDS),
            ("replications", FIGURE2_REPLICATIONS),
            ("seed", FIGURE2_SEED),
        ),
        smoke=False,
    ),
    BenchCase(
        name="table1_small_grid",
        factory=table1_small_factory,
        unit="trials",
        params=(("trials", TABLE1_TRIALS), ("seed", TABLE1_SEED)),
        smoke=False,
    ),
    BenchCase(
        name="swarm_piconet_100_object",
        factory=swarm_piconet_100_object_factory,
        unit="sim_ticks",
        params=(
            ("engine", "object"),
            ("piconets", 1),
            ("slaves", SWARM_PICONET_SLAVES),
            ("window_ticks", SWARM_PICONET_WINDOW_TICKS),
            ("period_ticks", SWARM_PICONET_PERIOD_TICKS),
            ("horizon_ticks", SWARM_PICONET_HORIZON_TICKS),
            ("seed", SWARM_SEED),
        ),
        smoke=False,
    ),
    BenchCase(
        name="swarm_piconet_100_batched",
        factory=swarm_piconet_100_batched_factory,
        unit="sim_ticks",
        params=(
            ("engine", "batched"),
            ("piconets", 1),
            ("slaves", SWARM_PICONET_SLAVES),
            ("window_ticks", SWARM_PICONET_WINDOW_TICKS),
            ("period_ticks", SWARM_PICONET_PERIOD_TICKS),
            ("horizon_ticks", SWARM_PICONET_HORIZON_TICKS),
            ("seed", SWARM_SEED),
        ),
        smoke=False,
    ),
    BenchCase(
        name="swarm_piconets_1000_object",
        factory=swarm_piconets_1000_object_factory,
        unit="sim_ticks",
        params=(
            ("engine", "object"),
            ("piconets", SWARM_FLEET_PICONETS),
            ("slaves", SWARM_FLEET_SLAVES),
            ("window_ticks", SWARM_FLEET_WINDOW_TICKS),
            ("period_ticks", SWARM_FLEET_PERIOD_TICKS),
            ("horizon_ticks", SWARM_FLEET_HORIZON_TICKS),
            ("seed", SWARM_SEED),
        ),
        smoke=False,
    ),
    BenchCase(
        name="swarm_piconets_1000_batched",
        factory=swarm_piconets_1000_batched_factory,
        unit="sim_ticks",
        params=(
            ("engine", "batched"),
            ("piconets", SWARM_FLEET_PICONETS),
            ("slaves", SWARM_FLEET_SLAVES),
            ("window_ticks", SWARM_FLEET_WINDOW_TICKS),
            ("period_ticks", SWARM_FLEET_PERIOD_TICKS),
            ("horizon_ticks", SWARM_FLEET_HORIZON_TICKS),
            ("seed", SWARM_SEED),
        ),
        smoke=False,
    ),
    BenchCase(
        name="e2e_tick_rate",
        factory=e2e_tick_rate_factory,
        unit="sim_ticks",
        params=(
            ("users", E2E_USERS),
            ("duration_seconds", E2E_DURATION_SECONDS),
        ),
        smoke=False,
    ),
)


def select_suite(name: str) -> list[BenchCase]:
    """Resolve a suite name (``smoke`` or ``full``) to its cases."""
    if name == "full":
        return list(SUITE)
    if name == "smoke":
        return [case for case in SUITE if case.smoke]
    raise ValueError(f"unknown suite {name!r}; expected 'smoke' or 'full'")
