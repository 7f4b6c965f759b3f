"""InquiryScanSwarm vs per-slave InquiryScanner: identical behaviour.

The swarm replaces N per-slave scanner objects in the Figure-2 piconet
(continuous, train-locked listeners); its acceptance bar is exact
equivalence — every counter, every response tick, every collision
record, every master result — for every response mode, with and
without enrolment stops.  A swarm slave is the row ``int`` that
``add_slave`` returns.
"""

from __future__ import annotations

import pytest

from repro.bluetooth.address import BDAddr
from repro.bluetooth.btclock import CLKN_WRAP, BluetoothClock
from repro.bluetooth.constants import INQUIRY_RESPONSE_DELAY_TICKS
from repro.bluetooth.hopping import (
    Train,
    TrainStrategy,
    continuous_inquiry,
    periodic_inquiry,
)
from repro.bluetooth.inquiry import InquiryProcedure
from repro.bluetooth.scan import (
    InquiryScanner,
    PhaseMode,
    ResponseMode,
    ScanConfig,
    ScannerState,
)
from repro.bluetooth.swarm import InquiryScanSwarm
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream


TRAIN_LOCKED = ScanConfig.continuous(phase_mode=PhaseMode.TRAIN_LOCKED)


def _run_piconet(
    engine, seed, slave_count, scan_config, schedule_factory, horizon, enroll=False
):
    """One piconet on either engine; returns every observable.

    ``enroll`` stops each slave at the end of the inquiry window in
    which the master discovered it, as the figure2 experiment does.
    """
    kernel = Kernel()
    schedule = schedule_factory()
    master = InquiryProcedure(kernel, schedule, name="master")
    root = RandomStream(seed, "swarm-ab")
    swarm = (
        InquiryScanSwarm(kernel, schedule, master.channel, config=scan_config, name="s")
        if engine == "batched"
        else None
    )
    stops = {}
    observers = []
    for index in range(slave_count):
        rng = root.child("slave", str(index))
        clock = BluetoothClock(offset=rng.randint(0, CLKN_WRAP - 1))
        base_phase = rng.randint(0, 31)
        address = BDAddr(0x1000 + index)
        if swarm is not None:
            row = swarm.add_slave(
                address,
                rng=rng.child("draws"),
                clock=clock,
                base_phase=base_phase,
                horizon_tick=horizon,
                name=f"slave-{index}",
            )
            swarm.start_row(row)
            stops[address] = lambda row=row: swarm.stop_row(row)
            observers.append(lambda row=row: (swarm.state_of(row), swarm.stats_of(row)))
        else:
            scanner = InquiryScanner(
                kernel,
                address,
                schedule,
                master.channel,
                rng=rng.child("draws"),
                config=scan_config,
                clock=clock,
                base_phase=base_phase,
                horizon_tick=horizon,
                name=f"slave-{index}",
            )
            scanner.start()
            stops[address] = scanner.stop
            observers.append(lambda scanner=scanner: (scanner.state, scanner.stats))
    if enroll:

        def on_discovered(packet, tick):
            window = schedule.windows.containing(tick)
            stop_at = window.end if window is not None else tick
            kernel.schedule_at(
                max(stop_at, kernel.now), stops[packet.sender], label="enroll"
            )

        master.on_discovered = on_discovered
    kernel.run_until(horizon)
    slaves = [
        (
            state.value,
            stats.ids_heard,
            stats.backoffs,
            stats.responses,
            stats.first_heard_tick,
            stats.first_response_tick,
            tuple(stats.response_ticks),
        )
        for state, stats in (observe() for observe in observers)
    ]
    stats = master.channel.stats
    collisions = tuple((c.tick, c.rf_channel, c.senders) for c in stats.collisions)
    return (
        slaves,
        (stats.transmissions, stats.delivered, stats.collided, collisions),
        (master.responses_received, master.responses_missed, master.responses_blocked),
        tuple((str(r.address), r.clkn, r.discovered_tick) for r in master.results),
    )


def _figure2_schedule():
    return periodic_inquiry(3200, 16000, strategy=TrainStrategy.A_ONLY)


CASES = [
    pytest.param(
        TRAIN_LOCKED,
        _figure2_schedule,
        64_000,
        8,
        False,
        id="figure2-style-train-locked",
    ),
    pytest.param(
        TRAIN_LOCKED,
        _figure2_schedule,
        64_000,
        8,
        True,
        id="figure2-style-enrolment-stop",
    ),
    pytest.param(
        ScanConfig.continuous(
            phase_mode=PhaseMode.TRAIN_LOCKED, response_mode=ResponseMode.BACKOFF_EACH
        ),
        lambda: continuous_inquiry(),
        100_000,
        4,
        False,
        id="backoff-each",
    ),
    pytest.param(
        ScanConfig.continuous(
            phase_mode=PhaseMode.TRAIN_LOCKED, response_mode=ResponseMode.BACKOFF_EACH
        ),
        _figure2_schedule,
        64_000,
        10,
        True,
        id="backoff-each-enrolment-stop",
    ),
    pytest.param(
        ScanConfig.continuous(
            phase_mode=PhaseMode.TRAIN_LOCKED, response_mode=ResponseMode.SINGLE
        ),
        lambda: continuous_inquiry(),
        100_000,
        4,
        False,
        id="single",
    ),
    pytest.param(
        ScanConfig.continuous(phase_mode=PhaseMode.TRAIN_LOCKED, backoff_max_slots=0),
        _figure2_schedule,
        64_000,
        8,
        True,
        id="zero-backoff-enrolment-stop",
    ),
]


class TestSwarmEquivalence:
    @pytest.mark.parametrize(
        "scan_config, schedule_factory, horizon, slaves, enroll", CASES
    )
    def test_swarm_matches_scanners(
        self, scan_config, schedule_factory, horizon, slaves, enroll
    ):
        object_run = _run_piconet(
            "object", 99, slaves, scan_config, schedule_factory, horizon, enroll
        )
        batched_run = _run_piconet(
            "batched", 99, slaves, scan_config, schedule_factory, horizon, enroll
        )
        assert object_run == batched_run

    def test_many_seeds_single_slave(self):
        # One slave, many clock/phase draws: sweeps the rendezvous
        # arithmetic across offsets without a master-side confounder.
        for seed in range(20):
            object_run = _run_piconet(
                "object", seed, 1, TRAIN_LOCKED, continuous_inquiry, 120_000
            )
            batched_run = _run_piconet(
                "batched", seed, 1, TRAIN_LOCKED, continuous_inquiry, 120_000
            )
            assert object_run == batched_run, f"seed {seed} diverged"


class TestSwarmLifecycle:
    def _swarm(self, kernel, horizon=1 << 20):
        schedule = continuous_inquiry()
        master = InquiryProcedure(kernel, schedule, name="m")
        swarm = InquiryScanSwarm(kernel, schedule, master.channel, name="life")
        rng = RandomStream(5, "life")
        row = swarm.add_slave(
            BDAddr(0xA), rng=rng, clock=BluetoothClock(offset=123), horizon_tick=horizon
        )
        return swarm, row

    def test_initial_state_idle(self, kernel):
        swarm, row = self._swarm(kernel)
        assert swarm.state_of(row) is ScannerState.IDLE
        assert swarm.stats_of(row).ids_heard == 0

    def test_double_start_rejected(self, kernel):
        swarm, row = self._swarm(kernel)
        swarm.start_row(row)
        with pytest.raises(RuntimeError):
            swarm.start_row(row)

    def test_stop_freezes_row(self, kernel):
        swarm, row = self._swarm(kernel)
        swarm.start_row(row)
        kernel.run_until(10_000)
        heard_at_stop = swarm.stats_of(row).ids_heard
        swarm.stop_row(row)
        kernel.run_until(200_000)
        assert swarm.state_of(row) is ScannerState.STOPPED
        assert swarm.stats_of(row).ids_heard == heard_at_stop

    def test_exhausted_past_horizon(self, kernel):
        # A continuous listener hears the master before tick 4 and backs
        # off; the longest backoff (1023 slots) ends well before 4096,
        # after which nothing can be heard before the horizon.
        swarm, row = self._swarm(kernel, horizon=4)
        swarm.start_row(row)
        kernel.run_until(4096)
        assert swarm.state_of(row) is ScannerState.EXHAUSTED

    def test_base_phase_validated(self, kernel):
        swarm, _ = self._swarm(kernel)
        with pytest.raises(ValueError):
            swarm.add_slave(BDAddr(0xB), rng=RandomStream(6, "x"), base_phase=32)

    def test_add_slave_returns_consecutive_rows(self, kernel):
        swarm, row = self._swarm(kernel)
        assert row == 0
        assert swarm.add_slave(BDAddr(0xB), rng=RandomStream(6, "x")) == 1
        assert swarm.slave_count == 2

    def test_zero_backoff_refiles_into_a_fresh_bucket_in_fifo_order(self, kernel):
        # Three slaves share one clock and phase, so they hear the same
        # ID once the master starts at tick 100; they are filed for it
        # in start order (0 at tick 0, then 2 and 1 at tick 1).  A 0-slot
        # backoff re-files each row for the tick it heard on; that
        # tick's bucket is already claimed, so the rows open a fresh one
        # and answer within the same tick, still in filing order.
        schedule = periodic_inquiry(3200, 16000, start=100)
        master = InquiryProcedure(kernel, schedule, name="m")
        config = ScanConfig.continuous(
            phase_mode=PhaseMode.TRAIN_LOCKED,
            backoff_max_slots=0,
            response_mode=ResponseMode.SINGLE,
        )
        swarm = InquiryScanSwarm(kernel, schedule, master.channel, config=config)
        clock = BluetoothClock(offset=123)
        rows = [
            swarm.add_slave(BDAddr(0xA + i), rng=RandomStream(i, "z"), clock=clock)
            for i in range(3)
        ]
        swarm.start_row(rows[0])
        kernel.run_until(1)
        swarm.start_row(rows[2])
        swarm.start_row(rows[1])
        kernel.run_until(20_000)
        heard = swarm.stats_of(rows[0]).first_heard_tick
        assert heard is not None and heard >= 100
        for row in rows:
            stats = swarm.stats_of(row)
            assert stats.first_heard_tick == heard
            assert stats.first_response_tick == heard + INQUIRY_RESPONSE_DELAY_TICKS
        (collision,) = master.channel.stats.collisions
        assert collision.senders == tuple(str(BDAddr(0xA + i)) for i in (0, 2, 1))

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(ScanConfig(), id="windowed"),
            pytest.param(ScanConfig.interleaved_with_page_scan(), id="interleaved"),
            pytest.param(ScanConfig.continuous(), id="continuous-sequence"),
            pytest.param(
                ScanConfig.continuous(phase_mode=PhaseMode.FIXED), id="continuous-fixed"
            ),
        ],
    )
    def test_unsupported_config_rejected(self, kernel, config):
        schedule = continuous_inquiry()
        master = InquiryProcedure(kernel, schedule, name="m")
        with pytest.raises(ValueError, match="continuous TRAIN_LOCKED"):
            InquiryScanSwarm(kernel, schedule, master.channel, config=config)

    def test_next_hear_matches_scanner(self, kernel):
        schedule = continuous_inquiry()
        master = InquiryProcedure(kernel, schedule, name="m")
        clock = BluetoothClock(offset=987_654)
        swarm = InquiryScanSwarm(kernel, schedule, master.channel, name="nh")
        row = swarm.add_slave(
            BDAddr(0xC), rng=RandomStream(7, "a"), clock=clock, base_phase=9
        )
        scanner = InquiryScanner(
            kernel,
            BDAddr(0xC),
            schedule,
            master.channel,
            rng=RandomStream(7, "a"),
            config=TRAIN_LOCKED,
            clock=clock,
            base_phase=9,
        )
        for from_tick in (0, 1, 37, 4095, 4096, 70_000):
            assert swarm.next_hear(row, from_tick) == scanner.next_hear(
                from_tick
            ), from_tick
            assert swarm.listen_position(row, from_tick) == scanner.listen_position(
                from_tick
            ), from_tick
