"""InquiryScanSwarm vs per-slave InquiryScanner: identical behaviour.

The swarm replaces N per-slave scanner objects in the Figure-2 piconet
(continuous, train-locked listeners); its acceptance bar is exact
equivalence — every counter, every response tick, every collision
record, every master result — for every response mode, with and
without enrolment stops.
"""

from __future__ import annotations

import pytest

from repro.bluetooth.address import BDAddr
from repro.bluetooth.btclock import CLKN_WRAP, BluetoothClock
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
    handles = {}
    for index in range(slave_count):
        rng = root.child("slave", str(index))
        clock = BluetoothClock(offset=rng.randint(0, CLKN_WRAP - 1))
        base_phase = rng.randint(0, 31)
        address = BDAddr(0x1000 + index)
        if swarm is not None:
            handle = swarm.add_slave(
                address,
                rng=rng.child("draws"),
                clock=clock,
                base_phase=base_phase,
                horizon_tick=horizon,
                name=f"slave-{index}",
            )
        else:
            handle = InquiryScanner(
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
        handle.start()
        handles[address] = handle
    if enroll:

        def on_discovered(packet, tick):
            window = schedule.windows.containing(tick)
            stop_at = window.end if window is not None else tick
            kernel.schedule_at(
                max(stop_at, kernel.now), handles[packet.sender].stop, label="enroll"
            )

        master.on_discovered = on_discovered
    kernel.run_until(horizon)
    slaves = [
        (
            h.state.value,
            h.stats.ids_heard,
            h.stats.backoffs,
            h.stats.responses,
            h.stats.first_heard_tick,
            h.stats.first_response_tick,
            tuple(h.stats.response_ticks),
        )
        for h in handles.values()
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
        handle = swarm.add_slave(
            BDAddr(0xA), rng=rng, clock=BluetoothClock(offset=123), horizon_tick=horizon
        )
        return swarm, handle

    def test_initial_state_idle(self, kernel):
        _, handle = self._swarm(kernel)
        assert handle.state is ScannerState.IDLE
        assert handle.stats.ids_heard == 0

    def test_double_start_rejected(self, kernel):
        _, handle = self._swarm(kernel)
        handle.start()
        with pytest.raises(RuntimeError):
            handle.start()

    def test_stop_freezes_row(self, kernel):
        _, handle = self._swarm(kernel)
        handle.start()
        kernel.run_until(10_000)
        heard_at_stop = handle.stats.ids_heard
        handle.stop()
        kernel.run_until(200_000)
        assert handle.state is ScannerState.STOPPED
        assert handle.stats.ids_heard == heard_at_stop

    def test_exhausted_past_horizon(self, kernel):
        # A continuous listener hears the master before tick 4 and backs
        # off; the longest backoff (1023 slots) ends well before 4096,
        # after which nothing can be heard before the horizon.
        _, handle = self._swarm(kernel, horizon=4)
        handle.start()
        kernel.run_until(4096)
        assert handle.state is ScannerState.EXHAUSTED

    def test_base_phase_validated(self, kernel):
        swarm, _ = self._swarm(kernel)
        with pytest.raises(ValueError):
            swarm.add_slave(BDAddr(0xB), rng=RandomStream(6, "x"), base_phase=32)

    def test_handle_surface(self, kernel):
        swarm, handle = self._swarm(kernel)
        assert handle.address == BDAddr(0xA)
        assert handle.name == str(BDAddr(0xA))
        assert handle.swarm is swarm and handle.row == 0
        assert swarm.slave_count == 1

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
        handle = swarm.add_slave(
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
            assert swarm.next_hear(handle.row, from_tick) == scanner.next_hear(
                from_tick
            ), from_tick
            assert swarm.listen_position(
                handle.row, from_tick
            ) == scanner.listen_position(from_tick), from_tick
