"""Batched inquiry-scan: one kernel event advances a whole piconet.

:class:`InquiryScanSwarm` is the dense-piconet counterpart of
:class:`~repro.bluetooth.scan.InquiryScanner`.  Where the per-slave
scanner is one Python object with one kernel event (plus an
:class:`~repro.sim.kernel.EventHandle`) per state transition, the swarm
keeps all slaves of one piconet as integer rows: clock offsets, hop
phases, lifecycle state and counters are parallel ``array('q')``
columns, and a due index (tick -> rows, in filing order) files each row
under the tick at which it next acts.  One handle-free kernel event per
distinct due tick then advances every row due at that tick
(:meth:`InquiryScanSwarm._on_advance`), and all FHS responses produced
within one advance are announced to the radio channel in a single
batched call.  Callers hold a slave as the row ``int`` that
:meth:`InquiryScanSwarm.add_slave` returns.

The swarm serves exactly one piconet shape: the Figure-2 one, where
every slave listens continuously with a train-locked phase and the
whole population is present from tick 0.  ``figure2`` is the only
experiment that builds it; every other workload (one slave per trial,
or walkers joining and leaving rooms) runs per-slave scanners, which
are faster there (see docs/performance.md).

Equivalence contract (asserted by ``tests/bluetooth/test_swarm.py``
and pinned by the golden payload digests): the swarm replays the
``InquiryScanner`` state machine transition for transition —

* every slave draws only from its own :class:`RandomStream`, at the
  same causal points, so draw sequences are identical;
* rows are filed in the order in which per-slave scanners would
  schedule their events, and buckets are processed FIFO, so same-tick
  slaves act in the same relative order;
* the bucket of a tick is claimed whole when its event fires, so a row
  re-filed for the current tick (a 0-slot backoff) opens a fresh bucket
  and a fresh kernel event, behind everything already queued for that
  tick — the per-slave scanner's same-tick continuation;
* within one master schedule, ID transmissions occupy ticks congruent
  to {0, 1} (mod 4) past the window start while FHS deliveries occupy
  {2, 3}, so hear/respond steps never share a tick with channel
  deliveries — the batched announce at the end of an advance cannot
  reorder anything observable (see docs/performance.md).

What is *not* byte-matched: kernel-internal telemetry (``sim.*``
event counts, queue depths, span/trace labels) — the swarm fires one
event where per-slave scanners fire N, by design.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from types import MappingProxyType
from typing import Mapping, Optional

from repro.radio.channel import ResponseChannel
from repro.sim.hotpath import hot_path
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream

from .address import BDAddr
from .btclock import CLKN_WRAP, BluetoothClock
from .constants import (
    INQUIRY_RESPONSE_DELAY_TICKS,
    NUM_INQUIRY_FREQUENCIES,
    SCAN_FREQUENCY_CHANGE_TICKS,
    TICKS_PER_SLOT,
    TRAIN_SIZE,
)
from .hopping import InquiryTransmitSchedule
from .packets import FHSPacket
from .scan import (
    PhaseMode,
    ResponseMode,
    ScanConfig,
    ScannerState,
    ScannerStats,
)

#: Row lifecycle codes (the ``state`` column).  Values mirror
#: :class:`~repro.bluetooth.scan.ScannerState` one for one.
_IDLE = 0
_SEEKING = 1
_BACKOFF = 2
_RESPONDING = 3
_DONE = 4
_EXHAUSTED = 5
_STOPPED = 6

_STATE_NAMES: tuple[ScannerState, ...] = (
    ScannerState.IDLE,
    ScannerState.SEEKING,
    ScannerState.BACKOFF,
    ScannerState.RESPONDING,
    ScannerState.DONE,
    ScannerState.EXHAUSTED,
    ScannerState.STOPPED,
)

#: Pending-action codes (the ``action`` column): what a row does when
#: its due tick arrives.  Each maps to one ``InquiryScanner`` callback.
_ACT_SEEK = 1  # InquiryScanner._seek
_ACT_HEAR = 2  # InquiryScanner._on_first_hear
_ACT_BACKOFF_END = 3  # InquiryScanner._after_backoff
_ACT_RESPOND = 4  # InquiryScanner._respond

#: Response-mode codes.
_MODE_CONTINUOUS = 0
_MODE_BACKOFF_EACH = 1
_MODE_SINGLE = 2

_MODE_CODES: Mapping[ResponseMode, int] = MappingProxyType(
    {
        ResponseMode.CONTINUOUS: _MODE_CONTINUOUS,
        ResponseMode.BACKOFF_EACH: _MODE_BACKOFF_EACH,
        ResponseMode.SINGLE: _MODE_SINGLE,
    }
)

#: Span of each cached per-position transmit timetable.  Tables are
#: aligned to absolute ``[block * span, (block + 1) * span)`` blocks so
#: slaves querying the same position at scattered ticks (seek re-arms
#: are uniformly spread across a piconet) share tables regardless of
#: query order; a rolling start would be invalidated by every query
#: behind it.  Twice the longest phase segment
#: (``SCAN_FREQUENCY_CHANGE_TICKS``), so one segment touches at most
#: two blocks.  (Bounding the span also keeps the underlying schedule
#: walk finite for never-transmitted positions.)
_TX_TABLE_SPAN = 2 * SCAN_FREQUENCY_CHANGE_TICKS


class InquiryScanSwarm:
    """All inquiry-scanning slaves of one piconet, advanced in batch.

    One swarm serves one master schedule/channel pair and one shared
    :class:`ScanConfig`, which must be continuous with a TRAIN_LOCKED
    phase (the Figure-2 slave); its response mode, backoff bound and
    inqrespTO apply.  Per-slave variation (clock offset, base phase,
    horizon, RNG stream) lives in the row columns.
    """

    def __init__(
        self,
        kernel: Kernel,
        schedule: InquiryTransmitSchedule,
        channel: ResponseChannel,
        config: Optional[ScanConfig] = None,
        name: str = "swarm",
    ) -> None:
        if config is None:
            config = ScanConfig.continuous(phase_mode=PhaseMode.TRAIN_LOCKED)
        if not config.is_continuous or config.phase_mode is not PhaseMode.TRAIN_LOCKED:
            raise ValueError(
                "InquiryScanSwarm needs a continuous TRAIN_LOCKED ScanConfig, got "
                f"window {config.window_ticks}/{config.interval_ticks} ticks, "
                f"phase {config.phase_mode.value}"
            )
        self.kernel = kernel
        self.schedule = schedule
        self.channel = channel
        self.config = config
        self.name = name
        # One signed 64-bit column per row attribute, indexed by row.
        #: Device clock offset (CLKN = tick + offset mod 2^28).
        self._offset: array[int] = array("q")
        #: Base sequence position (hop-frequency state).
        self._base: array[int] = array("q")
        #: Scanning stops at this tick.
        self._horizon: array[int] = array("q")
        #: Lifecycle (power mode) code.
        self._state: array[int] = array("q")
        #: Pending-action code for the next due tick.
        self._action: array[int] = array("q")
        self._ids_heard: array[int] = array("q")
        self._backoffs: array[int] = array("q")
        self._responses: array[int] = array("q")
        #: -1 until the first ID is heard / the first FHS is sent.
        self._first_heard: array[int] = array("q")
        self._first_response: array[int] = array("q")
        # Due index: rows that act at a tick, in filing (FIFO) order.
        self._due: dict[int, list[int]] = {}
        # Per-row Python objects the columns cannot hold.
        self._addresses: list[BDAddr] = []
        self._rngs: list[RandomStream] = []
        self._names: list[str] = []
        self._response_ticks: list[list[int]] = []
        # Shared-config scalars, predigested so the hot loop does no
        # enum dispatch or dataclass attribute chasing.
        self._backoff_max = config.backoff_max_slots
        self._response_timeout = config.response_timeout_ticks
        self._mode_code = _MODE_CODES[config.response_mode]
        self._sequence = schedule.sequence
        self._label = f"swarm:{name}"
        # Reusable same-advance FHS batch (flushed every advance).
        self._batch: list[FHSPacket] = []
        # Shared per-position transmit timetables: sorted tx ticks of
        # position p within one block-aligned span, answered by
        # bisection.  One schedule walk per refilled block replaces one
        # walk per rendezvous query, and every slave of the piconet
        # shares the tables — the cross-slave sharing a per-slave
        # scanner cannot express (its cache keys embed each slave's own
        # segment end).  Two slots per position (flat, index 2p/2p+1)
        # keep adjacent blocks live so stragglers behind a block
        # boundary don't evict the block everyone else is using.
        # Entries never go stale: the schedule is immutable.
        self._tt_tables: list[tuple[int, ...]] = [()] * (2 * NUM_INQUIRY_FREQUENCIES)
        self._tt_blocks = [-1] * (2 * NUM_INQUIRY_FREQUENCIES)

    # -- population -------------------------------------------------------

    @property
    def slave_count(self) -> int:
        """Number of slaves (rows) ever added to this swarm."""
        return len(self._offset)

    def add_slave(
        self,
        address: BDAddr,
        rng: RandomStream,
        clock: Optional[BluetoothClock] = None,
        base_phase: int = 0,
        horizon_tick: int = 1 << 62,
        name: str = "",
    ) -> int:
        """Add one slave and return its row; defaults mirror
        ``InquiryScanner.__init__``."""
        if clock is None:
            clock = BluetoothClock()
        if not 0 <= base_phase < NUM_INQUIRY_FREQUENCIES:
            raise ValueError(f"base_phase out of range: {base_phase}")
        row = len(self._offset)
        self._offset.append(clock.offset)
        self._base.append(base_phase)
        self._horizon.append(horizon_tick)
        self._state.append(_IDLE)
        self._action.append(0)
        self._ids_heard.append(0)
        self._backoffs.append(0)
        self._responses.append(0)
        self._first_heard.append(-1)
        self._first_response.append(-1)
        self._addresses.append(address)
        self._rngs.append(rng)
        self._names.append(name or str(address))
        self._response_ticks.append([])
        return row

    # -- per-row control (mirrors InquiryScanner.start/stop) ---------------

    def start_row(self, row: int) -> None:
        """Begin scanning for one row now."""
        if self._state[row] != _IDLE:
            raise RuntimeError(
                f"slave {self._names[row]} already started "
                f"({_STATE_NAMES[self._state[row]].value})"
            )
        self._state[row] = _SEEKING
        self._action[row] = _ACT_SEEK
        self._queue(self.kernel.now, row)

    def stop_row(self, row: int) -> None:
        """Abort scanning for one row (left coverage / powered down).

        The row's pending due entry is left in place and skipped when it
        surfaces — the batched analogue of the per-slave scanner's event
        tombstone.
        """
        self._state[row] = _STOPPED

    def state_of(self, row: int) -> ScannerState:
        """The row's lifecycle state as the ``InquiryScanner`` enum."""
        return _STATE_NAMES[self._state[row]]

    def stats_of(self, row: int) -> ScannerStats:
        """The row's counters as an ``InquiryScanner`` ``ScannerStats``."""
        first_heard = self._first_heard[row]
        first_response = self._first_response[row]
        return ScannerStats(
            ids_heard=self._ids_heard[row],
            backoffs=self._backoffs[row],
            responses=self._responses[row],
            first_heard_tick=None if first_heard < 0 else first_heard,
            first_response_tick=None if first_response < 0 else first_response,
            response_ticks=list(self._response_ticks[row]),
        )

    # -- frequency geometry (mirrors InquiryScanner) -----------------------

    def listen_position(self, row: int, tick: int) -> int:
        """Sequence position the row listens on at ``tick``.

        Integer-only replay of ``InquiryScanner.listen_position`` for
        the TRAIN_LOCKED phase (and so of ``BluetoothClock.scan_phase``):
        the 16 positions of the starting train, one per 1.28 s.
        """
        clkn = (tick + self._offset[row]) % CLKN_WRAP
        step = clkn // SCAN_FREQUENCY_CHANGE_TICKS
        base = self._base[row]
        train_start = base - base % TRAIN_SIZE
        return train_start + (base % TRAIN_SIZE + step) % TRAIN_SIZE

    def _tx_table(self, position: int, block: int) -> tuple[int, ...]:
        """The master's tx ticks for ``position`` within timetable block
        ``block`` (``[block * span, (block + 1) * span)``), cached.

        Of the position's two slots, a miss refills the one holding the
        older block, keeping the most recent block resident for the
        rest of the piconet.
        """
        index = position + position
        blocks = self._tt_blocks
        if blocks[index] == block:
            return self._tt_tables[index]
        if blocks[index + 1] == block:
            return self._tt_tables[index + 1]
        if blocks[index] > blocks[index + 1]:
            index += 1
        start = block * _TX_TABLE_SPAN
        table = self.schedule.tx_ticks_of_position(
            position, start, start + _TX_TABLE_SPAN
        )
        blocks[index] = block
        self._tt_tables[index] = table
        return table

    def next_hear(self, row: int, from_tick: int) -> Optional[int]:
        """First tick >= ``from_tick`` at which the row hears an ID.

        Integer-only replay of ``scan.next_listen_rendezvous`` for a
        continuous listener, clipped to the row's horizon: intersect the
        1.28 s phase segments with the master schedule.  Master-idle
        stretches are skipped in one ``next_active`` jump instead of
        being walked segment by segment — no transmission can land
        outside the schedule's windows.
        """
        before = self._horizon[row]
        offset = self._offset[row]
        base = self._base[row]
        train_start = base - base % TRAIN_SIZE
        base_in_train = base % TRAIN_SIZE
        next_active = self.schedule.windows.next_active
        tick = from_tick
        while tick < before:
            active = next_active(tick)
            if active is None:
                return None
            if active > tick:
                tick = active
                if tick >= before:
                    return None
            # Inline of listen_position(row, tick): one clkn computation
            # feeds both the segment end and the position, saving a call
            # in the hottest loop.
            clkn = (tick + offset) % CLKN_WRAP
            segment_end = (
                tick + SCAN_FREQUENCY_CHANGE_TICKS - clkn % SCAN_FREQUENCY_CHANGE_TICKS
            )
            if segment_end > before:
                segment_end = before
            step = clkn // SCAN_FREQUENCY_CHANGE_TICKS
            position = train_start + (base_in_train + step) % TRAIN_SIZE
            # Answer from the position's cached timetable.  Clipping the
            # table to the row's segment gives exactly the bounded
            # first-tx lookup, because a tx instant is independent of
            # the cutoff.
            block = tick // _TX_TABLE_SPAN
            table = self._tx_table(position, block)
            index = bisect_left(table, tick)
            if index < len(table):
                candidate = table[index]
                if candidate < segment_end:
                    return candidate
                # candidate >= segment_end: no tx in the segment.
            else:
                # No tx in [tick, block end); the segment may spill into
                # the next block (it is at most half a span long, so
                # never further).
                boundary = (block + 1) * _TX_TABLE_SPAN
                if segment_end > boundary:
                    table = self._tx_table(position, block + 1)
                    if table and table[0] < segment_end:
                        return table[0]
            tick = segment_end
        return None

    # -- the batched state machine ----------------------------------------

    def _queue(self, tick: int, row: int) -> None:
        """File ``row`` for ``tick``; first filer posts the kernel event."""
        bucket = self._due.get(tick)
        if bucket is None:
            self._due[tick] = [row]
            self.kernel.post_at(tick, self._on_advance, self._label)
        else:
            bucket.append(row)

    @hot_path
    def _on_advance(self) -> None:
        """Advance every row due now — the swarm's one kernel callback.

        Rows are processed in FIFO order (= the per-slave scanners' event
        sequence order); FHS responses produced during the pass are
        collected and announced to the channel in one batched call at
        the end (safe: deliveries never share a tick with hear/respond
        steps — see the module docstring).  The bucket is claimed whole,
        so rows re-filed for ``now`` during the pass open a fresh one.
        """
        now = self.kernel.now
        rows = self._due.pop(now)
        state = self._state
        action = self._action
        batch = self._batch
        batch_tick = -1
        batch_channel = -1
        for row in rows:
            if state[row] == _STOPPED:
                continue  # tombstoned by stop_row; nothing pending
            act = action[row]
            if act == _ACT_RESPOND:
                tx_tick, rf_channel = self._step_respond(row, now)
                if batch_tick < 0:
                    batch_tick = tx_tick
                    batch_channel = rf_channel
                elif tx_tick != batch_tick or rf_channel != batch_channel:
                    # Distinct keys within one advance cannot happen for
                    # slaves of one master (same hear tick -> same
                    # position); handled anyway so the invariant is
                    # local, not load-bearing.
                    self.channel.schedule_fhs_batch(batch_tick, batch_channel, batch)
                    batch.clear()
                    batch_tick = tx_tick
                    batch_channel = rf_channel
            elif act == _ACT_HEAR:
                self._step_first_hear(row, now)
            elif act == _ACT_BACKOFF_END:
                self._step_after_backoff(row, now)
            else:  # _ACT_SEEK
                self._step_seek(row, now)
        if batch:
            self.channel.schedule_fhs_batch(batch_tick, batch_channel, batch)
            batch.clear()

    def _step_seek(self, row: int, now: int) -> None:
        """Mirror of ``InquiryScanner._seek``."""
        heard = self.next_hear(row, now)
        if heard is None:
            self._state[row] = _EXHAUSTED
            return
        self._state[row] = _SEEKING
        self._action[row] = _ACT_HEAR
        self._queue(heard, row)

    def _step_first_hear(self, row: int, now: int) -> None:
        """Mirror of ``InquiryScanner._on_first_hear``."""
        self._ids_heard[row] += 1
        if self._first_heard[row] < 0:
            self._first_heard[row] = now
        self._begin_backoff(row, now)

    def _begin_backoff(self, row: int, now: int) -> None:
        """Mirror of ``InquiryScanner._begin_backoff`` (the only draw)."""
        self._backoffs[row] += 1
        backoff_ticks = self._rngs[row].backoff_slots(self._backoff_max) * TICKS_PER_SLOT
        self._state[row] = _BACKOFF
        self._action[row] = _ACT_BACKOFF_END
        self._queue(now + backoff_ticks, row)

    def _step_after_backoff(self, row: int, now: int) -> None:
        """Mirror of ``InquiryScanner._after_backoff``."""
        heard = self.next_hear(row, now)
        if heard is None:
            self._state[row] = _EXHAUSTED
            return
        # inqrespTO: expired before any ID arrived, back to plain scan.
        if heard - now > self._response_timeout:
            self._state[row] = _SEEKING
            self._action[row] = _ACT_HEAR
            self._queue(heard, row)
            return
        self._state[row] = _RESPONDING
        self._action[row] = _ACT_RESPOND
        self._queue(heard, row)

    def _step_respond(self, row: int, now: int) -> tuple[int, int]:
        """Mirror of ``InquiryScanner._respond`` minus the announce.

        Returns ``(tx_tick, rf_channel)``; the caller batches the
        actual channel announcement across same-advance responders.
        """
        self._ids_heard[row] += 1
        position = self.listen_position(row, now)
        rf_channel = self._sequence[position]
        tx_tick = now + INQUIRY_RESPONSE_DELAY_TICKS
        self._batch.append(
            FHSPacket(
                sender=self._addresses[row],
                clkn=(tx_tick + self._offset[row]) % CLKN_WRAP,
                channel=rf_channel,
                tx_tick=tx_tick,
            )
        )
        self._responses[row] += 1
        self._response_ticks[row].append(tx_tick)
        if self._first_response[row] < 0:
            self._first_response[row] = tx_tick
        mode = self._mode_code
        if mode == _MODE_SINGLE:
            self._state[row] = _DONE
            return tx_tick, rf_channel
        if mode == _MODE_BACKOFF_EACH:
            self._begin_backoff(row, now)
            return tx_tick, rf_channel
        # CONTINUOUS: answer the next ID heard, no further backoff —
        # unless the air goes quiet past inqrespTO.
        heard = self.next_hear(row, now + 1)
        if heard is None:
            self._state[row] = _EXHAUSTED
            return tx_tick, rf_channel
        if heard - now > self._response_timeout:
            self._state[row] = _SEEKING
            self._action[row] = _ACT_HEAR
            self._queue(heard, row)
            return tx_tick, rf_channel
        self._state[row] = _RESPONDING
        self._action[row] = _ACT_RESPOND
        self._queue(heard, row)
        return tx_tick, rf_channel

    def __repr__(self) -> str:
        return (
            f"InquiryScanSwarm(name={self.name!r}, slaves={self.slave_count}, "
            f"pending_ticks={len(self._due)})"
        )


__all__ = ["InquiryScanSwarm"]
