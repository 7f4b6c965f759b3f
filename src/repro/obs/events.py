"""Typed structured events for the BIPS pipeline.

Events are the way components *announce* things: inquiry windows
opening, devices being discovered, deltas reaching the server, queries
being answered, workstations failing.  Each event is a frozen
dataclass, so consumers can filter by type and read fields instead of
parsing strings.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional, Type


@dataclass(frozen=True)
class Event:
    """Base class: every event happens at a simulation tick."""

    tick: int

    @property
    def category(self) -> str:
        """Trace category: the snake_cased class name."""
        name = type(self).__name__
        out = []
        for index, char in enumerate(name):
            if char.isupper() and index > 0:
                out.append("_")
            out.append(char.lower())
        return "".join(out)

    def describe(self) -> str:
        """Human-readable field dump."""
        parts = [
            f"{field.name}={getattr(self, field.name)!r}"
            for field in fields(self)
            if field.name != "tick"
        ]
        return " ".join(parts)


# -- bluetooth layer -------------------------------------------------------


@dataclass(frozen=True)
class InquiryStarted(Event):
    """A workstation opened an inquiry window over its room."""

    workstation_id: str
    room_id: str
    window_index: int


@dataclass(frozen=True)
class DeviceDiscovered(Event):
    """An inquiry received a device's FHS packet (first sighting this window)."""

    master: str
    address: str


# -- core layer ------------------------------------------------------------


@dataclass(frozen=True)
class DeltaPushed(Event):
    """A workstation pushed presence deltas to the central server (§2)."""

    workstation_id: str
    room_id: str
    presences: int
    absences: int


@dataclass(frozen=True)
class QueryServed(Event):
    """The server answered a location or path query."""

    kind: str
    querier: str
    target: str
    ok: bool


@dataclass(frozen=True)
class WorkstationFailed(Event):
    """A workstation stopped participating (fault injection / crash)."""

    workstation_id: str
    room_id: str


@dataclass(frozen=True)
class WorkstationRecovered(Event):
    """A failed workstation came back."""

    workstation_id: str
    room_id: str


@dataclass(frozen=True)
class ServerBrownout(Event):
    """The central server's endpoint went down (or came back)."""

    active: bool


@dataclass(frozen=True)
class UserLoggedIn(Event):
    """A user session bound its userid to a device address."""

    userid: str
    ok: bool


Handler = Callable[[Event], None]


class EventBus:
    """Synchronous pub/sub for :class:`Event` instances.

    Handlers subscribe to a specific event type (or to everything) and
    are invoked inline from ``emit`` in subscription order — the
    simulator is single-threaded and deterministic, and the bus keeps
    it that way.
    """

    def __init__(self) -> None:
        self._handlers: list[tuple[Optional[Type[Event]], Handler]] = []
        self.emitted = 0
        self.counts: dict[str, int] = {}

    def subscribe(
        self, handler: Handler, event_type: Optional[Type[Event]] = None
    ) -> None:
        """Call ``handler`` for every event (or only ``event_type`` ones)."""
        self._handlers.append((event_type, handler))

    def emit(self, event: Event) -> None:
        """Deliver ``event`` to every matching subscriber."""
        self.emitted += 1
        name = type(event).__name__
        self.counts[name] = self.counts.get(name, 0) + 1
        for event_type, handler in self._handlers:
            if event_type is None or isinstance(event, event_type):
                handler(event)


class NullEventBus(EventBus):
    """Drops everything; lets hot paths call ``emit`` unconditionally."""

    def emit(self, event: Event) -> None:  # pragma: no cover - trivial
        return None
