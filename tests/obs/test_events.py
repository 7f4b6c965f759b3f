"""Unit tests for the typed event bus."""

from __future__ import annotations

from repro.obs.events import (
    DeltaPushed,
    DeviceDiscovered,
    EventBus,
    InquiryStarted,
    NullEventBus,
    QueryServed,
)


class TestEvent:
    def test_category_is_snake_cased_class_name(self):
        event = DeviceDiscovered(tick=5, master="ws-1", address="00:11")
        assert event.category == "device_discovered"
        started = InquiryStarted(tick=0, workstation_id="w", room_id="r", window_index=0)
        assert started.category == "inquiry_started"

    def test_describe_dumps_fields_without_tick(self):
        event = QueryServed(tick=3, kind="location", querier="u", target="T", ok=True)
        text = event.describe()
        assert "kind='location'" in text
        assert "ok=True" in text
        assert "tick" not in text

    def test_events_are_frozen_and_comparable(self):
        a = DeviceDiscovered(tick=1, master="m", address="a")
        b = DeviceDiscovered(tick=1, master="m", address="a")
        assert a == b


class TestEventBus:
    def test_wildcard_subscriber_sees_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(DeviceDiscovered(tick=1, master="m", address="a"))
        bus.emit(QueryServed(tick=2, kind="path", querier="u", target="t", ok=False))
        assert len(seen) == 2

    def test_typed_subscriber_filters(self):
        bus = EventBus()
        discovered = []
        bus.subscribe(discovered.append, DeviceDiscovered)
        bus.emit(DeviceDiscovered(tick=1, master="m", address="a"))
        bus.emit(QueryServed(tick=2, kind="path", querier="u", target="t", ok=True))
        assert len(discovered) == 1
        assert discovered[0].address == "a"

    def test_counts_by_type_name(self):
        bus = EventBus()
        bus.emit(DeviceDiscovered(tick=1, master="m", address="a"))
        bus.emit(DeviceDiscovered(tick=2, master="m", address="b"))
        bus.emit(DeltaPushed(tick=3, workstation_id="w", room_id="r",
                             presences=1, absences=0))
        assert bus.emitted == 3
        assert bus.counts == {"DeviceDiscovered": 2, "DeltaPushed": 1}

    def test_null_bus_drops_but_stays_subscribable(self):
        bus = NullEventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(DeviceDiscovered(tick=1, master="m", address="a"))
        assert seen == []
        assert bus.emitted == 0
