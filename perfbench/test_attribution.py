"""Checks of the layer attribution on hand-built profiles.

Run with: python3 -m pytest perfbench/test_attribution.py
"""

from __future__ import annotations

import pytest

from attribution import (
    call_count,
    entry_calls,
    import_seconds_by_layer,
    layer_of_file,
    layer_self_seconds,
)

KERNEL = ("/x/src/repro/sim/kernel.py", 10, "run_until")
POST = ("/x/src/repro/sim/kernel.py", 20, "post")
SCHEDULE = ("/x/src/repro/sim/kernel.py", 30, "schedule")
SCHEDULE_AT = ("/x/src/repro/sim/kernel.py", 40, "schedule_at")
SCAN = ("/x/src/repro/bluetooth/scan.py", 5, "next_listen_rendezvous")
SERVER = ("/x/src/repro/core/server.py", 7, "locate")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
COPY = ("/usr/lib/python3.11/copy.py", 1, "deepcopy")
ROOT = ("/x/perfbench/worker.py", 1, "trace")


def entry(calls: int, self_s: float, callers: dict) -> tuple:
    return (calls, calls, self_s, self_s, callers)


def edge(calls: int, self_s: float) -> tuple:
    return (calls, calls, self_s, self_s)


STATS = {
    ROOT: entry(1, 0.5, {}),
    KERNEL: entry(1, 2.0, {ROOT: edge(1, 2.0)}),
    POST: entry(10, 1.0, {SCAN: edge(6, 0.6), KERNEL: edge(4, 0.4)}),
    SCHEDULE: entry(3, 0.1, {SERVER: edge(3, 0.1)}),
    SCHEDULE_AT: entry(5, 0.2, {SCHEDULE: edge(3, 0.1), SCAN: edge(2, 0.1)}),
    SCAN: entry(6, 3.0, {KERNEL: edge(6, 3.0)}),
    SERVER: entry(2, 1.0, {ROOT: edge(2, 1.0)}),
    # A builtin called from two layers: 3 s from bluetooth, 1 s from core.
    HEAPPUSH: entry(8, 4.0, {SCAN: edge(6, 3.0), SERVER: edge(2, 1.0)}),
    # Stdlib called only by the builtin's callers' helper chain.
    COPY: entry(1, 0.4, {HEAPPUSH: edge(1, 0.4)}),
}


def test_layer_of_file():
    assert layer_of_file("/a/src/repro/bluetooth/scan.py") == "bluetooth"
    assert layer_of_file("/a/src/repro/building/layouts.py") == "other"
    assert layer_of_file("/a/src/repro/cli.py") == "other"
    assert layer_of_file("/usr/lib/python3.11/heapq.py") is None


def test_foreign_time_follows_callers_and_shares_sum_to_total():
    seconds = layer_self_seconds(STATS)
    total = sum(entry[2] for entry in STATS.values())
    assert sum(seconds.values()) == pytest.approx(total)
    # heappush 4.0 s and deepcopy 0.4 s split 3:1 between bluetooth and core.
    assert seconds["bluetooth"] == pytest.approx(3.0 + 3.0 + 0.3)
    assert seconds["core"] == pytest.approx(1.0 + 1.0 + 0.1)
    assert seconds["sim"] == pytest.approx(2.0 + 1.0 + 0.1 + 0.2)
    assert seconds["other"] == pytest.approx(0.5)  # the benchmark's own frame


def test_call_counts_and_absent_functions():
    assert call_count(STATS, "repro/bluetooth/scan.py", "next_listen_rendezvous") == 6
    assert call_count(STATS, "repro/bluetooth/hopping.py", "next_tx_of_position") is None


def test_entry_calls_count_each_scheduling_request_once():
    # post 10 + schedule 3 + schedule_at only from scan (2); the 3
    # schedule -> schedule_at delegations are not new requests.
    assert entry_calls(STATS, "repro/sim/kernel.py", ("post", "schedule")) == 15
    assert entry_calls(STATS, "repro/lan/transport.py", ("send",)) is None


def test_import_time_groups_by_enclosing_repro_package():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   heapq",
        "import time:       200 |        300 | repro.sim.kernel",
        "import time:        50 |         50 |     json.decoder",
        "import time:        70 |        120 |   json",
        "import time:       400 |        520 | repro.core.server",
        "import time:        30 |         30 | os",
    ])
    seconds = import_seconds_by_layer(report)
    assert seconds["sim"] == pytest.approx(300e-6)
    assert seconds["core"] == pytest.approx(520e-6)
    assert seconds["other"] == pytest.approx(30e-6)
