"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this file:

    python3 perfbench/spec.py > BENCHMARK.json

The JSON carries only the keys the benchmark contract allows; the
fuller story (what each per-layer metric should move, and where) lives
here and is printed by ``run.py --trace 1``.
"""

from __future__ import annotations

import json

from attribution import LAYERS, OTHER

RUN_SECONDS = 36

#: name -> why the workload is in the benchmark (one line each).
WORKLOADS = {
    "table1": (
        "5,000 one-master one-slave trials of the 4.1 discovery table: "
        "per-trial set-up (seeding, kernel and piconet build, runner "
        "dispatch) dominates; no collisions"
    ),
    "figure2": (
        "half the Figure 2 grid, 2-20 slaves x 30 replications: dense "
        "single-piconet inquiry where rendezvous, kernel and FHS "
        "collisions dominate; lan and core idle"
    ),
    "tracking": (
        "full BIPS, 40 walking users, 1000 s: every 5 simulated s each "
        "user asks where a peer is and how to reach them; the only "
        "workload with LAN, core and obs work"
    ),
}

#: End-to-end metrics: (name, unit, better, bound, meaning).  Times are
#: host wall time scaled to a nominal-speed host: each is divided by the
#: run's host slowdown, the fastest time of a fixed pure-Python loop (run
#: between passes, no program code in it) over its nominal 2.0 ms.  On a
#: shared 2-core host the same pass drifts by 10-40% over a few minutes
#: as neighbours load it, and the loop drifts with it.  The timing bounds
#: are the largest allowed all the same.
END_TO_END = (
    ("run_s", "s", "lower", 0.25,
     "seconds for one pass of the workload's fixed work, set-up excluded: "
     "each item's fastest time over the passes plus the least time between items"),
    ("item_p50_ms", "ms", "lower", 0.25,
     "median over items (trials, replications or tracking steps) of each "
     "item's fastest time over the run's passes"),
    ("item_p95_ms", "ms", "lower", 0.25,
     "95th percentile of the same per-item times (at least 10 items beyond it)"),
    ("setup_s", "s", "lower", 0.25,
     "fresh interpreter launch to first item: import repro.cli plus build"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident memory of the workload process after one pass"),
)

_RUN = "run_s, item_p95_ms"
#: Per-layer metrics: (name, unit, better, should move, where).
PER_LAYER = (
    ("bluetooth.self_s", "s", "lower", _RUN, "most on figure2, less on tracking/table1"),
    ("bluetooth.rendezvous", "count", "lower", _RUN,
     "calls to scan.next_listen_rendezvous; most on figure2"),
    ("bluetooth.next_tx", "count", "lower", _RUN,
     "calls to next_tx_of_position; most on figure2"),
    ("bluetooth.segments_per_rendezvous", "ratio", "lower", _RUN,
     "next_tx per rendezvous; most on figure2"),
    ("radio.self_s", "s", "lower", _RUN, "figure2 only; no change on table1/tracking"),
    ("radio.fhs_scheduled", "count", "lower", _RUN, "figure2 only"),
    ("radio.collisions", "count", "lower", _RUN, "figure2 only; zero on table1 (one slave)"),
    ("sim.self_s", "s", "lower", "run_s", "all three"),
    ("sim.events_scheduled", "count", "lower", "run_s",
     "calls into Kernel.post*/schedule*; event cuts show most on figure2"),
    ("sim.events_fired", "count", "lower", "run_s", "Kernel.events_fired; all three"),
    ("sim.ns_per_event", "ns", "lower", "run_s",
     "traced sim self time per fired event; all three"),
    ("lan.self_s", "s", "lower", _RUN, "tracking only; no change on figure2/table1"),
    ("lan.messages", "count", "lower", _RUN, "lan.stats.sent; tracking only"),
    ("core.self_s", "s", "lower", _RUN, "tracking only"),
    ("core.presence_applied", "count", "lower", _RUN,
     "server.presence_updates_received; tracking only"),
    ("core.queries_answered", "count", "higher", _RUN, "tracking only"),
    ("core.cycles_observed", "count", "lower", _RUN, "tracker.observe_cycle calls; tracking only"),
    ("obs.self_s", "s", "lower", _RUN, "tracking only"),
    ("obs.instrument_updates", "count", "lower", _RUN,
     "Counter/Gauge/Histogram inc/set/observe calls; tracking only"),
    ("runner.self_s", "s", "lower", "item_p50_ms, run_s", "table1; about 0 on figure2"),
    ("experiments.self_s", "s", "lower", "item_p50_ms, run_s", "table1; about 0 on figure2"),
    ("runner.items", "count", "lower", "item_p50_ms, run_s",
     "trial functions dispatched; table1 and figure2"),
    ("other.self_s", "s", "lower", "run_s",
     "repro packages outside the named layers, plus the benchmark driver"),
) + tuple(
    (f"{layer}.share_pct", "%", "lower", "run_s", "share of traced self time")
    for layer in LAYERS + (OTHER,)
) + (
    ("setup.import_s", "s", "lower", "setup_s", "import repro.cli; all three"),
    ("setup.build_s", "s", "lower", "setup_s", "configs, runner, simulation; tracking most"),
) + tuple(
    (f"setup.import.{layer}_s", "s", "lower", "setup_s",
     "-X importtime self time grouped by repro.<package>; all three")
    for layer in LAYERS + (OTHER,)
) + (
    ("trace.overhead_x", "x", "lower", "none", "traced / untraced pass time; reported only"),
)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
