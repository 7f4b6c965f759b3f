"""One fresh interpreter running one workload; prints one JSON line.

Started by ``run.py`` (never imported by it), in one of three modes:

* ``setup``: import ``repro.cli`` and build the workload, then stop.
  Reports the monotonic clock reading at the moment the first item
  could start, so the parent can time launch-to-ready.
* ``measure``: set up, then run whole passes of the workload's fixed
  work until ``--seconds`` would be exceeded (at least one pass).
* ``trace``: set up, run one untraced pass, then one pass under the
  stdlib deterministic profiler with public counters read around it.

Usage: python3 perfbench/worker.py --mode measure --workload table1 \
    --seed 1 --seconds 10 --out-dir .perfbench_out
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional


def _setup(workload_name: str, seed: int) -> tuple[Any, dict, dict]:
    started = time.perf_counter()
    import repro.cli  # noqa: F401  (what every ``bips`` command pays)

    imported = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    state = workload.prepare(seed)
    ready = time.perf_counter()
    timing = {
        "ready": ready,
        "import_s": imported - started,
        "build_s": ready - imported,
    }
    return workload, state, timing


def _environment() -> dict:
    """What the measured numbers depend on besides the code."""
    env: dict[str, Any] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
    # Engine and scheduler knobs may be deleted; record them if present.
    try:
        from repro.sim.batch import resolve_engine

        env["engine"] = resolve_engine()
    except (ImportError, TypeError, ValueError):
        env["engine"] = None
    from repro.sim.kernel import Kernel

    env["scheduler"] = getattr(Kernel(), "scheduler", None)
    return env


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _timed_pass(workload: Any, state: dict) -> tuple[Any, float]:
    started = time.perf_counter()
    result = workload.run_pass(state)
    return result, time.perf_counter() - started


def _pass_record(result: Any, run_s: float) -> dict:
    return {
        "run_s": run_s,
        "digest": result.digest,
        "attempted": result.attempted,
        "failed": result.failed,
        "check_failures": result.check_failures,
        "items": len(result.item_seconds),
        "model": result.model,
        "counters": result.counters,
    }


#: Iterations and repeats of the reference loop timed after every pass,
#: and the loop's fastest time on an unloaded host (2 vCPUs of an Intel
#: Xeon, CPython 3.11), the speed the reported times are scaled to.
REFERENCE_LOOP = 40_000
REFERENCE_REPEATS = 20
REFERENCE_NOMINAL_S = 2.0e-3


def _reference_seconds() -> float:
    """Host time of a fixed pure-Python loop that runs no program code."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return time.perf_counter() - started


def measure(workload: Any, state: dict, seed: int, seconds: float) -> dict:
    started = time.perf_counter()
    passes = []
    item_runs: list[list[float]] = []
    reference: list[float] = []
    peak_rss_kb = 0
    while True:
        reference += [_reference_seconds() for _ in range(REFERENCE_REPEATS)]
        if passes:
            state = workload.prepare(seed)
        result, run_s = _timed_pass(workload, state)
        state = None
        passes.append(_pass_record(result, run_s))
        item_runs.append(result.item_seconds)
        if len(passes) == 1:
            # Peak after one pass: later passes repeat the same work.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - started
        if elapsed + run_s > seconds:
            break
    # Every pass repeats each item with the same inputs: an item's time
    # is the fastest of its repeats.  The shared host slows every process
    # by up to half for seconds at a time, and host noise only ever adds
    # time, so the fastest repeat is the steadiest estimate of the item's
    # own cost.  The pass time is rebuilt the same way: the items'
    # fastest times plus the least time spent between items.  Over
    # minutes the host's speed drifts too, even in those fastest
    # repeats; ``host_slowdown``, the reference loop's fastest time over
    # the run against its nominal time, lets the caller divide it out.
    items = [min(repeats) for repeats in zip(*item_runs, strict=True)]
    between = min(
        record["run_s"] - sum(times) for record, times in zip(passes, item_runs)
    )
    run_s = sum(items) + between
    items.sort()
    return {
        "passes": passes,
        "run_s": run_s,
        "item_p50_s": _percentile(items, 50),
        "item_p95_s": _percentile(items, 95),
        "peak_rss_kb": peak_rss_kb,
        "host_slowdown": min(reference) / REFERENCE_NOMINAL_S,
    }


class _InstanceLog:
    """Records the instances of one program class created while
    installed, so the traced run can read their public counters.
    A class that no longer exists is recorded as absent."""

    def __init__(self, module: str, name: str) -> None:
        import importlib

        self.instances: list[Any] = []
        try:
            self.cls: Optional[type] = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            self.cls = None
            return
        original = self.cls.__init__
        instances = self.instances

        def recording_init(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            instances.append(obj)

        self._original = original
        self.cls.__init__ = recording_init  # type: ignore[misc]

    def remove(self) -> None:
        if self.cls is not None:
            self.cls.__init__ = self._original  # type: ignore[misc]


#: Public counters read from program objects in the traced run:
#: metric -> (module, class, reader).
_COUNTERS: dict[str, tuple[str, str, Callable[[Any], int]]] = {
    "sim.events_fired": ("repro.sim.kernel", "Kernel", lambda k: k.events_fired),
    "radio.fhs_scheduled": (
        "repro.radio.channel", "ResponseChannel", lambda c: c.stats.transmissions,
    ),
    "radio.collisions": (
        "repro.radio.channel", "ResponseChannel", lambda c: c.stats.collision_events,
    ),
    "lan.messages": ("repro.lan.transport", "LANTransport", lambda t: t.stats.sent),
    "core.presence_applied": (
        "repro.core.server", "BIPSServer", lambda s: s.presence_updates_received,
    ),
}


def _unless_absent(
    calls: Optional[int], path: str, names: tuple[str, ...]
) -> Optional[int]:
    """A profiled call count, 0 for a function that exists but was never
    called, None (absent) for one no longer defined in the source."""
    if calls is not None:
        return calls
    import repro

    source = Path(repro.__file__).resolve().parent.parent / path
    if not source.is_file():
        return None
    text = source.read_text()
    defined = any(re.search(rf"\bdef {re.escape(name)}\(", text) for name in names)
    return 0 if defined else None


def trace(workload: Any, state: dict, seed: int, out_dir: Path, name: str) -> dict:
    import cProfile
    import pstats

    import attribution

    untraced, untraced_s = _timed_pass(workload, state)

    logs: dict[tuple[str, str], _InstanceLog] = {}
    for module, cls_name, _ in _COUNTERS.values():
        if (module, cls_name) not in logs:
            logs[(module, cls_name)] = _InstanceLog(module, cls_name)
    # Built after the logs are installed, so objects made in set-up
    # (the tracking simulation's kernel, LAN and server) are counted.
    state = workload.prepare(seed)
    totals: dict[str, Optional[int]] = {
        metric: (0 if logs[(module, cls)].cls is not None else None)
        for metric, (module, cls, _) in _COUNTERS.items()
    }

    def harvest() -> None:
        for metric, (module, cls, read) in _COUNTERS.items():
            for obj in logs[(module, cls)].instances:
                totals[metric] += read(obj)  # type: ignore[operator]
        for log in logs.values():
            log.instances.clear()

    runner = state.get("runner")
    if runner is not None:
        runner.after_item = harvest
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    traced = workload.run_pass(state)
    profiler.disable()
    traced_s = time.perf_counter() - started
    harvest()
    for log in logs.values():
        log.remove()

    out_dir.mkdir(parents=True, exist_ok=True)
    profile_path = out_dir / f"{name}-seed{seed}.prof"
    profiler.dump_stats(str(profile_path))
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    layer_s = attribution.layer_self_seconds(stats)

    def count(path: str, *names: str) -> Optional[int]:
        return _unless_absent(attribution.call_count(stats, path, *names), path, names)

    rendezvous = count("repro/bluetooth/scan.py", "next_listen_rendezvous")
    next_tx = count("repro/bluetooth/hopping.py", "next_tx_of_position")
    counts: dict[str, Optional[float]] = {
        "bluetooth.rendezvous": rendezvous,
        "bluetooth.next_tx": next_tx,
        "bluetooth.segments_per_rendezvous": (
            next_tx / rendezvous if rendezvous and next_tx is not None else None
        ),
        "sim.events_scheduled": _unless_absent(
            attribution.entry_calls(stats, "repro/sim/kernel.py", ("post", "schedule")),
            "repro/sim/kernel.py",
            ("post", "post_at", "schedule", "schedule_at"),
        ),
        "core.cycles_observed": count("repro/core/tracker.py", "observe_cycle"),
        "obs.instrument_updates": count("repro/obs/metrics.py", "inc", "set", "observe"),
        "core.queries_answered": traced.counters.get("answered", 0),
        "runner.items": len(traced.item_seconds) if runner is not None else 0,
        **totals,
    }
    fired = counts["sim.events_fired"]
    counts["sim.ns_per_event"] = layer_s["sim"] * 1e9 / fired if fired else None

    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "untraced": _pass_record(untraced, untraced_s),
        "traced": _pass_record(traced, traced_s),
        "layer_self_s": layer_s,
        "counts": counts,
        "profile": str(profile_path),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out-dir", type=Path, default=Path(".perfbench_out"))
    args = parser.parse_args()

    workload, state, timing = _setup(args.workload, args.seed)
    record: dict[str, Any] = {"setup": timing}
    if args.mode != "setup":
        record["environment"] = _environment()
    if args.mode == "measure":
        record.update(measure(workload, state, args.seed, args.seconds))
    elif args.mode == "trace":
        record.update(trace(workload, state, args.seed, args.out_dir, args.workload))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
