"""Paper-workload benchmark for the BIPS reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload figure2 --seed 1 --seconds 20 --trace 0

Every workload runs in fresh interpreters (``worker.py``) with the
engine/scheduler environment knobs removed and ``PYTHONHASHSEED``
pinned, one process, ``jobs=1``, no result cache; nothing is written
under ``results/``.

``--trace 0`` measures the end-to-end metrics: several set-up-only
launches time launch-to-first-item, then one process runs whole passes
of the workload for ``--seconds``; its host times are divided by the
host slowdown that process measured on a fixed reference loop.
``--trace 1`` reports the per-layer metrics from a separate run: set-up
launches (one set under ``-X importtime``) and one process that runs an
untraced pass and then a profiled one.

Output checks (a failed check fails the operations it covers): every
pass of a seed has the same payload digest, the traced digest equals
the untraced one, the paper bands hold, and every tracking query is
answered.  Human-readable lines come first; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with the raw profile beside it, is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

from attribution import LAYERS, OTHER, import_seconds_by_layer
from spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"

#: Set-up-only launches per measured run (plus the measuring process).
SETUP_LAUNCHES = 4
#: Set-up launches per traced run, plain and under ``-X importtime``.
TRACE_SETUP_LAUNCHES = 3
#: Whole-run limit; a run that would exceed it is stopped and fails.
DEADLINE_SECONDS = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Launcher:
    """Starts worker interpreters under one deadline and always reaps them."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_SECONDS
        env = dict(os.environ)
        # Measure the defaults: engine/scheduler knobs are execution
        # options read from the environment.
        env.pop("BIPS_SIM_ENGINE", None)
        env.pop("BIPS_SIM_SCHEDULER", None)
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = str(ROOT / "src")
        self.env = env

    def launch(
        self, mode: str, seconds: float = 0.0, importtime: bool = False
    ) -> tuple[dict, str]:
        """Run one worker; returns its record and its stderr."""
        command = [sys.executable]
        if importtime:
            command += ["-X", "importtime"]
        command += [
            str(WORKER), "--mode", mode, "--workload", self.workload,
            "--seed", str(self.seed), "--seconds", str(seconds),
            "--out-dir", str(OUT_DIR),
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before launching a worker")
        launched = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker exceeded the run deadline") from None
        finally:
            # Also on an interrupt or SIGTERM: never leave a worker behind.
            if process.poll() is None:
                process.kill()
                process.communicate()
        if process.returncode != 0:
            raise BenchError(f"{mode} worker exited {process.returncode}:\n{stderr[-4000:]}")
        record = json.loads(stdout.strip().splitlines()[-1])
        # perf_counter is the system-wide monotonic clock on Linux, so
        # the worker's reading is comparable with the launch time here.
        record["setup"]["setup_s"] = record["setup"]["ready"] - launched
        return record, stderr


def _ops(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over passes of one seed; a pass
    whose digest differs from the first pass's fails all its operations."""
    attempted = sum(p["attempted"] for p in passes)
    failed = 0
    problems: list[str] = []
    reference = passes[0]["digest"]
    for index, record in enumerate(passes):
        problems += [f"pass {index}: {name}" for name in record["check_failures"]]
        if record["digest"] != reference:
            problems.append(f"pass {index}: digest {record['digest'][:16]} != {reference[:16]}")
            failed += record["attempted"]
        else:
            failed += record["failed"]
    return attempted, failed, problems


def measure(launcher: Launcher, seconds: float) -> dict:
    launcher.launch("setup")  # warm-up: byte-code and page caches
    setups = [launcher.launch("setup")[0]["setup"]["setup_s"] for _ in range(SETUP_LAUNCHES)]
    record, _ = launcher.launch("measure", seconds=seconds)
    setups.append(record["setup"]["setup_s"])
    passes = record["passes"]
    attempted, failed, problems = _ops(passes)
    # Host times are divided by how much slower than nominal the host ran
    # a fixed reference loop during the run: the shared host's speed
    # drifts by a third over minutes, and the loop drifts with it.
    slowdown = record["host_slowdown"]
    host = {
        "run_s": record["run_s"],
        "item_p50_ms": record["item_p50_s"] * 1e3,
        "item_p95_ms": record["item_p95_s"] * 1e3,
        "setup_s": statistics.median(setups),
    }
    metrics = {name: value / slowdown for name, value in host.items()}
    metrics["peak_rss_mb"] = record["peak_rss_kb"] / 1024.0
    info = {
        "environment": record["environment"],
        "passes": len(passes),
        "items_per_pass": passes[0]["items"],
        "items": sum(p["items"] for p in passes),
        "digest": passes[0]["digest"],
        "model": passes[0]["model"],
        "setup_samples_s": setups,
        "pass_run_s": [p["run_s"] for p in passes],
        "host_slowdown": slowdown,
        "unscaled": host,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "info": info}


def trace(launcher: Launcher) -> dict:
    launcher.launch("setup")  # warm-up
    plain = [launcher.launch("setup")[0]["setup"] for _ in range(TRACE_SETUP_LAUNCHES)]
    by_layer = [
        import_seconds_by_layer(launcher.launch("setup", importtime=True)[1])
        for _ in range(TRACE_SETUP_LAUNCHES)
    ]
    record, _ = launcher.launch("trace")
    untraced, traced = record["untraced"], record["traced"]
    attempted, failed, problems = _ops([untraced])
    traced_attempted, traced_failed, traced_problems = _ops([traced])
    attempted += traced_attempted
    problems += [f"traced {p}" for p in traced_problems]
    if traced["digest"] != untraced["digest"]:
        problems.append("traced digest differs from untraced digest")
        failed += traced_attempted
    else:
        failed += traced_failed

    layer_s = record["layer_self_s"]
    total = sum(layer_s.values())
    metrics: dict[str, float] = {}
    for layer in LAYERS + (OTHER,):
        metrics[f"{layer}.self_s"] = layer_s[layer]
        metrics[f"{layer}.share_pct"] = 100.0 * layer_s[layer] / total if total else 0.0
    absent = sorted(name for name, value in record["counts"].items() if value is None)
    for name, value in record["counts"].items():
        metrics[name] = 0 if value is None else value
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in plain)
    metrics["setup.build_s"] = statistics.median(s["build_s"] for s in plain)
    for layer in LAYERS + (OTHER,):
        metrics[f"setup.import.{layer}_s"] = statistics.median(s[layer] for s in by_layer)
    metrics["trace.overhead_x"] = record["traced_s"] / record["untraced_s"]
    info = {
        "environment": record["environment"],
        "digest": untraced["digest"],
        "traced_digest": traced["digest"],
        "model": untraced["model"],
        "absent_counts": absent,
        "untraced_s": record["untraced_s"],
        "traced_s": record["traced_s"],
        "profile": os.path.relpath(record["profile"], ROOT),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "info": info}


def _report(workload: str, seed: int, traced: bool, result: dict) -> None:
    info = result["info"]
    print(f"perfbench workload={workload} seed={seed} trace={int(traced)}")
    print("environment: " + json.dumps(info["environment"], sort_keys=True))
    if not traced:
        print(
            f"items: {info['items_per_pass']} per pass x {info['passes']} passes"
            f" = {info['items']}"
        )
        print(
            f"host slowdown: {info['host_slowdown']:.4f} (times below are divided by it;"
            f" unscaled: {json.dumps(info['unscaled'])})"
        )
    print(f"digest: {info['digest']}")
    for name, (value, unit) in sorted(info["model"].items()):
        print(f"model {name} = {value!r} {unit} (simulated, exact per seed)")
    if traced:
        print(f"absent work counts (reported as 0): {info['absent_counts'] or 'none'}")
        print(f"raw profile: {info['profile']}")
        for name, unit, better, moves, where in PER_LAYER:
            print(
                f"metric {name} = {result['metrics'][name]!r} {unit}"
                f" ({better} is better; moves {moves}; {where})"
            )
    else:
        for name, unit, better, bound, meaning in END_TO_END:
            print(
                f"metric {name} = {result['metrics'][name]!r} {unit}"
                f" ({better} is better, bound {bound:.0%}; {meaning})"
            )
    status = "ok" if not result["problems"] else "; ".join(result["problems"])
    print(f"checks: {status}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=20031001)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running worker is reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    launcher = Launcher(args.workload, args.seed)
    try:
        result = trace(launcher) if args.trace else measure(launcher, args.seconds)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    _report(args.workload, args.seed, bool(args.trace), result)

    spec = PER_LAYER if args.trace else END_TO_END
    units = {entry[0]: entry[1] for entry in spec}
    OUT_DIR.mkdir(exist_ok=True)
    record: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, **result,
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    summary = {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
