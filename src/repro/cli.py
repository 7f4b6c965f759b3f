"""Command-line entry points: regenerate any paper result from a shell.

Installed as ``bips`` (and reachable as ``python -m repro``)::

    bips table1 --trials 500
    bips figure2 --replications 60
    bips section5
    bips e2e --users 8 --duration 600
    bips sweeps --fast --jobs 4
    bips metrics --duration 300
    bips table1 --trials 100 --metrics-out metrics.jsonl
    bips figure2 --jobs 8 --no-cache
    bips trace --sample 1.0 --format chrome
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

from repro.experiments.duty_cycle import Section5Config, run_section5
from repro.experiments.e2e import E2EConfig, run_e2e
from repro.experiments.figure2 import Figure2Config, run_figure2
from repro.experiments.page_latency import PageLatencyConfig, run_page_latency
from repro.core.planner import plan_deployment
from repro.experiments.policies import run_policy_comparison
from repro.experiments.sweep import run_all_sweeps
from repro.experiments.table1 import Table1Config, run_table1
from repro.obs.metrics import MetricsRegistry
from repro.runner import ExperimentRunner, build_runner
from repro.runner.cache import DEFAULT_CACHE_DIR


def _add_metrics_out(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write a metrics snapshot to PATH as JSON lines after the run",
    )


def _add_fault_args(subparser: argparse.ArgumentParser) -> None:
    """Fault-injection flags (chaos runs; see docs/fault-injection.md)."""
    from repro.faults import profile_names

    subparser.add_argument(
        "--faults",
        choices=profile_names(),
        default="none",
        metavar="PROFILE",
        help=f"fault profile to inject (one of: {', '.join(profile_names())})",
    )
    subparser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed of the fault plan's own random streams (the simulation "
        "seed is untouched, so a chaos run perturbs delivery, not draws)",
    )


def _add_runner_args(subparser: argparse.ArgumentParser) -> None:
    """Trial fan-out and result-cache flags (Monte-Carlo experiments)."""
    subparser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for trial fan-out (1 = serial; results are "
        "byte-identical for every N)",
    )
    subparser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every trial instead of reusing the on-disk result cache",
    )
    subparser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"result-cache location (default: {DEFAULT_CACHE_DIR})",
    )


def _runner_from_args(
    args: argparse.Namespace, metrics: Optional[MetricsRegistry] = None
) -> ExperimentRunner:
    return build_runner(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        metrics=metrics,
    )


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``bips`` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="bips",
        description=(
            "Reproduction of 'Experimenting an Indoor Bluetooth-based "
            "Positioning Service' (ICDCS Workshops 2003)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser(
        "table1", help="the §4.1 device-discovery-time table"
    )
    table1.add_argument("--trials", type=int, default=500)
    table1.add_argument("--seed", type=int, default=Table1Config().seed)
    _add_fault_args(table1)
    _add_runner_args(table1)
    _add_metrics_out(table1)

    figure2 = subparsers.add_parser(
        "figure2", help="Figure 2: discovery probability vs time, 2-20 slaves"
    )
    figure2.add_argument("--replications", type=int, default=60)
    figure2.add_argument("--seed", type=int, default=Figure2Config().seed)
    _add_runner_args(figure2)
    _add_metrics_out(figure2)

    section5 = subparsers.add_parser(
        "section5", help="the §5 scheduling-policy numbers"
    )
    section5.add_argument("--replications", type=int, default=100)
    section5.add_argument("--seed", type=int, default=Section5Config().seed)
    _add_runner_args(section5)
    _add_metrics_out(section5)

    e2e = subparsers.add_parser(
        "e2e", help="full-system run: tracking accuracy under walking users"
    )
    e2e.add_argument("--users", type=int, default=8)
    e2e.add_argument("--duration", type=float, default=600.0, help="simulated seconds")
    e2e.add_argument("--seed", type=int, default=E2EConfig().seed)
    _add_fault_args(e2e)
    _add_metrics_out(e2e)

    metrics = subparsers.add_parser(
        "metrics",
        help="run a small full-system simulation and print the metrics scoreboard",
    )
    metrics.add_argument("--users", type=int, default=4)
    metrics.add_argument("--duration", type=float, default=300.0,
                         help="simulated seconds")
    metrics.add_argument("--seed", type=int, default=E2EConfig().seed)
    _add_fault_args(metrics)
    _add_metrics_out(metrics)

    pages = subparsers.add_parser(
        "pages", help="page latency vs clock-estimate staleness (§3.2 extension)"
    )
    pages.add_argument("--samples", type=int, default=300)
    pages.add_argument("--seed", type=int, default=PageLatencyConfig().seed)

    subparsers.add_parser(
        "policies", help="master schedules at equal tracking budget (§5 extension)"
    )

    subparsers.add_parser(
        "serving", help="per-slave goodput/latency under the §5 schedule"
    )

    planner = subparsers.add_parser(
        "plan", help="assess a floor plan and derive the workstation rollout"
    )
    planner.add_argument(
        "--layout",
        default="academic",
        help="academic | wing:<rooms> | multifloor:<floors>",
    )
    planner.add_argument("--window", type=float, default=3.84,
                         help="inquiry window in seconds")

    sweeps = subparsers.add_parser("sweeps", help="all design-choice ablations")
    sweeps.add_argument(
        "--fast", action="store_true", help="reduced sample sizes for a quick look"
    )
    _add_runner_args(sweeps)
    _add_metrics_out(sweeps)

    from repro.obs.trace_cli import add_trace_parser

    add_trace_parser(subparsers)

    lint = subparsers.add_parser(
        "lint",
        help="determinism & protocol-invariant static analysis "
        "(see docs/static-analysis.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files/directories to lint (default: src if present, else .)",
    )
    lint.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format (json is the stable CI interface)",
    )
    lint.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--ignore",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "--deep",
        action="store_true",
        help="also build the whole-program import/call graphs and run "
        "project-scoped rules (DET010, ARCH001, PERF001)",
    )
    lint.add_argument(
        "--graph-out",
        metavar="FILE",
        default=None,
        help="with --deep, dump the project graphs to FILE "
        "(.json for the versioned JSON schema, anything else Graphviz DOT)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="with --deep, ratchet against this baseline file "
        "(default: lint-baseline.json if present); grandfathered findings "
        "pass, new findings fail, stale entries fail",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="with --deep, rewrite the baseline file from the current "
        "findings instead of failing on them",
    )
    return parser, subparsers.choices


def _resolve_layout(spec: str):
    """Parse the --layout argument of the `plan` subcommand."""
    from repro.building.layouts import (
        academic_department,
        linear_wing,
        multi_floor_department,
    )

    if spec == "academic":
        return academic_department()
    if spec.startswith("wing:"):
        return linear_wing(int(spec.split(":", 1)[1]))
    if spec.startswith("multifloor:"):
        return multi_floor_department(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown layout {spec!r} (academic | wing:N | multifloor:N)")


def _flush_metrics(registry: MetricsRegistry, path: Optional[str]) -> None:
    """Write the snapshot if --metrics-out was given."""
    if path is None:
        return
    records = registry.write_jsonl(path)
    print(f"wrote {records} metric records to {path}")


def _run_lint(args: argparse.Namespace) -> int:
    """The `bips lint` subcommand; returns the process exit code."""
    from repro.lint import REGISTRY, lint_paths
    from repro.lint.graph import ProjectGraph

    if args.list_rules:
        for spec in REGISTRY:
            scope = " [deep]" if spec.scope == "project" else ""
            print(f"{spec.id}  {spec.name}: {spec.summary}{scope}")
        return 0
    for flag in ("graph_out", "baseline"):
        if getattr(args, flag) and not args.deep:
            print(
                f"bips lint: --{flag.replace('_', '-')} requires --deep",
                file=sys.stderr,
            )
            return 2
    if args.update_baseline and not args.deep:
        print("bips lint: --update-baseline requires --deep", file=sys.stderr)
        return 2
    paths = list(args.paths)
    if not paths:
        import os

        paths = ["src"] if os.path.isdir("src") else ["."]

    def split(value: str) -> list[str]:
        return [token.strip() for token in value.split(",") if token.strip()]

    graphs: list[ProjectGraph] = []
    try:
        report = lint_paths(
            paths,
            select=split(args.select) if args.select else None,
            ignore=split(args.ignore) if args.ignore else None,
            deep=args.deep,
            graph_sink=graphs,
        )
    except (FileNotFoundError, KeyError) as error:
        print(f"bips lint: {error}", file=sys.stderr)
        return 2

    if args.graph_out and graphs:
        from pathlib import Path as _Path

        graph = graphs[0]
        dump = graph.to_json() if args.graph_out.endswith(".json") else graph.to_dot()
        _Path(args.graph_out).write_text(dump, encoding="utf-8")
        print(f"wrote project graphs to {args.graph_out}", file=sys.stderr)

    if args.deep:
        exit_code = _apply_lint_baseline(args, report)
        if exit_code is not None:
            return exit_code
    output = report.to_json() if args.format == "json" else report.render_text()
    sys.stdout.write(output if output.endswith("\n") else output + "\n")
    return report.exit_code


def _apply_lint_baseline(args: argparse.Namespace, report) -> Optional[int]:
    """Baseline handling for ``bips lint --deep``.

    Returns the process exit code when a baseline took part in the
    decision, or None to fall through to plain report semantics (no
    baseline file in play).
    """
    import os

    from repro.lint.baseline import Baseline, apply_baseline

    baseline_path = args.baseline
    if baseline_path is None and os.path.isfile("lint-baseline.json"):
        baseline_path = "lint-baseline.json"

    if args.update_baseline:
        target = baseline_path or "lint-baseline.json"
        Baseline.from_report(report).save(target)
        print(
            f"wrote {len(report.diagnostics)} finding(s) to {target}",
            file=sys.stderr,
        )
        return 0

    if baseline_path is None:
        return None
    try:
        baseline = Baseline.load(baseline_path)
    except (OSError, ValueError, KeyError) as error:
        print(f"bips lint: baseline {baseline_path}: {error}", file=sys.stderr)
        return 2
    result = apply_baseline(report, baseline)
    if args.format == "json":
        sys.stdout.write(report.to_json())
        print(result.render_text(), file=sys.stderr)
    else:
        lines = result.render_text()
        sys.stdout.write(lines if lines.endswith("\n") else lines + "\n")
    return result.exit_code


def _prepare(args: argparse.Namespace, registry: MetricsRegistry) -> Callable[[], None]:
    """Build the command's config and runner; return the run itself.

    The configs and the runner check their bounds when they are built,
    so a ``ValueError`` raised here is a usage error.  The returned run
    is called outside that check.
    """
    if args.command == "table1":
        table1 = Table1Config(
            trials=args.trials,
            seed=args.seed,
            faults=args.faults,
            fault_seed=args.fault_seed,
        )
        runner = _runner_from_args(args, registry)
        return lambda: print(run_table1(table1, metrics=registry, runner=runner).render())
    if args.command == "figure2":
        figure2 = Figure2Config(replications=args.replications, seed=args.seed)
        runner = _runner_from_args(args, registry)
        return lambda: print(run_figure2(figure2, runner=runner).render())
    if args.command == "section5":
        section5 = Section5Config(replications=args.replications, seed=args.seed)
        runner = _runner_from_args(args, registry)
        return lambda: print(run_section5(section5, runner=runner).render())
    if args.command in ("e2e", "metrics"):
        e2e = E2EConfig(
            user_count=args.users,
            duration_seconds=args.duration,
            seed=args.seed,
            faults=args.faults,
            fault_seed=args.fault_seed,
        )
        if args.command == "e2e":
            return lambda: print(run_e2e(e2e, metrics=registry).render())

        def scoreboard() -> None:
            run_e2e(e2e, metrics=registry)
            print(registry.render_scoreboard("BIPS pipeline metrics"))

        return scoreboard
    if args.command == "pages":
        pages = PageLatencyConfig(samples_per_case=args.samples, seed=args.seed)
        return lambda: print(run_page_latency(pages).render())
    if args.command == "policies":
        return lambda: print(run_policy_comparison().render())
    if args.command == "serving":
        from repro.experiments.serving import run_serving

        return lambda: print(run_serving().render())
    if args.command == "plan":
        layout = _resolve_layout(args.layout)
        return lambda: print(
            plan_deployment(layout, inquiry_window_seconds=args.window).render()
        )
    # sweeps
    runner = _runner_from_args(args, registry)

    def sweeps() -> None:
        for sweep in run_all_sweeps(fast=args.fast, runner=runner):
            print(sweep.render())
            print()

    return sweeps


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "trace":
        from repro.obs.trace_cli import run_trace

        return run_trace(args, commands["trace"])
    registry = MetricsRegistry()
    try:
        run = _prepare(args, registry)
    except ValueError as error:
        commands[args.command].error(str(error))
    run()
    _flush_metrics(registry, getattr(args, "metrics_out", None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
