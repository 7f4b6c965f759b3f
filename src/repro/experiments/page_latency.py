"""Experiment `page-latency`: connection-setup time (§3.2, extension).

The paper describes the page/connection phases but measures only
discovery.  This harness characterises the second half of enrolment on
the slot-level pager: how long a BIPS workstation needs to connect a
discovered device, as a function of the freshness of its clock estimate
and of the slave's page-scan duty cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.stats import Summary, summarize
from repro.analysis.tables import render_table
from repro.bluetooth.device import make_devices
from repro.bluetooth.paging import PageOutcome, SlotLevelPager
from repro.sim.clock import seconds_from_ticks, ticks_from_seconds
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream


@dataclass(frozen=True)
class PageLatencyConfig:
    """Parameters of the page-latency experiment."""

    samples_per_case: int = 300
    seed: int = 20031005
    timeout_seconds: float = 10.24
    #: Clock-estimate errors to sweep, in 1.28 s phase periods: 0 models
    #: paging straight after the inquiry response; larger values model
    #: paging from a progressively staler location-database entry.  An
    #: 8-period shift lands the predicted frequency in the other train
    #: for half the phase positions (the worst case for prediction); a
    #: 17-period shift flips almost every position.
    estimate_error_periods: tuple[float, ...] = (0.0, 0.5, 3.5, 8.5, 17.5)

    def __post_init__(self) -> None:
        if self.samples_per_case <= 0:
            raise ValueError(f"samples must be positive: {self.samples_per_case}")
        if self.timeout_seconds <= 0:
            raise ValueError(f"timeout must be positive: {self.timeout_seconds}")


@dataclass(frozen=True)
class PageLatencyCase:
    """One sweep point's outcome."""

    estimate_error_periods: float
    #: Seconds, over connected attempts; None when no attempt connected.
    latency: Optional[Summary]
    connected: int
    timeouts: int
    wrong_train_fraction: float


@dataclass
class PageLatencyResult:
    """All sweep points plus rendering."""

    config: PageLatencyConfig
    cases: list[PageLatencyCase] = field(default_factory=list)

    def case_for(self, periods: float) -> PageLatencyCase:
        """Find a sweep point by its error value."""
        for case in self.cases:
            if case.estimate_error_periods == periods:
                return case
        raise KeyError(f"no case for error {periods}")

    def render(self) -> str:
        """Latency table over estimate staleness."""
        rows = []
        for case in self.cases:
            latency = case.latency
            rows.append(
                [
                    f"{case.estimate_error_periods:g} periods",
                    "—" if latency is None else f"{latency.mean:.4f}s",
                    "—" if latency is None else f"{latency.maximum:.4f}s",
                    f"{case.wrong_train_fraction * 100:.0f}%",
                    f"{case.connected}/{case.connected + case.timeouts}",
                ]
            )
        return render_table(
            ["clock-estimate error", "mean latency", "max latency",
             "wrong train", "connected"],
            rows,
            title=(
                "Page latency vs clock-estimate staleness "
                "(slot-level §3.2 simulation, 11.25 ms page-scan windows "
                "every 1.28 s)"
            ),
        )


def run_page_latency(config: Optional[PageLatencyConfig] = None) -> PageLatencyResult:
    """Run the sweep."""
    config = config if config is not None else PageLatencyConfig()
    result = PageLatencyResult(config=config)
    timeout_ticks = ticks_from_seconds(config.timeout_seconds)
    for periods in config.estimate_error_periods:
        error_ticks = round(periods * 4096)
        latencies: list[float] = []
        connected = 0
        timeouts = 0
        wrong = 0
        for sample in range(config.samples_per_case):
            kernel = Kernel()
            rng = RandomStream(config.seed, "page-latency", str(periods), str(sample))
            target = make_devices(1, rng)[0]
            pager = SlotLevelPager(kernel)
            outcomes = []
            pager.page(
                target,
                outcomes.append,
                timeout_ticks=timeout_ticks,
                estimate_error_ticks=error_ticks,
            )
            kernel.run_until(timeout_ticks + 100)
            outcome = outcomes[0]
            if not outcome.train_prediction_correct:
                wrong += 1
            if outcome.result.outcome is PageOutcome.CONNECTED:
                connected += 1
                latencies.append(seconds_from_ticks(outcome.result.latency_ticks))
            else:
                timeouts += 1
        result.cases.append(
            PageLatencyCase(
                estimate_error_periods=periods,
                latency=summarize(latencies) if latencies else None,
                connected=connected,
                timeouts=timeouts,
                wrong_train_fraction=wrong / config.samples_per_case,
            )
        )
    return result
