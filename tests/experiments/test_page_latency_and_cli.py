"""Small-size tests for the page-latency experiment and the CLI surface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.page_latency import PageLatencyConfig, run_page_latency


class TestPageLatencyExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_page_latency(
            PageLatencyConfig(
                samples_per_case=40, estimate_error_periods=(0.0, 8.5), seed=111
            )
        )

    def test_all_connect(self, result):
        for case in result.cases:
            assert case.timeouts == 0
            assert case.connected == 40

    def test_fresh_beats_stale(self, result):
        fresh = result.case_for(0.0)
        stale = result.case_for(8.5)
        assert fresh.latency.mean < stale.latency.mean
        assert fresh.wrong_train_fraction < stale.wrong_train_fraction

    def test_render(self, result):
        text = result.render()
        assert "clock-estimate error" in text and "0 periods" in text

    def test_unknown_case(self, result):
        with pytest.raises(KeyError):
            result.case_for(99.0)

    def test_sweep_point_with_no_connection(self):
        # A 1 ms page timeout ends every attempt before the first
        # page-scan window: the point reports zero connections and no
        # latency instead of failing to summarize an empty sample.
        result = run_page_latency(
            PageLatencyConfig(
                samples_per_case=3, timeout_seconds=0.001, estimate_error_periods=(0.0,)
            )
        )
        (case,) = result.cases
        assert case.connected == 0 and case.timeouts == 3
        assert case.latency is None
        row = next(line for line in result.render().splitlines() if "0 periods" in line)
        assert row.count("—") == 2 and "0/3" in row

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PageLatencyConfig(samples_per_case=0)
        with pytest.raises(ValueError):
            PageLatencyConfig(timeout_seconds=0)


class TestCLI:
    def test_table1_subcommand(self, capsys):
        assert main(["table1", "--trials", "20"]) == 0
        output = capsys.readouterr().out
        assert "Starting Train" in output
        assert "Mixed" in output

    def test_pages_subcommand(self, capsys):
        assert main(["pages", "--samples", "10"]) == 0
        output = capsys.readouterr().out
        assert "clock-estimate error" in output

    def test_section5_subcommand(self, capsys):
        assert main(["section5", "--replications", "3"]) == 0
        output = capsys.readouterr().out
        assert "tracking load" in output

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
