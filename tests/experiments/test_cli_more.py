"""Remaining CLI subcommand coverage (fast parameterisations)."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCLIMore:
    def test_figure2_subcommand(self, capsys):
        assert main(["figure2", "--replications", "2"]) == 0
        output = capsys.readouterr().out
        assert "Figure 2" in output
        assert "legend" in output

    def test_e2e_subcommand(self, capsys):
        assert main(["e2e", "--users", "2", "--duration", "150"]) == 0
        output = capsys.readouterr().out
        assert "tracking accuracy" in output

    def test_serving_subcommand(self, capsys):
        assert main(["serving"]) == 0
        output = capsys.readouterr().out
        assert "goodput" in output

    def test_plan_subcommand(self, capsys):
        assert main(["plan", "--layout", "wing:3"]) == 0
        output = capsys.readouterr().out
        assert "Deployment plan" in output

    def test_plan_unknown_layout_exits(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["plan", "--layout", "spaceship"])
        assert exit_info.value.code == 2

    def test_plan_layout_variants(self, capsys):
        for layout in ("academic", "multifloor:2"):
            assert main(["plan", "--layout", layout]) == 0
        assert "workstations" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table1", "--trials", "0"], "trials must be positive: 0"),
        (["figure2", "--replications", "0"], "replications must be positive: 0"),
        (["table1", "--jobs", "0"], "jobs must be >= 1: 0"),
        (["trace", "--experiment", "e2e", "--users", "0"], "user count must be positive: 0"),
        (["trace", "--experiment", "e2e", "--duration", "0"], "duration must be positive"),
    ],
)
def test_out_of_range_value_is_a_usage_error(argv, message, tmp_path, monkeypatch, capsys):
    """A value the config or runner rejects exits 2 with one error line."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"bips {argv[0]}: error: {message}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())
