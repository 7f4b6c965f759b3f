"""Benchmark `table1`: regenerates the §4.1 device-discovery-time table.

Paper reference (500 hardware trials):

    Same       236 cases   1.6028 s
    Different  264 cases   4.1320 s
    Mixed      500 cases   2.865 s

We assert the reproduction *shape*: same-train discovery clearly faster,
the different-train penalty equal to roughly one 2.56 s train dwell,
the mixed mean the ~50/50 blend, and every magnitude within a generous
band of the paper's value (our substrate is a simulator, not the
authors' 3COM/TI cards — see EXPERIMENTS.md for the full discussion).
"""

from __future__ import annotations

from conftest import save_result

from repro.experiments.table1 import PAPER_REFERENCE, Table1Config, run_table1


def _run_full():
    result = run_table1(Table1Config(trials=500))
    save_result("table1_discovery_time", result.render())
    save_result("table1_discovery_cdf", result.render_cdf())
    save_result("table1_trials.csv", result.to_csv())
    return result


def test_table1_reproduction():
    result = _run_full()

    same = result.same_summary
    different = result.different_summary
    mixed = result.mixed_summary

    # Every trial discovers the slave (the paper's setup always does).
    assert result.undiscovered == 0

    # ~50 % probability of starting on the same train.
    assert 0.40 <= same.count / 500 <= 0.60

    # Shape: same < mixed < different.
    assert same.mean < mixed.mean < different.mean

    # The different-train penalty is about one train dwell (2.56 s).
    gap = different.mean - same.mean
    assert 2.0 <= gap <= 3.2

    # Magnitudes near the paper's measurements (±35 %).
    assert abs(same.mean - PAPER_REFERENCE["same"]) / PAPER_REFERENCE["same"] < 0.35
    assert (
        abs(different.mean - PAPER_REFERENCE["different"])
        / PAPER_REFERENCE["different"]
        < 0.35
    )
    assert abs(mixed.mean - PAPER_REFERENCE["mixed"]) / PAPER_REFERENCE["mixed"] < 0.35

    # The mixed mean is the case-weighted blend of the two populations.
    blend = (
        same.mean * same.count + different.mean * different.count
    ) / (same.count + different.count)
    assert abs(mixed.mean - blend) < 1e-9

    # Distribution shape: the same-train CDF stochastically dominates
    # the different-train CDF (discovery is never slower same-train).
    same_cdf = result.cdf(True)
    different_cdf = result.cdf(False)
    for t in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        assert same_cdf.value(t) >= different_cdf.value(t)
    # Nearly nobody on the other train is found before the first train
    # switch at 2.56 s, while most same-train slaves already are.
    assert different_cdf.value(2.5) < 0.1
    assert same_cdf.value(2.5) > 0.6
