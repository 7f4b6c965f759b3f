"""The committed baseline must keep the inquiry swarm's pinned wins.

These assertions read ``benchmarks/baseline.json`` — the numbers the
repo ships, not a fresh measurement — so they are deterministic and
fail only when someone re-records the baseline with the swarm's
advantage over per-slave scanners eroded (or drops/skips the swarm
cases entirely).
The measurement itself is re-taken by the CI bench job; this test
guards the *recorded* contract: the 1000-piconet fleet case runs at
least 2x faster batched than object.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / "baseline.json"

FLEET_PAIR = ("swarm_piconets_1000_object", "swarm_piconets_1000_batched")
PICONET_PAIR = ("swarm_piconet_100_object", "swarm_piconet_100_batched")

# The fleet ratio is the ISSUE's acceptance bar; the dense-piconet
# ratio is pinned lower, as a canary rather than a contract.
FLEET_MIN_RATIO = 2.0
PICONET_MIN_RATIO = 1.5


def _load_baseline() -> dict:
    assert BASELINE.is_file(), f"missing committed baseline: {BASELINE}"
    return json.loads(BASELINE.read_text())["benchmarks"]


@pytest.mark.parametrize("pair", [FLEET_PAIR, PICONET_PAIR])
def test_swarm_cases_recorded_and_not_skipped(pair: tuple[str, str]) -> None:
    benchmarks = _load_baseline()
    for name in pair:
        assert name in benchmarks, f"{name} missing from baseline"
        record = benchmarks[name]
        assert not record.get("skipped"), f"{name} recorded as skipped"
        assert record["normalized"] > 0.0, f"{name} has no normalized score"


@pytest.mark.parametrize(
    ("pair", "min_ratio"),
    [(FLEET_PAIR, FLEET_MIN_RATIO), (PICONET_PAIR, PICONET_MIN_RATIO)],
)
def test_batched_speedup_is_pinned(pair: tuple[str, str], min_ratio: float) -> None:
    benchmarks = _load_baseline()
    object_name, batched_name = pair
    object_score = benchmarks[object_name]["normalized"]
    batched_score = benchmarks[batched_name]["normalized"]
    ratio = batched_score / object_score
    assert ratio >= min_ratio, (
        f"{batched_name} is only {ratio:.2f}x {object_name} in the committed "
        f"baseline (needs >= {min_ratio}x); do not re-record the baseline "
        f"with the swarm's advantage eroded"
    )


def test_engine_pair_workloads_match() -> None:
    """The object/batched cases must describe the same population.

    The speedup claim is meaningless if the paired cases drift apart,
    so their recorded workload parameters must be identical except for
    the engine knob itself.
    """
    from repro.bench.suite import select_suite

    cases = {case.name: dict(case.params) for case in select_suite("full")}
    for object_name, batched_name in (FLEET_PAIR, PICONET_PAIR):
        object_params = dict(cases[object_name])
        batched_params = dict(cases[batched_name])
        assert object_params.pop("engine") == "object"
        assert batched_params.pop("engine") == "batched"
        assert object_params == batched_params
