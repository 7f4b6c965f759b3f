"""Golden sha256 digests of the paper experiments' payloads.

Each case runs a small, fast instance of one experiment (serial, no
result cache) and hashes its machine-readable payload: the CSV export
where the result has one, otherwise the result dataclass as sorted
JSON.  The digests are pinned, so any change to the simulated event
order, the random draws or the reported numbers shows up here, and a
refactor that claims byte-identical output can be checked against the
code it replaces.

A legitimate behaviour change must re-pin the affected digest and say
why in CHANGES.md; print the fresh values with::

    PYTHONPATH=src python -m tests.golden.test_payload_digests
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable

import pytest

from repro.experiments.duty_cycle import Section5Config, run_section5
from repro.experiments.e2e import E2EConfig, run_e2e
from repro.experiments.figure2 import Figure2Config, run_figure2
from repro.experiments.sweep import run_all_sweeps
from repro.experiments.table1 import Table1Config, run_table1
from repro.runner.executor import ExperimentRunner


def _plain(value: Any) -> Any:
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    return value


def _json(value: Any) -> str:
    """Sorted JSON of a dataclass or list of them; enums as strings."""
    return json.dumps(_plain(value), sort_keys=True, default=str)


def _table1() -> str:
    result = run_table1(Table1Config(trials=200), runner=ExperimentRunner())
    return result.to_csv()


def _figure2() -> str:
    result = run_figure2(
        Figure2Config(slave_counts=(2, 10), replications=6),
        runner=ExperimentRunner(),
    )
    return result.to_csv() + "\n" + _json(result.curves)


def _section5() -> str:
    return _json(run_section5(Section5Config(replications=10), runner=ExperimentRunner()))


def _e2e() -> str:
    return _json(run_e2e(E2EConfig()))


def _sweeps() -> str:
    return _json(run_all_sweeps(fast=True, runner=ExperimentRunner()))


PAYLOADS: dict[str, Callable[[], str]] = {
    "table1": _table1,
    "figure2": _figure2,
    "section5": _section5,
    "e2e": _e2e,
    "sweeps": _sweeps,
}

GOLDEN = {
    "e2e": "1a44c201730a4f4cdaec7df0767329a405b55c9fe11f0a66c1eeb8d7a058a5c6",
    "figure2": "1ecf780200a6dd26d937cff0a85244510d4f87815c7f24b30b1eeedb8442dc34",
    "section5": "86dd7d6e6c28ab8a12b84f518a950c605abb0b486c8ffb9790a70828bc93c577",
    "sweeps": "9a50939c40baced056fc6ae3e9d56953a11c38d0bac3b27b34bd33271cf17f86",
    "table1": "8a1d4f763d8fbbd529c81d2ca35fa7d8b06212bdd4198c498cc1c688f4dcc644",
}


def _digest(name: str) -> str:
    return hashlib.sha256(PAYLOADS[name]().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_payload_digest_is_pinned(name: str) -> None:
    assert _digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for key in sorted(PAYLOADS):
        print(f'    "{key}": "{_digest(key)}",')
