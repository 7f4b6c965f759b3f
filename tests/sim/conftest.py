"""Sim-layer fixtures.

The ``kernel`` fixture here overrides the repo-root one so every kernel
test in this directory runs through **both** drain loops: ``heap`` is a
plain kernel (``Kernel._drain_heap``) and ``spans`` has a
:class:`SpanTracer` attached (``Kernel._drain_spans``). Tracing must
not change which events fire, when, or what the kernel's counters say.
"""

from __future__ import annotations

import pytest

from repro.obs.tracing import SpanTracer
from repro.sim.kernel import Kernel


@pytest.fixture(params=["heap", "spans"])
def kernel(request) -> Kernel:
    """A fresh kernel, parametrized over the untraced and traced drains."""
    if request.param == "spans":
        return Kernel(spans=SpanTracer())
    return Kernel()
