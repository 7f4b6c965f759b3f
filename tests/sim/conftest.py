"""Sim-layer fixtures.

The ``kernel`` fixture here overrides the repo-root one so every kernel
test in this directory runs both untraced (``heap``) and with a
:class:`SpanTracer` attached (``spans``).  There is one drain loop
either way; tracing wraps labelled callbacks when they are scheduled,
and must not change which events fire, when, or what the kernel's
counters say.
"""

from __future__ import annotations

import pytest

from repro.obs.tracing import SpanTracer
from repro.sim.kernel import Kernel


@pytest.fixture(params=["heap", "spans"])
def kernel(request) -> Kernel:
    """A fresh kernel, untraced or with a span tracer attached."""
    if request.param == "spans":
        return Kernel(spans=SpanTracer())
    return Kernel()
