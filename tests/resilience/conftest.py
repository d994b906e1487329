"""Shared fixtures for the resilience suite.

Fault injection and breaker tests assert on the *global* metrics
registry, so each test starts and ends with a clean slate.
"""

import pytest

from repro.core import batch_solver
from repro.engine.metrics import reset_counters


@pytest.fixture(autouse=True)
def clean_slate():
    reset_counters()
    yield
    # Injectors restore on exit, but a test that failed mid-context
    # must not leak its hook into the next test.
    batch_solver.set_fault_hook(None)
    reset_counters()
