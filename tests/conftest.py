"""Helpers shared by the test modules; ``tools/`` is put on ``sys.path``,
so that a test can import a tool as a module."""

import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))


def _traced_peak(fn, *args):
    """(fn(*args), the tracemalloc peak in bytes during the call).

    The peak counts only what the call allocates, taken while its result is
    still held. The arguments stay referenced by this frame, so an array
    passed here is never freed early, even one built for the call.
    """
    tracemalloc.start()
    try:
        value = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


@pytest.fixture
def traced_peak():
    """The ``_traced_peak`` helper: ``value, peak = traced_peak(fn, *args)``."""
    return _traced_peak
