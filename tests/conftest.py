"""Helpers shared by the test modules."""

import sys
import tracemalloc

import pytest

# pseudo_inverse_laplacian frees a Laplacian passed as a temporary before
# invert copies L + J/n only where a call moves its arguments into the
# callee's frame
MOVES_ARGUMENTS = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11),
    reason="before CPython 3.11 the caller's stack holds a temporary "
    "argument for the whole call, so L stays alive through the inverse",
)


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
