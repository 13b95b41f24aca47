"""A fixed reference kernel that tracks the host's speed during a run.

The benchmark shares its machine with other tenants, and their load slows
every core by a third and more, over minutes.  A median over one run cannot
average that out, so runs of the same code disagree by more than any
useful bound.  The reference kernel runs once per pool cycle, between two
requests.  It does the kinds of work the library does (a pure-Python loop
over tuples and a dict, a small dense inverse and streaming passes over
an array larger than a core's L2 cache) and nothing of ``pocket_kirch``,
so no change to the library moves it.  Its arrays are filled once, before
the first request, and it allocates little else, so it adds a
near-constant to the process's memory rather than setting its peak.  Its
median over the run measures how fast the host was while the requests
ran.  ``scale()`` turns a measured time into the time it would have taken
on a host where the kernel takes NOMINAL_S.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.02  # about what the kernel takes on a quiet 2-vCPU Xeon VM


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random((200, 200)) + 200 * np.eye(200)
        self.large = rng.random((1500, 1500))
        self.out = np.ones_like(self.large)  # filled, so resident from now on
        self.times = []

    def kernel(self):
        table = {}
        for i in range(40000):
            table[(i % 97, i % 89)] = i * 0.5
        sorted(table.items())
        np.linalg.inv(self.small)
        for _ in range(2):
            np.multiply(self.large, 1.0001, out=self.out).sum()

    def sample(self, runs):
        """Time ``runs`` runs of the kernel after one untimed run.

        The untimed run brings the kernel's arrays back into the cache
        after a request has evicted them, so the timed runs do not depend
        on how much memory the request before them touched.
        """
        self.kernel()
        for _ in range(runs):
            t0 = perf_counter()
            self.kernel()
            self.times.append(perf_counter() - t0)

    def scale(self):
        """Factor from measured seconds to seconds at the nominal speed."""
        return NOMINAL_S / statistics.median(self.times)
