"""Time the ``resist`` text writers and whole ``resist`` calls on the
resist-cli instances.

    PYTHONPATH=src python3 tools/writer_timing.py

``pocket_kirch`` is imported from ``PYTHONPATH``, so the same script can
time any checkout's ``src``. For each of the three resist-cli instances of
``perfbench/workloads.py`` (its generator, seeded with output_snapshot's
RESIST_CLI_SEED) it prints the median milliseconds of REPEATS calls of
``cli._WRITERS[fmt]`` into an ``io.BytesIO`` for each format, and of
``cli.main`` on the instance's benchmark request (its format and its
``--out`` file in a temporary directory) in the ``main`` column. The
writers read the values from the instance's ``PocketResistance``, as
``resist`` does; the factors and Kf are built once, outside the timed
calls, while ``main`` times the parse, the factors, Kf and the writer.

The calls go in rounds: each round calls every instance and column once,
so that a change in host load falls on every column alike. The first
round is not timed. The table format has no benchmark workload, so this
is where its speed is seen. Compare two checkouts on the same host, one
after the other.
"""

from __future__ import annotations

import io
import os
import statistics
import tempfile
import time

import pocket_kirch
from pocket_kirch import cli
from pocket_kirch.oneinv import PocketResistance
from output_snapshot import resist_cli_items

FORMATS = ("csv", "json", "table")
REPEATS = 15


def writer_call(fmt: str, s: PocketResistance, kf):
    """One call of the ``fmt`` writer on ``s``, into a new io.BytesIO."""
    write = cli._WRITERS[fmt]
    return lambda: write(io.BytesIO(), s.order, s.pair_resistances, kf)


def main_call(argv: list):
    """One ``cli.main(argv)`` call, which must exit 0."""
    def call():
        if cli.main(argv) != 0:
            raise RuntimeError(f"failed: {' '.join(argv)}")
    return call


def main() -> int:
    print(f"pocket_kirch from {os.path.dirname(pocket_kirch.__file__)}")
    print(f"{'instance':<16}{'N':>6}" + "".join(f"{col + ' ms':>10}" for col in FORMATS + ("main",)))
    with tempfile.TemporaryDirectory() as workdir:
        rows = []  # (key, N, calls)
        for it in resist_cli_items(workdir):
            s = PocketResistance(it.spec)
            kf = s.kirchhoff()
            calls = [writer_call(fmt, s, kf) for fmt in FORMATS] + [main_call(it.argv)]
            rows.append((it.key, s.order, calls))
        seconds = [[[] for _ in calls] for _, _, calls in rows]
        for round_ in range(REPEATS + 1):
            for (_, _, calls), cells in zip(rows, seconds):
                for call, cell in zip(calls, cells):
                    t0 = time.perf_counter()
                    call()
                    if round_:
                        cell.append(time.perf_counter() - t0)
    for (key, order, _), cells in zip(rows, seconds):
        print(f"{key:<16}{order:>6}" + "".join(f"{1000 * statistics.median(c):>10.2f}" for c in cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
