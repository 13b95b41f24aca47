"""Time the ``resist`` text writers on the resist-cli instances.

    PYTHONPATH=src python3 tools/writer_timing.py

``pocket_kirch`` is imported from ``PYTHONPATH``, so the same script can
time any checkout's ``src``. For each of the three resist-cli instances of
``perfbench/workloads.py`` (its generator, seeded with output_snapshot's
RESIST_CLI_SEED) and each format, it prints the median milliseconds of REPEATS calls of
``cli._WRITERS[fmt]`` into an ``io.StringIO``, after one untimed call.
The values come from the instance's ``PocketResistance``, as ``resist``
reads them; the factors and Kf are built once, outside the timed calls.
The table format has no benchmark workload, so this is where its speed is
seen. Compare two checkouts on the same host, one after the other.
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
from output_snapshot import resist_cli_specs

FORMATS = ("csv", "json", "table")
REPEATS = 15


def writer_ms(fmt: str, s: PocketResistance, kf) -> float:
    """The median ms of REPEATS writer calls, after one untimed call."""
    write = cli._WRITERS[fmt]
    seconds = []
    for i in range(REPEATS + 1):
        out = io.StringIO()
        t0 = time.perf_counter()
        write(out, s.order, s.pair_resistances, kf)
        if i:
            seconds.append(time.perf_counter() - t0)
    return 1000 * statistics.median(seconds)


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        specs = resist_cli_specs(workdir)
    print(f"pocket_kirch from {os.path.dirname(pocket_kirch.__file__)}")
    print(f"{'instance':<16}{'N':>6}" + "".join(f"{fmt + ' ms':>10}" for fmt in FORMATS))
    for key, spec in specs:
        s = PocketResistance(spec)
        kf = s.kirchhoff()
        ms = [writer_ms(fmt, s, kf) for fmt in FORMATS]
        print(f"{key:<16}{s.order:>6}" + "".join(f"{t:>10.2f}" for t in ms))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
