"""Write the command-line outputs that a refactor must leave byte-identical.

    PYTHONPATH=src python3 tools/output_snapshot.py OUTDIR

``pocket_kirch`` is imported from ``PYTHONPATH``, so the same script can
snapshot any checkout's ``src``. Run it once per checkout, on the same
host, then compare with ``diff -r``. Run as a script, it pins BLAS to one
thread before numpy is imported, whatever the environment asks for: the
``--oracle`` digits move with the thread count.

OUTDIR receives one file per output:
- ``resist`` in csv, json and table, structured and ``--oracle``, on the
  six built-in fixtures, on the three resist-cli instances of
  ``perfbench/workloads.py`` (its generator, seeded with RESIST_CLI_SEED)
  and on the order-300 instance of ``tests/test_cli.py``;
- ``verify --sweep 40`` in json and table, at the default seed.

``_order_300`` restates ``tests/test_cli.py``'s ``_order_300_argv`` (seed 5,
F of order 20, H1 of order 3, H2 of order 11); the two must be kept in
step, and ``tests/test_tools.py`` checks that they are.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

if __name__ == "__main__":
    # as perfbench/run.py pins it; numpy reads these when it is imported
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

import pocket_kirch  # noqa: E402
from pocket_kirch import cli  # noqa: E402
from pocket_kirch.graphs import to_edge_list  # noqa: E402
from pocket_kirch.sweep import builtin_fixtures, random_connected_graph, random_graph  # noqa: E402

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
RESIST_CLI_SEED = 4301
RESIST_FORMATS = ("csv", "json", "table")
VERIFY_FORMATS = ("json", "table")


def _spec_argv(label, f, h1, h2, attach, workdir) -> list:
    """resist's spec options for F, H1, H2 and attach, written as edge-list
    files named after ``label`` in ``workdir``."""
    argv = ["resist"]
    for option, g in (("--f", f), ("--h1", h1), ("--h2", h2)):
        path = os.path.join(workdir, f"{label}{option[1:]}.txt")
        with open(path, "w") as fh:
            fh.write(to_edge_list(g))
        argv += [option, path]
    return argv + ["--attach", ",".join(map(str, attach))]


def _order_300():
    """F, H1 and H2 of the order-300 instance, 20 + 14 * 20 vertices."""
    rng = np.random.default_rng(5)
    return random_connected_graph(rng, 20), random_graph(rng, 3), random_graph(rng, 11)


def resist_cli_items(workdir: str) -> list:
    """The three resist-cli instances, with their ``key``, ``spec`` and
    benchmark request ``argv``; perfbench writes their input files into
    ``workdir``, and the requests write their output there."""
    sys.path.insert(0, PERFBENCH)
    import workloads

    rng = np.random.default_rng(RESIST_CLI_SEED)
    return workloads.ResistCli().setup(pocket_kirch, rng, workdir)


def resist_instances(workdir: str) -> list:
    """(label, resist argv without --format and --out) of every instance."""
    specs = list(builtin_fixtures()) + [(it.key, it.spec) for it in resist_cli_items(workdir)]
    instances = [
        (label, _spec_argv(label, s.F, s.H1, s.H2, s.attach, workdir)) for label, s in specs
    ]
    f, h1, h2 = _order_300()
    instances.append(("order300", _spec_argv("order300", f, h1, h2, range(20), workdir)))
    return instances


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    args = parser.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)
    runs = []
    with tempfile.TemporaryDirectory() as workdir:
        for label, spec_argv in resist_instances(workdir):
            for route, extra in (("structured", []), ("oracle", ["--oracle"])):
                for fmt in RESIST_FORMATS:
                    out = os.path.join(args.outdir, f"resist-{label}-{route}.{fmt}")
                    runs.append(spec_argv + extra + ["--format", fmt, "--out", out])
        for fmt in VERIFY_FORMATS:
            out = os.path.join(args.outdir, f"verify-sweep40.{fmt}")
            runs.append(["verify", "--sweep", "40", "--format", fmt, "--out", out])
        for run in runs:
            # verify exits 1 when an audit reports FAIL; its text is still
            # the output to compare. 2 is an error.
            if cli.main(run) == 2:
                print(f"failed: {' '.join(run)}", file=sys.stderr)
                return 2
    print(f"{len(runs)} files from {os.path.dirname(pocket_kirch.__file__)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
