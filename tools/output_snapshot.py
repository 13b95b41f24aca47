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
  ``perfbench/workloads.py`` (its generator, seeded with RESIST_CLI_SEED),
  on the order-300 instance (``_order_300``) and on two instances whose F
  is no join F1 v F2, so that no theorem prints their values:
  ``p4-rooted-c5``, the cycle C5 rooted at 0 (``--hv``) on P4's vertices 2
  and 0, and ``p4-k2-k1``, H1 = K2 and H2 = K1 on P4's vertices 0 and 2;
- ``build`` in edges and json, the graph file and its ``.layout.json``, on
  the six built-in fixtures and the two instances above;
- ``verify --sweep 40`` in json and table, at the default seed.

The CLI and resistance tests take their order-300 instance from
``_order_300``.
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
from pocket_kirch.graphs import Graph, PocketSpec, complete_graph, path_graph, to_edge_list  # noqa: E402
from pocket_kirch.sweep import builtin_fixtures, random_connected_graph, random_graph  # noqa: E402

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
RESIST_CLI_SEED = 4301
RESIST_FORMATS = ("csv", "json", "table")
BUILD_FORMATS = ("edges", "json")
VERIFY_FORMATS = ("json", "table")


def _spec_argv(label, graphs, attach, workdir, *extra) -> list:
    """The spec options of ``graphs``, (option, graph) pairs written as
    edge-list files named after ``label`` in ``workdir``, then ``extra``
    and ``--attach``."""
    argv = []
    for option, g in graphs:
        path = os.path.join(workdir, f"{label}{option[1:]}.txt")
        with open(path, "w") as fh:
            fh.write(to_edge_list(g))
        argv += [option, path]
    return argv + list(extra) + ["--attach", ",".join(map(str, attach))]


def _pocket_argv(label, spec, workdir) -> list:
    return _spec_argv(label, (("--f", spec.F), ("--h1", spec.H1), ("--h2", spec.H2)), spec.attach, workdir)


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


def non_join_instances(workdir: str) -> list:
    """(label, spec options) of the two instances on P4, which is no join."""
    p4, k1, k2 = path_graph(4), complete_graph(1), complete_graph(2)
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    return [
        ("p4-rooted-c5", _spec_argv("p4-rooted-c5", [("--f", p4), ("--hv", c5)], (2, 0), workdir, "--v-id", "0")),
        ("p4-k2-k1", _pocket_argv("p4-k2-k1", PocketSpec(p4, (0, 2), k2, k1), workdir)),
    ]


def instances(workdir: str) -> tuple:
    """(build instances, resist instances), each a list of (label, spec
    options)."""
    fixtures = [(label, _pocket_argv(label, s, workdir)) for label, s in builtin_fixtures()]
    resist_cli = [(it.key, _pocket_argv(it.key, it.spec, workdir)) for it in resist_cli_items(workdir)]
    f, h1, h2 = _order_300()
    order_300 = ("order300", _pocket_argv("order300", PocketSpec(f, tuple(range(f.order)), h1, h2), workdir))
    non_join = non_join_instances(workdir)
    return fixtures + non_join, fixtures + resist_cli + [order_300] + non_join


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    args = parser.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)
    runs = []
    with tempfile.TemporaryDirectory() as workdir:
        build, resist = instances(workdir)
        for label, spec_argv in build:
            for fmt in BUILD_FORMATS:
                out = os.path.join(args.outdir, f"build-{label}.{fmt}")
                runs.append(["build"] + spec_argv + ["--format", fmt, "--out", out])
        for label, spec_argv in resist:
            for route, extra in (("structured", []), ("oracle", ["--oracle"])):
                for fmt in RESIST_FORMATS:
                    out = os.path.join(args.outdir, f"resist-{label}-{route}.{fmt}")
                    runs.append(["resist"] + spec_argv + extra + ["--format", fmt, "--out", out])
        for fmt in VERIFY_FORMATS:
            out = os.path.join(args.outdir, f"verify-sweep40.{fmt}")
            runs.append(["verify", "--sweep", "40", "--format", fmt, "--out", out])
        for run in runs:
            # verify exits 1 when an audit reports FAIL; its text is still
            # the output to compare. 2 is an error.
            if cli.main(run) == 2:
                print(f"failed: {' '.join(run)}", file=sys.stderr)
                return 2
    print(f"{len(runs)} runs from {os.path.dirname(pocket_kirch.__file__)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
