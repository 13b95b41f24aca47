"""Command-line surface: build, resist, verify, bench."""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from itertools import accumulate

import numpy as np

from .graphs import (
    PocketSpec,
    build_pocket_graph,
    empty_graph,
    graph_to_json,
    laplacian,
    layout_to_json,
    load_graph,
    to_edge_list,
    validate_join_structure,
)
from .linalg import pseudo_inverse_laplacian
from .oneinv import structured_one_inverse
from .resistance import (
    kirchhoff_from_one_inverse,
    oracle_resistance,
    resistance_matrix,
)
from .formulas import verify_construction
from .sweep import DEFAULT_SEED, builtin_fixtures, random_connected_graph, random_graph, random_specs


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _spec_from_args(args) -> PocketSpec:
    f = load_graph(args.f)
    if args.hv is not None:
        if args.v_id is None:
            raise ValueError("--hv requires --v-id")
        h1, h2 = validate_join_structure(load_graph(args.hv), args.v_id)
    else:
        if args.h1 is None:
            raise ValueError("provide --h1 (with optional --h2) or --hv with --v-id")
        h1 = load_graph(args.h1)
        h2 = load_graph(args.h2) if args.h2 else empty_graph(0)
    if args.attach:
        attach = tuple(int(t) for t in args.attach.split(","))
    else:
        attach = tuple(range(f.order))
    return PocketSpec(f, attach, h1, h2)


def cmd_build(args) -> int:
    spec = _spec_from_args(args)
    g, layout = build_pocket_graph(spec)
    graph_text = graph_to_json(g) + "\n" if args.format == "json" else to_edge_list(g)
    layout_text = layout_to_json(layout)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(graph_text)
        with open(args.out + ".layout.json", "w") as fh:
            fh.write(layout_text + "\n")
    else:
        sys.stdout.write(graph_text)
        sys.stdout.write(layout_text + "\n")
    return 0


def cmd_resist(args) -> int:
    spec = _spec_from_args(args)
    order = spec.n + spec.m * spec.k
    try:
        return _resist(spec, args)
    except MemoryError:
        raise MemoryError(
            f"out of memory: the dense result has order N = {order} "
            f"({order} x {order} entries)"
        ) from None


def _resist(spec: PocketSpec, args) -> int:
    if args.oracle:
        g, _ = build_pocket_graph(spec)
        r, kf = oracle_resistance(g)
    else:
        s = structured_one_inverse(spec)
        r = resistance_matrix(s.matrix)
        kf = kirchhoff_from_one_inverse(s.matrix)
    out = _open_out(args.out)
    _WRITERS[args.format](out, r, kf)
    _close_out(out)
    return 0


def _row_templates(n: int, line: str, label: str):
    r"""Yield (u, template) for every source row u < n - 1.

    ``line % v`` is the text of pair (u, v), with "\0" standing for u and
    one %-field left for r_uv. The lines are built once per call; row u's
    template is the lines for v = u+1 .. n-1 with ``label % u`` in place of
    "\0", so ``template % tuple(r[u, u + 1:].tolist())`` formats the whole
    row in one call.
    """
    lines = [line % v for v in range(n)]
    starts = list(accumulate(map(len, lines), initial=0))
    whole = "".join(lines)
    for u in range(n - 1):
        yield u, whole[starts[u + 1]:].replace("\0", label % u)


def _write_csv(out, r: np.ndarray, kf) -> None:
    """Write "u,v,r_uv" for every pair u < v, then the Kf comment line.

    '%.12g' % x is format(x, '.12g') on every double, so this is the text
    of _fmt, one row at a time."""
    out.write("u,v,r\n")
    for u, template in _row_templates(r.shape[0], "\0,%d,%%.12g\n", "%d"):
        out.write(template % tuple(r[u, u + 1:].tolist()))
    out.write(f"# Kf = {_fmt(kf.value)} ({kf.method})\n")


def _write_table(out, r: np.ndarray, kf) -> None:
    """Write u, v and _fmt(r_uv) right-aligned in 4, 4 and 18 columns for
    every pair u < v, then the Kf line."""
    out.write(f"{'u':>4}{'v':>4}{'r':>18}\n")
    for u, template in _row_templates(r.shape[0], "\0%4d%%18.12g\n", "%4d"):
        out.write(template % tuple(r[u, u + 1:].tolist()))
    out.write(f"Kf = {_fmt(kf.value)} ({kf.method})\n")


_INTEGER_TEXT = re.compile(r", (-?\d+)\]")


def _write_json(out, r: np.ndarray, kf) -> None:
    """Write json.dumps({"kf", "method", "resistances": [[u, v, r_uv] for
    u < v]}, sort_keys=True) + newline, one source row u at a time, so that
    only one row's text is alive at once.

    json.dumps prints r_uv as repr(float(_fmt(r_uv))). Row u is one ``%``
    call on ", [u, v, %.12g]" repeated for v > u; that is the same text,
    except that integer-valued text ("4", "-0") lacks its ".0", which one
    regex over the row appends. The regex runs only on rows holding a
    value within 1e-10 relative of an integer: below 1e11, every value
    whose 12-digit text is an integer is within 5e-12 relative of it, so
    no other row has text to mend. repr and '%.12g' differ otherwise only on
    non-finite values, on decimal exponents 12 to 15 (positional under
    repr) and on subnormals, so a row holding a non-finite value, a
    |value| >= 1e11 or a nonzero |value| < 1e-300 is written pair by pair
    through json.dumps instead.
    """
    n = r.shape[0]
    head = json.dumps({"kf": float(_fmt(kf.value)), "method": kf.method})
    out.write(head[:-1] + ', "resistances": [')
    sep = ""
    for u, template in _row_templates(n, ", [\0, %d, %%.12g]", "%d"):
        row = r[u, u + 1:]
        a = np.abs(row)
        if np.all((a < 1e11) & ((a >= 1e-300) | (a == 0))):
            text = template % tuple(row.tolist())
            if np.any(np.abs(row - np.rint(row)) <= 1e-10 * a):
                text = _INTEGER_TEXT.sub(r", \1.0]", text)
            text = text[2:]
        else:
            text = json.dumps([[u, v, float(_fmt(r[u, v]))] for v in range(u + 1, n)])[1:-1]
        out.write(sep + text)
        sep = ", "
    out.write("]}\n")


_WRITERS = {"csv": _write_csv, "json": _write_json, "table": _write_table}


def cmd_verify(args) -> int:
    instances = [(label, spec) for label, spec in builtin_fixtures()]
    sweep = random_specs(
        args.sweep,
        seed=args.seed,
        max_n=args.max_n,
        max_l=max(1, min(4, args.max_m)),
        max_h2=max(0, min(4, args.max_m - 1)),
    )
    instances.extend((f"seed{args.seed}-{i}", s) for i, s in enumerate(sweep))
    reports = []
    all_ok = True
    for label, spec in instances:
        rep = verify_construction(
            spec, tol_r=args.tol_r, tol_kf=args.tol_kf, label=label
        )
        reports.append(rep)
        all_ok = all_ok and rep.ok
    payload = {
        "ok": all_ok,
        "seed": args.seed,
        "max_n": args.max_n,
        "max_m": args.max_m,
        "tolerances": {"resistance": args.tol_r, "kirchhoff": args.tol_kf},
        "instances": [rep.to_dict() for rep in reports],
    }
    out = _open_out(args.out)
    if args.format == "table":
        for rep in reports:
            out.write(f"== {rep.instance['label']} ==\n")
            out.write(rep.to_table() + "\n")
        out.write(f"overall: {'PASS' if all_ok else 'FAIL'}\n")
    else:
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    _close_out(out)
    return 0 if all_ok else 1


BENCH_SIZES = [(10, 6, 2), (20, 12, 3), (40, 24, 4)]


def cmd_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    out = _open_out(args.out)
    out.write("n,m,l,total_order,t_structured,t_oracle,speedup,agree\n")
    for n, m, l in BENCH_SIZES:
        if n > args.max_n or m > args.max_m:
            continue
        f = random_connected_graph(rng, n)
        h1 = random_graph(rng, l)
        h2 = random_graph(rng, m - l)
        spec = PocketSpec(f, tuple(range(n)), h1, h2)
        order = n + m * n

        t0 = time.perf_counter()
        s = structured_one_inverse(spec)
        kf_s = kirchhoff_from_one_inverse(s.matrix)
        t_struct = time.perf_counter() - t0

        t0 = time.perf_counter()
        g, _ = build_pocket_graph(spec)
        x = pseudo_inverse_laplacian(laplacian(g))
        kf_o = kirchhoff_from_one_inverse(x, method="oracle")
        t_oracle = time.perf_counter() - t0

        tol = 1e-8 if order < 50 else 1e-6
        agree = abs(kf_s.value - kf_o.value) <= tol
        speedup = t_oracle / t_struct if t_struct > 0 else float("inf")
        out.write(
            f"{n},{m},{l},{order},{t_struct:.6f},{t_oracle:.6f},"
            f"{speedup:.2f},{'yes' if agree else 'FLAGGED'}\n"
        )
    _close_out(out)
    return 0


def _open_out(path):
    return open(path, "w") if path else sys.stdout


def _close_out(fh):
    if fh is not sys.stdout:
        fh.close()


def _add_spec_args(p):
    p.add_argument("--f", required=True, help="base graph file (edge list or JSON)")
    p.add_argument("--h1", help="H1 graph file")
    p.add_argument("--h2", help="H2 graph file (omit for an empty H2)")
    p.add_argument("--hv", help="full gadget graph file (alternative to --h1/--h2)")
    p.add_argument("--v-id", type=int, help="attachment vertex inside --hv")
    p.add_argument("--attach", help="comma list of attachment vertices (default: all)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pocket-kirch",
        description="Pocket-graph resistance distances and Kirchhoff indices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="assemble a pocket graph and its layout")
    _add_spec_args(p)
    p.add_argument("--format", choices=["edges", "json"], default="edges")
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("resist", help="all-pairs resistances and Kirchhoff index")
    _add_spec_args(p)
    p.add_argument("--oracle", action="store_true", help="use the dense oracle backend")
    p.add_argument("--format", choices=["csv", "json", "table"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_resist)

    p = sub.add_parser("verify", help="audit structured results against the oracle")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--sweep", type=int, default=40, help="random instances to add")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--max-m", type=int, default=8)
    p.add_argument("--tol-r", type=float, default=1e-9)
    p.add_argument("--tol-kf", type=float, default=1e-8)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="structured vs dense oracle timings")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-n", type=int, default=40)
    p.add_argument("--max-m", type=int, default=24)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
