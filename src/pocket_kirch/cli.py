"""Command-line surface: build, resist, verify, bench."""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from functools import cache, partial

import numpy as np

from .graphs import (
    PocketSpec,
    build_pocket_graph,
    empty_graph,
    graph_to_json,
    layout_to_json,
    load_graph,
    split_gadget,
    to_edge_list,
)
from .oneinv import PocketResistance
from .resistance import (
    kirchhoff_from_one_inverse,
    oracle_one_inverse,
    pair_blocks,
    pair_resistances,
)
from .formulas import verify_construction
from .sweep import DEFAULT_SEED, builtin_fixtures, random_connected_graph, random_graph, random_spec


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _spec_from_args(args) -> PocketSpec:
    f = load_graph(args.f)
    if args.hv is not None:
        if args.h1 is not None or args.h2 is not None:
            raise ValueError("--hv cannot be combined with --h1 or --h2")
        if args.v_id is None:
            raise ValueError("--hv requires --v-id")
        hv = load_graph(args.hv)
        if not 0 <= args.v_id < hv.order:
            raise ValueError(f"--v-id {args.v_id} is not a vertex of the {hv.order}-vertex gadget")
        h1, h2, cross = split_gadget(hv, args.v_id)
    else:
        if args.v_id is not None:
            raise ValueError("--v-id requires --hv")
        if args.h1 is None:
            raise ValueError("provide --h1 (with optional --h2) or --hv with --v-id")
        h1 = load_graph(args.h1)
        h2 = load_graph(args.h2) if args.h2 else empty_graph(0)
        cross = None
    if args.attach is None:
        attach = tuple(range(f.order))
    else:
        try:
            attach = tuple(int(t) for t in args.attach.split(","))
        except ValueError:
            raise ValueError(f"--attach takes a comma list of vertex ids, got {args.attach!r}") from None
    return PocketSpec(f, attach, h1, h2, cross)


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
        if args.oracle:
            need = f"the dense result has order N = {order} ({order} x {order} entries)"
        else:
            need = f"the pocket graph has order N = {order} (factors {spec.n} x {spec.n} and {spec.m} x {spec.m})"
        raise MemoryError(f"out of memory: {need}") from None


def _resist(spec: PocketSpec, args) -> int:
    """Write every r_uv and Kf: with ``--oracle`` read from the dense X,
    otherwise from the two small factors of a ``PocketResistance``.

    The writers write ASCII bytes, into ``--out`` opened "wb" or into
    standard output's byte buffer, after the text already written to
    standard output; no text layer decodes or encodes them."""
    if args.oracle:
        x = oracle_one_inverse(build_pocket_graph(spec)[0])
        n, values, kf = x.shape[0], partial(pair_resistances, x), kirchhoff_from_one_inverse(x, "oracle")
    else:
        s = PocketResistance(spec)
        n, values, kf = s.order, s.pair_resistances, s.kirchhoff()
    if args.out:
        with open(args.out, "wb") as out:
            _WRITERS[args.format](out, n, values, kf)
    else:
        sys.stdout.flush()
        _WRITERS[args.format](sys.stdout.buffer, n, values, kf)
    return 0


def _digit_tables():
    """Lookup tables of _g12_words, built by numpy arithmetic and indexed by
    ex = e + 4 for the decimal exponent e in -4..10.

    A 12-digit significand D, as little-endian 64-bit words, becomes the
    text ``PREFIX[ex] | D & ~MOVE[ex] | (D & MOVE[ex]) << SHIFT[ex]``, cut to
    LENGTH[ex * 13 + z] bytes when D ends in z zeros. For e >= 0 the first
    e + 1 digits stay and the rest move one byte up past the '.'; for e < 0
    every digit moves up past "0." and -e - 1 zeros. json's LENGTH keeps
    the ".0" of an integer.
    """
    i = np.arange(10000, dtype=np.int16)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8)
    quad = (digits + ord("0")).view("<u4").ravel().astype("<u8")
    zeros = np.cumprod(digits[:, ::-1] == 0, axis=1, dtype=np.uint8).sum(axis=1, dtype=np.uint8)  # 4 for 0000
    e = np.arange(-4, 11)[:, None]
    dot = np.maximum(e, 0) + 1  # text position of the '.'
    lead = np.maximum(-e, 0)  # the zeros of "0.000" before the first digit
    pos = np.arange(24)
    prefix = np.where(pos == dot, ord("."), 0)
    prefix = np.where((e < 0) & ((pos == 0) | (pos > dot) & (pos <= lead)), ord("0"), prefix)
    move = np.where((e < 0) | (pos >= dot), 255, 0)
    shift = 8 * np.where(e >= 0, 1, lead + 1).ravel()
    kept = 12 - np.arange(13)  # significant digits
    fraction = (e < 0) | (kept > dot)
    length = np.where(fraction, lead + kept + 1, dot)
    length_json = np.where(fraction, length, dot + 2)
    size = np.arange(25)[:, None]
    mask = np.where(pos < size, 255, 0)
    spaces = np.where(pos >= size + 6, ord(" "), 0)[:19]  # 18 - size blanks, right-aligned

    def words(table):
        w = np.ascontiguousarray(table, dtype=np.uint8).view("<u8")
        return tuple(np.ascontiguousarray(w[:, k]) for k in range(3))

    return (quad, zeros, words(prefix), words(move), shift.astype("<u8"),
            {False: length.ravel(), True: length_json.ravel()}, words(mask), words(spaces))


_QUAD, _ZEROS, _PREFIX, _MOVE, _SHIFT, _LENGTH, _MASK, _SPACES = _digit_tables()
_QUAD_HIGH = _QUAD << np.uint64(32)  # the same four digits in bytes 4..7
_CARRY = np.uint64(64) - _SHIFT  # brings a moved word's top bytes into the next word
_SCALE = 10.0 ** np.arange(15, 0, -1)  # 10^(11 - e), exact
_GUARD = 0.5 - 2.0**-12


def _significands(x: np.ndarray):
    """(fast, ex, digits, zeros): where ``fast``, '%.12g' % x[i] is a
    12-digit integer times 10^(e - 11), with ex = e + 4 in 0..14, whose
    digits and trailing zeros _digit_words gives. Elsewhere the digits and
    zeros mean nothing, but still index the tables.

    Take e = floor(log10 x), clipped to -4..10, as the truncation of
    log10 x + 4 clipped to 0..14, and y = fl(x 10^(11-e)).
    The scale is an exact double and y < 2^40, so |y - x 10^(11-e)| <= 2^-14.
    When y >= 1e11, rint(y) < 1e12 and frac(y) lies more than 2^-12 from
    1/2, rint(y) is x 10^(11-e) correctly rounded and has 12 digits: the
    significand that CPython's correctly rounded '%.12g' prints, with
    exponent e. Ties fall inside the guard band, and the rare e misjudged
    by one, by log10 or by the sum, puts y outside 1e11..1e12. Zero,
    negative and non-finite values fail the test, as do values outside
    about 1e-4..1e11.
    """
    with np.errstate(all="ignore"):
        e = np.log10(x)
        e += 4
        ex = e.astype(np.intp)
        np.maximum(ex, 0, out=ex)
        np.minimum(ex, 14, out=ex)
        y = _SCALE.take(ex)
        y *= x
        sig = np.rint(y)
        fast = y >= 1e11
        fast &= sig < 1e12
        y -= sig
        np.abs(y, out=y)
        fast &= y <= _GUARD
        sig = sig.astype(np.int64)
    return (fast, ex, *_digit_words(sig))


def _digit_words(sig: np.ndarray):
    """The 12 ASCII digits of each sig, as two little-endian words, and its
    count of trailing zeros: floor divisions of numbers below 2^53, then
    lookups in the table of the 10^4 four-digit groups. sig is overwritten.
    The lookups clip, so any int64 gives some text; only the trailing
    zeros of a sig whose last group is 0000 need a second lookup."""
    g0 = sig // 100000000
    sig -= g0 * 100000000
    g1 = sig // 10000
    sig -= g1 * 10000
    zeros = _ZEROS.take(sig, mode="clip")
    ends = np.flatnonzero(sig == 0)
    if ends.size:
        g1e, g0e = g1.take(ends), g0.take(ends)
        zeros[ends] += _ZEROS.take(g1e, mode="clip") + (g1e == 0) * _ZEROS.take(g0e, mode="clip")
    low = _QUAD.take(g0, mode="clip")
    low |= _QUAD_HIGH.take(g1, mode="clip")
    return (low, _QUAD.take(sig, mode="clip")), zeros


def _g12_words(x: np.ndarray, words: np.ndarray, as_json: bool) -> np.ndarray:
    """Write the text of each x[i] into words[i], three little-endian
    64-bit words padded with NUL after it, and return the text lengths.
    The text is '%.12g' % x[i], or with ``as_json``
    json.dumps(float('%.12g' % x[i])).

    Values on the exact fast path of _significands take their text from
    the digit tables; in its exponent range json's text is the same, with
    ".0" after an integer. All other values go through Python, in one ``%``
    call per block: ties and values in the guard band of one, zero,
    negatives, subnormals, non-finite values and exponents outside -4..10.
    json then prints their floats in one json.dumps call (NaN, Infinity).
    """
    fast, ex, digits, zeros = _significands(x)
    i = ex * 13
    i += zeros
    length = _LENGTH[as_json].take(i)
    up, down = _SHIFT.take(ex), _CARRY.take(ex)
    carry = None
    for k, d in enumerate(digits):
        moved = _MOVE[k].take(ex)
        moved &= d
        d ^= moved
        d |= _PREFIX[k].take(ex)
        if carry is not None:
            d |= carry
        carry = moved >> down
        moved <<= up
        d |= moved
        np.bitwise_and(d, _MASK[k].take(length), out=words[:, k])
    np.bitwise_and(carry, _MASK[2].take(length), out=words[:, 2])
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = (("%.12g\0" * slow.size) % tuple(x[slow].tolist())).split("\0")[:-1]
        if as_json:
            texts = json.dumps(list(map(float, texts)))[1:-1].split(", ")
        length[slow] = [len(t) for t in texts]
        words[slow] = np.array([t.encode() for t in texts], dtype="S24").view("<u8").reshape(-1, 3)
    return length


def _label_words(ids, first: str, second: str):
    """(head, tail, base): for u = ids[i] and v = ids[j], the text
    ``first % u + second % v`` right-aligned in NUL-padded little-endian
    64-bit words is word k = head[k][base[j] + i] | tail[k][j], in as many
    words as the widest such text needs.

    tail holds ``second % v``, right-aligned. head holds ``first % u`` once
    for each length that ``second % v`` takes over ids, right-aligned but
    for that many NULs after it; base[j] picks the copy for v's length.
    """
    firsts = [(first % u).encode() for u in ids]
    seconds = [(second % v).encode() for v in ids]
    sizes, which = np.unique([len(t) for t in seconds], return_inverse=True)
    width = -(-(max(map(len, firsts)) + int(sizes[-1])) // 8) * 8

    def rows(texts):
        text = b"".join(t.rjust(width, b"\0") for t in texts)
        return np.frombuffer(text, np.uint8).reshape(len(texts), width)

    right = rows(firsts)
    head = np.zeros((len(sizes), len(ids), width), np.uint8)
    for c, size in enumerate(sizes):
        head[c, :, :width - size] = right[:, size:]

    def columns(table):
        w = table.reshape(-1, width).view("<u8")
        return [np.ascontiguousarray(w[:, k]) for k in range(w.shape[1])]

    return columns(head), columns(rows(seconds)), which * len(ids)


def _write_pairs(out, n: int, values, first: str, second: str, as_json=False, spaces=False, skip=0) -> None:
    """Write ``first % u + second % v + text(r_uv)`` as ASCII bytes to the
    binary stream ``out`` for every pair u < v of order n in row-major
    order, without the first ``skip`` bytes;
    r_uv comes from ``values(u, v)`` a block of pairs at a time, and text
    is that of _g12_words. A caller puts each line's terminator at the
    start of ``first``, so that it ends the previous line.

    A block of pairs is one buffer of fixed-width slots of 64-bit words:
    the pair's two labels as one field (_label_words), for ``spaces`` the
    18 - len blanks of '%18.12g', and the value text. Every slot is padded
    with NUL, so dropping the NULs leaves the block's text. The label
    field and the blanks are right-aligned and the value left-aligned, so
    that csv and json lines are each one run of text between NULs, and
    table lines two: the fewer runs, the faster the copy. The compressed
    bytes go to ``out.write`` as they are, one copy per block.
    """
    if n < 2:
        return
    head, tail, base = _label_words(range(n), first, second)
    width = len(head) + 3 * spaces + 3
    buf = None
    for u, v in pair_blocks(n):
        if buf is None:  # the first block is the largest
            buf = np.empty((len(u), width), "<u8")
        words = buf[:len(u)]
        i = base.take(v)
        i += u
        for k in range(len(head)):
            np.bitwise_or(head[k].take(i), tail[k].take(v), out=words[:, k])
        length = _g12_words(values(u, v), words[:, -3:], as_json)
        if spaces:
            np.minimum(length, 18, out=length)
            for k in range(3):
                words[:, len(head) + k] = _SPACES[k].take(length)
        chars = words.view(np.uint8).ravel()
        out.write(chars[chars != 0][skip:])
        skip = 0


def _write_csv(out, n: int, values, kf) -> None:
    """Write "u,v,r_uv" for every pair u < v of order n, r read from
    ``values(u, v)`` at index arrays of pairs, then the Kf comment line, in
    the text of _fmt (see _g12_words)."""
    out.write(b"u,v,r")
    _write_pairs(out, n, values, "\n%d,", "%d,")
    out.write(f"\n# Kf = {_fmt(kf.value)} ({kf.method})\n".encode("ascii"))


def _write_table(out, n: int, values, kf) -> None:
    """Write u, v and _fmt(r_uv) right-aligned in 4, 4 and 18 columns for
    every pair u < v of order n, r read from ``values(u, v)``, then the Kf
    line."""
    out.write(f"{'u':>4}{'v':>4}{'r':>18}".encode("ascii"))
    _write_pairs(out, n, values, "\n%4d", "%4d", spaces=True)
    out.write(f"\nKf = {_fmt(kf.value)} ({kf.method})\n".encode("ascii"))


def _write_json(out, n: int, values, kf) -> None:
    """Write json.dumps({"kf", "method", "resistances": [[u, v, r_uv] for
    u < v]}, sort_keys=True) + newline for order n, r read from
    ``values(u, v)``, where json.dumps prints r_uv as
    repr(float(_fmt(r_uv))) (see _g12_words), one block of pairs at a
    time."""
    head = json.dumps({"kf": float(_fmt(kf.value)), "method": kf.method})
    out.write(head[:-1].encode("ascii") + b', "resistances": [')
    _write_pairs(out, n, values, "], [%d", ", %d, ", as_json=True, skip=3)
    out.write(b"]]}\n" if n > 1 else b"]}\n")


_WRITERS = {"csv": _write_csv, "json": _write_json, "table": _write_table}


def cmd_verify(args) -> int:
    for option, tol in (("--tol-r", args.tol_r), ("--tol-kf", args.tol_kf)):
        if not (np.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"{option} must be a finite number >= 0, got {tol}")
    _check_at_least(args, ("seed", 0), ("max_n", 1), ("max_m", 1), ("sweep", 0))
    # Gadgets have m = l + |H2| <= max_l + max_h2 = min(8, max_m) vertices.
    # Each sweep instance is drawn just before its audit, so that nothing
    # of the sweep is held up front.
    max_l = min(4, args.max_m)
    max_h2 = min(4, args.max_m - max_l)
    rng = np.random.default_rng(args.seed)
    sweep = ((f"seed{args.seed}-{i}", random_spec(rng, args.max_n, max_l, max_h2))
             for i in range(args.sweep))
    instances = itertools.chain(builtin_fixtures(), sweep)
    # Each report is written as it finishes and then dropped. In the JSON,
    # sort_keys puts "instances" first, so the other keys follow the list.
    table = args.format == "table"
    all_ok = True
    out = _open_out(args.out)
    if not table:
        out.write('{"instances": [')
    for i, (label, spec) in enumerate(instances):
        rep = verify_construction(
            spec, tol_r=args.tol_r, tol_kf=args.tol_kf, label=label
        )
        all_ok = all_ok and rep.ok
        if table:
            out.write(f"== {label} ==\n{rep.to_table()}\n")
        else:
            out.write((", " if i else "") + rep.to_json())
    if table:
        out.write(f"overall: {'PASS' if all_ok else 'FAIL'}\n")
    else:
        rest = {
            "ok": all_ok,
            "seed": args.seed,
            "max_n": args.max_n,
            "max_m": args.max_m,
            "tolerances": {"resistance": args.tol_r, "kirchhoff": args.tol_kf},
        }
        out.write("], " + json.dumps(rest, sort_keys=True)[1:] + "\n")
    _close_out(out)
    return 0 if all_ok else 1


BENCH_SIZES = [(10, 6, 2), (20, 12, 3), (40, 24, 4)]


def time_route(route):
    """The median seconds of three calls of ``route()`` after one untimed
    call, and the last result. Each result is dropped before the next call,
    so a dense route that returns only Kf reuses the kept output buffer."""
    result = route()
    seconds = []
    for _ in range(3):
        result = None
        t0 = time.perf_counter()
        result = route()
        seconds.append(time.perf_counter() - t0)
    return sorted(seconds)[1], result


def cmd_bench(args) -> int:
    n0, m0, _ = BENCH_SIZES[0]  # below the smallest size, nothing is timed
    _check_at_least(args, ("seed", 0), ("max_n", n0), ("max_m", m0))
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
        t_struct, kf_s = time_route(lambda: PocketResistance(spec).kirchhoff())
        t_oracle, kf_o = time_route(
            lambda: kirchhoff_from_one_inverse(oracle_one_inverse(build_pocket_graph(spec)[0]), "oracle"))
        tol = 1e-8 if order < 50 else 1e-6
        agree = abs(kf_s.value - kf_o.value) <= tol
        speedup = t_oracle / t_struct if t_struct > 0 else float("inf")
        out.write(
            f"{n},{m},{l},{order},{t_struct:.6f},{t_oracle:.6f},"
            f"{speedup:.2f},{'yes' if agree else 'FLAGGED'}\n"
        )
    _close_out(out)
    return 0


def _check_at_least(args, *bounds) -> None:
    """ValueError naming the first option (dest, least) below its least."""
    for dest, least in bounds:
        value = getattr(args, dest)
        if value < least:
            raise ValueError(f"--{dest.replace('_', '-')} must be at least {least}, got {value}")


def _open_out(path):
    return open(path, "w") if path else sys.stdout


def _close_out(fh):
    if fh is not sys.stdout:
        fh.close()


def _add_spec_args(p):
    p.add_argument("--f", required=True, help="base graph file (edge list or JSON)")
    p.add_argument("--h1", help="H1 graph file")
    p.add_argument("--h2", help="H2 graph file (omit for an empty H2)")
    p.add_argument("--hv", help="whole gadget graph file, any connected graph (alternative to --h1/--h2)")
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


@cache
def _parser() -> argparse.ArgumentParser:
    return make_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Every call in a process parses with one parser, built by make_parser()
    at the first call; argparse keeps no state from one parse to the next.
    The parser binds each ``cmd_*`` when it is built, so rebinding a
    ``cmd_*`` name afterwards does not change what ``main`` runs.
    """
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout is seen here
        return code
    except BrokenPipeError:
        # The reader went away (``resist ... | head``): stop quietly. As
        # the Python docs advise, point stdout at devnull, so that the
        # flush at interpreter exit does not fail again.
        if args.out is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
