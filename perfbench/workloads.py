"""The benchmark's four workloads: seeded inputs, one request, its answer.

Every workload is a closed loop over a fixed pool of items: one client
sends the next request only when the previous one has returned.  Sizes are
fixed per pool slot and graphs have exact edge counts, so the work a
request does does not depend on the seed; the seed only picks the edges,
the attachment order and the sampled vertex pairs.  Inputs are generated
here, not with ``pocket_kirch.sweep.random_*``, so a change to ``sweep``
cannot shift a workload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import referee

PAIRS_PER_ITEM = 200
DENSITY = 0.5  # share of all vertex pairs that are edges in a random graph


@dataclass
class Item:
    """One pool slot: a distinct instance plus how a request uses it."""

    key: str  # distinct instance; the referee runs once per key
    spec: object  # pocket_kirch.graphs.PocketSpec
    pairs: np.ndarray  # sampled (u, v) pairs the referee checks
    argv: list = field(default_factory=list)  # resist-cli only
    out: str = ""  # resist-cli only


@dataclass
class Answer:
    """What the referee checks, taken from a result outside the timed region."""

    kf: float
    r: np.ndarray | None
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Seeded inputs


def random_graph(lib, rng, order, connected=False):
    """Graph with exactly round(DENSITY * C(order, 2)) edges (at least a
    spanning tree when ``connected``)."""
    iu, ju = np.triu_indices(order, 1)
    size = max(round(DENSITY * len(iu)), order - 1 if connected else 0)
    edges = set()
    if connected:
        perm = rng.permutation(order)
        for i in range(1, order):
            a, b = int(perm[i]), int(perm[rng.integers(0, i)])
            edges.add((min(a, b), max(a, b)))
    for idx in rng.permutation(len(iu)):
        if len(edges) >= size:
            break
        edges.add((int(iu[idx]), int(ju[idx])))
    return lib.graphs.Graph(order, frozenset(edges))


def all_pocketed(lib, rng, n, l, m):
    """k = n: connected F, every vertex attached, in shuffled order."""
    f = random_graph(lib, rng, n, connected=True)
    attach = tuple(int(x) for x in rng.permutation(n))
    return lib.graphs.PocketSpec(
        f, attach, random_graph(lib, rng, l), random_graph(lib, rng, m - l)
    )


def split_base(lib, rng, k, nk, l, m):
    """F = F1 v F2 on shuffled labels; pockets on F1 in a non-identity order."""
    f1, f2 = random_graph(lib, rng, k), random_graph(lib, rng, nk)
    label = [int(x) for x in rng.permutation(k + nk)]
    edges = {(label[a], label[b]) for a, b in f1.edges}
    edges |= {(label[k + a], label[k + b]) for a, b in f2.edges}
    edges |= {(label[a], label[k + b]) for a in range(k) for b in range(nk)}
    f = lib.graphs.Graph(k + nk, frozenset(edges))
    return lib.graphs.PocketSpec(
        f, tuple(label[:k]), random_graph(lib, rng, l), random_graph(lib, rng, m - l)
    )


def order_of(spec):
    return spec.F.order + (spec.H1.order + spec.H2.order) * len(spec.attach)


def item(key, spec, rng):
    return Item(key, spec, referee.sample_pairs(rng, order_of(spec), PAIRS_PER_ITEM))


def edge_list_text(g):
    lines = [f"{g.order} {len(g.edges)}"] + [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Workloads


def make_items(lib, rng, shapes):
    """One item per (kind, sizes) shape, keyed "<kind>-<index>"."""
    build = {"all-pocketed": all_pocketed, "split-base": split_base}
    return [
        item(f"{kind}-{i}", build[kind](lib, rng, *sizes), rng)
        for i, (kind, sizes) in enumerate(shapes)
    ]


class KfLarge:
    """structured_one_inverse + kirchhoff_from_one_inverse at N = 2570-4110.

    k = n at N = 4100 between split bases at N = 2570 and 4110 cost about
    0.25, 0.5 and 0.6 s per request: three separated cost levels in equal
    shares, so the median falls inside the middle one.
    """

    name = "kf-large"
    # (n, l, m) for k = n; (k, n - k, l, m) for the split base.
    shapes = [
        ("split-base", (50, 20, 5, 50)),
        ("all-pocketed", (100, 5, 40)),
        ("split-base", (80, 30, 5, 50)),
    ]

    def setup(self, lib, rng, workdir):
        return make_items(lib, rng, self.shapes)

    def call(self, lib, it):
        x = lib.oneinv.structured_one_inverse(it.spec).matrix
        return lib.resistance.kirchhoff_from_one_inverse(x).value, x

    def answer(self, it, result):
        kf, x = result
        u, v = it.pairs[:, 0], it.pairs[:, 1]
        return Answer(kf, x[u, u] + x[v, v] - x[u, v] - x[v, u])


class ResistCli:
    """In-process ``pocket-kirch resist`` on graph files, writing every pair.

    Three instances, csv at N = 630 between json at N = 294 and 540, cost
    about 0.1, 0.2 and 0.3 s per request.  With an odd number of
    separated cost levels in equal shares, the median falls in the middle
    one, not on the gap between two of them.  At these sizes a run holds
    about 30 requests of each instance, so the median and the tail are
    taken over many samples.
    """

    name = "resist-cli"
    # (kind, sizes, output format)
    shapes = [
        ("split-base", (10, 4, 4, 28), "json"),
        ("all-pocketed", (21, 4, 29), "csv"),
        ("all-pocketed", (18, 4, 29), "json"),
    ]

    def setup(self, lib, rng, workdir):
        items = make_items(lib, rng, [(kind, sizes) for kind, sizes, _ in self.shapes])
        for it, (_, _, fmt) in zip(items, self.shapes):
            files = {}
            for part in ("F", "H1", "H2"):
                files[part] = os.path.join(workdir, f"{it.key}.{part}.txt")
                with open(files[part], "w") as fh:
                    fh.write(edge_list_text(getattr(it.spec, part)))
            it.out = os.path.join(workdir, f"{it.key}.out.{fmt}")
            it.argv = [
                "resist", "--f", files["F"], "--h1", files["H1"], "--h2", files["H2"],
                "--attach", ",".join(map(str, it.spec.attach)),
                "--format", fmt, "--out", it.out,
            ]
        return items

    def call(self, lib, it):
        return lib.cli.main(it.argv)

    def answer(self, it, result):
        with open(it.out) as fh:
            text = fh.read()
        os.remove(it.out)  # a later request must write its own output
        counts = {"cli.output_bytes": len(text.encode())}
        parse = parse_json if it.out.endswith(".json") else parse_csv
        try:
            kf, r = parse(text, it.pairs)
        except ValueError as exc:
            return Answer(float("nan"), None, [f"unparsable output: {exc}"], counts)
        problems = [] if result == 0 else [f"exit code {result}"]
        return Answer(kf, r, problems, counts)


def _scan(text, pairs, head, stop):
    """Values following ``head(u, v)`` up to ``stop``, for sorted pairs."""
    r = np.empty(len(pairs))
    pos = 0
    for i, (u, v) in enumerate(pairs):
        tag = head(u, v)
        pos = text.find(tag, pos)
        if pos < 0:
            raise ValueError(f"pair ({u},{v}) missing")
        pos += len(tag)
        r[i] = float(text[pos : text.index(stop, pos)])
    return r


def parse_csv(text, pairs):
    r = _scan(text, pairs, lambda u, v: f"\n{u},{v},", "\n")
    tail = text.rstrip("\n").rsplit("\n", 1)[-1]  # "# Kf = <value> (<method>)"
    if not tail.startswith("# Kf = "):
        raise ValueError("no Kf line")
    return float(tail[len("# Kf = ") :].split()[0]), r


def parse_json(text, pairs):
    r = _scan(text, pairs, lambda u, v: f"[{u}, {v}, ", "]")
    head = '"kf": '
    pos = text.find(head)
    if pos < 0:
        raise ValueError("no kf key")
    pos += len(head)
    end = min(i for i in (text.find(",", pos), text.find("}", pos)) if i >= 0)
    return float(text[pos:end]), r


class OracleDense:
    """build_pocket_graph + oracle_resistance at N = 1000, 1000 and 1200.

    The three instances cost clearly different amounts, so the median
    falls in the middle one.
    """

    name = "oracle-dense"
    shapes = [
        ("all-pocketed", (40, 4, 24)),
        ("split-base", (30, 10, 4, 32)),
        ("all-pocketed", (48, 4, 24)),
    ]

    def setup(self, lib, rng, workdir):
        return make_items(lib, rng, self.shapes)

    def call(self, lib, it):
        g, _ = lib.graphs.build_pocket_graph(it.spec)
        r, kf = lib.resistance.oracle_resistance(g)
        return kf.value, r

    def answer(self, it, result):
        kf, r = result
        return Answer(kf, r[it.pairs[:, 0], it.pairs[:, 1]])


class AuditSweep:
    """verify_construction over builtin_fixtures() and 34 seeded instances.

    The pool is three groups.  Eight cheap instances of orders 4..40 join
    the six fixtures below 10 ms each.  Twelve instances of one shape, at
    order 72, cost about 21 ms each, so the median falls in the middle of
    twelve near-equal costs rather than between two instances of different
    cost.  Fourteen dearer ones of orders 86..100 cost 30-45 ms, and the
    last of each dispatch path has order 164 or 168 and costs about three
    times that, so the tail falls inside these two rather than on the
    host's jitter over the many requests of similar cost.
    """

    name = "audit-sweep"
    shapes = (
        [("all-pocketed", s) for s in [(2, 1, 2), (3, 2, 4), (5, 2, 5), (4, 4, 9)]]
        + [("split-base", s) for s in [(1, 1, 1, 2), (2, 1, 2, 4), (4, 1, 2, 5), (3, 2, 4, 9)]]
        + [("all-pocketed", (8, 3, 8))] * 12
        + [("all-pocketed", s) for s in [
            (9, 2, 9), (10, 4, 9), (8, 6, 11), (11, 3, 8), (7, 4, 13), (12, 5, 13),
        ]]
        + [("split-base", s) for s in [
            (9, 3, 4, 9), (7, 2, 6, 11), (10, 4, 3, 8), (6, 3, 4, 13),
            (8, 4, 3, 10), (9, 2, 4, 9), (7, 3, 2, 12), (10, 4, 5, 15),
        ]]
    )

    def setup(self, lib, rng, workdir):
        fixtures = [item(label, spec, rng) for label, spec in lib.sweep.builtin_fixtures()]
        return fixtures + make_items(lib, rng, self.shapes)

    def call(self, lib, it):
        return lib.formulas.verify_construction(it.spec, label=it.key)

    def answer(self, it, report):
        problems = [] if report.ok else ["report not ok"]
        structured = {}
        kf = float("nan")
        printed_kf = None
        for rec in report.records:
            if rec.quantity == "Kf" and rec.structured is not None:
                kf = rec.structured
            elif rec.quantity == "Kf" and rec.printed is not None:
                printed_kf = (rec.printed, rec.oracle)
            elif rec.quantity.startswith("r["):
                structured[rec.quantity] = rec.structured
        # The printed display's deviation must stay reported, not corrected.
        if it.key == "p3" and not (
            printed_kf
            and abs(printed_kf[0] - 1.5) <= 1e-12
            and abs(printed_kf[1] - 4.0) <= 1e-12
        ):
            problems.append(f"p3 printed/oracle Kf {printed_kf}, expected (1.5, 4)")
        try:
            r = np.array([structured[f"r[{u},{v}]"] for u, v in it.pairs])
        except KeyError as exc:
            problems.append(f"report lacks {exc}")
            r = None
        return Answer(kf, r, problems, {"formulas.records": len(report.records)})


WORKLOADS = {w.name: w for w in (KfLarge(), ResistCli(), OracleDense(), AuditSweep())}
