import contextlib
import io
import json
import os
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import output_snapshot
import pocket_kirch
from pocket_kirch import cli, resistance
from pocket_kirch.cli import main, make_parser
from pocket_kirch.graphs import Graph, build_pocket_graph, complete_graph, to_edge_list
from pocket_kirch.linalg import release_output_buffer
from pocket_kirch.oneinv import structured_one_inverse
from pocket_kirch.resistance import (
    KirchhoffResult,
    kirchhoff_from_one_inverse,
    oracle_resistance,
    resistance_matrix,
)
from pocket_kirch.formulas import verify_construction
from pocket_kirch.sweep import builtin_fixtures, random_connected_graph, random_graph


@pytest.fixture
def k1_file(tmp_path):
    path = tmp_path / "k1.txt"
    path.write_text("1 0\n")
    return str(path)


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("2 1\n0 1\n")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Reference writers: the per-pair loops, one _fmt call and one write per
# pair, whose text the row-at-a-time writers in cli must reproduce byte for
# byte.
def _reference_csv(out, r, kf):
    n = r.shape[0]
    out.write("u,v,r\n")
    for u in range(n):
        for v in range(u + 1, n):
            out.write(f"{u},{v},{cli._fmt(r[u, v])}\n")
    out.write(f"# Kf = {cli._fmt(kf.value)} ({kf.method})\n")


def _reference_table(out, r, kf):
    n = r.shape[0]
    out.write(f"{'u':>4}{'v':>4}{'r':>18}\n")
    for u in range(n):
        for v in range(u + 1, n):
            out.write(f"{u:>4}{v:>4}{cli._fmt(r[u, v]):>18}\n")
    out.write(f"Kf = {cli._fmt(kf.value)} ({kf.method})\n")


def _reference_json(out, r, kf):
    n = r.shape[0]
    head = json.dumps({"kf": float(cli._fmt(kf.value)), "method": kf.method})
    out.write(head[:-1] + ', "resistances": [')
    sep = ""
    for u in range(n - 1):
        row = [[u, v, float(cli._fmt(r[u, v]))] for v in range(u + 1, n)]
        out.write(sep + json.dumps(row)[1:-1])
        sep = ", "
    out.write("]}\n")


WRITERS = {
    "csv": (cli._write_csv, _reference_csv),
    "table": (cli._write_table, _reference_table),
    "json": (cli._write_json, _reference_json),
}


def _texts(fmt, r, kf):
    """(writer text, reference text) of one format on r and kf."""
    write, reference = WRITERS[fmt]
    text, reference_text = io.BytesIO(), io.StringIO()
    write(text, len(r), lambda u, v: r[u, v], kf)
    reference(reference_text, r, kf)
    return text.getvalue().decode("ascii"), reference_text.getvalue()


def _assert_same_text(text, reference):
    """Byte equality, reporting the first difference in context (pytest's
    own diff of two texts of order 300 takes minutes)."""
    if text != reference:
        at = next(
            (i for i, (a, b) in enumerate(zip(text, reference)) if a != b),
            min(len(text), len(reference)),
        )
        lo = max(at - 40, 0)
        pytest.fail(
            f"texts differ at character {at}: "
            f"{text[lo:at + 40]!r} != {reference[lo:at + 40]!r}"
        )


def _reference_resist(argv):
    """The text ``main(argv)`` must print for a resist call, from the
    library's numerics and the reference writers."""
    args = make_parser().parse_args(argv)
    spec = cli._spec_from_args(args)
    if args.oracle:
        r, kf = oracle_resistance(build_pocket_graph(spec)[0])
    else:
        s = structured_one_inverse(spec)
        r = resistance_matrix(s.matrix)
        kf = kirchhoff_from_one_inverse(s.matrix)
    out = io.StringIO()
    WRITERS[args.format][1](out, r, kf)
    return out.getvalue()


def _count_calls(monkeypatch, fn):
    """Rebind ``fn`` to a counting wrapper under every name that refers to
    it in the pocket_kirch modules; return the list of its calls' args."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pocket_kirch":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def _graph_files(tmp_path, graphs):
    """Write each (name, graph) as an edge list; return the paths."""
    files = []
    for name, g in graphs:
        path = tmp_path / f"{name}.txt"
        path.write_text(to_edge_list(g))
        files.append(str(path))
    return files


def _order_300_argv(tmp_path):
    """resist argv for a random pocket graph of order 20 + 14 * 20 = 300."""
    f, h1, h2 = _graph_files(tmp_path, zip(("f", "h1", "h2"), output_snapshot._order_300()))
    return ["resist", "--f", f, "--h1", h1, "--h2", h2], 300


# Values on which '%.12g' and repr(float(_fmt(x))) print different text,
# so the json writer's row templates need a ".0" or fall back to json.dumps.
FALLBACK_TRIGGERS = [
    0.0, -0.0, 1.0, 4.0, -3.0, 3.9999999999999,  # integer-valued text
    99999999999.99, 1e11, 999999999999.5, 1e12, 1.5e13, 123456789012345.0,
    1e15, 1e16,  # positional under repr
    5e-324, 1e-310, 2.2250738585072014e-308, 1e-301,  # subnormal or near it
    float("nan"), float("inf"), -float("inf"),
]


class TestBuild:
    def test_p3_edge_list(self, capsys, k1_file):
        code, out, _ = _run(
            capsys,
            ["build", "--f", k1_file, "--h1", k1_file, "--h2", k1_file],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "3 2"
        assert lines[1:3] == ["0 1", "1 2"]
        layout = json.loads(lines[3])
        assert layout["n"] == 1 and layout["k"] == 1

    def test_json_format(self, capsys, k1_file):
        code, out, _ = _run(
            capsys,
            ["build", "--f", k1_file, "--h1", k1_file, "--format", "json"],
        )
        assert code == 0
        graph = json.loads(out.splitlines()[0])
        assert graph["order"] == 2
        assert graph["edges"] == [[0, 1]]

    def test_out_files(self, tmp_path, capsys, k1_file):
        target = str(tmp_path / "g.txt")
        code, out, _ = _run(
            capsys,
            ["build", "--f", k1_file, "--h1", k1_file, "--h2", k1_file, "--out", target],
        )
        assert code == 0
        assert out == ""
        assert open(target).read().splitlines()[0] == "3 2"
        layout = json.loads(open(target + ".layout.json").read())
        assert layout["total"] == 3

    def test_duplicate_attach_rejected(self, capsys, k2_file, k1_file):
        code, _, err = _run(
            capsys,
            ["build", "--f", k2_file, "--h1", k1_file, "--attach", "0,0"],
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("attach", ["", ",", "0,,1", "0,", ",1", "0,x"])
    @pytest.mark.parametrize("command", ["build", "resist"])
    def test_malformed_attach_rejected(self, capsys, k2_file, k1_file, attach, command):
        # an empty list must not fall back to every vertex, and the error
        # names the option rather than int()'s parse
        code, out, err = _run(capsys, [command, "--f", k2_file, "--h1", k1_file, f"--attach={attach}"])
        assert code == 2 and out == ""
        assert err.startswith("error: --attach") and repr(attach) in err
        assert err.count("\n") == 1

    def test_gadget_file_route(self, tmp_path, capsys, k2_file):
        # H_v given whole: P2 with v = 0 splits into H1 = K1, empty H2
        code, out, _ = _run(
            capsys,
            ["build", "--f", k2_file, "--hv", k2_file, "--v-id", "0"],
        )
        assert code == 0
        assert out.splitlines()[0] == "4 3"

    def test_gadget_requires_v_id(self, capsys, k2_file):
        code, _, err = _run(capsys, ["build", "--f", k2_file, "--hv", k2_file])
        assert code == 2
        assert "--v-id" in err


class TestRootedGadgetFile:
    """``--hv`` takes any connected rooted gadget, not only H1 v (H2 + {v})."""

    def _files(self, tmp_path):
        # base P4 with pockets on 2 and 0; the gadget is C5 rooted at 0
        return _graph_files(tmp_path, [("p4", Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}))),
                                       ("c5", Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})))])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_resist_matches_oracle(self, tmp_path, capsys, fmt):
        f, hv = self._files(tmp_path)
        base = ["resist", "--f", f, "--hv", hv, "--v-id", "0", "--attach", "2,0", "--format", fmt]
        code_s, out_s, err = _run(capsys, base)
        assert code_s == 0, err
        code_o, out_o, err = _run(capsys, base + ["--oracle"])
        assert code_o == 0, err
        if fmt == "json":
            s, o = json.loads(out_s), json.loads(out_o)
            kf_s, kf_o = s["kf"], o["kf"]
            rows_s, rows_o = s["resistances"], o["resistances"]
        else:
            lines_s, lines_o = out_s.splitlines(), out_o.splitlines()
            kf_s, kf_o = (float(t[-1].split()[3]) for t in (lines_s, lines_o))
            rows_s, rows_o = ([[float(x) for x in row.split(",")] for row in t[1:-1]]
                              for t in (lines_s, lines_o))
        assert len(rows_s) == len(rows_o) == 12 * 11 // 2  # N = 4 + 4 * 2
        assert abs(kf_s - kf_o) <= 1e-8
        for (u1, v1, r1), (u2, v2, r2) in zip(rows_s, rows_o):
            assert (u1, v1) == (u2, v2)
            assert abs(r1 - r2) <= 1e-9

    def test_build_glues_every_gadget_edge(self, tmp_path, capsys):
        f, hv = self._files(tmp_path)
        code, out, err = _run(capsys, ["build", "--f", f, "--hv", hv, "--v-id", "0", "--attach", "2,0"])
        assert code == 0, err
        assert out.splitlines()[0] == f"12 {3 + 2 * 5}"  # n-edges + k |E(H)|

    @pytest.mark.parametrize(
        "gadget,v_id,message",
        [
            ("4 2\n0 1\n2 3\n", "0", "cannot reach v"),  # 2-3 cut off from v = 0
            ("3 1\n1 2\n", "0", "has no neighbours"),
            ("2 1\n0 1\n", "2", "not a vertex"),
        ],
        ids=["disconnected", "isolated-v", "v-out-of-range"],
    )
    @pytest.mark.parametrize("command", ["build", "resist"])
    def test_bad_gadget_fails_cleanly(self, tmp_path, capsys, k2_file, gadget, v_id, message, command):
        hv = tmp_path / "hv.txt"
        hv.write_text(gadget)
        code, out, err = _run(capsys, [command, "--f", k2_file, "--hv", str(hv), "--v-id", v_id])
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--hv", "{k2}", "--v-id", "0", "--h1", "{k3}"], "cannot be combined"),
            (["--hv", "{k2}", "--v-id", "0", "--h2", "{k3}"], "cannot be combined"),
            (["--h1", "{k3}", "--v-id", "0"], "--v-id requires --hv"),
        ],
        ids=["hv-with-h1", "hv-with-h2", "v-id-without-hv"],
    )
    @pytest.mark.parametrize("command", ["build", "resist"])
    def test_mixed_gadget_routes_fail_cleanly(self, tmp_path, capsys, k2_file, extra, message, command):
        # a gadget comes from --hv with --v-id or from --h1/--h2, never both
        (k3,) = _graph_files(tmp_path, [("k3", complete_graph(3))])
        argv = [command, "--f", k2_file] + [a.format(k2=k2_file, k3=k3) for a in extra]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err


class TestResist:
    def test_p3_csv(self, capsys, k1_file):
        code, out, _ = _run(
            capsys,
            ["resist", "--f", k1_file, "--h1", k1_file, "--h2", k1_file],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "u,v,r"
        assert set(lines[1:4]) == {"0,1,1", "0,2,2", "1,2,1"}
        assert lines[4] == "# Kf = 4 (structured)"

    def test_oracle_matches_structured(self, capsys, k2_file, k1_file):
        base = ["resist", "--f", k2_file, "--h1", k1_file, "--format", "json"]
        _, out_s, _ = _run(capsys, base)
        _, out_o, _ = _run(capsys, base + ["--oracle"])
        s, o = json.loads(out_s), json.loads(out_o)
        assert s["method"] == "structured" and o["method"] == "oracle"
        assert abs(s["kf"] - o["kf"]) <= 1e-8
        for (u1, v1, r1), (u2, v2, r2) in zip(s["resistances"], o["resistances"]):
            assert (u1, v1) == (u2, v2)
            assert abs(r1 - r2) <= 1e-9

    def test_non_join_attachment_matches_oracle(self, tmp_path, capsys, k1_file):
        # a pocket on an end of P3: F is not F1 v F2 over {0}
        p3 = tmp_path / "p3.txt"
        p3.write_text("3 2\n0 1\n1 2\n")
        base = ["resist", "--f", str(p3), "--h1", k1_file, "--attach", "0", "--format", "json"]
        code_s, out_s, err = _run(capsys, base)
        assert code_s == 0, err
        code_o, out_o, _ = _run(capsys, base + ["--oracle"])
        assert code_o == 0
        s, o = json.loads(out_s), json.loads(out_o)
        assert len(s["resistances"]) == len(o["resistances"]) == 6  # N = 4
        assert abs(s["kf"] - o["kf"]) <= 1e-8
        for (u1, v1, r1), (u2, v2, r2) in zip(s["resistances"], o["resistances"]):
            assert (u1, v1) == (u2, v2)
            assert abs(r1 - r2) <= 1e-9

    @pytest.mark.parametrize("order", [1, 2, 3, 7])
    def test_json_streamed_text_matches_whole_payload(self, order):
        rng = np.random.default_rng(order)
        r = rng.random((order, order)) * 10.0 ** rng.integers(-3, 4, size=(order, order))
        kf = KirchhoffResult(float(r.sum()), "oracle")
        out = io.BytesIO()
        cli._write_json(out, order, lambda u, v: r[u, v], kf)
        payload = {
            "kf": float(cli._fmt(kf.value)),
            "method": kf.method,
            "resistances": [
                [u, v, float(cli._fmt(r[u, v]))]
                for u in range(order)
                for v in range(u + 1, order)
            ],
        }
        assert out.getvalue().decode("ascii") == json.dumps(payload, sort_keys=True) + "\n"

    def test_json_peak_memory_stays_near_the_dense_arrays(self, tmp_path, traced_peak):
        argv, order = _order_300_argv(tmp_path)
        target = tmp_path / "r.json"
        argv += ["--format", "json", "--out", str(target)]
        code, peak = traced_peak(main, argv)
        assert code == 0
        assert peak <= 4 * 8 * order**2
        assert len(json.loads(target.read_text())["resistances"]) == order * (order - 1) // 2

    def test_csv_peak_memory_stays_near_the_dense_arrays(self, tmp_path, traced_peak):
        argv, order = _order_300_argv(tmp_path)
        target = tmp_path / "r.csv"
        argv += ["--format", "csv", "--out", str(target)]
        code, peak = traced_peak(main, argv)
        assert code == 0
        assert peak <= 4 * 8 * order**2
        assert len(target.read_text().splitlines()) == order * (order - 1) // 2 + 2

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_structured_peak_memory_is_one_dense_array(self, tmp_path, fmt, traced_peak):
        # X is the only N x N array: r is read from it a block of pairs at
        # a time, whose buffers take under 1 MB
        argv, order = _order_300_argv(tmp_path)
        target = tmp_path / f"r.{fmt}"
        argv += ["--format", fmt, "--out", str(target)]
        release_output_buffer()  # measure a call that allocates X
        code, peak = traced_peak(main, argv)
        assert code == 0
        assert peak <= 8 * order**2 + 1e6

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_oracle_peak_memory_is_two_dense_arrays(self, tmp_path, fmt, traced_peak):
        # a loose bound; test_oracle_peak_memory_is_one_dense_array is the
        # tight one
        argv, order = _order_300_argv(tmp_path)
        target = tmp_path / f"r.{fmt}"
        argv += ["--oracle", "--format", fmt, "--out", str(target)]
        release_output_buffer()
        code, peak = traced_peak(main, argv)
        assert code == 0
        assert peak <= 2 * 8 * order**2 + 1e6

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_oracle_peak_memory_is_one_dense_array(self, tmp_path, fmt, traced_peak):
        # L(G) is shifted to L + J/n and inverted in place, so it becomes X;
        # plus the writers' blocks of pairs
        argv, order = _order_300_argv(tmp_path)
        target = tmp_path / f"r.{fmt}"
        argv += ["--oracle", "--format", fmt, "--out", str(target)]
        release_output_buffer()
        code, peak = traced_peak(main, argv)
        assert code == 0
        assert peak <= 8 * order**2 + 1e6

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_structured_peak_memory_is_far_below_one_dense_array(self, tmp_path, fmt, traced_peak):
        # r and Kf come from the two small factors: no N x N array at all,
        # only O(N) index maps and the writers' blocks of pairs
        rng = np.random.default_rng(8)
        f, h1, h2 = _graph_files(tmp_path, [
            ("f", random_connected_graph(rng, 40)), ("h1", random_graph(rng, 4)), ("h2", random_graph(rng, 20)),
        ])
        order = 40 + 24 * 40
        target = tmp_path / f"r.{fmt}"
        argv = ["resist", "--f", f, "--h1", h1, "--h2", h2, "--format", fmt, "--out", str(target)]
        release_output_buffer()
        code, peak = traced_peak(main, argv)
        assert code == 0
        assert peak <= 8 * order**2 / 4
        assert target.stat().st_size > order * (order - 1) // 2 * 10

    @pytest.mark.parametrize("argv", [
        ["resist", "--format", "json"],
        ["resist", "--format", "csv", "--oracle"],
        ["verify", "--sweep", "3"],
    ], ids=["resist", "resist-oracle", "verify"])
    def test_no_resistance_matrix_is_built(self, tmp_path, monkeypatch, argv):
        calls = _count_calls(monkeypatch, resistance.resistance_matrix)
        # the counter sees calls through the library's bindings of the name;
        # no library route calls it, oracle_resistance included
        resistance.resistance_matrix(np.zeros((1, 1)))
        pocket_kirch.resistance_matrix(np.zeros((1, 1)))
        resistance.oracle_resistance(complete_graph(3))
        assert len(calls) == 2
        calls.clear()
        if argv[0] == "resist":
            argv = argv + _order_300_argv(tmp_path)[0][1:]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert calls == []

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 7])
    def test_writers_match_per_pair_reference(self, order, fmt):
        rng = np.random.default_rng(order)
        r = rng.random((order, order)) * 10.0 ** rng.integers(-3, 4, size=(order, order))
        r = r + r.T
        _assert_same_text(*_texts(fmt, r, KirchhoffResult(float(r.sum()), "oracle")))

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    @pytest.mark.parametrize("value", FALLBACK_TRIGGERS)
    def test_writers_match_reference_on_fallback_triggers(self, value, fmt):
        rng = np.random.default_rng(11)
        r = rng.random((7, 7)) * 3.0
        r[0, :] = rng.integers(-5, 6, size=7)  # integer-valued row
        r[2, 3:6] = value
        r[4, 6] = -value
        r = np.triu(r) + np.triu(r, 1).T
        _assert_same_text(*_texts(fmt, r, KirchhoffResult(abs(value), "structured")))

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_writers_match_reference_on_alternating_integer_rows(self, fmt):
        # json appends ".0" only on rows holding a value near an integer.
        # Even rows are integers; odd rows are not, except for one value
        # each whose text is an integer ("-0", "4", "100000000000") or is
        # not, though near one ("2.00000000001", "1.0000000001")
        rng = np.random.default_rng(13)
        r = rng.random((11, 11)) * 7.0 + 0.01
        r[::2] = rng.integers(-4, 5, size=(6, 11))
        r[1, 4] = -0.0
        r[3, 6] = 3.9999999999999
        r[5, 8] = 99999999999.96
        r[7, 9] = 2.00000000001
        r[9, 10] = 1.0000000001
        r = np.triu(r) + np.triu(r, 1).T
        _assert_same_text(*_texts(fmt, r, KirchhoffResult(12.0, "structured")))

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("sizes", [(1, 1, 0), (1, 1, 1), (1, 2, 4)])
    def test_resist_text_matches_per_pair_reference(self, tmp_path, capsys, sizes, oracle, fmt):
        # orders 2, 3 and 7 (order N = n + m k: the CLI cannot ask for less than 2)
        rng = np.random.default_rng(sum(sizes))
        n, l, q = sizes
        f, h1, h2 = _graph_files(
            tmp_path,
            [
                ("f", random_connected_graph(rng, n)),
                ("h1", random_graph(rng, l)),
                ("h2", random_graph(rng, q)),
            ],
        )
        argv = ["resist", "--f", f, "--h1", h1, "--h2", h2, "--format", fmt]
        argv += ["--oracle"] if oracle else []
        code, out, _ = _run(capsys, argv)
        assert code == 0
        _assert_same_text(out, _reference_resist(argv))

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    @pytest.mark.parametrize("oracle", [False, True])
    def test_order_300_text_matches_per_pair_reference(self, tmp_path, oracle, fmt):
        argv, _ = _order_300_argv(tmp_path)
        target = tmp_path / f"r.{fmt}"
        argv += ["--format", fmt, "--out", str(target)] + (["--oracle"] if oracle else [])
        assert main(argv) == 0
        _assert_same_text(target.read_text(), _reference_resist(argv))

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_formats_a_row_per_call_not_a_pair(self, tmp_path, monkeypatch, fmt):
        calls = []
        fmt_one = cli._fmt

        def counting_fmt(x):
            calls.append(x)
            return fmt_one(x)

        monkeypatch.setattr(cli, "_fmt", counting_fmt)
        argv, order = _order_300_argv(tmp_path)
        assert order >= 50
        target = tmp_path / f"r.{fmt}"
        assert main(argv + ["--format", fmt, "--out", str(target)]) == 0
        assert len(calls) <= 2  # the Kf line, not the N(N-1)/2 pairs
        assert target.stat().st_size > order * (order - 1) // 2

    def test_table_format(self, capsys, k1_file):
        code, out, _ = _run(
            capsys,
            ["resist", "--f", k1_file, "--h1", k1_file, "--h2", k1_file, "--format", "table"],
        )
        assert code == 0
        assert out.splitlines()[-1] == "Kf = 4 (structured)"

    def test_corrupted_graph_file(self, tmp_path, capsys, k1_file):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a graph\n")
        code, _, err = _run(capsys, ["resist", "--f", str(bad), "--h1", k1_file])
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys, k1_file):
        code, _, err = _run(
            capsys, ["resist", "--f", "/nonexistent/g.txt", "--h1", k1_file]
        )
        assert code == 2
        assert "error:" in err

    def test_out_of_memory_reports_order(self, monkeypatch, capsys, k2_file, k1_file):
        def no_memory(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "PocketResistance", no_memory)
        code, out, err = _run(
            capsys, ["resist", "--f", k2_file, "--h1", k1_file, "--h2", k1_file]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory")
        assert "N = 6" in err  # n + m k = 2 + 2 * 2
        assert "dense" not in err  # the structured route builds no N x N array
        assert "Traceback" not in err

    def test_oracle_out_of_memory_reports_dense_order(self, monkeypatch, capsys, k2_file, k1_file):
        def no_memory(g):
            raise MemoryError

        monkeypatch.setattr(cli, "oracle_one_inverse", no_memory)
        code, out, err = _run(
            capsys, ["resist", "--oracle", "--f", k2_file, "--h1", k1_file, "--h2", k1_file]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory: the dense result has order N = 6 (6 x 6 entries)")
        assert "Traceback" not in err


def _formatted(fmt, r, kf):
    """The text of one format on r and kf, straight from '%.12g' % x,
    json.dumps(float('%.12g' % x)) and '%18.12g' % x."""
    u, v = np.triu_indices(r.shape[0], 1)
    x = r[u, v].tolist()
    flat = [t for row in zip(u.tolist(), v.tolist(), x) for t in row]
    if fmt == "csv":
        return "u,v,r\n" + "%d,%d,%.12g\n" * len(x) % tuple(flat) + "# Kf = %.12g (%s)\n" % (
            kf.value, kf.method)
    if fmt == "table":
        return "%4s%4s%18s\n" % ("u", "v", "r") + "%4d%4d%18.12g\n" * len(x) % tuple(flat) + (
            "Kf = %.12g (%s)\n" % (kf.value, kf.method))
    payload = {
        "kf": float("%.12g" % kf.value),
        "method": kf.method,
        "resistances": [[a, b, float("%.12g" % c)] for a, b, c in zip(u.tolist(), v.tolist(), x)],
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def _upper(values):
    """A square matrix whose pairs u < v, in row-major order, hold
    ``values`` and then repeat them; the lower triangle is NaN."""
    order = 2
    while order * (order - 1) // 2 < len(values):
        order += 1
    r = np.full((order, order), np.nan)
    u, v = np.triu_indices(order, 1)
    r[u, v] = np.resize(np.asarray(values, dtype=float), len(u))
    return r


def _stress_values():
    """Over 10^6 doubles that probe the '%.12g' kernel: log-uniform values,
    12-digit ties (k + 1/2) 10^(e-11) and their neighbours, powers of ten
    one rounding step either side of a carry, and every fallback class."""
    rng = np.random.default_rng(2024)
    ties = (rng.integers(10**11, 10**12, 150_000) + 0.5) * 10.0 ** rng.integers(-17, 3, 150_000)
    tens = 10.0 ** np.arange(-10, 17)
    steps = [1.0, 1 - 5e-13, 1 + 5e-13, 1 - 4.99e-13, 1 - 5.01e-13, 1 - 1e-12, 1 + 1e-12]
    log_uniform = 10.0 ** rng.uniform(-9, 15, 400_000)
    parts = [
        log_uniform,
        -log_uniform[:20_000],
        ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
        np.outer(tens, steps).ravel(),
        rng.random(100_000) * 3.0,
        np.arange(1, 50_001) / 8.0,
        rng.integers(0, 10**7, 20_000).astype(float),
        rng.random(10_000) * 2.2250738585072014e-308,  # subnormal
        np.array(FALLBACK_TRIGGERS + [0.5, 1e-4, 99999999999.5, 99999999999.4, -1.23456789012e-308]),
    ]
    return np.concatenate(parts)


class TestG12Kernel:
    """The writers' text against '%.12g' itself, not against _fmt."""

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_stress_set_matches_printf(self, fmt):
        values = _stress_values()
        assert len(values) >= 10**6
        chunk = 64 * 1023  # the pairs of order 1024 are 1023 * 512
        kf = KirchhoffResult(1.0, "structured")
        for at in range(0, len(values), chunk):
            r = _upper(values[at:at + chunk])
            out = io.BytesIO()
            WRITERS[fmt][0](out, len(r), lambda u, v: r[u, v], kf)
            _assert_same_text(out.getvalue().decode("ascii"), _formatted(fmt, r, kf))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_any_double_matches_printf(self, values):
        r = _upper(values)
        kf = KirchhoffResult(3.0, "oracle")
        for fmt in ("csv", "table", "json"):
            out = io.BytesIO()
            WRITERS[fmt][0](out, len(r), lambda u, v: r[u, v], kf)
            _assert_same_text(out.getvalue().decode("ascii"), _formatted(fmt, r, kf))

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_blocks_ending_inside_a_row(self, monkeypatch, fmt):
        # order 11: rows of 10, 9, 8, ... pairs, so blocks of 7 end at pairs
        # 7 and 14, inside rows 0 and 1; a fallback value opens block 2
        monkeypatch.setattr(resistance, "_BLOCK", 7)
        rng = np.random.default_rng(17)
        r = rng.random((11, 11)) * 5.0
        r[1, 6] = float("nan")
        r = np.triu(r) + np.triu(r, 1).T
        _assert_same_text(*_texts(fmt, r, KirchhoffResult(9.0, "structured")))
        _assert_same_text(_texts(fmt, r, KirchhoffResult(9.0, "structured"))[0],
                          _formatted(fmt, r, KirchhoffResult(9.0, "structured")))

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_order_1003_matches_printf(self, fmt):
        # labels of 1 to 4 digits; json's "], [1000" and ", 1000, " are 8
        # bytes each, so their label field is two whole words
        rng = np.random.default_rng(1003)
        r = rng.random((1003, 1003)) * 10.0 ** rng.integers(-3, 4, size=(1003, 1003))
        kf = KirchhoffResult(2.0, "structured")
        out = io.BytesIO()
        WRITERS[fmt][0](out, len(r), lambda u, v: r[u, v], kf)
        _assert_same_text(out.getvalue().decode("ascii"), _formatted(fmt, r, kf))

    def test_table_values_wider_than_the_column_get_no_padding(self):
        r = np.full((4, 4), 2.5)
        r[0, 1] = -1.23456789012e-308  # 19 characters
        r[0, 2] = -1.5e-300  # "-1.5e-300", padded
        r[1, 3] = -2.22507385851e-308
        r = np.triu(r) + np.triu(r, 1).T
        text, reference = _texts("table", r, KirchhoffResult(1.0, "oracle"))
        _assert_same_text(text, reference)
        _assert_same_text(text, _formatted("table", r, KirchhoffResult(1.0, "oracle")))
        lines = text.splitlines()
        assert lines[1] == "   0   1-1.23456789012e-308"
        assert lines[2] == "   0   2" + "-1.5e-300".rjust(18)


@lru_cache(maxsize=1)
def _block_case(fmt, order):
    """r of one order, over seven decades, and the reference writer's text
    of one format on it; the tests of one case run one after another."""
    rng = np.random.default_rng(order)
    r = rng.random((order, order)) * 10.0 ** rng.integers(-3, 4, size=(order, order))
    r[0, 2] = float("nan")  # a fallback value in the first block
    out = io.StringIO()
    WRITERS[fmt][1](out, r, KirchhoffResult(7.0, "structured"))
    return r, out.getvalue()


class TestBlockSize:
    """No output byte depends on how pair_blocks cuts the pairs."""

    @pytest.mark.parametrize("block", [7, 4096, 8191, 8192])
    @pytest.mark.parametrize("order", [300, 1003])
    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_writers_match_reference(self, monkeypatch, fmt, order, block):
        r, reference = _block_case(fmt, order)
        monkeypatch.setattr(resistance, "_BLOCK", block)
        out = io.BytesIO()
        WRITERS[fmt][0](out, order, lambda u, v: r[u, v], KirchhoffResult(7.0, "structured"))
        _assert_same_text(out.getvalue().decode("ascii"), reference)


# Each writer's (first, second) label formats in _write_pairs.
LABELS = {"csv": ("\n%d,", "%d,"), "table": ("\n%4d", "%4d"), "json": ("], [%d", ", %d, ")}


class TestLabelWords:
    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_digit_count_boundaries_up_to_a_million(self, fmt):
        # labels wider than a word appear only at orders too large to write
        first, second = LABELS[fmt]
        ids = sorted({0, 1} | {10**e + d for e in range(1, 7) for d in (-1, 0, 1)})
        head, tail, base = cli._label_words(ids, first, second)
        i, j = np.triu_indices(len(ids), 1)
        words = np.stack([h.take(base.take(j) + i) | t.take(j) for h, t in zip(head, tail)], axis=1)
        texts = [(first % ids[a] + second % ids[b]).encode() for a, b in zip(i.tolist(), j.tolist())]
        width = 8 * len(head)
        assert width - 8 < max(map(len, texts)) <= width
        assert [row.tobytes() for row in words] == [t.rjust(width, b"\0") for t in texts]


class TestVerify:
    def test_exit_zero_and_deterministic(self, capsys):
        argv = ["verify", "--sweep", "6", "--seed", "11"]
        code1, out1, _ = _run(capsys, argv)
        code2, out2, _ = _run(capsys, argv)
        assert code1 == 0 and code2 == 0
        assert out1 == out2

    def test_report_shape(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--sweep", "0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        labels = [rep["instance"]["label"] for rep in payload["instances"]]
        assert "p3" in labels and "p4" in labels
        p3 = next(r for r in payload["instances"] if r["instance"]["label"] == "p3")
        kf_printed = next(
            q for q in p3["quantities"] if q["quantity"] == "Kf" and q["case"]
        )
        assert kf_printed["printed"] == pytest.approx(1.5)
        assert kf_printed["oracle"] == pytest.approx(4.0)

    def test_table_format(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--sweep", "0", "--format", "table"])
        assert code == 0
        assert out.splitlines()[-1] == "overall: PASS"

    def test_out_file(self, tmp_path, capsys):
        target = str(tmp_path / "report.json")
        code, out, _ = _run(capsys, ["verify", "--sweep", "2", "--out", target])
        assert code == 0
        assert out == ""
        assert json.loads(open(target).read())["ok"] is True

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("tol_r", [1e-9, 0.0])
    def test_reports_streamed(self, monkeypatch, fmt, tol_r):
        # each report is written before the next instance is audited, and
        # the text is that of the whole payload written at once
        buf = io.BytesIO()
        written, reports = [], []

        def audit(spec, **options):
            written.append(len(buf.getvalue()))
            reports.append(verify_construction(spec, **options))
            return reports[-1]

        monkeypatch.setattr(cli, "_output", lambda path: contextlib.nullcontext(buf))
        monkeypatch.setattr(cli, "verify_construction", audit)
        argv = ["verify", "--sweep", "3", "--tol-r", repr(tol_r), "--format", fmt]
        assert main(argv) == (0 if tol_r else 1)
        assert all(a < b for a, b in zip(written, written[1:]))
        all_ok = all(rep.ok for rep in reports)
        assert all_ok == bool(tol_r)
        if fmt == "table":
            expected = "".join(
                f"== {rep.instance['label']} ==\n{rep.to_table()}\n" for rep in reports
            ) + f"overall: {'PASS' if all_ok else 'FAIL'}\n"
        else:
            expected = json.dumps({
                "ok": all_ok,
                "seed": make_parser().parse_args(["verify"]).seed,
                "max_n": 6,
                "max_m": 8,
                "tolerances": {"resistance": tol_r, "kirchhoff": 1e-8},
                "instances": [rep.to_dict() for rep in reports],
            }, sort_keys=True) + "\n"
        assert buf.getvalue().decode("ascii") == expected

    @pytest.mark.parametrize("argv,option", [
        (["--tol-r", "nan"], "--tol-r"),
        (["--tol-kf", "nan"], "--tol-kf"),
        (["--tol-r", "inf"], "--tol-r"),
        (["--tol-r=-1e-9"], "--tol-r"),
        (["--tol-kf=-inf"], "--tol-kf"),
        (["--max-n", "0"], "--max-n"),
        (["--max-n=-2"], "--max-n"),
        (["--sweep=-3"], "--sweep"),
        (["--max-m=-5"], "--max-m"),
        (["--max-m", "0"], "--max-m"),
        (["--seed=-1"], "--seed"),
    ])
    def test_bad_arguments_rejected(self, capsys, argv, option):
        # a nan tolerance would fail every correct construction, --max-n 0
        # end in numpy's "low >= high", a negative sweep run nothing,
        # --max-m -5 be written into the report as given and --seed -1
        # fail with a numpy message that does not name the option
        code, out, err = _run(capsys, ["verify", "--sweep", "0"] + argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {option} ") and err.count("\n") == 1

    @pytest.mark.parametrize("max_m", [1, 3])
    def test_max_m_bounds_gadget_order(self, capsys, max_m):
        code, out, _ = _run(capsys, ["verify", "--sweep", "200", "--max-m", str(max_m)])
        assert code == 0
        sweep = json.loads(out)["instances"][len(builtin_fixtures()):]
        assert len(sweep) == 200
        assert {rep["instance"]["m"] for rep in sweep} <= set(range(1, max_m + 1))

    def test_sweep_drawn_one_instance_at_a_time(self, monkeypatch):
        # instance i of the sweep is drawn just before its audit, from the
        # one generator, so nothing of the sweep is drawn up front
        drawn, seen = [], []
        draw = cli.random_spec

        def counting(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        def audit(spec, **options):
            seen.append(len(drawn))
            return verify_construction(spec, **options)

        monkeypatch.setattr(cli, "random_spec", counting)
        monkeypatch.setattr(cli, "verify_construction", audit)
        monkeypatch.setattr(cli, "_output", lambda path: contextlib.nullcontext(io.BytesIO()))
        assert main(["verify", "--sweep", "4"]) == 0
        fixtures = len(builtin_fixtures())
        assert seen == [0] * fixtures + [1, 2, 3, 4]

    @pytest.mark.parametrize("argv", [["--tol-r", "0", "--sweep", "0"], ["--max-n", "1", "--sweep", "3"]])
    def test_edge_arguments_accepted(self, capsys, argv):
        code, out, _ = _run(capsys, ["verify"] + argv)
        assert code in (0, 1)
        assert json.loads(out)["instances"]


class TestOracleOneInverse:
    """Every oracle route takes X from ``resistance.oracle_one_inverse``,
    once per X, and no module but it and linalg binds linalg's in-place
    kernel. The calls are counted through every module binding."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return _count_calls(monkeypatch, resistance.oracle_one_inverse)

    def test_oracle_resistance(self, calls):
        oracle_resistance(complete_graph(3))
        assert len(calls) == 1

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_resist_oracle(self, tmp_path, calls, fmt):
        argv = ["resist"] + _order_300_argv(tmp_path)[0][1:]
        assert main(argv + ["--oracle", "--format", fmt, "--out", str(tmp_path / "r")]) == 0
        assert [args[0].order for args in calls] == [300]

    def test_resist_structured_takes_none(self, tmp_path, calls):
        argv = ["resist"] + _order_300_argv(tmp_path)[0][1:]
        assert main(argv + ["--out", str(tmp_path / "r")]) == 0
        assert calls == []

    def test_bench(self, capsys, calls):
        # time_route calls the oracle route four times: one untimed, three timed
        code, _, _ = _run(capsys, ["bench", "--max-n", "10", "--max-m", "6"])
        assert code == 0
        assert [args[0].order for args in calls] == [70] * 4

    def test_verify_construction(self, calls):
        fixtures = builtin_fixtures()
        for _, spec in fixtures:
            verify_construction(spec)
        assert [args[0].order for args in calls] == [s.n + s.m * s.k for _, s in fixtures]

    def test_no_other_module_binds_the_kernel(self):
        from pocket_kirch import formulas

        assert not hasattr(cli, "_pseudo_inverse_in_place")
        assert not hasattr(cli, "laplacian")
        assert not hasattr(formulas, "pseudo_inverse_laplacian")
        kernel = sys.modules["pocket_kirch.linalg"]._pseudo_inverse_in_place
        bound = {name for name, module in sys.modules.items()
                 if name.split(".")[0] == "pocket_kirch"
                 and any(value is kernel for value in vars(module).values())}
        assert bound == {"pocket_kirch.linalg", "pocket_kirch.resistance"}


class TestBench:
    def test_small_sizes(self, capsys):
        code, out, _ = _run(capsys, ["bench", "--max-n", "10", "--max-m", "6"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,m,l,total_order,t_structured,t_oracle,speedup,agree"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[:4] == ["10", "6", "2", "70"]
        assert fields[7] == "yes"

    def test_structured_column_times_the_factor_route(self, capsys, monkeypatch):
        # t_structured is Kf from PocketResistance's two factors; the dense
        # structured X is never written
        from pocket_kirch import oneinv

        writes = _count_calls(monkeypatch, oneinv._write_one_inverse)
        orders = []
        kirchhoff = oneinv.PocketResistance.kirchhoff

        def counting(self):
            orders.append(self.order)
            return kirchhoff(self)

        monkeypatch.setattr(oneinv.PocketResistance, "kirchhoff", counting)
        code, _, _ = _run(capsys, ["bench", "--max-n", "10", "--max-m", "6"])
        assert code == 0
        assert orders == [70] * 4 and writes == []

    @pytest.mark.parametrize("argv,option", [
        (["--max-n", "0"], "--max-n"),
        (["--max-n", "9"], "--max-n"),
        (["--max-m", "5"], "--max-m"),
        (["--seed=-1"], "--seed"),
    ])
    def test_bad_arguments_rejected(self, capsys, argv, option):
        # a bound below the smallest size wrote only the csv header
        code, out, err = _run(capsys, ["bench"] + argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {option} must be at least ") and err.count("\n") == 1


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_defaults(self):
        args = make_parser().parse_args(["verify"])
        assert args.sweep == 40
        assert args.format == "json"

    def test_main_builds_one_parser_for_every_call(self, tmp_path, monkeypatch, capsys, k2_file, k1_file):
        cli._parser.cache_clear()
        builds = _count_calls(monkeypatch, cli.make_parser)
        spec = ["resist", "--f", k2_file, "--h1", k1_file]
        assert main(spec + ["--format", "json", "--out", str(tmp_path / "a")]) == 0
        assert main(spec + ["--out", str(tmp_path / "b")]) == 0
        with pytest.raises(SystemExit) as rejected:
            main(spec + ["--format", "xml"])
        assert rejected.value.code == 2 and "invalid choice: 'xml'" in capsys.readouterr().err
        assert main(spec + ["--oracle", "--out", str(tmp_path / "c")]) == 0
        assert main(["verify", "--sweep", "0", "--out", str(tmp_path / "d")]) == 0
        assert main(spec + ["--out", str(tmp_path / "e")]) == 0
        assert len(builds) == 1
        assert json.loads((tmp_path / "a").read_text())["method"] == "structured"
        csv_lines = (tmp_path / "b").read_text().splitlines()
        assert csv_lines[0] == "u,v,r" and csv_lines[-1].endswith("(structured)")
        assert (tmp_path / "c").read_text().splitlines()[-1].endswith("(oracle)")
        assert json.loads((tmp_path / "d").read_text())["ok"] is True
        assert (tmp_path / "e").read_text() == (tmp_path / "b").read_text()


class TestHostileGraphFiles:
    """A graph file with a non-integer vertex id or order (true and false
    included), or a row that is not a pair, ends the command with one error
    line and exit code 2."""

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"order": 3, "edges": [[0.5, 1], [1, 2]]}', "integer (u, v) pairs"),
            ('{"order": 2.7, "edges": [[0, 1]]}', "order must be an integer"),
            ('{"order": 3, "edges": [[0, 1, 2]]}', "integer (u, v) pairs"),
            ('{"order": 3, "edges": [[0, 1], [1]]}', "integer pairs"),
            ("3 2\n0 1\n1 2.5\n", "non-integer token"),
            ('{"order": true, "edges": []}', "order must be an integer"),
            ('{"order": 2, "edges": [[0, true]]}', "true or false"),
        ],
        ids=["float-end", "float-order", "triple-row", "ragged-rows", "edge-list-float-end",
             "bool-order", "bool-end"],
    )
    @pytest.mark.parametrize("role", ["--f", "--h1", "--hv"])
    @pytest.mark.parametrize("command", ["build", "resist"])
    def test_fails_cleanly(self, tmp_path, capsys, k2_file, text, message, role, command):
        bad = tmp_path / "bad.graph"
        bad.write_text(text)
        argv = {
            "--f": ["--f", str(bad), "--h1", k2_file],
            "--h1": ["--f", k2_file, "--h1", str(bad)],
            "--hv": ["--f", k2_file, "--hv", str(bad), "--v-id", "0"],
        }[role]
        code, out, err = _run(capsys, [command] + argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_import_loads_no_scipy_sparse():
    # scipy.sparse costs every process tens of milliseconds of import time
    src = os.path.dirname(os.path.dirname(pocket_kirch.__file__))
    probe = "import sys, pocket_kirch.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


def _utf16_stdout(argv):
    """The bytes ``python -m pocket_kirch.cli argv`` writes to standard
    output under PYTHONIOENCODING=utf-16, where a text layer would
    re-encode whatever passed through it."""
    src = os.path.dirname(os.path.dirname(pocket_kirch.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-16")
    done = subprocess.run([sys.executable, "-m", "pocket_kirch.cli"] + argv, env=env,
                          capture_output=True, check=True, timeout=120)
    return done.stdout


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_stdout_gets_the_out_file_bytes(tmp_path, fmt):
    argv, order = _order_300_argv(tmp_path)
    argv += ["--format", fmt]
    target = tmp_path / f"r.{fmt}"
    assert main(argv + ["--out", str(target)]) == 0
    text = _utf16_stdout(argv)
    assert text == target.read_bytes()
    if fmt == "json":  # one line: Kf in the head, then the pairs
        assert text.startswith(b'{"kf": ') and text.endswith(b"]]}\n")
    else:
        lines = text.split(b"\n")
        assert lines[0] == {"csv": b"u,v,r", "table": b"   u   v                 r"}[fmt]
        assert lines[-2].startswith({"csv": b"# Kf = ", "table": b"Kf = "}[fmt]) and lines[-1] == b""
        assert len(lines) == order * (order - 1) // 2 + 3


@pytest.mark.parametrize("fmt", ["edges", "json"])
def test_build_stdout_gets_the_out_files_bytes(tmp_path, fmt):
    # the graph file's bytes, then its layout file's
    argv = ["build"] + _order_300_argv(tmp_path)[0][1:] + ["--format", fmt]
    target = tmp_path / f"g.{fmt}"
    assert main(argv + ["--out", str(target)]) == 0
    layout = tmp_path / f"g.{fmt}.layout.json"
    assert _utf16_stdout(argv) == target.read_bytes() + layout.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_verify_stdout_gets_the_out_file_bytes(tmp_path, fmt):
    argv = ["verify", "--sweep", "2", "--format", fmt]
    target = tmp_path / f"v.{fmt}"
    assert main(argv + ["--out", str(target)]) == 0
    assert _utf16_stdout(argv) == target.read_bytes()


def test_closed_stdout_ends_resist_quietly(tmp_path):
    # ``resist ... | head -1``: the reader goes after one line, long before
    # the order-300 output (about 1 MB) is written
    argv, _ = _order_300_argv(tmp_path)
    src = os.path.dirname(os.path.dirname(pocket_kirch.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "pocket_kirch.cli"] + argv, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"u,v,r\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
