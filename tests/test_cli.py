import io
import json
import tracemalloc

import numpy as np
import pytest

from pocket_kirch import cli
from pocket_kirch.cli import main, make_parser
from pocket_kirch.graphs import build_pocket_graph, to_edge_list
from pocket_kirch.oneinv import structured_one_inverse
from pocket_kirch.resistance import (
    KirchhoffResult,
    kirchhoff_from_one_inverse,
    oracle_resistance,
    resistance_matrix,
)
from pocket_kirch.sweep import random_connected_graph, random_graph


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
    texts = []
    for write in WRITERS[fmt]:
        out = io.StringIO()
        write(out, r, kf)
        texts.append(out.getvalue())
    return texts


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
    rng = np.random.default_rng(5)
    f, h1, h2 = _graph_files(
        tmp_path,
        [
            ("f", random_connected_graph(rng, 20)),
            ("h1", random_graph(rng, 3)),
            ("h2", random_graph(rng, 11)),
        ],
    )
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
        out = io.StringIO()
        cli._write_json(out, r, kf)
        payload = {
            "kf": float(cli._fmt(kf.value)),
            "method": kf.method,
            "resistances": [
                [u, v, float(cli._fmt(r[u, v]))]
                for u in range(order)
                for v in range(u + 1, order)
            ],
        }
        assert out.getvalue() == json.dumps(payload, sort_keys=True) + "\n"

    def test_json_peak_memory_stays_near_the_dense_arrays(self, tmp_path):
        argv, order = _order_300_argv(tmp_path)
        target = tmp_path / "r.json"
        argv += ["--format", "json", "--out", str(target)]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 4 * 8 * order**2
        assert len(json.loads(target.read_text())["resistances"]) == order * (order - 1) // 2

    def test_csv_peak_memory_stays_near_the_dense_arrays(self, tmp_path):
        argv, order = _order_300_argv(tmp_path)
        target = tmp_path / "r.csv"
        argv += ["--format", "csv", "--out", str(target)]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 4 * 8 * order**2
        assert len(target.read_text().splitlines()) == order * (order - 1) // 2 + 2

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

        monkeypatch.setattr(cli, "structured_one_inverse", no_memory)
        code, out, err = _run(
            capsys, ["resist", "--f", k2_file, "--h1", k1_file, "--h2", k1_file]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory")
        assert "N = 6" in err  # n + m k = 2 + 2 * 2
        assert "Traceback" not in err


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


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_defaults(self):
        args = make_parser().parse_args(["verify"])
        assert args.sweep == 40
        assert args.format == "json"
