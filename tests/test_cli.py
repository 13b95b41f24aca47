import io
import json
import tracemalloc

import numpy as np
import pytest

from pocket_kirch import cli
from pocket_kirch.cli import main, make_parser
from pocket_kirch.graphs import to_edge_list
from pocket_kirch.resistance import KirchhoffResult
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
        rng = np.random.default_rng(5)
        files = []
        for name, g in [
            ("f", random_connected_graph(rng, 20)),
            ("h1", random_graph(rng, 3)),
            ("h2", random_graph(rng, 11)),
        ]:
            path = tmp_path / f"{name}.txt"
            path.write_text(to_edge_list(g))
            files.append(str(path))
        order = 20 + 14 * 20
        target = tmp_path / "r.json"
        argv = ["resist", "--f", files[0], "--h1", files[1], "--h2", files[2],
                "--format", "json", "--out", str(target)]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 4 * 8 * order**2
        assert len(json.loads(target.read_text())["resistances"]) == order * (order - 1) // 2

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
