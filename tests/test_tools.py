"""tools/output_snapshot.py writes every output it names."""

import os
import subprocess
import sys
from pathlib import Path

from pocket_kirch.graphs import to_edge_list
from pocket_kirch.sweep import builtin_fixtures
from test_cli import _order_300_argv

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import output_snapshot  # noqa: E402
import writer_timing  # noqa: E402


def test_output_snapshot_writes_every_output(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_snapshot.py"), str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    labels = [label for label, _ in builtin_fixtures()]
    labels += ["split-base-0", "all-pocketed-1", "all-pocketed-2", "order300"]
    expected = {
        f"resist-{label}-{route}.{fmt}"
        for label in labels
        for route in ("structured", "oracle")
        for fmt in ("csv", "json", "table")
    }
    expected |= {"verify-sweep40.json", "verify-sweep40.table"}
    assert {p.name for p in tmp_path.iterdir()} == expected
    assert all(p.stat().st_size > 0 for p in tmp_path.iterdir())


def test_order_300_instance_is_the_cli_tests_one(tmp_path):
    argv, _ = _order_300_argv(tmp_path)
    files = argv[2::2]  # --f, --h1, --h2
    texts = [Path(path).read_text() for path in files]
    assert texts == [to_edge_list(g) for g in output_snapshot._order_300()]


def test_writer_timing_times_every_writer(capsys, monkeypatch):
    monkeypatch.setattr(writer_timing, "REPEATS", 1)
    assert writer_timing.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["instance", "N", "csv", "ms", "json", "ms", "table", "ms", "main", "ms"]
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [["split-base-0", "294"], ["all-pocketed-1", "630"],
                                         ["all-pocketed-2", "540"]]
    assert all(len(row) == 6 for row in rows)
    assert all(float(ms) > 0 for row in rows for ms in row[2:])
