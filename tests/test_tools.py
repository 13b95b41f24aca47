"""tools/output_snapshot.py writes every output it names."""

import os
import subprocess
import sys
from pathlib import Path

import writer_timing
from pocket_kirch.sweep import builtin_fixtures

ROOT = Path(__file__).resolve().parent.parent


def test_output_snapshot_writes_every_output(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_snapshot.py"), str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    fixtures = [label for label, _ in builtin_fixtures()]
    non_join = ["p4-rooted-c5", "p4-k2-k1"]
    labels = fixtures + ["split-base-0", "all-pocketed-1", "all-pocketed-2", "order300"] + non_join
    expected = {
        f"resist-{label}-{route}.{fmt}"
        for label in labels
        for route in ("structured", "oracle")
        for fmt in ("csv", "json", "table")
    }
    expected |= {
        f"build-{label}.{fmt}{layout}"
        for label in fixtures + non_join
        for fmt in ("edges", "json")
        for layout in ("", ".layout.json")
    }
    expected |= {"verify-sweep40.json", "verify-sweep40.table"}
    assert len(expected) == 106
    assert {p.name for p in tmp_path.iterdir()} == expected
    assert all(p.stat().st_size > 0 for p in tmp_path.iterdir())


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs output_snapshot.py as a script up to its argument parsing, and
# prints the BLAS variables as they stood when numpy was first imported.
AT_NUMPY_IMPORT = f"""
import os, runpy, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(var) for var in {BLAS_VARS!r}])
sys.meta_path.insert(0, Spy())
sys.argv = [sys.argv[1], "--help"]
try:
    runpy.run_path(sys.argv[0], run_name="__main__")
except SystemExit:
    pass
print(seen)
"""


def test_output_snapshot_pins_one_blas_thread():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{var: "2" for var in BLAS_VARS})
    proc = subprocess.run(
        [sys.executable, "-c", AT_NUMPY_IMPORT, str(ROOT / "tools" / "output_snapshot.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([["1", "1", "1"]])


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
