"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import calibrate
import referee
import run
import spans
import workloads

TINY = {
    "kf-large": [("all-pocketed", (4, 2, 4)), ("split-base", (3, 2, 2, 4))],
    "resist-cli": [("all-pocketed", (3, 2, 3), "csv"), ("split-base", (2, 2, 1, 3), "json")],
    "oracle-dense": [("all-pocketed", (3, 1, 3)), ("split-base", (2, 1, 1, 2))],
    "audit-sweep": [("all-pocketed", (2, 1, 2)), ("split-base", (1, 1, 1, 2))],
}
COUNTS = [
    "oneinv.structured_one_inverse.calls",
    "oneinv.dense_mb",
    "graphs.laplacian.calls",
    "linalg.invert.calls",
    "linalg.invert.max_order",
    "formulas.printed.calls",
    "formulas.records",
    "cli.output_mb",
]

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def tiny(name):
    wl = copy.copy(workloads.WORKLOADS[name])
    wl.shapes = TINY[name]
    return wl


def tiny_run(name, trace, seed=3):
    return run.run_workload(tiny(name), seed, seconds=0.05, trace=trace, min_requests=4)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result, info = tiny_run(name, trace)
    assert result["correct"], info["referee"]
    assert result["failed"] == 0 and result["attempted"] >= 4
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and np.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_times_are_scaled_to_the_nominal_host_speed():
    result, info = tiny_run("kf-large", 0)
    scale = calibrate.NOMINAL_S / info["reference_s"]["median"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for key in ("solve_s.p50", "solve_s.tail", "setup_s"):
        assert metrics[key] == pytest.approx(info["measured"][key] * scale)
    assert metrics["requests_per_s"] == pytest.approx(
        info["measured"]["requests_per_s"] / scale
    )


@pytest.mark.parametrize("name", list(TINY))
def test_counts_repeat_exactly(name):
    first = tiny_run(name, 1)[0]["metrics"]
    second = tiny_run(name, 1)[0]["metrics"]
    for key in COUNTS:
        assert first[key] == second[key], key


def test_kf_large_inverts_only_small_factors(tmp_path):
    items = tiny("kf-large").setup(run.load_library(), np.random.default_rng(3), str(tmp_path))
    specs = [it.spec for it in items]
    bound = max(max(s.n, s.k, s.n - s.k, s.l, s.m - s.l) for s in specs)
    metrics = tiny_run("kf-large", 1)[0]["metrics"]
    order = metrics["linalg.invert.max_order"]["value"]
    assert 0 < order <= bound < min(workloads.order_of(s) for s in specs)


def test_audit_rejects_a_corrected_printed_kf(tmp_path):
    wl = tiny("audit-sweep")
    lib = run.load_library()
    it = wl.setup(lib, np.random.default_rng(5), str(tmp_path))[0]
    assert it.key == "p3"
    report = lib.formulas.verify_construction(it.spec, label=it.key)
    assert wl.answer(it, report).problems == []
    report.records[-1].printed = report.records[-1].oracle
    assert wl.answer(it, report).problems


def answers(name, tmp_path, tracer=None):
    wl = tiny(name)
    lib = run.load_library()
    items = wl.setup(lib, np.random.default_rng(5), str(tmp_path))
    if tracer is not None:
        tracer.install(lib)
    try:
        return [(it, wl.answer(it, wl.call(lib, it))) for it in items]
    finally:
        if tracer is not None:
            tracer.uninstall()


@pytest.mark.parametrize("name", list(TINY))
def test_referee_rejects_a_perturbed_kf(name, tmp_path):
    good = answers(name, tmp_path)
    assert run.judge(good)[0] == 0
    it, ans = good[-1]
    bad = copy.copy(ans)
    bad.kf = ans.kf * (1 + 1e-6)
    failed, messages = run.judge(good[:-1] + [(it, bad)])
    assert failed == 1 and "Kf" in messages[0]


def test_referee_rejects_a_perturbed_resistance(tmp_path):
    it, ans = answers("kf-large", tmp_path)[0]
    bad = copy.copy(ans)
    bad.r = ans.r.copy()
    bad.r[0] *= 1 + 1e-6
    assert run.judge([(it, bad)])[0] == 1


@pytest.mark.parametrize("name", list(TINY))
def test_traced_and_untraced_results_are_identical(name, tmp_path):
    plain = answers(name, tmp_path)
    tracer = spans.Tracer()
    traced = answers(name, tmp_path, tracer)
    assert tracer.spans
    for (_, a), (_, b) in zip(plain, traced):
        assert a.kf == b.kf
        assert np.array_equal(a.r, b.r)
        assert a.problems == b.problems == []


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans[:] = [
        ["request", 0.0, 10.0, -1],
        ["oneinv.structured_one_inverse", 1.0, 9.0, 0],
        ["linalg.invert", 2.0, 3.0, 1],
        ["linalg.invert", 4.0, 6.0, 1],
    ]
    total, own, calls = tracer.summary()
    assert own["oneinv.structured_one_inverse"] == 5.0
    assert own["request"] == 2.0
    assert total["linalg.invert"] == 3.0 and calls["linalg.invert"] == 2
    assert tracer.request_inner_s() == [8.0]


def test_referee_matches_a_known_kirchhoff_index():
    # P3 (a single pendant pocket on K1): Kf = 1 + 1 + 2 = 4.
    order, edges = referee.pocket_edges(1, [], (0,), 1, [], 2, [])
    kf, r = referee.reference(order, edges, [(0, 2), (0, 1)])
    assert order == 3 and abs(kf - 4.0) < 1e-12
    assert np.allclose(r, [2.0, 1.0])


def test_parsers_read_the_pairs_they_are_asked_for():
    pairs = np.array([[0, 1], [1, 2]])
    csv_text = "u,v,r\n0,1,0.5\n0,2,1\n1,2,0.25\n# Kf = 1.75 (structured)\n"
    json_text = '{"kf": 1.75, "method": "structured", "resistances": ' \
                '[[0, 1, 0.5], [0, 2, 1.0], [1, 2, 0.25]]}\n'
    for parse, text in ((workloads.parse_csv, csv_text), (workloads.parse_json, json_text)):
        kf, r = parse(text, pairs)
        assert kf == 1.75 and list(r) == [0.5, 0.25]


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
