"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload kf-large --seed 1 --seconds 24 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the environment and the details
behind the metrics.  The exit code is 1 if the referee rejects any result
and 2 if the workload cannot be set up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import types
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

BLAS_THREADS = 1  # one client, one core: steadier on a shared machine
# With 10 samples beyond it, the tail is then at least the 72nd percentile.
MIN_REQUESTS = 36
TAIL_BEYOND = 10
# Set-up is timed in a fresh interpreter, so that every sample pays the
# full imports; the samples are spread evenly over the run, the first
# before the loop and the last at its end.
SETUP_SAMPLES = 7
# Timed runs of the reference kernel after each pool cycle (calibrate.py).
REFERENCE_SAMPLES = 3
MODULES = ("graphs", "linalg", "oneinv", "resistance", "formulas", "cli", "sweep")

END_TO_END = {
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _per_layer_units():
    import spans

    units = {}
    for mod, names in spans.TRACED.items():
        units.update({f"{mod}.{fn}.s": "s" for fn in names})
    units.update({f"{mod}.self_s": "s" for mod in MODULES if mod != "sweep"})
    units.update({
        "oneinv.structured_one_inverse.self_s": "s",
        "oneinv.structured_one_inverse.calls": "count",
        "oneinv.structured_one_inverse.peak_mb": "MB",
        "oneinv.dense_mb": "MB_computed",
        "graphs.laplacian.calls": "count",
        "linalg.invert.calls": "count",
        "linalg.invert.max_order": "order",
        "formulas.verify_construction.self_s": "s",
        "formulas.printed.s": "s",
        "formulas.printed.calls": "count",
        "formulas.records": "count",
        "cli.main.self_s": "s",
        "cli.output_mb": "MB",
        "sweep.builtin_fixtures.s": "s",
        "request.self_s": "s",
        "trace.solve_s.p50": "s",
        "trace.overhead_s": "s",
        "trace.self_sum_s": "s",
    })
    return units


def pin_blas_threads():
    """Fix the BLAS thread count; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    threads = str(min(BLAS_THREADS, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    return int(threads), nproc


def load_library():
    """Import every ``pocket_kirch`` module from ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "pocket_kirch", "__init__.py")):
        raise RuntimeError(f"no pocket_kirch package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"pocket_kirch.{m}") for m in MODULES}
    )


def environment(threads, nproc, seed):
    import numpy as np
    import scipy

    def openblas(cfg):
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        return blas.get("openblas configuration") or blas.get("version", "unknown")

    return {
        "blas_threads": threads,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": openblas(np.show_config(mode="dicts")),
        "scipy_openblas": openblas(scipy.show_config(mode="dicts")),
        "seed": seed,
    }


SETUP_CHILD = """\
from time import perf_counter
t0 = perf_counter()
import sys
sys.path.insert(0, {here!r})
import run
lib = run.load_library()
import numpy as np
import workloads
wl = workloads.WORKLOADS[{name!r}]
wl.shapes = {shapes!r}
wl.setup(lib, np.random.default_rng({seed!r}), {workdir!r})
print(perf_counter() - t0)
"""


def timed_setup(wl, seed, workdir):
    """Seconds one set-up takes in a fresh interpreter: imports of the
    library, numpy and scipy, seeded inputs, input files."""
    os.makedirs(workdir, exist_ok=True)
    code = SETUP_CHILD.format(
        here=HERE, name=wl.name, shapes=wl.shapes, seed=seed, workdir=workdir
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    if child.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{child.stderr}")
    return float(child.stdout.split()[-1])


def measure(wl, lib, items, seconds, min_requests, call, after_cycle=None):
    """Closed loop over whole pool cycles; returns times and answers.

    A request is timed from the call to its return; turning the result
    into an Answer for the referee, and ``after_cycle``, happen outside
    the timed region.
    """
    times, answers = [], []
    start = perf_counter()
    i = 0
    while i % len(items) or len(answers) < min_requests or perf_counter() - start < seconds:
        it = items[i % len(items)]
        i += 1
        t0 = perf_counter()
        try:
            result = call(lib, it)
        except Exception:
            answers.append((it, traceback.format_exc(limit=3)))
        else:
            times.append(perf_counter() - t0)
            try:
                answers.append((it, wl.answer(it, result)))
            except Exception:
                answers.append((it, traceback.format_exc(limit=3)))
            del result
        if after_cycle is not None and i % len(items) == 0:
            after_cycle()
    return times, answers


def judge(answers):
    """Referee every answer; returns (failed request count, messages).

    The reference is computed once per distinct instance.
    """
    import referee

    refs = {}
    failed, messages = 0, []
    for it, ans in answers:
        if isinstance(ans, str):
            problems = [f"raised\n{ans}"]
        else:
            if it.key not in refs:
                order, edges = referee.spec_edges(it.spec)
                refs[it.key] = referee.reference(order, edges, it.pairs)
            kf_ref, r_ref = refs[it.key]
            problems = ans.problems + referee.mismatches(ans.kf, kf_ref, ans.r, r_ref)
        failed += bool(problems)
        messages += [f"{it.key}: {p}" for p in problems]
    return failed, messages


def tail(times):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def structured_peak_mb(lib, items):
    """tracemalloc peak of one structured_one_inverse call per instance."""
    import tracemalloc

    peak = 0
    seen = set()
    for it in items:
        if it.key in seen:
            continue
        seen.add(it.key)
        tracemalloc.start()
        try:
            lib.oneinv.structured_one_inverse(it.spec)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1e6


def layer_metrics(tracer, setup_tracer, lib, items, answers, untraced_p50):
    import spans

    times = tracer.request_durations()
    n = len(times)
    total, own, calls = tracer.summary()
    units = _per_layer_units()
    values = {}
    for name in units:
        if name.endswith(".s") and name[:-2] in total:
            values[name] = total[name[:-2]] / n
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0) / n
        elif name.endswith(".self_s") and name.count(".") == 2:
            values[name] = own.get(name[: -len(".self_s")], 0.0) / n
    for mod in MODULES:
        if f"{mod}.self_s" in units:
            values[f"{mod}.self_s"] = sum(
                v for k, v in own.items() if k.split(".")[0] == mod
            ) / n
    counted = [a.counts for _, a in answers if not isinstance(a, str)]
    # Integer totals, so the per-request means repeat exactly across runs.
    per_answer = max(len(counted), 1)
    values["formulas.records"] = sum(c.get("formulas.records", 0) for c in counted) / per_answer
    values["cli.output_mb"] = sum(c.get("cli.output_bytes", 0) for c in counted) / per_answer / 1e6
    setup_total = setup_tracer.summary()[0]
    values.update({
        "oneinv.structured_one_inverse.peak_mb":
            structured_peak_mb(lib, items) if calls.get("oneinv.structured_one_inverse") else 0.0,
        "oneinv.dense_mb": tracer.dense_bytes / 1e6,
        "linalg.invert.max_order": tracer.invert_max_order,
        "sweep.builtin_fixtures.s": setup_total.get("sweep.builtin_fixtures", 0.0),
        "request.self_s": own.get(spans.ROOT, 0.0) / n,
        "trace.solve_s.p50": statistics.median(times),
        "trace.overhead_s": statistics.median(times) - untraced_p50,
        "trace.self_sum_s": statistics.median(tracer.request_inner_s()),
    })
    return {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}


def run_workload(wl, seed, seconds, trace, min_requests=MIN_REQUESTS):
    """Set up, measure and referee one workload.

    Returns (result, info): ``result`` is the object the last output line
    holds, ``info`` the details behind it.  Raises RuntimeError when the
    library cannot be loaded or a set-up sample fails.
    """
    import numpy as np

    import calibrate
    import spans

    workdir = os.path.join(OUT, f"work-{wl.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)  # also creates OUT
    try:
        lib = load_library()
        items = wl.setup(lib, np.random.default_rng(seed), workdir)
        wl.answer(items[0], wl.call(lib, items[0]))  # warm-up, untimed

        if not trace:
            # setup_s and the host's speed sample the whole run rather
            # than one moment of it.
            setup_dir = os.path.join(workdir, "setup")
            setup_times = []
            host = calibrate.Reference()
            rss_mb = []  # high-water mark before the loop and after each cycle
            start = perf_counter()

            def after_cycle():
                rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
                due = len(setup_times) * seconds / (SETUP_SAMPLES - 1)
                if len(setup_times) < SETUP_SAMPLES and perf_counter() - start >= due:
                    setup_times.append(timed_setup(wl, seed, setup_dir))
                host.sample(REFERENCE_SAMPLES)

            after_cycle()
            times, answers = measure(
                wl, lib, items, seconds, min_requests, wl.call, after_cycle
            )
            # Repeated requests creep the high-water mark up by a few MB
            # (allocator fragmentation), and how many requests a run holds
            # depends on the host's speed.  So the peak is read after the
            # same number of requests in every run.
            peak_rss_mb = rss_mb[-(-min_requests // len(items))]
        else:
            # Half the time untraced, half traced: the difference is the overhead.
            half = (seconds / 2, min_requests // 2)
            times, answers = measure(wl, lib, items, *half, wl.call)
            setup_tracer = spans.Tracer()
            setup_tracer.install(lib)
            try:
                wl.setup(lib, np.random.default_rng(seed), workdir)
            finally:
                setup_tracer.uninstall()
            tracer = spans.Tracer()
            tracer.install(lib)
            try:
                traced_times, traced_answers = measure(
                    wl, lib, items, *half, tracer.wrap(spans.ROOT, wl.call)
                )
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"samples": len(times)}
    if trace:
        metrics = layer_metrics(
            tracer, setup_tracer, lib, items, traced_answers, statistics.median(times)
        )
        answers += traced_answers
        info["traced_samples"] = len(traced_times)
        tracer.dump(os.path.join(OUT, f"spans-{wl.name}.json"))
    else:
        tail_value, info["solve_s.tail_percentile"] = tail(times)
        measured = {
            "solve_s.p50": statistics.median(times),
            "solve_s.tail": tail_value,
            "requests_per_s": len(times) / sum(times),
            "setup_s": statistics.median(setup_times),
        }
        info["measured"] = {**measured, "setup_s.runs": setup_times}
        info["reference_s"] = {"median": statistics.median(host.times), "samples": len(host.times)}
        # Every time is reported at the reference kernel's nominal speed.
        scale = host.scale()
        metrics = {k: v * scale for k, v in measured.items()}
        metrics["requests_per_s"] = measured["requests_per_s"] / scale
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}

    failed, info["referee"] = judge(answers)
    info["fail_ratio"] = failed / len(answers)
    result = {
        "correct": failed == 0,
        "attempted": len(answers),
        "failed": failed,
        "metrics": metrics,
    }
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    threads, nproc = pin_blas_threads()
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result, info = run_workload(wl, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for msg in info.pop("referee"):
        print(f"referee: {msg}", file=sys.stderr)
    info = {"workload": wl.name, "env": environment(threads, nproc, args.seed), **info}
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
