"""Traced run: spans around every call into the library's layers.

Public functions are wrapped from the benchmark's own files, without
changing a file under ``src/``.  Modules import names directly
(``from .linalg import invert``), so each wrapper is bound under every name
that refers to the original in every ``pocket_kirch`` module.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, public function) pairs; span name is "module.function".
TRACED = {
    "graphs": ["laplacian", "build_pocket_graph", "make_layout", "is_connected",
               "join", "load_graph"],
    "linalg": ["invert", "pseudo_inverse_laplacian", "shifted_group_inverse",
               "eigenvalues_sym", "kron"],
    "oneinv": ["structured_one_inverse", "theorem3_one_inverse",
               "theorem4_one_inverse", "split_base_join", "pocket_d_inverse"],
    "resistance": ["resistance_matrix", "kirchhoff_from_one_inverse",
                   "oracle_resistance", "kirchhoff_spectral"],
    "formulas": ["verify_construction"],
    "cli": ["main"],
    "sweep": ["builtin_fixtures"],  # set-up only
}
# Construction and methods of the printed-formula classes share one span name.
PRINTED_CLASSES = ["Theorem31Printed", "Theorem41Printed"]
PRINTED_METHODS = ["__init__", "applicable_cases", "resistance", "kirchhoff"]
ROOT = "request"


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.invert_max_order = 0
        self.dense_bytes = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if name == "linalg.invert":
                self.invert_max_order = max(self.invert_max_order, len(args[0]))
            elif name == "oneinv.structured_one_inverse":
                s = args[0]
                order = s.n + s.m * s.k
                self.dense_bytes = max(self.dense_bytes, 8 * order * order)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def install(self, lib):
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "pocket_kirch"]
        for mod_name, names in TRACED.items():
            mod = getattr(lib, mod_name)
            for fn_name in names:
                orig = getattr(mod, fn_name)
                wrapped = self.wrap(f"{mod_name}.{fn_name}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, orig))
        for cls_name in PRINTED_CLASSES:
            cls = getattr(lib.formulas, cls_name)
            for meth in PRINTED_METHODS:
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap("formulas.printed", orig))
                self._undo.append((cls, meth, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _child_s(self):
        """Per span: the summed durations of its direct children.  The
        program is single-threaded, so children never overlap."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def summary(self):
        """Per span name: inclusive seconds, self seconds and call count.

        Self time is a span's duration minus its direct children's.
        Inclusive time counts only spans with no ancestor of the same name.
        """
        spans = self.spans
        child = self._child_s()
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(spans):
            own[name] += end - start - child[i]
            calls[name] += 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total[name] += end - start
        return total, own, calls

    def dump(self, path):
        """Write the spans as JSON: a name table, then one row per span of
        [name index, start ns, end ns, parent index] relative to the first."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round((a - t0) * 1e9), round((b - t0) * 1e9), p]
            for n, a, b, p in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"names": names, "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))

    def request_durations(self):
        return [end - start for name, start, end, parent in self.spans if name == ROOT]

    def request_inner_s(self):
        """Per request: the summed self times of the spans inside it, which
        is its duration without the benchmark's glue."""
        child = self._child_s()
        return [child[i] for i, span in enumerate(self.spans) if span[0] == ROOT]
