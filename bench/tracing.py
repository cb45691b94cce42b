"""Spans around calls into andorxy's public functions, for the traced run.

``Tracer.installed()`` replaces each public function in every andorxy
module namespace that holds it, which is where its callers look it up:
``andorxy.textio.validate_andor`` catches the validation inside
``parse_graph`` and ``andorxy.kernel.solve_exact_andor`` the solve inside
``decide_kernel``.  Each call records a span (name, start, end, parent) in
memory; a layer's self time is its span time minus that of its child
spans.  Counts are read from public return values.  Nothing under ``src/``
changes.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("andorxy", "andorxy.graphs", "andorxy.textio", "andorxy.solvers", "andorxy.kernel",
           "andorxy.reductions", "andorxy.generators", "andorxy.cli")


def _count_verify(c, args, result):
    c["graphs.verify_edges"] += len(args[1].edges)


def _count_exact(c, args, result):
    c["solvers.bb_nodes"] += result.nodes
    c["solvers.bb_prunes"] += result.prunes


def _count_kernel(c, args, result):
    c["kernel.rules_fired"] += len(result.log)
    c["kernel.vertices_in"] += len(args[0].labels)
    c["kernel.vertices_kept"] += 0 if result.reduced is None else len(result.reduced.labels)


def _count_parse(c, args, result):
    c["textio.graph_bytes"] += len(args[0])


def _count_validate(c, args, result):
    c["graphs.validate_calls"] += 1


# public function -> (span name, counter or None)
FUNCTIONS = {
    **{f: ("generators.gen", None) for f in ("gen_andor", "gen_andor_tree", "gen_xy", "gen_xy_tree")},
    "parse_graph": ("textio.parse_graph", _count_parse),
    "serialize_graph": ("textio.serialize_graph", None),
    "parse_solution": ("textio.parse_solution", None),
    "serialize_solution": ("textio.serialize_solution", None),
    "validate_andor": ("graphs.validate", _count_validate),
    "validate_xy": ("graphs.validate", _count_validate),
    "verify_solution_andor": ("graphs.verify", _count_verify),
    "verify_solution_xy": ("graphs.verify", _count_verify),
    "solve_andor_tree": ("solvers.tree", None),
    "solve_xy_tree": ("solvers.tree", None),
    "solve_exact_andor": ("solvers.exact", _count_exact),
    "solve_exact_xy": ("solvers.exact", _count_exact),
    "schedule_lower_bound": ("solvers.bounds", None),
    "dp_upper_bound": ("solvers.bounds", None),
    "decide_min_andor": ("solvers.decide", None),
    "decide_exact_weight_xy_tree": ("solvers.decide", None),
    "kernelize": ("kernel.kernelize", _count_kernel),
    "decide_kernel": ("kernel.decide", None),
    **{f: ("reductions.reduce", None) for f in (
        "reduce_vertex_cover", "reduce_subset_sum", "reduce_dominating_set", "reduce_clique")},
    **{f: ("reductions.extract", None) for f in (
        "extract_vertex_cover", "extract_subset", "extract_dominating_set", "extract_clique")},
}

# layer self times reported in seconds, and CLI commands reported as the
# median in-process milliseconds of one command
SELF_TIMES = ("generators.gen", "textio.parse_graph", "textio.serialize_graph",
              "textio.parse_solution", "textio.serialize_solution", "graphs.validate",
              "graphs.verify", "solvers.tree", "solvers.exact", "solvers.bounds",
              "solvers.decide", "kernel.kernelize", "kernel.decide", "reductions.reduce",
              "reductions.extract")
CLI_COMMANDS = ("gen", "validate", "solve", "verify", "reduce", "kernelize")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(i)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[i][2] = time.perf_counter()

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every public function of FUNCTIONS where andorxy's modules hold it."""
        modules = [importlib.import_module(m) for m in MODULES]
        wrappers = {}
        saved = []
        for module in modules:
            for attr, (name, count) in FUNCTIONS.items():
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, name, count)
                saved.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        self_time: dict[str, float] = defaultdict(float)
        inclusive: dict[str, list[float]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            d = end - start
            self_time[name] += d
            inclusive[name].append(d)
            if parent >= 0:
                self_time[self.spans[parent][0]] -= d
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for name in SELF_TIMES:
            out[f"{name}_s"] = (self_time[name], "s")
        for cmd in CLI_COMMANDS:
            times = inclusive[f"cli.{cmd}"]
            out[f"cli.{cmd}_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
        out["textio.graph_kib"] = (c["textio.graph_bytes"] / 1024, "KiB")
        out["graphs.validate_calls"] = (c["graphs.validate_calls"], "count")
        out["graphs.verify_edges"] = (c["graphs.verify_edges"], "count")
        out["solvers.bb_nodes"] = (c["solvers.bb_nodes"], "count")
        out["solvers.bb_prunes"] = (c["solvers.bb_prunes"], "count")
        out["solvers.prune_ratio"] = (c["solvers.bb_prunes"] / max(1, c["solvers.bb_nodes"]), "ratio")
        out["kernel.rules_fired"] = (c["kernel.rules_fired"], "count")
        out["kernel.kept_vertex_ratio"] = (
            c["kernel.vertices_kept"] / max(1, c["kernel.vertices_in"]), "ratio")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
