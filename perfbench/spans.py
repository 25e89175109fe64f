"""Spans around the calls into each tpshift module, for the traced run.

`install` replaces the public functions named in SPANS with wrappers that
record one span per call: name, start, end, parent span, instance id, a work
count (points evaluated, zeros found) and an outcome (ok or the exception
class).  Each name is replaced in every tpshift module that imported it, so
calls between modules are seen as well as the benchmark's own calls; the
table lookup is wrapped on the TimeDomainTable class.  Private helpers are
not wrapped, so their time is the self time of the public function that
called them.  Spans stay in memory until `write_csv` at the end of the run.
Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

import numpy as np


def _points(args, result) -> int:
    return int(np.size(args[1]))


def _zeros(args, result) -> int:
    return len(result)


# (module, attribute) -> (span name, work); work(args, result) is the span's count.
SPANS = {
    ("tpshift.generator", "build_table"): ("generator.build_table", None),
    ("tpshift.sispace", "eval_f"): ("sispace.eval_f", _points),
    ("tpshift.sispace", "find_zeros"): ("sispace.find_zeros", _zeros),
    ("tpshift.sispace", "apply_rolle_op"): ("sispace.apply_rolle_op", None),
    ("tpshift.sispace", "check_interlacing"): ("sispace.relations", None),
    ("tpshift.sispace", "segment_inequality"): ("sispace.relations", None),
    ("tpshift.density", "circ_density_direct"): ("density.circ_density_direct", None),
    ("tpshift.jensen", "build_context"): ("jensen.build_context", None),
    ("tpshift.jensen", "safe_radius"): ("jensen.safe_radius", None),
    ("tpshift.jensen", "count_zeros_disk"): ("jensen.count_zeros_disk", None),
    ("tpshift.jensen", "jensen_lhs"): ("jensen.jensen_lhs", None),
    ("tpshift.jensen", "jensen_rhs"): ("jensen.jensen_rhs", None),
    ("tpshift.jensen", "fit_growth_constant"): ("jensen.fit_growth_constant", None),
    ("tpshift.jensen", "verify_base_case"): ("jensen.verify_base_case", None),
    ("tpshift.sigret", "run_threshold_experiment"):
        ("sigret.run_threshold_experiment", None),
    ("tpshift.sigret", "design_matrix"): ("sigret.design_matrix", None),
    ("tpshift.sigret", "solve_signs"): ("sigret.solve_signs", None),
}
TABLE_EVAL = "generator.table_eval"
# Counted but not timed: a span here would move the growth fit's time out of
# fit_growth_constant's self time.
COUNTERS = {("tpshift.jensen", "log_abs_f_complex"): "jensen.log_abs_f_complex"}
TPSHIFT_MODULES = ("tpshift", "tpshift.generator", "tpshift.sispace", "tpshift.density",
                   "tpshift.jensen", "tpshift.sigret", "tpshift.cli")
ROOT_SPAN = "driver"


class Tracer:
    """Completed spans in columns, appended as each span closes."""

    def __init__(self):
        self.names = []
        self.outcomes = ["ok"]
        self.instance = -1
        self.counts = {}
        self._next_id = 0
        self._stack = []  # open spans: [span id, time covered by children, start]
        self.span_id = array("q")
        self.name_id = array("i")
        self.parent = array("q")
        self.instance_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.work = array("q")
        self.outcome = array("i")

    def name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self):
        self._stack.append([self._next_id, 0.0, perf_counter()])
        self._next_id += 1

    def close(self, name_id: int, work: int = 0, exc: BaseException = None):
        """Close the innermost open span; calls nest, so it is the caller's."""
        end = perf_counter()
        span, covered, start = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        outcome = 0
        if exc is not None:
            label = type(exc).__name__
            if label not in self.outcomes:
                self.outcomes.append(label)
            outcome = self.outcomes.index(label)
        self.span_id.append(span)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.instance_id.append(self.instance)
        self.start.append(start)
        self.end.append(end)
        self.self_s.append(duration - covered)
        self.work.append(work)
        self.outcome.append(outcome)

    def wrap(self, fn, name: str, work=None):
        name_id = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(name_id, exc=exc)
                raise
            self.close(name_id, work(args, result) if work else 0)
            return result

        return traced

    def count(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + _points(args, None)
            return fn(*args, **kwargs)

        return counted

    def run_instance(self, instance: int, fn, *args):
        """Call fn(*args) inside the root span of one instance."""
        self.instance = instance
        return self.wrap(fn, ROOT_SPAN)(*args)

    def write_csv(self, path, t0: float):
        """Write every span as gzipped CSV, times in seconds from t0."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,parent,instance,start_s,end_s,self_s,work,outcome\n")
            for i in range(len(self.span_id)):
                fh.write(f"{self.span_id[i]},{self.names[self.name_id[i]]},"
                         f"{self.parent[i]},{self.instance_id[i]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                         f"{self.self_s[i]:.9f},{self.work[i]},"
                         f"{self.outcomes[self.outcome[i]]}\n")


def _replace_everywhere(original, replacement, patched: list):
    for mod_name in TPSHIFT_MODULES:
        mod = sys.modules.get(mod_name)
        if mod is None:  # not imported, so nothing can call through it
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, original))


def install(tracer: Tracer) -> list:
    """Wrap every function in SPANS and COUNTERS; returns what to restore."""
    import tpshift.generator

    patched = []
    for (mod_name, attr), (name, work) in SPANS.items():
        original = getattr(sys.modules[mod_name], attr)
        _replace_everywhere(original, tracer.wrap(original, name, work), patched)
    for (mod_name, attr), name in COUNTERS.items():
        original = getattr(sys.modules[mod_name], attr)
        _replace_everywhere(original, tracer.count(original, name), patched)
    table_cls = tpshift.generator.TimeDomainTable
    patched.append((table_cls, "eval", table_cls.eval))
    table_cls.eval = tracer.wrap(table_cls.eval, TABLE_EVAL, _points)
    return patched


def uninstall(patched: list):
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def _ms(seconds) -> float:
    return float(seconds) * 1e3


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals over all instances of the run, as metric name -> (value, unit)."""
    names = np.asarray(tracer.name_id, dtype=np.int64)
    self_s = np.frombuffer(tracer.self_s, dtype=float)
    work = np.frombuffer(tracer.work, dtype=np.int64)
    duration = np.frombuffer(tracer.end, dtype=float) - np.frombuffer(tracer.start, dtype=float)
    outcome = np.asarray(tracer.outcome, dtype=np.int64)

    def select(name):
        if name not in tracer.names:
            return np.zeros(len(names), dtype=bool)
        return names == tracer.names.index(name)

    def calls(name):
        return int(np.count_nonzero(select(name)))

    def self_ms(name):
        return _ms(np.sum(self_s[select(name)]))

    def work_sum(name):
        return int(np.sum(work[select(name)]))

    def outcomes(name, label):
        if label not in tracer.outcomes:
            return 0
        return int(np.count_nonzero(select(name) & (outcome == tracer.outcomes.index(label))))

    # Latency percentiles over the calls that returned a pattern: the
    # rank-deficient ones return before any search, in microseconds.
    solve_calls = select("sigret.solve_signs")
    n_solve = int(np.count_nonzero(solve_calls))
    solve = duration[solve_calls & (outcome == 0)]
    out = {
        "generator.build_table.calls": (calls("generator.build_table"), "count"),
        "generator.build_table.self_ms": (self_ms("generator.build_table"), "ms"),
        "generator.table_eval.calls": (calls(TABLE_EVAL), "count"),
        "generator.table_eval.points": (work_sum(TABLE_EVAL), "count"),
        "generator.table_eval.self_ms": (self_ms(TABLE_EVAL), "ms"),
        "sispace.eval_f.calls": (calls("sispace.eval_f"), "count"),
        "sispace.eval_f.points": (work_sum("sispace.eval_f"), "count"),
        "sispace.eval_f.self_ms": (self_ms("sispace.eval_f"), "ms"),
        "sispace.find_zeros.calls": (calls("sispace.find_zeros"), "count"),
        "sispace.find_zeros.zeros": (work_sum("sispace.find_zeros"), "count"),
        "sispace.find_zeros.self_ms": (self_ms("sispace.find_zeros"), "ms"),
        "sispace.apply_rolle_op.self_ms": (self_ms("sispace.apply_rolle_op"), "ms"),
        "sispace.relations.self_ms": (self_ms("sispace.relations"), "ms"),
        "density.circ_density_direct.calls": (calls("density.circ_density_direct"), "count"),
        "density.circ_density_direct.self_ms": (self_ms("density.circ_density_direct"), "ms"),
    }
    for fn in ("build_context", "safe_radius", "count_zeros_disk", "jensen_lhs",
               "jensen_rhs", "fit_growth_constant", "verify_base_case"):
        out[f"jensen.{fn}.self_ms"] = (self_ms(f"jensen.{fn}"), "ms")
    out["jensen.log_abs_f_complex.points"] = (
        tracer.counts.get("jensen.log_abs_f_complex", 0), "count")
    out.update({
        "sigret.run_threshold_experiment.self_ms":
            (self_ms("sigret.run_threshold_experiment"), "ms"),
        "sigret.design_matrix.calls": (calls("sigret.design_matrix"), "count"),
        "sigret.design_matrix.self_ms": (self_ms("sigret.design_matrix"), "ms"),
        "sigret.solve_signs.calls": (n_solve, "count"),
        "sigret.solve_signs.self_ms": (self_ms("sigret.solve_signs"), "ms"),
        "sigret.solve_signs.ms_p50": (_ms(np.percentile(solve, 50)) if solve.size else 0.0, "ms"),
        "sigret.solve_signs.ms_p90": (_ms(np.percentile(solve, 90)) if solve.size else 0.0, "ms"),
        "sigret.solve_signs.accepted_frac":
            (outcomes("sigret.solve_signs", "ok") / n_solve if n_solve else 0.0, "ratio"),
        "sigret.solve_signs.rank_deficient":
            (outcomes("sigret.solve_signs", "RankDeficiencyError"), "count"),
        "sigret.solve_signs.budget_exceeded":
            (outcomes("sigret.solve_signs", "SearchBudgetError"), "count"),
        "driver.self_ms": (self_ms(ROOT_SPAN), "ms"),
    })
    root = select(ROOT_SPAN)
    out["traced.instances"] = (int(np.count_nonzero(root)), "count")
    out["traced.instance_ms"] = (_ms(np.sum(duration[root])), "ms")
    unreported = set(tracer.names) - {
        key.rsplit(".", 1)[0] for key in out if key.endswith(".self_ms")}
    if unreported:
        raise ValueError(f"spans without a self_ms metric: {sorted(unreported)}")
    return out
