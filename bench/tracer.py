"""Spans around the program's public functions, recorded from outside it.

``Tracer.install()`` replaces every public module-level function of the
traced layers, both where it is defined and wherever another causelab
module bound it with ``from ... import``, by a wrapper that records a
span (name, start, end, parent) in memory. ``uninstall()`` restores the
originals, so the same process can run a job untraced and traced.
Counts (rows, bytes, permutations, calls, table cells) come from the
calls' arguments and results, never from counters the program reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = ("data", "scm", "estimation", "kernels", "discovery", "graph", "cgm", "cli")
# cli is traced at its entry point only: its handlers are glue around the layers
CLI_ENTRY = "main"


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _count_gram(c, args, kwargs, result):
    m = len(_arg(args, kwargs, 1, "xs"))
    c["kernels.gram.bytes"] += 8 * m * m


def _count_hsic(c, args, kwargs, result):
    from causelab.kernels import DEFAULT_PERMUTATIONS

    c["kernels.hsic_test.perms"] += _arg(args, kwargs, 4, "perms", DEFAULT_PERMUTATIONS)


def _count_skeleton(c, args, kwargs, result):
    c["discovery.ci_tests"] += result.tests_performed
    c["discovery.edges_removed"] += len(result.sepsets)


def _count_cells(c, args, kwargs, result):
    c["cgm.table_cells"] += _arg(args, kwargs, 0, "m").state_space_size()


def _calls(key):
    def count(c, args, kwargs, result):
        c[key] += 1

    return count


COUNTERS = {
    "data.Dataset.from_csv": lambda c, a, k, r: c.update({"data.from_csv.rows": r.n}),
    "data.Dataset.to_csv": lambda c, a, k, r: c.update(
        {"data.to_csv.bytes": os.path.getsize(_arg(a, k, 1, "path"))}
    ),
    "scm.sample": lambda c, a, k, r: c.update({"scm.sample.rows": r.n}),
    "kernels.gram": _count_gram,
    "kernels.hsic_test": _count_hsic,
    "kernels.ci_test": _calls("kernels.ci_test.calls"),
    "discovery.pc_skeleton": _count_skeleton,
    "discovery.sgs_skeleton": _count_skeleton,
    "graph.meek_closure": _calls("graph.meek_closure.calls"),
    "graph.d_separated": _calls("graph.d_separated.calls"),
    "cgm.joint": _count_cells,
    "cgm.truncated_factorization": _count_cells,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list = []
        self._restore: list = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"causelab.{layer}") for layer in LAYERS]
        bindings = [m for name, m in sorted(sys.modules.items()) if name.startswith("causelab")]
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or (layer == "cli" and attr != CLI_ENTRY)):
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for owner in bindings:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, key, traced)
        dataset = sys.modules["causelab.data"].Dataset
        from_csv = vars(dataset)["from_csv"]
        self._patch(dataset, "from_csv",
                    classmethod(self.wrap("data.Dataset.from_csv", from_csv.__func__)), from_csv)
        self._patch(dataset, "to_csv", self.wrap("data.Dataset.to_csv", dataset.to_csv))

    def _patch(self, owner, key, value, original=None):
        self._restore.append((owner, key, vars(owner)[key] if original is None else original))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans: list) -> dict:
    """Span name -> summed self time (duration minus direct children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for (name, start, end, parent), inner in zip(spans, child):
        out[name] += end - start - inner
    return out


# per-layer metric -> (unit, span names whose self time it sums)
TIMED = {
    "data.from_csv.s": ["data.Dataset.from_csv"],
    "data.to_csv.s": ["data.Dataset.to_csv"],
    "scm.sample.s": ["scm.sample"],
    "estimation.ate.s": "estimation.ate_",
    "kernels.median_heuristic.s": ["kernels.median_heuristic"],
    "kernels.gram.s": ["kernels.gram"],
    "kernels.hsic_test.s": ["kernels.hsic_test"],
    "kernels.kernel_ridge_fit.s": ["kernels.kernel_ridge_fit"],
    "kernels.mmd.s": ["kernels.mmd"],
    "kernels.ci_test.s": ["kernels.ci_test"],
    "discovery.pc_skeleton.s": ["discovery.pc_skeleton"],
    "discovery.orient.s": ["discovery.orient"],
    "discovery.anm_direction.s": ["discovery.anm_direction"],
    "graph.meek_closure.s": ["graph.meek_closure"],
    "graph.cpdag_of.s": ["graph.cpdag_of"],
    "graph.d_separated.s": ["graph.d_separated"],
    "cgm.joint.s": ["cgm.joint"],
    "cgm.truncated_factorization.s": ["cgm.truncated_factorization"],
    "cgm.adjustment_formula.s": ["cgm.adjustment_formula"],
    "cgm.cmi.s": ["cgm.cmi"],
    "cli.main.s": ["cli.main"],
}
COUNTED = (
    "data.from_csv.rows", "data.to_csv.bytes", "scm.sample.rows", "kernels.gram.bytes",
    "kernels.hsic_test.perms", "kernels.ci_test.calls", "discovery.ci_tests",
    "graph.meek_closure.calls", "graph.d_separated.calls", "cgm.table_cells",
)


def layer_metrics(spans: list, counts: Counter, traced_s: float, untraced_s: float,
                  rounds: int) -> dict:
    """Per-layer figures per round, from one traced run's spans and counts.

    Times are self times. ``share.<layer>`` is the layer's self time over
    the traced jobs' wall time; the rest is the jobs' own glue.
    ``trace.overhead_pct`` compares the same jobs run untraced in the
    same process.
    """
    selfs = self_times(spans)
    out = {}
    for metric, names in TIMED.items():
        if isinstance(names, str):
            total = sum(v for k, v in selfs.items() if k.startswith(names))
        else:
            total = sum(selfs.get(k, 0.0) for k in names)
        out[metric] = total / rounds
    for metric in COUNTED:
        out[metric] = counts.get(metric, 0) / rounds
    tests = counts.get("discovery.ci_tests", 0)
    out["discovery.sepset_ratio"] = counts.get("discovery.edges_removed", 0) / tests if tests else 0.0
    for layer in LAYERS:
        layer_s = sum(v for k, v in selfs.items() if k.split(".", 1)[0] == layer)
        out[f"share.{layer}"] = layer_s / traced_s
    out["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return out
