"""Spans recorded in memory around calls into vortexflow's layers.

A span is (name, start, end, parent).  The benchmark opens one root span
per timed operation; the wrappers installed by `Instrumentation` open a
child span around every call into a traced function.  A layer's self
time is its span's duration minus the durations of its child spans.
"""

import functools
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the parent span in Tracer.spans, -1 for a root
    counts: dict = field(default_factory=dict)


class Tracer:
    """Single-threaded span recorder; spans stay in memory until dumped."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        sp = Span(name, self.clock(), math.nan, parent)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = self.clock()

    def wrap(self, name, fn, on_result=None):
        """`fn` with a span around each call; `on_result(span, result)`
        may record counts on the span and replace the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    result = on_result(sp, result)
                return result

        return traced

    def roots(self, name):
        return [i for i, s in enumerate(self.spans) if s.parent == -1 and s.name == name]

    def dump(self):
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "counts": s.counts} for s in self.spans]


def self_times(spans):
    """Per span: duration minus the durations of its direct children.
    Spans come from one stack, so a span's children are disjoint and lie
    inside it."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child_s)]


def layer_totals(spans, root):
    """Aggregate the spans below `root`: name -> {calls, s, self_s, counts...}."""
    selfs = self_times(spans)
    below = {root}
    out = {}
    for i in range(root + 1, len(spans)):
        sp = spans[i]
        if sp.parent not in below:
            continue
        below.add(i)
        t = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += sp.end - sp.start
        t["self_s"] += selfs[i]
        for key, val in sp.counts.items():
            t[key] = t.get(key, 0) + val
    return out


def top_level_share(spans, root):
    """Share of the root's duration covered by its direct children."""
    sp = spans[root]
    kids = sum(s.end - s.start for s in spans if s.parent == root)
    return kids / (sp.end - sp.start)


class _TracedLU:
    """SuperLU factor whose `solve` is traced; other attributes pass through."""

    def __init__(self, lu, tracer, solve_name):
        self._lu = lu
        bytes_per_apply = 12 * lu.nnz  # one 8-byte value + 4-byte index per stored entry

        def count(sp, result):
            sp.counts["bytes_computed"] = bytes_per_apply
            return result

        self.solve = tracer.wrap(solve_name, lu.solve, count)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Instrumentation:
    """Installs and removes traced wrappers in vortexflow's namespaces.

    A function is wrapped under the name `<defining module>.<function>`
    in every vortexflow module that holds it, because modules import
    each other's functions by name and calls made through such an
    import would otherwise escape the trace.  scipy's `splu` and
    `gmres` are wrapped per importing module (`solver.splu` is the
    bordered LU, `ansatz.splu` the axisymmetric Laplacian)."""

    LAYERS = {
        "profile": ("solve_profile",),
        "ansatz": ("build_ansatz", "build_ring_phase", "kernel_Zd"),
        "solver": ("solve_at_separation", "solve_projected", "assemble_jacobian",
                   "apply_S"),
        "diagnostics": ("build_report", "corrector_norms"),
        "reconstruct": ("unscale", "pde_residual", "sample_block"),
        "cli_io": ("save_field", "load_field"),
    }
    FOREIGN = {"ansatz": ("splu",), "solver": ("splu", "gmres")}

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []
        self._last_grid = None

    def reset_op(self):
        """Start a new operation: `same_grid` compares within one op only."""
        self._last_grid = None

    def _on_result(self, name):
        if name == "solver.solve_at_separation":
            def same_grid(sp, result):
                spec = result.u.spec
                grid = (spec.n1, spec.n2, spec.h1, spec.h2)
                sp.counts["same_grid"] = int(grid == self._last_grid)
                self._last_grid = grid
                return result
            return same_grid
        if name == "solver.solve_projected":
            def iters(sp, result):
                sp.counts["newton_iters"] = result.newton_iters
                return result
            return iters
        if name == "reconstruct.pde_residual":
            def samples(sp, result):
                sp.counts["n_samples"] = result["n_samples"]
                return result
            return samples
        if name.endswith(".splu"):
            solve_name = "solver.lu_solve" if name == "solver.splu" else None

            def factor(sp, result):
                sp.counts["fill_nnz"] = result.nnz
                return _TracedLU(result, self.tracer, solve_name) if solve_name else result
            return factor
        return None

    def install(self):
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        mods = {n.rsplit(".", 1)[-1]: m for n, m in list(sys.modules.items())
                if m is not None and (n == "vortexflow" or n.startswith("vortexflow."))}
        for short, names in self.LAYERS.items():
            for fname in names:
                original = getattr(mods[short], fname)
                name = f"{short}.{fname}"
                wrapper = self.tracer.wrap(name, original, self._on_result(name))
                for mod in mods.values():
                    if getattr(mod, fname, None) is original:
                        self._patch(mod, fname, wrapper)
        for short, names in self.FOREIGN.items():
            for fname in names:
                name = f"{short}.{fname}"
                original = getattr(mods[short], fname)
                self._patch(mods[short], fname,
                            self.tracer.wrap(name, original, self._on_result(name)))

    def _patch(self, mod, attr, value):
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)
