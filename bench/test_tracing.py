"""Span bookkeeping of the benchmark's tracer.

    python3 -m pytest bench/test_tracing.py
"""

import sys
from pathlib import Path

import pytest

from tracing import Tracer, layer_totals, self_times, top_level_share


class FakeClock:
    """A clock that only moves when the test advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def nested_trace():
    """op [0, 10] -> outer [1, 9] -> inner [2, 5] and inner [6, 7]."""
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner(dt):
        clock.advance(dt)
        return dt

    def outer():
        clock.advance(1.0)
        traced_inner(3.0)
        clock.advance(1.0)
        traced_inner(1.0)
        clock.advance(2.0)

    traced_inner = tracer.wrap("mod.inner", inner,
                               lambda sp, res: sp.counts.update(work=res) or res)
    traced_outer = tracer.wrap("mod.outer", outer)
    with tracer.span("op"):
        clock.advance(1.0)
        traced_outer()
        clock.advance(1.0)
    return tracer


def test_self_time_is_span_minus_children():
    tracer = nested_trace()
    names = [s.name for s in tracer.spans]
    assert names == ["op", "mod.outer", "mod.inner", "mod.inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1]
    assert self_times(tracer.spans) == pytest.approx([2.0, 4.0, 3.0, 1.0])


def test_layer_totals_and_counts():
    tracer = nested_trace()
    (root,) = tracer.roots("op")
    totals = layer_totals(tracer.spans, root)
    assert totals["mod.outer"] == pytest.approx({"calls": 1, "s": 8.0, "self_s": 4.0})
    assert totals["mod.inner"] == pytest.approx({"calls": 2, "s": 4.0, "self_s": 4.0,
                                                 "work": 4.0})
    assert top_level_share(tracer.spans, root) == pytest.approx(0.8)


def test_instrumentation_reaches_names_imported_by_other_modules():
    import numpy as np
    from scipy.sparse import identity

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from tracing import Instrumentation
    from vortexflow import ansatz, cli_io, diagnostics, solver
    from vortexflow.ansatz import ModelParams, Regime
    from vortexflow.fields import GridSpec, Symmetry

    before = (ansatz.build_ansatz, solver.build_ansatz, diagnostics.build_report,
              cli_io.build_report, ansatz.splu, solver.splu)
    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.install()
    try:
        assert solver.build_ansatz is not before[1] and cli_io.build_report is not before[3]
        params = ModelParams(Regime.RING_SCH, eps=0.1, d_hat=0.4)
        ansatz.build_ring_phase(params, GridSpec(8.0, 8.0, 0.5, 0.5, Symmetry.RING))
        solver.splu(identity(4, format="csc")).solve(np.ones(4))
    finally:
        inst.uninstall()
    assert (ansatz.build_ansatz, solver.build_ansatz, diagnostics.build_report,
            cli_io.build_report, ansatz.splu, solver.splu) == before
    spans = tracer.spans
    assert [s.name for s in spans] == ["ansatz.build_ring_phase", "ansatz.splu",
                                       "solver.splu", "solver.lu_solve"]
    assert spans[1].parent == 0 and spans[1].counts["fill_nnz"] > 0
    assert spans[3].counts["bytes_computed"] == 12 * spans[2].counts["fill_nnz"]
