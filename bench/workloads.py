"""The benchmark's workloads: inputs made from a seed, one timed
operation, and the checks on that operation's outputs.

Layer functions are looked up on their modules at call time (never
imported by name here), so the wrappers that `tracing.Instrumentation`
installs see every call.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from vortexflow import ansatz, cli_io, diagnostics, profile, reconstruct, solver
from vortexflow.ansatz import ModelParams, Regime

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable      # (seed, workdir) -> inputs
    op: Callable         # inputs -> output
    check: Callable      # (inputs, output) -> list of failed-check messages


def _rel(a, b):
    return abs(a - b) / abs(b)


def _vortex_failures(u, d, label):
    """Exactly one vortex within 2h of (d, 0), and it has charge +1."""
    h = u.spec.h1
    near = [v for v in diagnostics.detect_vortices(u)
            if math.hypot(v[0][0] - d, v[0][1]) <= 2.0 * h]
    if len(near) != 1 or near[0][1] != 1:
        return [f"{label}: vortices within 2h of d = {d}: {near}"]
    return []


# -- pair_balance: time to a balanced soliton --------------------------------

PAIR_PARAMS = ModelParams(Regime.PAIR_WM, eps=0.05, kappa=0.0, d_hat=1.0)
PAIR_BRACKET = (16.0, 26.0)
PAIR_H = 0.25


def _pair_setup(seed, workdir):
    # Seed 0 is the reference bracket.  Other seeds pull each end down by
    # less than h/2, which keeps both end solves on the reference grids
    # (L = ceil(2d/h) h) and leaves d* unchanged to far below 1e-8.
    shift = np.random.default_rng(seed).uniform(0.0, 0.5 * PAIR_H, 2) if seed else (0.0, 0.0)
    bracket = (PAIR_BRACKET[0] - float(shift[0]), PAIR_BRACKET[1] - float(shift[1]))
    return SimpleNamespace(profile=profile.solve_profile(), bracket=bracket)


def _pair_op(inp):
    return solver.solve_balanced(PAIR_PARAMS, inp.bracket, inp.profile, h=PAIR_H)


def _pair_check(inp, out):
    res, d_star = out
    ref = REFERENCE["pair_balance"]["d_star"]
    bad = [] if _rel(d_star, ref) <= 1e-8 else [f"d* = {d_star!r}, reference {ref!r}"]
    return bad + _vortex_failures(res.u, d_star, "pair_balance")


# -- ring_solve: one large projected solve ------------------------------------

RING_PARAMS = ModelParams(Regime.RING_SCH, eps=0.1, kappa=0.0, d_hat=2.4)
RING_D = 24.0
RING_H = 0.125
RING_NEWTON_TOL = 1e-11


def _ring_setup(seed, workdir):
    # c_mult is checked to 1e-8 against one fixed (eps, d, h), so the
    # seed has no input it may perturb here.
    return SimpleNamespace(profile=profile.solve_profile())


def _ring_op(inp):
    return solver.solve_at_separation(RING_PARAMS, RING_D, inp.profile, h=RING_H,
                                      newton_tol=RING_NEWTON_TOL)


def _ring_check(inp, res):
    ref = REFERENCE["ring_solve"]["c_mult"]
    bad = []
    if not res.final_residual <= RING_NEWTON_TOL:
        bad.append(f"final_residual {res.final_residual:.3e} > {RING_NEWTON_TOL}")
    if _rel(res.c_mult, ref) > 1e-8:
        bad.append(f"c_mult = {res.c_mult!r}, reference {ref!r}")
    return bad + _vortex_failures(res.u, RING_D, "ring_solve")


# -- verify: diagnostics and space-time residuals of solved fields ------------

VERIFY_CASES = (
    # label, params, d, h, ring
    ("pair_sch", ModelParams(Regime.PAIR_SCH, eps=0.2, kappa=0.25, d_hat=2.0), 10.0, 0.125, False),
    ("ring_sch", ModelParams(Regime.RING_SCH, eps=0.1, kappa=0.0, d_hat=2.4), 22.75, 0.25, True),
)


def _verify_setup(seed, workdir):
    prof = profile.solve_profile()
    # The seed moves the (t, tau) centre of the sampled space-time block;
    # the soliton travels, so every block sees the same residual scale.
    offsets = np.random.default_rng(seed).uniform(0.0, 0.5, (len(VERIFY_CASES), 2)) \
        if seed else np.zeros((len(VERIFY_CASES), 2))
    cases = []
    for (label, params, d, h, ring), (t0, tau0) in zip(VERIFY_CASES, offsets):
        res = solver.solve_at_separation(params, d, prof, h=h)
        cases.append(SimpleNamespace(label=label, params=params.with_d(d), d=d, h=h,
                                     ring=ring, u=res.u, t0=float(t0), tau0=float(tau0),
                                     path=Path(workdir) / f"{label}.vsf"))
    return SimpleNamespace(profile=prof, cases=cases)


def _verify_op(inp):
    out = []
    for case in inp.cases:
        p = case.params
        cli_io.save_field(case.u, case.path)
        u = cli_io.load_field(case.path)
        V = ansatz.build_ansatz(p, u.spec, inp.profile)
        report = diagnostics.build_report(u, p, V)
        U = reconstruct.unscale(u, p, "spline")
        center = (case.d, 0.0, 0.0) if case.ring else (case.d, 0.0)
        levels = []
        # criterion-9 refinement study: ds = h, h/2, h/4 on blocks of 48 * 2^k
        for k, ds in enumerate((case.h, case.h / 2, case.h / 4)):
            n = 48 * 2**k
            nspace = (n, 5, n) if case.ring else n
            levels.append(reconstruct.pde_residual(p, U, center, ds, nspace=nspace, ntau=5,
                                                   t0=case.t0, tau0=case.tau0)["l2"])
        out.append((u, report, levels))
    return out


def _verify_check(inp, out):
    bad = []
    for case, (u, report, levels) in zip(inp.cases, out):
        if u.data.tobytes() != case.u.data.tobytes():
            bad.append(f"{case.label}: VSF1 round trip changed the field")
        # build_report raises when the charge is not near an integer, and
        # run_ops counts that as a failure.
        if "star" not in report.weighted_norms:
            bad.append(f"{case.label}: report has no corrector norms")
        ratios = [levels[i] / levels[i + 1] for i in range(len(levels) - 1)]
        if not (levels[0] > levels[1] > levels[2] and max(ratios) >= 2.5
                and levels[0] / levels[2] >= 4.0):
            bad.append(f"{case.label}: residual levels {levels} do not refine")
        bad += _vortex_failures(u, case.d, case.label)
    return bad


WORKLOADS = {w.name: w for w in (
    Workload("pair_balance", _pair_setup, _pair_op, _pair_check),
    Workload("ring_solve", _ring_setup, _ring_op, _ring_check),
    Workload("verify", _verify_setup, _verify_op, _verify_check),
)}
