"""The separation balance: the safeguarded secant of `solve_balanced` on
synthetic c(d), and the state one of its solves hands to the next on real
grids (`_BalanceState.solve`, the balance's per-d solve)."""

import math
import weakref

import numpy as np
import pytest
from scipy.special import lambertw

from vortexflow import solver
from vortexflow.ansatz import ModelParams, Regime
from vortexflow.fields import ComplexField, GridSpec
from vortexflow.solver import (BracketError, KrylovStagnationError, SolveResult,
                               _BalanceState, balance_x, build_case, solve_at_separation,
                               solve_balanced, solve_projected)

PAIR = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
RING = ModelParams(Regime.RING_SCH, 0.1, 0.0, 2.4)


def fake_solves(monkeypatch, c_of_d):
    """Replace the balance's per-d solve by c(d) on a placeholder field;
    returns the list of separations solved, in order."""
    calls = []

    def fake(state, params, d, profile, h, **opts):
        calls.append(d)
        L = solver._domain_for(d, h)
        spec = GridSpec(L, L, h, h, params.symmetry)
        u = ComplexField(spec, np.zeros((spec.n1, spec.n2), dtype=complex))
        return SolveResult(u=u, c_mult=c_of_d(d), newton_iters=0, final_residual=0.0,
                           d_used=d, V_d=u)

    monkeypatch.setattr(_BalanceState, "solve", fake)
    return calls


@pytest.mark.parametrize("bracket", [(26.0, 16.0), (18.0, 18.0), (0.0, 5.0), (-5.0, 5.0),
                                     (math.nan, 5.0), (5.0, math.inf)])
def test_bracket_out_of_order_raises_before_a_solve(monkeypatch, bracket):
    # a reversed bracket once returned its low end with c != 0 (the width
    # stop fired on a negative width), an empty one spent two solves
    calls = fake_solves(monkeypatch, lambda d: d - 20.0)
    with pytest.raises(ValueError, match="bracket"):
        solve_balanced(PAIR, bracket, profile=object(), h=0.5)
    assert calls == []


@pytest.mark.parametrize("params, bracket, match", [
    (ModelParams(Regime.PAIR_WM, 0.001, 0.0, 1.0), (20.0, 1e5), r"\bh = "),  # 800,000^2 points
    (PAIR, (10.0, 2000.0), "d_hat"),  # d_hat = eps d_hi = 200
], ids=["grid", "d_hat"])
def test_a_bracket_end_out_of_range_raises_before_a_solve(monkeypatch, params, bracket, match):
    # d_hat and the side are linear in d, so the two ends bound every solve;
    # d_hi was refused only once the d_lo solve had run
    calls = []

    def solve(*args, **opts):
        calls.append(args)
        raise RuntimeError("a solve ran")

    monkeypatch.setattr(solver, "solve_at_separation", solve)
    with pytest.raises(ValueError, match=match):
        solve_balanced(params, bracket, profile=object(), h=0.25)
    assert calls == []


def test_no_sign_change_raises(monkeypatch):
    calls = fake_solves(monkeypatch, lambda d: d + 1.0)
    with pytest.raises(BracketError):
        solve_balanced(PAIR, (2.0, 3.0), profile=object(), h=0.5)
    assert calls == [2.0, 3.0]


@pytest.mark.parametrize("root", [2.0, 3.0])
def test_exact_zero_at_a_bracket_end(monkeypatch, root):
    calls = fake_solves(monkeypatch, lambda d: d - root)
    res, d_star = solve_balanced(PAIR, (2.0, 3.0), profile=object(), h=0.5)
    assert d_star == root and res.c_mult == 0.0
    assert calls == [2.0, 3.0]
    assert [rec[0] for rec in res.balance_history] == calls


def test_step_leaving_the_bracket_bisects(monkeypatch):
    # nearly a step: after the first secant the last two solves have
    # almost the same c, so their secant points far outside the bracket
    calls = fake_solves(monkeypatch, lambda d: math.atan(50.0 * (d - 18.0)))
    _, d_star = solve_balanced(PAIR, (16.0, 26.0), profile=object(), h=0.5)
    assert 16.0 < calls[2] < 26.0 and calls[2] > 18.0
    assert calls[3] == 0.5 * (16.0 + calls[2])
    assert abs(d_star - 18.0) <= 1e-8 * 18.0


def test_ring_bracket_below_e_takes_the_plain_d_step(monkeypatch):
    # c affine in d: the plain d secant lands on the root in one step;
    # (log d)/d turns at d = e, so the X step is not taken there
    calls = fake_solves(monkeypatch, lambda d: d - 5.0)
    _, d_star = solve_balanced(RING, (2.0, 10.0), profile=object(), h=0.5)
    assert calls == [2.0, 10.0, 5.0] and d_star == 5.0
    # above e the same c gets the X step, which does not land on 5 at once
    calls.clear()
    solve_balanced(RING, (3.0, 10.0), profile=object(), h=0.5)
    x_lo, x_hi = balance_x(3.0, True), balance_x(10.0, True)
    x_new = x_hi - 5.0 * (x_hi - x_lo) / (5.0 + 2.0)
    assert calls[2] == pytest.approx(ring_root(x_new), rel=1e-12)
    assert calls[2] != 5.0


def ring_root(x):
    """The d > e with (log d)/d = x, by the lower branch of Lambert W."""
    return math.exp(-lambertw(-x, -1).real)


def test_narrow_bracket_stops(monkeypatch):
    # |c| never falls below the stopping scale, so only the bracket width
    # can end the loop
    calls = fake_solves(monkeypatch, lambda d: -1.0 if d < 20.3 else 1.0)
    monkeypatch.setattr(solver, "BALANCE_MAX_ITERS", 500)
    solve_balanced(PAIR, (16.0, 26.0), profile=object(), h=0.5)
    assert len(calls) < 100
    assert abs(calls[-1] - 20.3) <= 1e-8 * 26.0


@pytest.mark.parametrize("params, bracket, c_of_d, root", [
    (PAIR, (16.0, 26.0), lambda d: 0.3 - 6.0 / d, 20.0),
    (RING, (16.0, 34.0), lambda d: 0.15 - math.log(d) / d, ring_root(0.15)),
])
def test_c_affine_in_x_takes_few_solves(monkeypatch, params, bracket, c_of_d, root):
    calls = fake_solves(monkeypatch, c_of_d)
    _, d_star = solve_balanced(params, bracket, profile=object(), h=0.5)
    assert len(calls) <= 6
    assert d_star == pytest.approx(root, rel=1e-10)


# -- reuse on real grids -------------------------------------------------------

H = 0.25
TOL = dict(newton_tol=1e-11)


class _Factor:
    """A SuperLU factor that a weakref can follow."""

    def __init__(self, lu):
        self.lu = lu
        self.solve = lu.solve
        self.nnz = lu.nnz


@pytest.fixture
def factors(monkeypatch):
    """Weak references to every bordered LU, in order; each factorization
    first checks that no earlier factor is still alive."""
    refs = []
    splu = solver.splu

    def tracked(*args, **kwargs):
        assert all(r() is None for r in refs), "an earlier bordered LU is alive"
        f = _Factor(splu(*args, **kwargs))
        refs.append(weakref.ref(f))
        return f

    monkeypatch.setattr(solver, "splu", tracked)
    return refs


def test_same_grid_solve_reuses_the_factor(profile, factors):
    assert solver._domain_for(5.9, H) == solver._domain_for(5.95, H)
    cold = solve_at_separation(PAIR, 5.95, profile, H, **TOL)
    state = _BalanceState()
    first = state.solve(PAIR, 5.9, profile, H, **TOL)
    again = state.solve(PAIR, 5.95, profile, H, **TOL)
    assert not (first.lu_reused or first.warm_start)
    assert again.lu_reused and again.warm_start
    assert len(factors) == 2 and state.fallbacks == 0
    assert first.lu_fill > 0 and again.lu_fill == 0
    assert abs(again.c_mult - cold.c_mult) <= 1e-9 * abs(cold.c_mult)
    assert again.newton_iters < cold.newton_iters


def test_grid_change_factors_again_and_releases(profile, factors):
    state = _BalanceState()
    state.solve(PAIR, 5.9, profile, H, **TOL)
    old = factors[0]
    moved = state.solve(PAIR, 6.5, profile, H, **TOL)
    assert old() is None and len(factors) == 2  # `factors` checked it at the new splu
    assert not moved.lu_reused


def test_stagnation_on_reused_state_redoes_the_solve_cold(profile, factors, monkeypatch):
    state = _BalanceState()
    state.solve(PAIR, 5.9, profile, H, **TOL)
    gmres = solver.gmres
    failed = []

    def fails_once(A, b, **kwargs):
        if not failed:
            failed.append(True)
            return np.zeros_like(b), 1  # true residual ||b||: stagnation
        return gmres(A, b, **kwargs)

    monkeypatch.setattr(solver, "gmres", fails_once)
    redone = state.solve(PAIR, 5.95, profile, H, **TOL)
    assert failed and state.fallbacks == 1
    assert not (redone.lu_reused or redone.warm_start)
    assert len(factors) == 2
    del state
    monkeypatch.setattr(solver, "gmres", gmres)
    cold = solve_at_separation(PAIR, 5.95, profile, H, **TOL)
    assert redone.u.data.tobytes() == cold.u.data.tobytes()
    assert redone.c_mult == cold.c_mult


def test_balance_counts_the_solves_redone_cold(profile, monkeypatch):
    # the stagnating GMRES above, armed for the first solve of the balance
    # that starts with the factor of the solve before it
    balance_solve, gmres = _BalanceState.solve, solver.gmres
    armed = []

    def fails_once(A, b, **kwargs):
        if armed == [False]:
            armed[0] = True
            return np.zeros_like(b), 1
        return gmres(A, b, **kwargs)

    def solve(state, params, d, profile, h, **opts):
        L = solver._domain_for(d, h)
        if (not armed and state.precond is not None
                and state.spec == GridSpec(L, L, h, h, params.symmetry)):
            armed.append(False)
        return balance_solve(state, params, d, profile, h, **opts)

    monkeypatch.setattr(solver, "gmres", fails_once)
    monkeypatch.setattr(_BalanceState, "solve", solve)
    res, _ = solve_balanced(PAIR, (8.0, 12.0), profile, h=0.5)
    assert armed == [True] and res.fallbacks == 1


def test_cold_solve_is_unchanged_by_the_state_plumbing(profile):
    plain = solve_at_separation(PAIR, 5.95, profile, H)
    p = PAIR.with_d(5.95)
    L = solver._domain_for(5.95, H)
    direct = solve_projected(p, *build_case(p, GridSpec(L, L, H, H, p.symmetry), profile))
    fresh = _BalanceState().solve(PAIR, 5.95, profile, H)
    for res in (direct, fresh):
        assert res.u.data.tobytes() == plain.u.data.tobytes()
        assert res.c_mult == plain.c_mult
        assert not (res.lu_reused or res.warm_start)


def test_each_solve_enters_solve_projected_once(profile, monkeypatch):
    # the cold solve does not call itself, so a wrapper on the module's
    # solve_projected (the benchmark's tracer is one) sees each cold solve
    # once, and each solve of a balance once
    entries = []
    projected = solver.solve_projected

    def counted(*args, **kwargs):
        entries.append(args[0].d)
        return projected(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_projected", counted)
    solve_at_separation(PAIR, 5.95, profile, H)
    assert entries == [5.95]
    entries.clear()
    res, _ = solve_balanced(PAIR, (8.0, 12.0), profile, h=0.5)
    assert entries == pytest.approx([rec[0] for rec in res.balance_history], rel=1e-15)
    assert any(rec[3] for rec in res.balance_history)


def test_balance_keeps_no_factor_alive(profile, factors):
    res, d_star = solve_balanced(PAIR, (8.0, 12.0), profile, h=0.5)
    history = res.balance_history
    assert d_star in [rec[0] for rec in history] and res.fallbacks == 0
    assert all(r() is None for r in factors)
    # each solve either factored or reused the factor of the solve before
    # it, on that solve's grid
    reused = [rec[3] for rec in history]
    assert any(reused) and len(factors) + sum(reused) == len(history)
    for prev, rec in zip(history, history[1:]):
        assert rec[2] == round(solver._domain_for(rec[0], 0.5) / 0.5)
        assert rec[2] == prev[2] or not rec[3]


def test_a_reused_factor_assembles_nothing(profile, monkeypatch):
    # a matrix is assembled only to be factored: once by each solve that
    # factors its grid's cycle (on h = 0.5, its h = 1.0 grid), never by a
    # solve that reuses the factor before it
    grids = []
    assemble = solver.assemble_jacobian

    def counted(J):
        grids.append(J.spec.n1)
        return assemble(J)

    monkeypatch.setattr(solver, "assemble_jacobian", counted)
    res, _ = solve_balanced(PAIR, (8.0, 12.0), profile, h=0.5)
    history = res.balance_history
    assert any(rec[3] for rec in history) and res.fallbacks == 0
    assert grids == [math.ceil(rec[2] / 2) for rec in history if not rec[3]]


def test_worse_warm_start_is_not_taken(profile):
    # a corrector that raises the residual above the ansatz's is ignored:
    # on a new grid the solve is then the cold solve, bit for bit
    state = _BalanceState()
    state.solve(PAIR, 5.9, profile, H)
    noise = np.random.default_rng(3).standard_normal(state.corrector.data.shape)
    state.corrector = ComplexField(state.corrector.spec, noise.astype(complex))
    moved = state.solve(PAIR, 6.5, profile, H)
    cold = solve_at_separation(PAIR, 6.5, profile, H)
    assert not (moved.warm_start or moved.lu_reused) and state.fallbacks == 0
    assert moved.u.data.tobytes() == cold.u.data.tobytes()
    assert moved.c_mult == cold.c_mult


def test_a_failed_cold_run_on_a_new_grid_is_not_redone(profile, monkeypatch):
    # on a new grid, with the worse warm start above not taken, the failed
    # run was the cold one: it raises at once, with no redo to count
    state = _BalanceState()
    state.solve(PAIR, 5.9, profile, H)
    noise = np.random.default_rng(3).standard_normal(state.corrector.data.shape)
    state.corrector = ComplexField(state.corrector.spec, noise.astype(complex))
    runs = []

    def stagnates(A, b, **kwargs):
        runs.append(b.size)
        return np.zeros_like(b), 1

    monkeypatch.setattr(solver, "gmres", stagnates)
    with pytest.raises(KrylovStagnationError):
        state.solve(PAIR, 6.5, profile, H)
    assert len(runs) == 1 and state.fallbacks == 0


def test_a_warm_start_within_newton_tol_takes_a_step(profile):
    # a separation 1e-10 away on the same grid: the last solution is a
    # start already within newton_tol, but its c is that of 5.9.  Solved
    # with no step, the two solves had one c, and the secant through them
    # none (`_secant_d`)
    state = _BalanceState()
    first = state.solve(PAIR, 5.9, profile, H, **TOL)
    d = 5.9 + 1e-10
    again = state.solve(PAIR, d, profile, H, **TOL)
    assert again.warm_start and again.newton_residuals[0] <= TOL["newton_tol"]
    assert again.newton_iters >= 1 and again.c_mult != first.c_mult
    cold = solve_at_separation(PAIR, d, profile, H, **TOL)
    assert abs(again.c_mult - cold.c_mult) < abs(first.c_mult - cold.c_mult)
    # a d solved again from its own solution: the start sits at the
    # residual's rounding floor, where a step need not lower it, so the
    # step is taken whole while it stays within newton_tol (the line
    # search alone handed back the third run's start at 6.0)
    state = _BalanceState()
    state.solve(PAIR, 6.0, profile, H, **TOL)
    for _ in range(4):
        res = state.solve(PAIR, 6.0, profile, H, **TOL)
        start, end = res.newton_residuals
        assert res.newton_iters == 1 and end <= TOL["newton_tol"]
        assert end != start  # the step's residual, not the start's
