"""The separation balance: the safeguarded secant of `solve_balanced` on
synthetic c(d), and the state one solve hands to the next on real grids."""

import math
import weakref

import numpy as np
import pytest
from scipy.special import lambertw

from vortexflow import solver
from vortexflow.ansatz import ModelParams, Regime
from vortexflow.fields import ComplexField, GridSpec
from vortexflow.solver import (BracketError, SolveResult, _BalanceState, balance_x,
                               build_case, solve_at_separation, solve_balanced,
                               solve_projected)

PAIR = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
RING = ModelParams(Regime.RING_SCH, 0.1, 0.0, 2.4)


def fake_solves(monkeypatch, c_of_d):
    """Replace the per-d solve by c(d) on a placeholder field; returns the
    list of separations solved, in order."""
    calls = []

    def fake(params, d, profile, h=0.25, *, state=None, **opts):
        calls.append(d)
        L = solver._domain_for(d, h)
        spec = GridSpec(L, L, h, h, params.symmetry)
        u = ComplexField(spec, np.zeros((spec.n1, spec.n2), dtype=complex))
        return SolveResult(u=u, c_mult=c_of_d(d), newton_iters=0, final_residual=0.0,
                           corrector_norm_star=0.0, d_used=d, converged=True)

    monkeypatch.setattr(solver, "solve_at_separation", fake)
    return calls


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
    solve_balanced(PAIR, (16.0, 26.0), profile=object(), h=0.5, max_iters=500)
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
    first = solve_at_separation(PAIR, 5.9, profile, H, state=state, **TOL)
    again = solve_at_separation(PAIR, 5.95, profile, H, state=state, **TOL)
    assert not (first.lu_reused or first.warm_start)
    assert again.lu_reused and again.warm_start
    assert len(factors) == 2 and state.fallbacks == 0
    assert abs(again.c_mult - cold.c_mult) <= 1e-9 * abs(cold.c_mult)
    assert again.newton_iters < cold.newton_iters


def test_grid_change_factors_again_and_releases(profile, factors):
    state = _BalanceState()
    solve_at_separation(PAIR, 5.9, profile, H, state=state, **TOL)
    old = factors[0]
    moved = solve_at_separation(PAIR, 6.5, profile, H, state=state, **TOL)
    assert old() is None and len(factors) == 2  # `factors` checked it at the new splu
    assert not moved.lu_reused


def test_stagnation_on_reused_state_redoes_the_solve_cold(profile, factors, monkeypatch):
    state = _BalanceState()
    solve_at_separation(PAIR, 5.9, profile, H, state=state, **TOL)
    gmres = solver.gmres
    failed = []

    def fails_once(A, b, **kwargs):
        if not failed:
            failed.append(True)
            return np.zeros_like(b), 1  # true residual ||b||: stagnation
        return gmres(A, b, **kwargs)

    monkeypatch.setattr(solver, "gmres", fails_once)
    redone = solve_at_separation(PAIR, 5.95, profile, H, state=state, **TOL)
    assert failed and state.fallbacks == 1
    assert not (redone.lu_reused or redone.warm_start)
    assert len(factors) == 2
    del state
    monkeypatch.setattr(solver, "gmres", gmres)
    cold = solve_at_separation(PAIR, 5.95, profile, H, **TOL)
    assert redone.u.data.tobytes() == cold.u.data.tobytes()
    assert redone.c_mult == cold.c_mult


def test_cold_solve_is_unchanged_by_the_state_plumbing(profile):
    plain = solve_at_separation(PAIR, 5.95, profile, H)
    p = PAIR.with_d(5.95)
    L = solver._domain_for(5.95, H)
    direct = solve_projected(p, *build_case(p, GridSpec(L, L, H, H, p.symmetry), profile))
    fresh = solve_at_separation(PAIR, 5.95, profile, H, state=_BalanceState())
    for res in (direct, fresh):
        assert res.u.data.tobytes() == plain.u.data.tobytes()
        assert res.c_mult == plain.c_mult
        assert not (res.lu_reused or res.warm_start)


def test_balance_keeps_no_factor_alive(profile, factors):
    res, d_star = solve_balanced(PAIR, (8.0, 12.0), profile, h=0.5)
    history = res.balance_history
    assert d_star in [rec[0] for rec in history]
    assert all(r() is None for r in factors)
    # each solve either factored or reused the factor of the solve before
    # it, on that solve's grid
    reused = [rec[3] for rec in history]
    assert any(reused) and len(factors) + sum(reused) == len(history)
    for prev, rec in zip(history, history[1:]):
        assert rec[2] == round(solver._domain_for(rec[0], 0.5) / 0.5)
        assert rec[2] == prev[2] or not rec[3]


def test_worse_warm_start_is_not_taken(profile):
    # a corrector that raises the residual above the ansatz's is ignored:
    # on a new grid the solve is then the cold solve, bit for bit
    state = _BalanceState()
    solve_at_separation(PAIR, 5.9, profile, H, state=state)
    noise = np.random.default_rng(3).standard_normal(state.corrector.data.shape)
    state.corrector = ComplexField(state.corrector.spec, noise.astype(complex))
    moved = solve_at_separation(PAIR, 6.5, profile, H, state=state)
    cold = solve_at_separation(PAIR, 6.5, profile, H)
    assert not (moved.warm_start or moved.lu_reused) and state.fallbacks == 0
    assert moved.u.data.tobytes() == cold.u.data.tobytes()
    assert moved.c_mult == cold.c_mult
