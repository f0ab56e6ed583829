import math

import numpy as np
import pytest
from scipy.integrate import quad

from vortexflow import profile as profile_mod
from vortexflow.profile import (ODE_TOL, eval_profile, ode_residual, profile_integrals,
                                solve_profile)


def test_default_solution_pinned(profile):
    # values of the default solve when its Newton iteration started from a
    # shot of an RK4 bisection on the origin slope: the fixed start must
    # reach the same discrete solution
    def close(value, expected):
        return abs(value - expected) <= 1e-12 * abs(expected)

    assert close(profile.slope_a, 0.5961291714939921)
    assert close(profile.tail_c0, 2.3347374401659367)
    I1, I2 = profile_integrals(profile)
    assert close(I1, 0.24999997547039315) and close(I2, 0.12499996598682579)
    expected = {0: 0.0005961291714939921, 1000: 0.5322248465688973, 5000: 0.9930258176454393,
                14999: 0.999999802173802, 29999: 0.9999999999999286}
    for k, rho in expected.items():
        assert close(profile.rho[k], rho), k


def test_loose_tol_still_converges_the_far_tail(monkeypatch):
    # a loose ODE_TOL on a fine grid: Newton still runs to its own target,
    # so the tail, where 1 - rho ~ 1e-13, stays below 1
    monkeypatch.setattr(profile_mod, "STEP", 2e-4)
    monkeypatch.setattr(profile_mod, "ODE_TOL", 1e-8)
    p = solve_profile()
    assert np.all(p.rho > 0.0) and np.all(p.rho < 1.0) and np.all(p.drho > 0.0)
    assert np.max(np.abs(ode_residual(p))) <= 1e-7


def test_profile_shape_invariants(profile):
    assert np.all(profile.rho > 0.0) and np.all(profile.rho < 1.0)
    assert np.all(profile.drho > 0.0)
    assert profile.rho[-1] >= 1.0 - 1e-5
    assert abs(profile.rho[0] - profile.slope_a * profile.knots[0]) < ODE_TOL


def test_ode_residual_small(profile):
    assert np.max(np.abs(ode_residual(profile))) <= 1e-8


def test_tail_regression_slope(profile):
    sel = (profile.knots >= 8.0) & (profile.knots <= 14.0)
    y = np.log(1.0 - profile.rho[sel]) + 0.5 * np.log(profile.knots[sel])
    slope = np.polyfit(profile.knots[sel], y, 1)[0]
    assert abs(slope + 1.0) <= 0.05


def test_eval_reproduces_knots(profile):
    idx = [0, 5, 1234, len(profile.knots) // 2, -1]
    rho, drho = eval_profile(profile, profile.knots[idx])
    assert np.array_equal(rho, profile.rho[idx])
    assert np.array_equal(drho, profile.drho[idx])


def test_eval_origin_and_tail(profile):
    r0, d0 = eval_profile(profile, 0.0)
    assert r0 == 0.0 and d0 == profile.slope_a
    ell = profile.knots[-1] + 5.0
    r, _ = eval_profile(profile, ell)
    tail = 1.0 - profile.tail_c0 * math.exp(-ell) / math.sqrt(ell)
    assert abs(r - tail) < 1e-6


def test_profile_integrals_exact_values(profile):
    # oracle: substitution t = rho^2 turns the integrals into
    # (1/2) int (1+t)^-2 dt and (1/2) int (1-t)(1+t)^-3 dt over [0, 1]
    oracle1 = 0.5 * quad(lambda t: (1 + t) ** -2, 0, 1)[0]
    oracle2 = 0.5 * quad(lambda t: (1 - t) * (1 + t) ** -3, 0, 1)[0]
    assert abs(oracle1 - 0.25) < 1e-12 and abs(oracle2 - 0.125) < 1e-12
    I1, I2 = profile_integrals(profile)
    assert abs(I1 - 0.25) <= 1e-6
    assert abs(I2 - 0.125) <= 1e-6


def test_truncated_integrals_close(profile):
    I1, I2 = profile_integrals(profile)
    J1, J2 = profile_integrals(profile, ell_cut=10.0)
    assert abs(I1 - J1) < 1e-4 and abs(I2 - J2) < 1e-4


def test_step_halving_stability(profile, monkeypatch):
    monkeypatch.setattr(profile_mod, "STEP", 2e-3)
    coarse = solve_profile()
    assert coarse.knots[1] - coarse.knots[0] == pytest.approx(2e-3)
    r_fine, _ = eval_profile(profile, 5.0)
    r_coarse, _ = eval_profile(coarse, 5.0)
    assert abs(r_fine - r_coarse) <= (2e-3) ** 2 * 10
