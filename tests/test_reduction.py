import math

import numpy as np
import pytest

from vortexflow.ansatz import ModelParams, Regime
from vortexflow.profile import profile_integrals
from vortexflow.reduction import leading_c, predict_d
from vortexflow.solver import solve_at_separation


def test_leading_pair_root_is_exact():
    p = ModelParams(Regime.PAIR_WM, 0.05, 0.0, 1.0)
    assert leading_c(20.0, p) == 0.0
    assert leading_c(10.0, p) * leading_c(40.0, p) < 0  # bracketing around the root


def test_leading_single_sign_change():
    for params in (ModelParams(Regime.PAIR_SCH, 0.05, 0.25, 1.0),
                   ModelParams(Regime.RING_SCH, 0.05, 0.0, 0.3)):
        dstar = predict_d(params)
        ds = np.linspace(max(2.0, dstar / 4), 4 * dstar, 400)
        vals = np.array([leading_c(d, params) for d in ds])
        assert np.sum(np.diff(np.sign(vals)) != 0) == 1


def test_predict_d_closed_forms():
    assert predict_d(ModelParams(Regime.PAIR_WM, 0.05, 0.0, 1.0)) == pytest.approx(20.0)
    assert predict_d(ModelParams(Regime.PAIR_SCH, 0.05, 0.25, 1.0)) == pytest.approx(40.0)


def test_predict_d_ring_bisection_oracle():
    params = ModelParams(Regime.RING_SCH, 0.05, 0.0, 0.3)
    rhs = 2 * 0.05 * abs(math.log(0.05))
    lo, hi = math.e, 100.0
    for _ in range(200):  # independent plain bisection
        mid = 0.5 * (lo + hi)
        if math.log(mid) / mid > rhs:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert predict_d(params) == pytest.approx(oracle, rel=1e-9)
    assert predict_d(params) == pytest.approx(5.957, abs=0.05)


def test_predict_d_ring_no_root():
    params = ModelParams(Regime.RING_SCH, 0.1, 0.0, 0.6)
    # 2 eps |log eps| = 0.46 >= 1/e: no root on the decreasing branch
    with pytest.raises(ValueError):
        predict_d(params)


def test_reduction_coefficients_from_profile_integrals(profile):
    I1, I2 = profile_integrals(profile)
    assert abs(2 * math.pi * I2 - math.pi / 4) <= 1e-5 * (math.pi / 4)
    assert abs(2 * math.pi * I1 - math.pi / 2) <= 1e-5 * (math.pi / 2)


def test_numeric_curve_pair(profile):
    # 6-point sweep bracketing the predicted root at eps = 0.05: exactly one
    # sign change, smooth in d, and normalized agreement with the leading
    # curve away from the root (the o(eps) gap)
    params = ModelParams(Regime.PAIR_WM, 0.05, 0.0, 1.0)
    d_values = np.array([10.0, 13.0, 16.0, 20.0, 26.0, 33.0])
    c_values = np.array([solve_at_separation(params, d, profile, h=0.25,
                                             newton_tol=1e-11).c_mult for d in d_values])
    c_leading = np.array([leading_c(d, params) for d in d_values])
    signs = np.sign(c_values)
    assert np.sum(np.diff(signs) != 0) == 1
    # the sign change, interpolated linearly
    k = int(np.flatnonzero(np.diff(signs))[0])
    root = d_values[k] - c_values[k] * (d_values[k + 1] - d_values[k]) \
        / (c_values[k + 1] - c_values[k])
    assert 0.5 * predict_d(params) < root < 2.0 * predict_d(params)
    # continuity: adjacent samples differ by <= C * delta d
    dc = np.abs(np.diff(c_values))
    dd = np.diff(d_values)
    assert np.all(dc <= 0.02 * dd)
    # normalize both curves at the first sample (d = predict_d / 2)
    num_n = c_values / c_values[0]
    lead_n = c_leading / c_leading[0]
    away = np.abs(lead_n) >= 0.15
    rel = np.abs(num_n - lead_n)[away] / np.abs(lead_n)[away]
    assert np.max(rel) <= 0.30

