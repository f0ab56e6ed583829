"""Leading-order reduced equation c(d), its root prediction, and the
numeric multiplier curve.

Pair:  c(d) = c0 [ -pi/(4d) + pi eps/4 - eps kappa pi/2 ] + o(eps),
Ring:  c(d) = c0 pi [ -(log d)/(8d) + ((1-2 kappa)/4) eps |log eps| ] + O(eps),

with c0 an unknown nonzero normalization: only the zero set is
contractual, so leading_c uses c0 = 1 and curve comparisons fix the
overall sign by matching the numeric curve at a reference separation.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .ansatz import ModelParams
from .profile import VortexProfile
from .solver import NonConvergenceError, balance_x, solve_at_separation


@dataclass(frozen=True)
class ReducedCurve:
    d_values: np.ndarray
    c_values: np.ndarray      # numeric multipliers from the projected solves
    c_leading: np.ndarray     # leading-order values, sign-matched
    complete: bool = True

    def __post_init__(self):
        if not (len(self.d_values) == len(self.c_values) == len(self.c_leading)):
            raise ValueError("curve arrays must have equal length")
        if np.any(np.diff(self.d_values) <= 0):
            raise ValueError("d_values must be strictly increasing")

    def empirical_root(self):
        """d* from the sign change of the numeric curve (linear interpolation)."""
        c = self.c_values
        for k in range(len(c) - 1):
            if np.isfinite(c[k]) and np.isfinite(c[k + 1]) and c[k] * c[k + 1] < 0:
                d0, d1 = self.d_values[k], self.d_values[k + 1]
                return float(d0 - c[k] * (d1 - d0) / (c[k + 1] - c[k]))
        raise ValueError("no sign change on the sampled curve")


def leading_c(d, params: ModelParams) -> float:
    """Leading-order reduced multiplier with the c0 = 1 convention; it is
    affine in X(d) = `balance_x(d, ring)`."""
    if d <= 1.0:
        raise ValueError("reduced equation is only meaningful for d > 1")
    eps, kappa = params.eps, params.kappa
    x = balance_x(d, params.is_ring)
    if params.is_ring:
        return math.pi * (-x / 8.0 + (1.0 - 2.0 * kappa) / 4.0 * eps * abs(math.log(eps)))
    return -math.pi / 4.0 * x + math.pi * eps / 4.0 - eps * kappa * math.pi / 2.0


def predict_d(params: ModelParams) -> float:
    """Root of the leading-order balance: pairs 1/((1-2 kappa) eps);
    rings the solution of (log d)/d = 2 (1-2 kappa) eps |log eps| on the
    decreasing branch d > e."""
    f = (1.0 - 2.0 * params.kappa)
    if f <= 0.0:
        raise ValueError("needs 1 - 2 kappa > 0")
    if not params.is_ring:
        return 1.0 / (f * params.eps)
    rhs = 2.0 * f * params.eps * abs(math.log(params.eps))
    if rhs >= 1.0 / math.e:
        raise ValueError(
            f"(log d)/d = {rhs:.4f} >= 1/e has no root on the decreasing branch")
    d_hi = 2.0 * math.e
    while balance_x(d_hi, True) > rhs:
        d_hi *= 2.0
    return float(brentq(lambda d: balance_x(d, True) - rhs, math.e, d_hi, xtol=1e-12))


def numeric_c_curve(params: ModelParams, d_list, profile: VortexProfile, h=0.25,
                    **opts) -> ReducedCurve:
    """Numeric multiplier c(d) from projected solves at each separation,
    next to the sign-matched leading-order curve."""
    d_arr = np.asarray(sorted(d_list), dtype=float)
    c_num = np.empty_like(d_arr)
    complete = True
    for k, d in enumerate(d_arr):
        try:
            c_num[k] = solve_at_separation(params, d, profile, h, **opts).c_mult
        except NonConvergenceError:
            c_num[k] = np.nan
            complete = False
    c_lead = np.array([leading_c(d, params) for d in d_arr])
    # sign convention: match the numeric curve at d closest to predict_d / 2
    ref = int(np.argmin(np.abs(d_arr - predict_d(params) / 2.0)))
    if np.isfinite(c_num[ref]) and c_num[ref] != 0 and c_lead[ref] != 0:
        if math.copysign(1.0, c_num[ref]) != math.copysign(1.0, c_lead[ref]):
            c_lead = -c_lead
    return ReducedCurve(d_arr, c_num, c_lead, complete)
