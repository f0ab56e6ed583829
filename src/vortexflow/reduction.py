"""Leading-order reduced equation c(d) and its root prediction.

Pair:  c(d) = c0 [ -pi/(4d) + pi eps/4 - eps kappa pi/2 ] + o(eps),
Ring:  c(d) = c0 pi [ -(log d)/(8d) + ((1-2 kappa)/4) eps |log eps| ] + O(eps),

with c0 an unknown nonzero normalization: only the zero set is
contractual, so leading_c uses c0 = 1.  The numeric root is
`solver.solve_balanced`'s.
"""

import math

from scipy.optimize import brentq

from .ansatz import ModelParams
from .solver import balance_x


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

