"""Degree-one vortex core profile.

The radial profile rho(ell) of the standard degree-one vortex satisfies

    rho'' + rho'/ell - 2 rho (rho')^2/(1+rho^2)
        + (1 - 1/ell^2) * (1-rho^2)/(1+rho^2) * rho = 0,

with rho(0) = 0, rho -> 1, and the far-field law
rho = 1 - c0 * exp(-ell)/sqrt(ell).

Strategy: a damped Newton iteration on the second-order collocation
system over a uniform knot grid, started from the fixed monotone guess
ell/sqrt(1 + ell^2).  Collocation imposes both boundary conditions at
once, so the unstable exp(+ell) mode that defeats one-sided shooting out
to ell ~ 30 cannot grow, and Newton needs no shot for a starting slope
(Ascher, Mattheij & Russell, Numerical Solution of Boundary Value
Problems for ODEs, SIAM 1995).  The start does not change the discrete
solution Newton reaches: against Newton started from a shot of an RK4
bisection on the origin slope (ell_max in {20, 25, 30}, step 1e-2 to
2e-4, tol 1e-11 to 1e-10), the knots agree to max |d rho| = 3.4e-12
(1.1e-16 at the constants below).  Newton aims at NEWTON_TARGET (a
looser target leaves the far tail, where 1 - rho ~ 1e-13, unconverged
and above 1), and stops early only where it stalls at the
evaluation-noise floor, the rounding of the second difference, about
2e-16 / STEP^2 (2e-10); ODE_TOL bounds the accepted residual (10
ODE_TOL).

Every soliton is built from this one profile, so its domain, knot
spacing and tolerance are constants (ELL_MAX, STEP, ODE_TOL), read when
`solve_profile` is called.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

ELL0 = 1e-3
NEWTON_TARGET = 1e-12  # max-norm collocation residual, near the noise floor
TAIL_FIT_WINDOW = (8.0, 14.0)
# the knot range [ELL0, ELL_MAX]: past ell ~ 30, 1 - rho(ELL_MAX) is ~100
# ulps and the (0, 1) check of `solve_profile` passes or fails by rounding
ELL_MAX = 30.0
STEP = 1e-3  # knot spacing
ODE_TOL = 1e-10  # the accepted residual is at most 10 ODE_TOL


@dataclass(frozen=True)
class VortexProfile:
    knots: np.ndarray      # increasing radii, knots[0] = ELL0
    rho: np.ndarray
    drho: np.ndarray
    slope_a: float
    tail_c0: float
    _rho_spline: CubicSpline = field(repr=False, compare=False, default=None)
    _drho_spline: CubicSpline = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        for name in ("knots", "rho", "drho"):
            getattr(self, name).setflags(write=False)
        object.__setattr__(self, "_rho_spline", CubicSpline(self.knots, self.rho))
        object.__setattr__(self, "_drho_spline", CubicSpline(self.knots, self.drho))


def _interior_residual(ell, rho, h):
    """Central-difference residual of the profile equation at the
    interior knots of spacing h."""
    # nested second difference keeps cancellation error at the 1e-15 level
    dplus = rho[2:] - rho[1:-1]
    dminus = rho[1:-1] - rho[:-2]
    d2 = (dplus - dminus) / (h * h)
    d1 = (dplus + dminus) / (2.0 * h)
    ell, rho = ell[1:-1], rho[1:-1]
    r2 = rho * rho
    onep = 1.0 + r2
    return d2 + d1 / ell - 2.0 * rho * d1 * d1 / onep + (1.0 - 1.0 / ell**2) * (1.0 - r2) / onep * rho


def _collocation_residual(ell, rho, h, slope_bc_coef, tail_bc_coef):
    R = np.empty(ell.size)
    R[1:-1] = _interior_residual(ell, rho, h)
    R[0] = (-3.0 * rho[0] + 4.0 * rho[1] - rho[2]) / (2.0 * h) - slope_bc_coef * rho[0]
    R[-1] = (3.0 * rho[-1] - 4.0 * rho[-2] + rho[-3]) / (2.0 * h) - (1.0 - rho[-1]) * tail_bc_coef
    return R


def _collocation_jacobian(ell, rho, h, slope_bc_coef, tail_bc_coef):
    n = ell.size
    d1 = (rho[2:] - rho[:-2]) / (2.0 * h)
    r = rho[1:-1]
    r2 = r * r
    onep = 1.0 + r2
    lo = np.empty(n)   # coupling to rho[i-1], aligned with row i
    di = np.empty(n)
    up = np.empty(n)   # coupling to rho[i+1]
    off = 1.0 / (2.0 * h) * (1.0 / ell[1:-1] - 4.0 * r * d1 / onep)
    up[1:-1] = 1.0 / h**2 + off
    lo[1:-1] = 1.0 / h**2 - off
    di[1:-1] = (
        -2.0 / h**2
        - 2.0 * d1 * d1 * (1.0 - r2) / onep**2
        + (1.0 - 1.0 / ell[1:-1] ** 2) * (1.0 - 4.0 * r2 - r2 * r2) / onep**2
    )
    inner = np.arange(1, n - 1)
    # boundary rows reach two neighbors (one-sided first derivatives)
    rows = np.concatenate([np.tile(inner, 3), [0, 0, 0, n - 1, n - 1, n - 1]])
    cols = np.concatenate([inner - 1, inner, inner + 1, [0, 1, 2, n - 1, n - 2, n - 3]])
    vals = np.concatenate([
        lo[1:-1], di[1:-1], up[1:-1],
        [-3.0 / (2.0 * h) - slope_bc_coef, 2.0 / h, -1.0 / (2.0 * h),
         3.0 / (2.0 * h) + tail_bc_coef, -2.0 / h, 1.0 / (2.0 * h)],
    ])
    return csc_matrix((vals, (rows, cols)), shape=(n, n))


def _tail_fit(ell, rho):
    lo, hi = TAIL_FIT_WINDOW
    sel = (ell >= lo) & (ell <= hi) & (rho < 1.0)
    y = np.log(1.0 - rho[sel]) + 0.5 * np.log(ell[sel])
    slope, intercept = np.polyfit(ell[sel], y, 1)
    return float(slope), float(math.exp(intercept))


def solve_profile() -> VortexProfile:
    """Solve the core profile ODE on [ELL0, ELL_MAX] with knot spacing STEP."""
    ell_max, step = ELL_MAX, STEP
    n = int(round((ell_max - ELL0) / step)) + 1
    ell = ELL0 + step * np.arange(n)

    slope_bc = 1.0 / ELL0 - ELL0 / 4.0        # rho'/rho from the series a*ell*(1 - ell^2/8)
    tail_bc = 1.0 + 1.0 / (2.0 * ell_max)     # rho' = (1 - rho)(1 + 1/(2 ell)) far out
    rho = ell / np.sqrt(1.0 + ell * ell)      # fixed monotone start in (0, 1)
    res = _collocation_residual(ell, rho, step, slope_bc, tail_bc)
    best = np.max(np.abs(res))
    for _ in range(30):
        if best <= NEWTON_TARGET:
            break
        J = _collocation_jacobian(ell, rho, step, slope_bc, tail_bc)
        delta = splu(J).solve(-res)
        lam = 1.0
        for _ in range(10):
            cand = rho + lam * delta
            cres = _collocation_residual(ell, cand, step, slope_bc, tail_bc)
            cn = np.max(np.abs(cres))
            if cn < best:
                break
            lam *= 0.5
        if cn >= best:
            break  # stalled at the evaluation-noise floor
        rho, res, best = cand, cres, cn

    drho = np.empty(n)
    drho[1:-1] = (rho[2:] - rho[:-2]) / (2.0 * step)
    drho[0] = (-3.0 * rho[0] + 4.0 * rho[1] - rho[2]) / (2.0 * step)
    drho[-1] = (3.0 * rho[-1] - 4.0 * rho[-2] + rho[-3]) / (2.0 * step)
    # central differences drown in roundoff once 1 - rho ~ 1e-9; switch to the tail law
    far = (1.0 - rho) < 1e-9
    drho[far] = (1.0 - rho[far]) * (1.0 + 0.5 / ell[far])

    slope_fit, c0 = _tail_fit(ell, rho)
    prof = VortexProfile(
        knots=ell, rho=rho.copy(), drho=drho, slope_a=float(rho[0] / ELL0),
        tail_c0=c0,
    )
    resid = np.max(np.abs(ode_residual(prof)))
    if resid > 10.0 * ODE_TOL:
        raise RuntimeError(f"collocation residual {resid:.3e} exceeds 10 ODE_TOL")
    if not (np.all(prof.rho > 0.0) and np.all(prof.rho < 1.0) and np.all(prof.drho > 0.0)):
        raise RuntimeError("profile is not strictly monotone inside (0, 1)")
    return prof


def ode_residual(p: VortexProfile) -> np.ndarray:
    """Discrete residual of the profile equation at interior knots."""
    return _interior_residual(p.knots, p.rho, p.knots[1] - p.knots[0])


def _on_knots(p: VortexProfile, ell, spline, samples):
    """The cubic `spline` of `samples` at the points ell of the knot range;
    queries landing exactly on knots reproduce the stored samples."""
    out = spline(ell)
    h = p.knots[1] - p.knots[0]
    k = np.clip(np.rint((ell - p.knots[0]) / h).astype(int), 0, p.knots.size - 1)
    hit = ell == p.knots[k]
    out[hit] = samples[k[hit]]
    return out


def _tail(p: VortexProfile, ell):
    """1 - rho by the far-field law, beyond the last knot."""
    return p.tail_c0 * np.exp(-ell) / np.sqrt(ell)


def eval_rho(p: VortexProfile, ell):
    """rho alone, the first value of `eval_profile`, as an array: series
    below the first knot, cubic interpolation on the knot range,
    far-field law beyond."""
    ell = np.atleast_1d(np.asarray(ell, dtype=float))
    rho = np.empty_like(ell)
    lo = ell < p.knots[0]
    hi = ell > p.knots[-1]
    mid = ~(lo | hi)
    rho[lo] = p.slope_a * ell[lo]
    if mid.any():
        rho[mid] = _on_knots(p, ell[mid], p._rho_spline, p.rho)
    if hi.any():
        rho[hi] = 1.0 - _tail(p, ell[hi])
    return rho


def eval_profile(p: VortexProfile, ell):
    """Evaluate (rho, rho') anywhere: rho by `eval_rho`, and rho' by the
    derivative of each of its pieces (the cubic interpolation of the
    stored rho' on the knot range)."""
    ell = np.asarray(ell, dtype=float)
    scalar = ell.ndim == 0
    ell = np.atleast_1d(ell)
    rho = eval_rho(p, ell)
    drho = np.empty_like(ell)
    lo = ell < p.knots[0]
    hi = ell > p.knots[-1]
    mid = ~(lo | hi)
    drho[lo] = p.slope_a
    if mid.any():
        drho[mid] = _on_knots(p, ell[mid], p._drho_spline, p.drho)
    if hi.any():
        drho[hi] = _tail(p, ell[hi]) * (1.0 + 0.5 / ell[hi])
    if scalar:
        return float(rho[0]), float(drho[0])
    return rho, drho


def profile_integrals(p: VortexProfile):
    """Radial integrals I1 = int rho rho'/(1+rho^2)^2 and
    I2 = int (1-rho^2) rho rho'/(1+rho^2)^3 over (0, inf).

    Composite trapezoid over the knots plus closed-form head/tail
    remainders obtained from the t = rho^2 antiderivatives."""
    ell, rho, drho = p.knots, p.rho, p.drho
    onep = 1.0 + rho * rho
    f1 = rho * drho / onep**2
    f2 = (1.0 - rho * rho) * rho * drho / onep**3
    I1 = float(np.trapezoid(f1, ell))
    I2 = float(np.trapezoid(f2, ell))

    def head1(t):
        return -0.5 / (1.0 + t)

    def head2(t):
        return 0.5 * t / (1.0 + t) ** 2

    t0, tL = rho[0] ** 2, rho[-1] ** 2
    I1 += head1(t0) - head1(0.0)
    I2 += head2(t0) - head2(0.0)
    I1 += head1(1.0) - head1(tL)
    I2 += head2(1.0) - head2(tL)
    return I1, I2
