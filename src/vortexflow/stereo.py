"""Pointwise maps between the unit sphere and the stereographic plane.

The chart is psi = (m1 + i m2) / (1 + m3), singular at the south pole
(0, 0, -1).  Its inverse lands exactly on the unit sphere.  The scalar
nonlinearity F(u) = (1 - |u|^2) / (1 + |u|^2) * u vanishes on |u| = 1.

Everything here is pure and pointwise; grid handling lives elsewhere.
"""

import numpy as np

SOUTH_POLE_TOL = 1e-12


class SouthPoleError(ValueError):
    """Query too close to the projection pole m3 = -1."""


def project_array(m):
    """Chart psi = (m1 + i m2)/(1 + m3) on an (..., 3) array of sphere
    points.  For m3 < 0 the equivalent form (m1 + i m2)(1 - m3)/(m1^2 + m2^2)
    avoids the cancellation in 1 + m3 near the pole, so the round trip
    stays accurate out to |psi| ~ 1e6."""
    m = np.asarray(m, dtype=float)
    m3 = m[..., 2]
    if np.any(m3 <= -1.0 + SOUTH_POLE_TOL):
        raise SouthPoleError("array contains points at the chart pole")
    num = m[..., 0] + 1j * m[..., 1]
    south = m3 < 0.0
    denom = np.where(south, 1.0, 1.0 + m3)
    out = num / denom
    if np.any(south):
        r2 = np.where(south, m[..., 0] ** 2 + m[..., 1] ** 2, 1.0)
        out = np.where(south, num * (1.0 - m3) / r2, out)
    return out


def unproject_array(psi):
    """Inverse chart m1 + i m2 = 2 psi/(1+|psi|^2), m3 = (1-|psi|^2)/(1+|psi|^2);
    returns an (..., 3) array on the sphere."""
    psi = np.asarray(psi, dtype=complex)
    r2 = psi.real * psi.real + psi.imag * psi.imag
    denom = 1.0 + r2
    out = np.empty(psi.shape + (3,))
    out[..., 0] = 2.0 * psi.real / denom
    out[..., 1] = 2.0 * psi.imag / denom
    out[..., 2] = (1.0 - r2) / denom
    return out


def nonlinearity_F(u):
    """F(u) = (1 - |u|^2)/(1 + |u|^2) * u; exact zero on the unit circle."""
    u = np.asarray(u, dtype=complex)
    r2 = u.real * u.real + u.imag * u.imag
    out = (1.0 - r2) / (1.0 + r2) * u
    if out.ndim == 0:
        return complex(out)
    return out
