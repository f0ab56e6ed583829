"""Pointwise maps between the unit sphere and the stereographic plane.

The chart is psi = (m1 + i m2) / (1 + m3), singular at the south pole
(0, 0, -1).  Its inverse lands exactly on the unit sphere.  The scalar
nonlinearity F(u) = (1 - |u|^2) / (1 + |u|^2) * u vanishes on |u| = 1.

Everything here is pure and pointwise; grid handling lives elsewhere.
"""

from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12
SOUTH_POLE_TOL = 1e-12


class SouthPoleError(ValueError):
    """Query too close to the projection pole m3 = -1."""


@dataclass(frozen=True)
class SpherePoint:
    m1: float
    m2: float
    m3: float

    def __post_init__(self):
        r2 = self.m1 * self.m1 + self.m2 * self.m2 + self.m3 * self.m3
        if abs(r2 - 1.0) > UNIT_TOL:
            raise ValueError(f"point not on the unit sphere: |m|^2 - 1 = {r2 - 1.0:.3e}")


def project(m: SpherePoint) -> complex:
    """Stereographic chart psi = (m1 + i m2)/(1 + m3).

    For m3 < 0 the equivalent form (m1 + i m2)(1 - m3)/(m1^2 + m2^2)
    avoids the catastrophic cancellation in 1 + m3 near the pole, so the
    chart roundtrip stays accurate out to |psi| ~ 1e6."""
    if m.m3 <= -1.0 + SOUTH_POLE_TOL:
        raise SouthPoleError(f"m3 = {m.m3} is at the chart pole")
    if m.m3 >= 0.0:
        return (m.m1 + 1j * m.m2) / (1.0 + m.m3)
    return (m.m1 + 1j * m.m2) * (1.0 - m.m3) / (m.m1**2 + m.m2**2)


def unproject(psi: complex) -> SpherePoint:
    """Inverse chart: m1 + i m2 = 2 psi/(1+|psi|^2), m3 = (1-|psi|^2)/(1+|psi|^2)."""
    psi = complex(psi)
    if not (np.isfinite(psi.real) and np.isfinite(psi.imag)):
        raise ValueError("non-finite stereographic value")
    m = unproject_array(np.asarray(psi))
    m = m / np.linalg.norm(m)  # renormalize to keep |m| = 1 at the 1e-15 level
    return SpherePoint(float(m[0]), float(m[1]), float(m[2]))


def project_array(m):
    """Vectorized chart on an (..., 3) array of sphere points; uses the
    cancellation-free form on the southern hemisphere."""
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
    """Vectorized inverse chart; returns an (..., 3) array on the sphere."""
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
