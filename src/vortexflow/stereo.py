"""Pointwise maps from the stereographic plane.

The pipeline needs the chart psi = (m1 + i m2) / (1 + m3) only one way:
its inverse, from the plane to the unit sphere, which lands exactly on
the sphere.  The chart itself is the tests' reference for the round
trip (tests/test_stereo.py).  The scalar nonlinearity
F(u) = (1 - |u|^2) / (1 + |u|^2) * u vanishes on |u| = 1.

Everything here is pure and pointwise; grid handling lives elsewhere.
"""

import numpy as np


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
    return (1.0 - r2) / (1.0 + r2) * u
