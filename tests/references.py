"""Reference forms the tests check the library against.  No pipeline
step runs them: each is the plain, pointwise or finite-difference form
of something the library computes another way (a lattice reflection, an
analytic Jacobian, a tensor-grid spline evaluation)."""

import numpy as np
from scipy.interpolate import BSpline

from vortexflow.fields import ComplexField
from vortexflow.reconstruct import SPLINE_K
from vortexflow.solver import apply_S


def linearize_apply(u, v, params):
    """Directional derivative (S[u + d v] - S[u - d v]) / (2 d) of the
    operator of `apply_S(., params)`: S0 when params is None."""
    vn = float(np.abs(v.data).max())
    if vn == 0.0:
        raise ValueError("zero direction")
    un = float(np.abs(u.data).max())
    delta = 1e-6 * max(1.0, un) / max(1e-12, vn)
    up = ComplexField(u.spec, u.data + delta * v.data)
    um = ComplexField(u.spec, u.data - delta * v.data)
    diff = (apply_S(up, params).data - apply_S(um, params).data) / (2.0 * delta)
    return ComplexField(u.spec, diff)


def reflect_full(f, x1, x2):
    """The full-plane extension of the stored field f at (x1, x2) by the
    parity table, bilinear off the lattice: the reference for
    `fields.reflect`."""
    spec = f.spec
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    scalar = x1.ndim == 0 and x2.ndim == 0
    x1, x2 = np.atleast_1d(x1), np.atleast_1d(x2)
    if np.any(np.abs(x1) > spec.l1 + 1e-12) or np.any(np.abs(x2) > spec.l2 + 1e-12):
        raise ValueError("query outside the covered domain")
    a1, a2 = np.abs(x1), np.abs(x2)
    i = np.clip((a1 / spec.h1).astype(int), 0, spec.n1 - 2)
    j = np.clip((a2 / spec.h2).astype(int), 0, spec.n2 - 2)
    t = a1 / spec.h1 - i
    s = a2 / spec.h2 - j
    d = f.data
    val = ((1 - t) * (1 - s) * d[i, j] + t * (1 - s) * d[i + 1, j]
           + (1 - t) * s * d[i, j + 1] + t * s * d[i + 1, j + 1])
    if isinstance(f, ComplexField):
        val = np.where(x2 < 0, np.conj(val), val)
    elif f.x2_parity == "odd":
        val = np.where(x2 < 0, -val, val)
    return val[0] if scalar else val


def unscaled_at(U, a, b):
    """The `reconstruct.UnscaledField` U at the scattered points s~ = (a, b),
    b the traveling coordinate: the same two contractions as `U.on_grid`
    (one column per distinct a), with the traveling coordinate's taps
    summed in BSpline's order, so a point has the bits of its on_grid
    value."""
    a, bh = np.broadcast_arrays(*U._stretched(a, b))
    a_axis, a_inv = np.unique(a, return_inverse=True)
    coef_b = U._contract_a(a_axis)
    basis = BSpline.design_matrix(bh.ravel(), U._tb, SPLINE_K)
    taps = basis.indices.reshape(-1, SPLINE_K + 1)
    weights = basis.data.reshape(-1, SPLINE_K + 1)
    cols = a_inv.ravel()
    out = np.zeros(bh.size, dtype=complex)
    for k in range(SPLINE_K + 1):
        out = out + coef_b[taps[:, k], cols] * weights[:, k]
    return out.reshape(a.shape)
