"""Undo the rescalings and verify the assembled space-time solitons.

A solved planar field u (in the stretched frame) becomes the traveling
profile U(s~) by unstretching the traveling coordinate, then the full
solution of the original Minkowski-space problem is

    psi(t, tau, s) = U(s_1, s_N - c tau - omega t) e^{i tau},
    m = inverse stereographic projection of psi,

with the ring case evaluated at (r, s_3 - c tau - omega t),
r = sqrt(s_1^2 + s_2^2).  pde_residual checks the wave-map equation
box m + |Dm|^2 m = 0 or the Schrodinger flow
d_t m = (box m + |Dm|^2 m) x m by central differences on sampled
blocks (box m = m_tautau - sum_j m_jj, |Dm|^2 = |m_tau|^2 - sum |m_j|^2).
Blocks are evaluated on tensor grids: each (t, tau) slice is one
evaluation of U on the product of its distinct a (s_1 or r) and
traveling-coordinate values, and each stencil runs on the interior only.
pde_residual never holds a whole block: it walks the interior (t, tau)
points and keeps only a small window of the slices their stencils read,
sampling each slice once and dropping it after its last reader; the four
corner slices, which no stencil reads, are never sampled.
The cross-product orientation is pinned by the operator convention of
the planar solve (the S2/S4 drift term): a field with S2[u] = 0
assembled as U(.., s_N - c tau - omega t) e^{i tau} satisfies exactly
this form, verified by the refinement studies in the test suite.
"""

import math

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .ansatz import ModelParams
from .fields import ComplexField
from .diagnostics import full_plane_data
from .stereo import unproject_array

RESIDUAL_NT = 5              # time samples of a Schrodinger-flow residual block
RESIDUAL_CORE_MARGIN = 2.0   # excluded core radius, in cells of max(ds, h)


class UnscaledField:
    """Evaluator U(s~) = u(s^), with the traveling coordinate stretched
    by 1/sqrt(1-c^2) before sampling the stored quarter-grid field.

    The field is interpolated by a quintic spline built on the reflected
    plane, which gives the C^4 smoothness that finite-difference residual
    blocks need."""

    def __init__(self, u: ComplexField, params: ModelParams):
        c = params.c
        self.u = u
        self.stretch = 1.0 / math.sqrt(1.0 - c * c)
        x1, x2, ext = full_plane_data(u)
        self._sre = RectBivariateSpline(x1, x2, ext.real, kx=5, ky=5, s=0)
        self._sim = RectBivariateSpline(x1, x2, ext.imag, kx=5, ky=5, s=0)
        self._lim = (x1[0], x1[-1], x2[0], x2[-1])

    def _stretched(self, a, b):
        """(a, b / sqrt(1-c^2)), checked against the spline's domain."""
        a = np.asarray(a, dtype=float)
        bh = np.asarray(b, dtype=float) * self.stretch
        lo1, hi1, lo2, hi2 = self._lim
        if np.any(a < lo1) or np.any(a > hi1) or np.any(bh < lo2) or np.any(bh > hi2):
            raise ValueError("query outside the covered domain")
        return a, bh

    def __call__(self, a, b):
        """Evaluate at s~ = (a, b); b is the traveling coordinate."""
        a, bh = self._stretched(a, b)
        return self._sre(a, bh, grid=False) + 1j * self._sim(a, bh, grid=False)

    def on_grid(self, a_axis, b_axis):
        """U on the tensor product of two increasing axes, shape
        (len(a_axis), len(b_axis)): the spline computes each axis's
        B-spline basis once instead of once per point."""
        a, bh = self._stretched(a_axis, b_axis)
        return self._sre(a, bh) + 1j * self._sim(a, bh)


def unscale(u: ComplexField, params: ModelParams, mode="spline") -> UnscaledField:
    """Evaluator of the traveling profile in unstretched coordinates.
    `mode` accepts only "spline", the one interpolation."""
    if mode != "spline":
        raise ValueError(f"unknown interpolation mode {mode!r}; only 'spline' exists")
    return UnscaledField(u, params)


def sample_block(U: UnscaledField, params: ModelParams, t_axis, tau_axis, s_axes):
    """Sphere-valued samples on the tensor block t x tau x space.

    Each (t, tau) slice is one tensor-grid evaluation of U over the
    distinct values of a (s1 for a pair, the radius hypot(s1, s2) for a
    ring) and of the traveling coordinate; the pointwise sphere map is
    applied on that grid, and m is gathered back onto the block.

    Returns m with shape (nt, ntau, *spatial, 3)."""
    t_axis = np.atleast_1d(np.asarray(t_axis, dtype=float))
    tau_axis = np.atleast_1d(np.asarray(tau_axis, dtype=float))
    s_axes = [np.asarray(ax, dtype=float) for ax in s_axes]
    spatial_shape = tuple(ax.size for ax in s_axes)
    if len(s_axes) == 3:
        a = np.hypot(s_axes[0][:, None], s_axes[1][None, :]).ravel()
    else:
        a = s_axes[0]
    a_axis, a_inv = np.unique(a, return_inverse=True)
    m = np.empty((t_axis.size, tau_axis.size) + spatial_shape + (3,))
    for it, t in enumerate(t_axis):
        for jt, tau in enumerate(tau_axis):
            shift = params.c * tau + params.omega * t
            phase = complex(math.cos(tau), math.sin(tau))
            b_axis, b_inv = np.unique(s_axes[-1] - shift, return_inverse=True)
            m_grid = unproject_array(U.on_grid(a_axis, b_axis) * phase)
            m[it, jt] = m_grid.take(a_inv, axis=0).take(b_inv, axis=1).reshape(
                spatial_shape + (3,))
    return m


def _interior(m, axis=0, k=0):
    """The spatial interior of one (t, tau) slice m[s..., 3] (one cell
    off each end of every spatial axis), displaced by k cells along
    spatial `axis`: the operands of a stencil centred on the interior."""
    sl = [slice(1, -1)] * (m.ndim - 1)
    sl[axis] = slice(1 + k, m.shape[axis] - 1 + k)
    return m[tuple(sl)]


def _sq3(x):
    """|x|^2 over the length-3 last axis, summed left to right: the same
    bits as (x**2).sum(-1), without numpy's slow small-axis reduce."""
    return x[..., 0]**2 + x[..., 1]**2 + x[..., 2]**2


def _slice_residual(ds, m_lo, m, m_hi, m_prev=None, m_next=None):
    """|R| on the spatial interior of one interior (t, tau) slice m, from
    its tau neighbours m_lo, m_hi and, for a Schrodinger flow, its t
    neighbours m_prev, m_next (None for a wave map).  Every step is
    elementwise, in the order a stencil over the whole block takes."""
    mc = _interior(m)
    box = (_interior(m_hi) - 2.0 * mc + _interior(m_lo)) / ds**2
    for k in range(m.ndim - 1):
        box = box - (_interior(m, k, 1) - 2.0 * mc + _interior(m, k, -1)) / ds**2
    dm2 = _sq3((_interior(m_hi) - _interior(m_lo)) / (2.0 * ds))
    for k in range(m.ndim - 1):
        dm2 = dm2 - _sq3((_interior(m, k, 1) - _interior(m, k, -1)) / (2.0 * ds))
    core_term = box + dm2[..., None] * mc
    if m_prev is None:
        R = core_term
    else:
        R = (_interior(m_next) - _interior(m_prev)) / (2.0 * ds) - np.cross(core_term, mc)
    return np.sqrt(_sq3(R))


def pde_residual(params: ModelParams, U: UnscaledField, center, ds,
                 nspace=12, ntau=5, t0=0.0, tau0=0.0):
    """L2 and sup residual of the original equation on a sampled block.

    center: spatial window center ((s1, s2) pair / (s1, s2, s3) ring);
    the block has spacing ds in space, tau and t (RESIDUAL_NT times,
    one for a wave map), and ds must resolve the stored field (<= h).
    One cell at the block edge is excluded, plus RESIDUAL_CORE_MARGIN
    cells of the coarser of (field spacing, sample spacing) around the
    traveling vortex core, so the excluded disc stays fixed under
    sampling refinement.

    The block is never held whole.  Its interior (t, tau) points are
    visited in C order; each reads the slices (t, tau) and (t, tau +- 1)
    and, for a Schrodinger flow, (t +- 1, tau).  A slice is sampled
    (one sample_block call) when a point first reads it and dropped once
    its last reader is done, so at most about two rows of slices are
    live, and the four corner slices, which no stencil reads, are never
    sampled.  Each point's residual is the same elementwise arithmetic
    a full-block stencil does, so the result does not depend on the
    streaming."""
    h = min(U.u.spec.h1, U.u.spec.h2)
    if ds > h + 1e-12:
        raise ValueError("sample spacings must resolve the field (<= h)")
    wave = params.omega == 0.0 and params.regime.value.endswith("wm")
    ring = len(center) == 3
    if np.ndim(nspace) == 0:
        nspace = (nspace,) * len(center)
    if len(nspace) != len(center):
        raise ValueError(f"nspace has {len(nspace)} entries for a {len(center)}-D center")
    for name, n in [("tau", ntau)] + [(f"s{k + 1}", n) for k, n in enumerate(nspace)]:
        if n < 3:
            raise ValueError(f"{name} axis has {n} samples; its central differences "
                             f"need at least 3")

    tau_axis = tau0 + ds * (np.arange(ntau) - (ntau - 1) / 2)
    t_axis = (np.array([t0]) if wave
              else t0 + ds * (np.arange(RESIDUAL_NT) - (RESIDUAL_NT - 1) / 2))
    s_axes = [c + ds * (np.arange(n) - (n - 1) / 2) for c, n in zip(center, nspace)]
    sdim = len(s_axes)

    # mask out samples near the traveling core(s)
    tau_int = tau_axis[1:-1]
    t_int = t_axis if wave else t_axis[1:-1]
    s_int = [ax[1:-1] for ax in s_axes]
    shift = params.c * tau_int[None, :] + params.omega * t_int[:, None]
    excl = RESIDUAL_CORE_MARGIN * max(ds, h)
    if ring:
        r_int = np.hypot(s_int[0][:, None], s_int[1][None, :])
        dist = np.hypot(
            (r_int - params.d)[None, None, :, :, None],
            (s_int[2][None, None, None, None, :] - shift[:, :, None, None, None]),
        )
    else:
        dist = np.minimum(
            np.hypot((s_int[0] - params.d)[None, None, :, None],
                     s_int[1][None, None, None, :] - shift[:, :, None, None]),
            np.hypot((s_int[0] + params.d)[None, None, :, None],
                     s_int[1][None, None, None, :] - shift[:, :, None, None]),
        )
    keep = dist > excl
    if not keep.any():
        raise ValueError("core margin excluded every sample")

    # interior points (indices into t_axis, tau_axis) and the slices each reads
    points = [(it, jt) for it in (range(1) if wave else range(1, t_axis.size - 1))
              for jt in range(1, ntau - 1)]

    def stencil(it, jt):
        taus = [(it, jt - 1), (it, jt), (it, jt + 1)]
        return taus if wave else taus + [(it - 1, jt), (it + 1, jt)]

    last_reader = {key: n for n, p in enumerate(points) for key in stencil(*p)}
    window = {}

    def slice_at(key):
        if key not in window:
            it, jt = key
            window[key] = sample_block(U, params, t_axis[it:it + 1],
                                       tau_axis[jt:jt + 1], s_axes)[0, 0]
        return window[key]

    rnorm = np.empty((t_int.size, tau_int.size) + tuple(ax.size for ax in s_int))
    for n, (it, jt) in enumerate(points):
        rnorm[divmod(n, tau_int.size)] = _slice_residual(
            ds, *(slice_at(key) for key in stencil(it, jt)))
        for key in stencil(it, jt):
            if last_reader[key] == n:
                del window[key]

    kept = rnorm[keep]
    cell = ds * ds**sdim * (1.0 if wave else ds)
    return {
        "l2": float(math.sqrt((kept**2).sum() * cell)),
        "sup": float(kept.max()),
        "n_samples": int(kept.size),
    }
