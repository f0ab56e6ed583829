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
U's tensor-product spline is evaluated separably (de Boor, A Practical
Guide to Splines, ch. XVII): the slices of a block share their a-axis
and differ only by the shift of the traveling coordinate, so the spline
is contracted along a once per block, and each slice is then one complex
1-D spline evaluation along the traveling coordinate.
pde_residual never holds a whole block, nor a whole slice: it goes over
pieces of rows of the first spatial axis, and inside each piece walks
the interior (t, tau) points, keeping only a small window of the slice
pieces their stencils read.  A slice is keyed by the exact values it is
sampled from, its shift c tau + omega t and its tau, so each distinct
slice is sampled once per piece of rows (plus one halo row on each
side) and dropped after its last reader in that piece; the four corner
slices, which no stencil reads, are never sampled.  Points whose
stencils read the same keys share |R|.  At omega = 0 (a Schrodinger
flow at kappa = 0) the block does not change in t, so a 5 x 5 block
samples its 5 tau slices and computes |R| at 3 of its 9 interior points.
The cross-product orientation is pinned by the operator convention of
the planar solve (the S2/S4 drift term): a field with S2[u] = 0
assembled as U(.., s_N - c tau - omega t) e^{i tau} satisfies exactly
this form, verified by the refinement studies in the test suite.
"""

import math

import numpy as np
from scipy.interpolate import BSpline, RectBivariateSpline

from .ansatz import ModelParams
from .fields import ComplexField, full_plane_data
from .solver import _check_grid
from .stereo import unproject_array

RESIDUAL_NT = 5              # time samples of a Schrodinger-flow residual block
RESIDUAL_CORE_MARGIN = 2.0   # excluded core radius, in cells of max(ds, h)
RESIDUAL_PIECE = 8192        # interior points of one slice per piece of rows
SPLINE_K = 5                 # degree of the field's spline on both axes


class UnscaledField:
    """Evaluator U(s~) = u(s^) on tensor grids (`on_grid`), with the
    traveling coordinate stretched by 1/sqrt(1-c^2) before sampling the
    stored quarter-grid field.

    The field is interpolated by a quintic spline built on the reflected
    plane, which gives the C^4 smoothness that finite-difference residual
    blocks need.  FITPACK fits the real and imaginary parts on the same
    knots; the evaluator keeps their coefficients as one complex array C
    and evaluates the tensor product in two contractions with
    scipy.interpolate.BSpline: C along the a-axis (the first argument),
    then the result along the stretched traveling coordinate.  A field
    whose grid has the other symmetry than params' regime is refused
    with a ValueError."""

    def __init__(self, u: ComplexField, params: ModelParams):
        _check_grid(u, params)
        c = params.c
        self.u = u
        self.stretch = 1.0 / math.sqrt(1.0 - c * c)
        x1, x2, ext = full_plane_data(u)
        # with s = 0 the knots depend only on the axes, so both parts share them
        fit = dict(kx=SPLINE_K, ky=SPLINE_K, s=0)
        self._ta, self._tb, c_re = RectBivariateSpline(x1, x2, ext.real, **fit).tck
        c_im = RectBivariateSpline(x1, x2, ext.imag, **fit).tck[2]
        self._coef = (c_re + 1j * c_im).reshape(self._ta.size - SPLINE_K - 1, -1)
        self._lim = (x1[0], x1[-1], x2[0], x2[-1])
        self._kept = None   # (a_axis, its contraction) of the last on_grid call

    def _stretched(self, a, b):
        """(a, b / sqrt(1-c^2)), checked against the spline's domain."""
        a = np.asarray(a, dtype=float)
        bh = np.asarray(b, dtype=float) * self.stretch
        lo1, hi1, lo2, hi2 = self._lim
        if np.any(a < lo1) or np.any(a > hi1) or np.any(bh < lo2) or np.any(bh > hi2):
            raise ValueError("query outside the covered domain")
        return a, bh

    def _contract_a(self, a_axis):
        """C contracted along the a-axis at each of a_axis: the traveling
        coordinate's spline coefficients of U(a, .), one column per a,
        shape (n_b coefficients, len(a_axis))."""
        rows = BSpline.construct_fast(self._ta, self._coef, SPLINE_K)(a_axis)
        return np.ascontiguousarray(rows.T)

    def on_grid(self, a_axis, b_axis):
        """U on the tensor product of an increasing a-axis and any
        traveling axis, shape (len(a_axis), len(b_axis)).  The a-axis
        contraction is kept, so the slices of a block, which share their
        a-axis, contract it once; each call is one complex 1-D spline
        evaluation along the traveling coordinate."""
        a, bh = self._stretched(a_axis, b_axis)
        if self._kept is None or not np.array_equal(self._kept[0], a):
            self._kept = (a.copy(), self._contract_a(a))
        return BSpline.construct_fast(self._tb, self._kept[1], SPLINE_K)(bh).T


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
    ring) and the traveling coordinate's values as given; the pointwise
    sphere map is applied on that grid, and m is gathered back onto the
    block along a where its values are not already sorted and distinct.

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
    a_gather = not np.array_equal(a_axis, a)
    shape = (t_axis.size, tau_axis.size) + spatial_shape + (3,)
    m = None   # allocated once the first slice's temporaries are freed
    for it, t in enumerate(t_axis):
        for jt, tau in enumerate(tau_axis):
            shift = params.c * tau + params.omega * t
            phase = complex(math.cos(tau), math.sin(tau))
            b = s_axes[-1] - shift
            m_grid = unproject_array(U.on_grid(a_axis, b) * phase)
            if m is None:
                m = np.empty(shape)
            m_slice = m[it, jt].reshape(a.size, b.size, 3)
            if a_gather:
                np.take(m_grid, a_inv, axis=0, out=m_slice, mode="clip")
            else:
                m_slice[...] = m_grid
    return np.empty(shape) if m is None else m


def _interior(m, axis=0, k=0):
    """The spatial interior of one (t, tau) slice m[s..., 3] (one cell
    off each end of every spatial axis), displaced by k cells along
    spatial `axis`: the operands of a stencil centred on the interior."""
    sl = [slice(1, -1)] * (m.ndim - 1)
    sl[axis] = slice(1 + k, m.shape[axis] - 1 + k)
    return m[tuple(sl)]


def _residual_buffers(shape):
    """Work arrays of _slice_residual for an interior piece of at most
    `shape`: three (..., 3) vectors and three scalars."""
    return tuple(np.empty(shape + (3,)) for _ in range(3)) + tuple(
        np.empty(shape) for _ in range(3))


def _sq3(x, out, tmp):
    """|x|^2 over the length-3 last axis into `out`, summed left to right
    through the work array `tmp`: the same bits as (x**2).sum(-1),
    without numpy's slow small-axis reduce or its temporaries."""
    np.multiply(x[..., 0], x[..., 0], out=out)
    np.multiply(x[..., 1], x[..., 1], out=tmp)
    np.add(out, tmp, out=out)
    np.multiply(x[..., 2], x[..., 2], out=tmp)
    np.add(out, tmp, out=out)
    return out


def _slice_residual(ds, bufs, out, m_lo, m, m_hi, m_prev=None, m_next=None):
    """|R| into `out` on the spatial interior of one interior (t, tau)
    slice m, from its tau neighbours m_lo, m_hi and, for a Schrodinger
    flow, its t neighbours m_prev, m_next (None for a wave map).  The
    slices may be a run of rows of the first spatial axis (with one halo
    row on each side), so `out` is a piece of the interior; `bufs`
    (_residual_buffers) holds at least its rows.  Every step is
    elementwise, in the order a stencil over the whole block takes
    (np.cross's order for the cross product), so the bits depend neither
    on the buffers nor on the pieces."""
    ds2, two_ds = ds**2, 2.0 * ds
    two_mc, box, vec, dm2, sq, tmp = (b[:out.shape[0]] for b in bufs)
    mc = _interior(m)
    np.multiply(2.0, mc, out=two_mc)
    np.subtract(_interior(m_hi), two_mc, out=box)
    np.add(box, _interior(m_lo), out=box)
    np.divide(box, ds2, out=box)
    for k in range(m.ndim - 1):
        np.subtract(_interior(m, k, 1), two_mc, out=vec)
        np.add(vec, _interior(m, k, -1), out=vec)
        np.divide(vec, ds2, out=vec)
        np.subtract(box, vec, out=box)
    np.subtract(_interior(m_hi), _interior(m_lo), out=vec)
    np.divide(vec, two_ds, out=vec)
    _sq3(vec, dm2, tmp)
    for k in range(m.ndim - 1):
        np.subtract(_interior(m, k, 1), _interior(m, k, -1), out=vec)
        np.divide(vec, two_ds, out=vec)
        np.subtract(dm2, _sq3(vec, sq, tmp), out=dm2)
    np.multiply(dm2[..., None], mc, out=vec)
    core = np.add(box, vec, out=box)
    if m_prev is None:
        R = core
    else:
        # R = dm/dt - core x mc
        R = vec
        np.subtract(_interior(m_next), _interior(m_prev), out=R)
        np.divide(R, two_ds, out=R)
        for j, (p, q) in enumerate(((1, 2), (2, 0), (0, 1))):
            np.multiply(core[..., p], mc[..., q], out=sq)
            np.multiply(core[..., q], mc[..., p], out=tmp)
            np.subtract(sq, tmp, out=sq)
            np.subtract(R[..., j], sq, out=R[..., j])
    return np.sqrt(_sq3(R, out, tmp), out=out)


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

    The block is never held whole.  The outer loop goes over pieces of
    RESIDUAL_PIECE // (points per interior row) rows of the first spatial
    axis.  Inside a piece the interior (t, tau) points are visited in C
    order; each reads the slices (t, tau) and (t, tau +- 1) and, for a
    Schrodinger flow, (t +- 1, tau), cut to the piece's rows plus one
    halo row on each side.  A slice is keyed by the bits of the values
    sample_block computes it from, its shift c tau + omega t (by the same
    expression) and tau, so slices with equal keys are one slice.  A
    key's piece is sampled (one sample_block call, whose a-axis
    contraction all slices of the piece share) when a point first reads
    it and dropped once its last reader in the piece is done, so at most
    about two rows of slice pieces are live, and the four corner slices,
    which no stencil reads, are never sampled.  A point whose stencil
    reads the same keys as an earlier point has its |R| bit for bit: only
    the first is computed, and its |R| is copied before the core mask and
    the sums.  At omega = 0 every t row repeats the first; otherwise
    keys collide only where those values round to the same bits.
    Sampling is pointwise and each point's residual is the same
    elementwise arithmetic a full-block stencil does, so the result does
    not depend on the streaming."""
    if not (math.isfinite(ds) and ds > 0):
        raise ValueError(f"sample spacing ds must be finite and > 0, got {ds}")
    h = min(U.u.spec.h1, U.u.spec.h2)
    if ds > h + 1e-12:
        raise ValueError("sample spacings must resolve the field (<= h)")
    wave = not params.is_schrodinger
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

    # mask out samples near the traveling cores, at (+-d, shift) in (a, b):
    # a is s1 for a pair and the radius for a ring (whose -d core is never
    # the nearer), b the last axis
    tau_int = tau_axis[1:-1]
    t_int = t_axis if wave else t_axis[1:-1]
    s_int = [ax[1:-1] for ax in s_axes]
    shift = params.c * tau_int[None, :] + params.omega * t_int[:, None]
    excl = RESIDUAL_CORE_MARGIN * max(ds, h)
    a = np.hypot(s_int[0][:, None], s_int[1][None, :]) if ring else s_int[0]
    b = s_int[-1] - shift[..., None]
    dist = np.hypot((np.abs(a) - params.d)[..., None],
                    np.expand_dims(b, tuple(range(2, 2 + a.ndim))))
    keep = dist > excl
    del dist
    if not keep.any():
        raise ValueError(f"core margin excluded every sample: the excluded radius {excl:g} "
                         f"({RESIDUAL_CORE_MARGIN:g} cells of max(ds = {ds}, field spacing "
                         f"h = {h})) covers the block")

    # interior points (indices into t_axis, tau_axis) and the slices each reads
    points = [(it, jt) for it in (range(1) if wave else range(1, t_axis.size - 1))
              for jt in range(1, ntau - 1)]

    def stencil(it, jt):
        taus = [(it, jt - 1), (it, jt), (it, jt + 1)]
        return taus if wave else taus + [(it - 1, jt), (it + 1, jt)]

    def key(it, jt):
        # the exact bits sample_block computes slice (it, jt) from: its
        # shift, by sample_block's expression, and tau (so 0.0 != -0.0)
        t, tau = t_axis[it], tau_axis[jt]
        return (params.c * tau + params.omega * t).hex(), tau.hex()

    # a point whose stencil reads the keys of an earlier one has its |R|
    # bit for bit, so only the first is computed (n indexes rnorm's
    # (t, tau) points in C order)
    computed, copies, first = [], [], {}
    for n, point in enumerate(points):
        idx = stencil(*point)
        keys = tuple(key(*i) for i in idx)
        if keys in first:
            copies.append((n, first[keys]))
        else:
            first[keys] = n
            computed.append((n, idx, keys))
    last_reader = {k: n for n, _, keys in computed for k in keys}
    rnorm = np.empty((t_int.size, tau_int.size) + tuple(ax.size for ax in s_int))
    rflat = rnorm.reshape((-1,) + rnorm.shape[2:])
    # pieces of whole rows of the first spatial axis, small enough that the
    # work arrays stay in cache; each piece walks every computed point
    rows = max(1, RESIDUAL_PIECE // math.prod(rnorm.shape[3:]))
    bufs = _residual_buffers((min(rows, rnorm.shape[2]),) + rnorm.shape[3:])
    for r in range(0, rnorm.shape[2], rows):
        # the piece's rows with one halo row on each side
        piece_axes = [s_axes[0][r:r + rows + 2]] + s_axes[1:]
        window = {}
        for n, idx, keys in computed:
            for (kt, ktau), k in zip(idx, keys):
                if k not in window:
                    window[k] = sample_block(U, params, t_axis[kt:kt + 1],
                                             tau_axis[ktau:ktau + 1], piece_axes)[0, 0]
            _slice_residual(ds, bufs, rflat[n, r:r + rows], *(window[k] for k in keys))
            for k in set(keys):
                if last_reader[k] == n:
                    del window[k]
    for n, src in copies:
        rflat[n] = rflat[src]

    kept = rnorm[keep]
    sup = float(kept.max())
    cell = ds * ds**sdim * (1.0 if wave else ds)
    return {
        "l2": float(math.sqrt(np.square(kept, out=kept).sum() * cell)),
        "sup": sup,
        "n_samples": int(kept.size),
    }
