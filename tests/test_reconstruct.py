import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import BSpline

from references import unscaled_at
from vortexflow import reconstruct
from vortexflow.ansatz import ModelParams, Regime, build_ansatz, build_pair
from vortexflow.fields import ComplexField, GridSpec, Symmetry
from vortexflow.reconstruct import (RESIDUAL_CORE_MARGIN, RESIDUAL_NT, pde_residual,
                                      sample_block, unscale)
from vortexflow.stereo import unproject_array


def test_unscale_identity_at_zero_speed(profile):
    # the stretch scales only the traveling coordinate, so b = 0 reads the
    # stored nodes (the spline reproduces them to rounding)
    p = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    U = unscale(V, p)
    x = spec.x1()[::7]
    assert np.max(np.abs(unscaled_at(U, x, np.zeros_like(x)) - V.data[::7, 0])) <= 1e-12


def test_unscale_lattice_alignment(profile):
    p = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    U = unscale(V, p)
    root = math.sqrt(1.0 - p.c**2)
    j = np.arange(spec.n2)[::5]
    s2 = j * spec.h2 * root  # stretches back onto lattice nodes
    vals = unscaled_at(U, np.full(j.size, 2.0), s2)
    expect = V.data[8, ::5]
    assert np.max(np.abs(vals - expect)) < 1e-12


def test_unscale_chain_rule(profile):
    # dU/ds~2 = (1/sqrt(1-c^2)) du/dx2: the evaluator finite difference at a
    # lattice-aligned stretch reproduces the grid stencil exactly
    from vortexflow.fields import diff_ops

    p = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    U = unscale(V, p)
    root = math.sqrt(1.0 - p.c**2)
    i, j = 28, 12
    s2 = j * spec.h2 * root
    delta = spec.h2 * root
    dU = (unscaled_at(U, i * spec.h1, s2 + delta)
          - unscaled_at(U, i * spec.h1, s2 - delta)) / (2 * delta)
    _, d2, _ = diff_ops(V)
    assert abs(dU - d2.data[i, j] / root) < 1e-12


def test_spacetime_tau_periodicity(profile):
    p = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    U = unscale(build_pair(p, spec, profile), p)
    s = (11.0, 0.5)
    a = sample_block(U, p, 0.0, 0.3, [[s[0]], [s[1]]])
    b = sample_block(U, p, 0.0, 0.3 + 2 * math.pi, [[s[0]], [s[1]]])
    # tau enters via e^{i tau} and the c tau drift
    shift = p.c * 2 * math.pi
    c = sample_block(U, p, 0.0, 0.3, [[s[0]], [s[1] - shift]])
    assert a.shape == (1, 1, 1, 1, 3)
    assert np.max(np.abs(b - c)) < 1e-10
    assert abs(np.sum(a**2) - 1.0) < 1e-12


def test_spacetime_at_origin_slice(profile):
    p = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    U = unscale(V, p)
    s = (5.0, 0.75)
    m = sample_block(U, p, 0.0, 0.0, [[s[0]], [s[1]]])
    assert np.max(np.abs(m[0, 0, 0, 0] - unproject_array(unscaled_at(U, *s)))) <= 1e-15


def test_vortex_drift_with_time(profile, balanced_pair_sch):
    params, res, d_star = balanced_pair_sch
    pb = params.with_d(d_star)
    U = unscale(res.u, pb, mode="spline")

    def locate_zero(t):
        s2 = pb.c * 0.0 + pb.omega * t
        g1 = np.linspace(d_star - 0.4, d_star + 0.4, 81)
        g2 = np.linspace(s2 - 0.4, s2 + 0.4, 81)
        A, B = np.meshgrid(g1, g2, indexing="ij")
        shift = pb.omega * t
        vals = np.abs(unscaled_at(U, A.ravel(), B.ravel() - shift)).reshape(A.shape)
        i, j = np.unravel_index(vals.argmin(), vals.shape)
        return g1[i], g2[j]

    h = res.u.spec.h2
    z0 = locate_zero(0.0)
    for t in (1.0, 2.0):
        zt = locate_zero(t)
        assert abs(zt[1] - z0[1] - pb.omega * t) <= 2 * h
        assert abs(zt[0] - z0[0]) <= 2 * h


def test_residual_zero_on_constant_m():
    # u = 0 maps to the constant north pole whatever tau does
    spec = GridSpec(8.0, 8.0, 0.25, 0.25, Symmetry.PAIR)
    p = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
    f = ComplexField(spec, np.zeros((spec.n1, spec.n2), dtype=complex))
    U = unscale(f, p, mode="spline")
    out = pde_residual(p, U, (4.0, 0.0), 0.25, nspace=8, ntau=5)
    assert out["sup"] == 0.0


def test_residual_rejects_coarse_sampling(profile):
    p = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    U = unscale(build_pair(p, spec, profile), p, mode="spline")
    with pytest.raises(ValueError):
        pde_residual(p, U, (10.0, 0.0), 0.5)


def test_wave_map_residual_tau_invariance(profile, balanced_pair_wm):
    params, res, d_star = balanced_pair_wm
    pb = params.with_d(d_star)
    U = unscale(res.u, pb, mode="spline")
    norms = []
    for tau0 in (0.0, 0.37):
        out = pde_residual(pb, U, (d_star, pb.c * tau0), 0.03125,
                           nspace=32, ntau=5, tau0=tau0)
        norms.append(out["l2"])
    assert abs(norms[0] - norms[1]) < 1e-10


def test_ring_block_rotation_invariance(profile, balanced_ring):
    params, res, d_star = balanced_ring
    pb = params.with_d(d_star)
    U = unscale(res.u, pb, mode="spline")
    # evaluating at (s1, s2) and at the rotated (s2, s1) gives the same m3
    m = sample_block(U, pb, [0.0], [0.0], [np.array([d_star / math.sqrt(2)]),
                                           np.array([d_star / math.sqrt(2)]),
                                           np.array([0.3])])
    m_rot = sample_block(U, pb, [0.0], [0.0], [np.array([d_star]),
                                               np.array([0.0]),
                                               np.array([0.3])])
    assert np.allclose(m[0, 0, 0, 0, 0], m_rot[0, 0, 0, 0, 0], atol=1e-9)


# -- tensor-grid sampling -----------------------------------------------------

SMALL_SCH = ModelParams(Regime.PAIR_SCH, eps=0.2, kappa=0.25, d_hat=0.8)  # d = 4


@pytest.fixture(scope="module")
def small_field(profile):
    V = build_pair(SMALL_SCH, GridSpec(8.0, 8.0, 0.25, 0.25, Symmetry.PAIR), profile)
    return unscale(V, SMALL_SCH)


def _pointwise_block(U, p, t_axis, tau_axis, s_axes):
    """Reference: U(a, b) at every point of the block, one scattered call
    per (t, tau) slice."""
    grids = np.meshgrid(*[np.asarray(ax, dtype=float) for ax in s_axes], indexing="ij")
    a = (np.hypot(grids[0], grids[1]) if len(s_axes) == 3 else grids[0]).ravel()
    psi = np.empty((len(t_axis), len(tau_axis)) + grids[0].shape, dtype=complex)
    for it, t in enumerate(t_axis):
        for jt, tau in enumerate(tau_axis):
            b = (grids[-1] - (p.c * tau + p.omega * t)).ravel()
            phase = complex(math.cos(tau), math.sin(tau))
            psi[it, jt] = (unscaled_at(U, a, b) * phase).reshape(grids[0].shape)
    return unproject_array(psi)


# lattice values repeat and give duplicate radii (s2 = +-k h); the floats
# land between nodes; lists are unsorted and may have length 1
_coord = st.sampled_from([0.25 * k for k in range(-12, 13)]) | st.floats(-3.0, 3.0)
_axis = st.lists(_coord, min_size=1, max_size=6)
_time = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3)


@settings(deadline=None, max_examples=60)
@given(t_axis=_time, tau_axis=_time, s_axes=st.lists(_axis, min_size=2, max_size=3))
# an unsorted traveling axis of distinct values, evaluated in its own order
@example(t_axis=[0.0], tau_axis=[0.0], s_axes=[[-3.0], [-2.75, -3.0]])
def test_sample_block_matches_pointwise_bitwise(small_field, t_axis, tau_axis, s_axes):
    U = small_field
    m = sample_block(U, SMALL_SCH, t_axis, tau_axis, s_axes)
    ref = _pointwise_block(U, SMALL_SCH, t_axis, tau_axis, s_axes)
    assert m.shape == ref.shape and np.array_equal(m, ref)


def test_unscale_accepts_only_spline(small_field):
    with pytest.raises(ValueError, match="only 'spline'"):
        unscale(small_field.u, SMALL_SCH, "bilinear")


def test_tensor_grid_rejects_queries_outside_domain(small_field):
    U = small_field
    with pytest.raises(ValueError, match="outside the covered domain"):
        U.on_grid(np.array([0.0, 8.5]), np.array([0.0]))
    with pytest.raises(ValueError, match="outside the covered domain"):
        U.on_grid(np.array([1.0]), np.array([-9.0, 0.0]))
    with pytest.raises(ValueError, match="outside the covered domain"):
        sample_block(U, SMALL_SCH, [0.0], [0.0], [np.array([6.0]), np.array([6.0]),
                                                  np.array([0.0])])
    with pytest.raises(ValueError, match="outside the covered domain"):
        sample_block(U, SMALL_SCH, [0.0], [0.0], [np.array([1.0]), np.array([8.5])])


class _CountingBSpline(BSpline):
    """BSpline that records, for each evaluation, which of U's knot
    vectors it runs on ("a" or "b") and the shape of its output."""
    knots = {}
    calls = []

    def __call__(self, x, *args, **kwargs):
        out = super().__call__(x, *args, **kwargs)
        axis = [name for name, t in self.knots.items() if self.t is t]
        self.calls.append((*axis, out.shape))
        return out


@pytest.fixture
def counting_bspline(monkeypatch):
    """Install _CountingBSpline in reconstruct; returns a function that
    names the knots of a given evaluator and returns the list of calls."""
    monkeypatch.setattr(reconstruct, "BSpline", _CountingBSpline)
    monkeypatch.setattr(_CountingBSpline, "calls", [])

    def watch(U):
        monkeypatch.setattr(_CountingBSpline, "knots", {"a": U._ta, "b": U._tb})
        return _CountingBSpline.calls
    return watch


def test_sample_block_one_grid_evaluation_per_slice(small_field, counting_bspline):
    # the block's radii are contracted once; each (t, tau) slice is one
    # complex spline evaluation along the traveling coordinate
    U = unscale(small_field.u, SMALL_SCH)
    calls = counting_bspline(U)
    ds = 0.25
    s1 = 3.0 + ds * np.arange(8)
    s2 = ds * np.arange(-2, 3)
    s3 = ds * np.arange(-4, 4)
    radii = np.unique(np.hypot(s1[:, None], s2[None, :]))
    assert radii.size == 8 * 3
    sample_block(U, SMALL_SCH, [0.0, 0.5], [0.0, 0.25, 0.5], [s1, s2, s3])
    assert calls == ([("a", (radii.size, U._coef.shape[1]))]
                     + [("b", (s3.size, radii.size))] * (2 * 3))


def test_pde_residual_fixed_blocks(profile):
    # Values of the scattered-point sampler with full-block stencils
    # (the implementation before tensor-grid sampling) on the default
    # profile; the tensor grid and interior-only stencils do the same
    # arithmetic per element.
    p = ModelParams(Regime.PAIR_SCH, 0.2, 0.25, 2.0)
    U = unscale(build_ansatz(p, GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR), profile),
                p, "spline")
    # The pinned bits are those of the BSpline evaluation; the approx
    # values are FITPACK's bispev on the same coefficients, which rounds
    # differently (at most 7.4e-13 relative here).
    pair = pde_residual(p, U, (10.0, 0.0), 0.125, nspace=16, ntau=5)
    assert pair == {"l2": 0.011460691494805877, "sup": 0.0412590957148571, "n_samples": 1296}
    assert pair == {"l2": pytest.approx(0.011460691494805837, rel=1e-12),
                    "sup": pytest.approx(0.041259095714887443, rel=1e-12), "n_samples": 1296}
    p = ModelParams(Regime.RING_SCH, 0.2, 0.0, 1.0)
    U = unscale(build_ansatz(p, GridSpec(10.0, 10.0, 0.25, 0.25, Symmetry.RING), profile),
                p, "spline")
    ring = pde_residual(p, U, (5.0, 0.0, 0.0), 0.125, nspace=(12, 5, 12), ntau=5)
    # the ring's pinned bits are those of the one phase solve phi_d; with the
    # paper's phi_s + phi_r summed on the grid they were 0.07346434524156106
    # and 0.6211465571068082, the same up to rounding
    assert ring == {"l2": 0.0734643452415606, "sup": 0.6211465571067982, "n_samples": 1296}
    assert ring == {"l2": pytest.approx(0.07346434524156059, rel=1e-12),
                    "sup": pytest.approx(0.6211465571068013, rel=1e-12), "n_samples": 1296}


# -- streamed space-time residual ---------------------------------------------

def _shifted(m, axes, axis, k=0):
    """m on the interior of `axes`, displaced by k cells along `axis`."""
    sl = [slice(1, -1) if ax in axes else slice(None) for ax in range(m.ndim)]
    sl[axis] = slice(1 + k, m.shape[axis] - 1 + k)
    return m[tuple(sl)]


def _full_block_rnorm(params, U, center, ds, nspace, ntau, t0=0.0, tau0=0.0):
    """Reference: |R| on the interior of the whole (t, tau, space) block,
    sampled at once and differenced along each axis, and each interior
    point's distance from the nearer traveling core."""
    wave = params.omega == 0.0 and params.regime.value.endswith("wm")
    ring = len(center) == 3
    tau_axis = tau0 + ds * (np.arange(ntau) - (ntau - 1) / 2)
    t_axis = (np.array([t0]) if wave
              else t0 + ds * (np.arange(RESIDUAL_NT) - (RESIDUAL_NT - 1) / 2))
    s_axes = [c + ds * (np.arange(n) - (n - 1) / 2) for c, n in zip(center, nspace)]
    m = sample_block(U, params, t_axis, tau_axis, s_axes)

    sdim = 3 if ring else 2
    diff_axes = [1] + list(range(2, 2 + sdim)) + ([] if wave else [0])

    def d2(axis):
        return (_shifted(m, diff_axes, axis, 1) - 2.0 * _shifted(m, diff_axes, axis)
                + _shifted(m, diff_axes, axis, -1)) / ds**2

    def d1(axis):
        return (_shifted(m, diff_axes, axis, 1) - _shifted(m, diff_axes, axis, -1)) / (2.0 * ds)

    box = d2(1)
    for k in range(sdim):
        box = box - d2(2 + k)
    dm2 = (d1(1)**2).sum(-1)
    for k in range(sdim):
        dm2 = dm2 - (d1(2 + k)**2).sum(-1)
    mc = _shifted(m, diff_axes, 1)
    core_term = box + dm2[..., None] * mc
    R = core_term if wave else d1(0) - np.cross(core_term, mc)

    tau_int = tau_axis[1:-1]
    t_int = t_axis if wave else t_axis[1:-1]
    s_int = [ax[1:-1] for ax in s_axes]
    shift = params.c * tau_int[None, :] + params.omega * t_int[:, None]
    if ring:
        r_int = np.hypot(s_int[0][:, None], s_int[1][None, :])
        dist = np.hypot((r_int - params.d)[None, None, :, :, None],
                        s_int[2][None, None, None, None, :] - shift[:, :, None, None, None])
    else:
        dist = np.minimum(
            np.hypot((s_int[0] - params.d)[None, None, :, None],
                     s_int[1][None, None, None, :] - shift[:, :, None, None]),
            np.hypot((s_int[0] + params.d)[None, None, :, None],
                     s_int[1][None, None, None, :] - shift[:, :, None, None]))
    return np.sqrt((R**2).sum(-1)), dist


def _full_block_residual(params, U, center, ds, nspace, ntau, t0=0.0, tau0=0.0):
    """Reference: pde_residual as it was before streaming, from the whole
    block's |R|."""
    h = min(U.u.spec.h1, U.u.spec.h2)
    rnorm, dist = _full_block_rnorm(params, U, center, ds, nspace, ntau, t0, tau0)
    kept = rnorm[dist > RESIDUAL_CORE_MARGIN * max(ds, h)]
    if kept.size == 0:
        raise ValueError("core margin excluded every sample")
    wave = params.omega == 0.0 and params.regime.value.endswith("wm")
    cell = ds * ds**len(center) * (1.0 if wave else ds)
    return {"l2": float(math.sqrt((kept**2).sum() * cell)), "sup": float(kept.max()),
            "n_samples": int(kept.size)}


RESIDUAL_CASES = {
    # regime: (params, domain half-width)
    "pair_wm": (ModelParams(Regime.PAIR_WM, 0.2, 0.0, 0.8), 8.0),       # d = 4
    "pair_sch": (SMALL_SCH, 8.0),
    "ring_wm": (ModelParams(Regime.RING_WM, 0.2, 0.0, 1.0), 10.0),      # d = 5
    "ring_sch": (ModelParams(Regime.RING_SCH, 0.2, 0.0, 1.0), 10.0),
    # kappa = 0 makes omega = 0: a Schrodinger block that does not change in t
    "pair_sch_k0": (ModelParams(Regime.PAIR_SCH, 0.2, 0.0, 0.8), 8.0),
    # kappa > 0: every (t, tau) slice of a ring block differs
    "ring_sch_k25": (ModelParams(Regime.RING_SCH, 0.2, 0.25, 1.0), 10.0),
}
RING_SCH = RESIDUAL_CASES["ring_sch"][0]
RING_DRIFT = RESIDUAL_CASES["ring_sch_k25"][0]


@pytest.fixture(scope="module")
def residual_fields(profile):
    out = {}
    for name, (p, half) in RESIDUAL_CASES.items():
        sym = Symmetry.RING if p.is_ring else Symmetry.PAIR
        out[name] = unscale(build_ansatz(p, GridSpec(half, half, 0.25, 0.25, sym), profile), p)
    return out


@settings(deadline=None, max_examples=80)
@given(case=st.sampled_from(sorted(RESIDUAL_CASES)), ntau=st.integers(3, 6),
       nspace=st.tuples(*[st.integers(3, 10)] * 3),
       ds=st.sampled_from([0.25, 0.125, 0.0625]) | st.floats(0.03, 0.25),
       offset=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       t0=st.floats(-1.0, 1.0), tau0=st.floats(-1.0, 1.0), sign=st.sampled_from([1.0, -1.0]))
def test_pde_residual_matches_full_block_bitwise(residual_fields, case, ntau, nspace, ds,
                                                 offset, t0, tau0, sign):
    # sign = -1 puts a pair's block at its core on -d
    p = RESIDUAL_CASES[case][0]
    U = residual_fields[case]
    if p.is_ring:
        center = (sign * (p.d + offset[0]), offset[1] / 2, offset[1])
    else:
        center, nspace = (sign * (p.d + offset[0]), offset[1]), nspace[:2]
    args = (p, U, center, ds, nspace, ntau, t0, tau0)
    try:
        ref = _full_block_residual(*args)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            pde_residual(*args)
        return
    assert pde_residual(*args) == ref


@pytest.mark.parametrize("case", ["pair_wm", "pair_sch", "ring_sch"])
def test_pde_residual_pieces_keep_the_bits(residual_fields, monkeypatch, case):
    # |R| computed one row at a time, or in pieces of rows that do not
    # divide the interior, has the bits of one piece per slice
    p = RESIDUAL_CASES[case][0]
    center, nspace = ((p.d + 1.0, 0.0, 0.0), (10, 4, 10)) if p.is_ring else ((p.d + 1.0, 0.0), 12)
    ref = pde_residual(p, residual_fields[case], center, 0.125, nspace=nspace, ntau=5)
    row = 2 * 8 if p.is_ring else 10
    for piece in (1, 3 * row):
        monkeypatch.setattr(reconstruct, "RESIDUAL_PIECE", piece)
        assert pde_residual(p, residual_fields[case], center, 0.125, nspace=nspace,
                            ntau=5) == ref


def test_pde_residual_samples_no_corner_slice(residual_fields, monkeypatch):
    # a Schrodinger block that changes in t reads 21 of its 5 x 5 (t, tau)
    # slices, each once
    seen = []

    def recording(U, p, t_axis, tau_axis, s_axes):
        seen.append((float(t_axis[0]), float(tau_axis[0])))
        return sample_block(U, p, t_axis, tau_axis, s_axes)

    monkeypatch.setattr(reconstruct, "sample_block", recording)
    ds = 0.125
    pde_residual(RING_DRIFT, residual_fields["ring_sch_k25"], (6.0, 0.0, 0.0), ds,
                 nspace=(8, 3, 8), ntau=5)
    corners = {(t, tau) for t in (-2 * ds, 2 * ds) for tau in (-2 * ds, 2 * ds)}
    assert len(seen) == len(set(seen)) == 21 and not corners & set(seen)


def test_pde_residual_contracts_its_a_axis_once(residual_fields, counting_bspline):
    # the 21 slices of a Schrodinger block share one a-axis contraction
    U = unscale(residual_fields["ring_sch_k25"].u, RING_DRIFT)
    calls = counting_bspline(U)
    pde_residual(RING_DRIFT, U, (6.0, 0.0, 0.0), 0.125, nspace=(8, 3, 8), ntau=5)
    assert [axis for axis, _ in calls] == ["a"] + ["b"] * 21


def test_pde_residual_peak_memory_below_full_block(residual_fields):
    # the full block of 5 x 5 (t, tau) slices of 48 x 5 x 48 points, which
    # the residual used to sample whole and then hold about twice over in
    # its difference temporaries (traced peak 2.3 times its size)
    U = residual_fields["ring_sch"]
    nspace = (48, 5, 48)
    full_block = RESIDUAL_NT * 5 * math.prod(nspace) * 3 * 8
    tracemalloc.start()
    try:
        pde_residual(RING_SCH, U, (5.0, 0.0, 0.0), 0.125, nspace=nspace, ntau=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= full_block


@pytest.mark.parametrize("ntau, nspace, axis", [
    (2, (8, 8), "tau"), (5, (2, 8), "s1"), (5, (8, 1), "s2"),
    (1, (8, 8, 8), "tau"), (5, (8, 2, 8), "s2"), (5, (8, 5, 0), "s3"),
], ids=["pair-tau", "pair-s1", "pair-s2", "ring-tau", "ring-s2", "ring-s3"])
def test_pde_residual_rejects_degenerate_block(residual_fields, monkeypatch, ntau, nspace, axis):
    # an axis without an interior point cannot take a central difference;
    # the block is refused before anything is sampled
    case = "ring_sch" if len(nspace) == 3 else "pair_sch"
    p = RESIDUAL_CASES[case][0]
    center = (p.d, 0.0, 0.0) if p.is_ring else (p.d, 0.0)
    monkeypatch.setattr(reconstruct, "sample_block", None)
    with pytest.raises(ValueError, match=f"{axis} axis has {min(ntau, *nspace)} samples.*"
                                         "at least 3"):
        pde_residual(p, residual_fields[case], center, 0.125, nspace=nspace, ntau=ntau)


@pytest.mark.parametrize("case, nspace", [("pair_sch", (8, 8, 8)), ("ring_sch", (8, 8))])
def test_pde_residual_rejects_nspace_of_another_dimension(residual_fields, case, nspace):
    p = RESIDUAL_CASES[case][0]
    center = (p.d + 1.0, 0.0, 0.0) if p.is_ring else (p.d + 1.0, 0.0)
    with pytest.raises(ValueError, match=f"nspace has {len(nspace)} entries"):
        pde_residual(p, residual_fields[case], center, 0.125, nspace=nspace)


def test_pde_residual_samples_each_slice_once_per_piece(residual_fields, monkeypatch,
                                                       counting_bspline):
    # a ring block of 6 interior rows in pieces of 2 rows: each of the 21
    # slices a Schrodinger block reads is sampled once per piece, on the
    # piece's rows and one halo row on each side, and the slices of a
    # piece share one a-axis contraction
    U = unscale(residual_fields["ring_sch_k25"].u, RING_DRIFT)
    calls = counting_bspline(U)
    seen = []

    def recording(U, p, t_axis, tau_axis, s_axes):
        seen.append((float(t_axis[0]), float(tau_axis[0]), tuple(s_axes[0])))
        return sample_block(U, p, t_axis, tau_axis, s_axes)

    monkeypatch.setattr(reconstruct, "sample_block", recording)
    monkeypatch.setattr(reconstruct, "RESIDUAL_PIECE", 2 * 6)
    ds = 0.125
    s1 = 6.0 + ds * (np.arange(8) - 3.5)
    pieces = [tuple(s1[r:r + 4]) for r in (0, 2, 4)]
    pde_residual(RING_DRIFT, U, (6.0, 0.0, 0.0), ds, nspace=(8, 3, 8), ntau=5)
    times = ds * (np.arange(5) - 2.0)
    slices = {(t, tau) for t in times for tau in times} - {
        (t, tau) for t in (-2 * ds, 2 * ds) for tau in (-2 * ds, 2 * ds)}
    assert len(slices) == 21
    assert len(seen) == len(set(seen)) == 21 * 3
    assert set(seen) == {(t, tau, piece) for t, tau in slices for piece in pieces}
    assert [axis for axis, _ in calls] == (["a"] + ["b"] * 21) * 3


@pytest.mark.parametrize("case", ["pair_sch_k0", "ring_sch"])
def test_pde_residual_samples_each_tau_once_when_still(residual_fields, monkeypatch, case):
    # at kappa = 0 a Schrodinger block does not change in t: the 21 slices
    # it reads are 5 distinct ones, one per tau, each sampled once per piece
    # (3 pieces of 2 rows here), and the 9 interior points read 3 distinct
    # stencils, one per tau, so |R| is computed for 3 of them
    p = RESIDUAL_CASES[case][0]
    center, nspace = ((6.0, 0.0, 0.0), (8, 3, 8)) if p.is_ring else ((p.d + 1.0, 0.0), (8, 8))
    seen, computed = [], []

    def recording(U, p, t_axis, tau_axis, s_axes):
        seen.append((float(tau_axis[0]), tuple(s_axes[0])))
        return sample_block(U, p, t_axis, tau_axis, s_axes)

    def counting(*args):
        computed.append(args[2].shape)
        return slice_residual(*args)

    slice_residual = reconstruct._slice_residual
    monkeypatch.setattr(reconstruct, "sample_block", recording)
    monkeypatch.setattr(reconstruct, "_slice_residual", counting)
    monkeypatch.setattr(reconstruct, "RESIDUAL_PIECE", 2 * 6)
    ds = 0.125
    pde_residual(p, residual_fields[case], center, ds, nspace=nspace, ntau=5)
    assert len(seen) == len(set(seen)) == 5 * 3
    assert sorted({tau for tau, _ in seen}) == list(ds * (np.arange(5) - 2.0))
    assert len(computed) == 3 * 3


@pytest.mark.parametrize("case", ["pair_sch_k0", "ring_sch"])
def test_still_block_has_equal_t_rows(residual_fields, case):
    # the copies pde_residual makes are exact: at kappa = 0 the three t rows
    # of the whole block's |R| are bitwise equal (dm/dt is exactly 0)
    p = RESIDUAL_CASES[case][0]
    assert p.omega == 0.0 and p.is_schrodinger
    center, nspace = ((6.0, 0.0, 0.0), (8, 3, 8)) if p.is_ring else ((p.d + 1.0, 0.0), (8, 8))
    args = (p, residual_fields[case], center, 0.125, nspace, 5, 0.3, -0.2)
    rnorm = _full_block_rnorm(*args)[0]
    assert rnorm.shape[0] == 3
    assert np.array_equal(rnorm[0], rnorm[1]) and np.array_equal(rnorm[1], rnorm[2])
    assert pde_residual(*args) == _full_block_residual(*args)


@pytest.mark.parametrize("case", ["pair_wm", "pair_sch", "ring_sch"])
@pytest.mark.parametrize("ds", [0.0, -0.125, math.nan, -math.inf])
def test_pde_residual_refuses_a_spacing_not_finite_and_positive(residual_fields, monkeypatch,
                                                                case, ds):
    # refused before anything is sampled; 0 used to give nan norms, nan the
    # core-margin refusal, and a negative spacing a math domain error or
    # (for the Schrodinger pair, whose cell ds**4 is positive) finite norms
    p = RESIDUAL_CASES[case][0]
    center = (p.d + 1.0, 0.0, 0.0) if p.is_ring else (p.d + 1.0, 0.0)
    monkeypatch.setattr(reconstruct, "sample_block", None)
    with pytest.raises(ValueError, match=r"sample spacing ds must be finite and > 0, got"):
        pde_residual(p, residual_fields[case], center, ds, nspace=8)


def test_pde_residual_peak_memory_of_a_multi_piece_block(residual_fields):
    # a ring block of 94 interior rows walked in 4 pieces of rows holds
    # slice pieces, not whole slices (traced peak 15.5 slices when whole
    # slices were sampled)
    nspace = (96, 5, 96)
    one_slice = math.prod(nspace) * 3 * 8
    tracemalloc.start()
    try:
        pde_residual(RING_SCH, residual_fields["ring_sch"], (5.0, 0.0, 0.0), 0.0625,
                     nspace=nspace, ntau=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * one_slice


def test_pde_residual_refusal_names_the_core_disc(residual_fields):
    # a block inside the excluded disc (radius 2 cells of the field's
    # h = 0.25, coarser than ds) is refused with the radius and both spacings
    p = RESIDUAL_CASES["pair_sch"][0]
    with pytest.raises(ValueError, match=r"core margin excluded every sample: the excluded "
                                         r"radius 0\.5 .*ds = 0\.125, field spacing h = 0\.25"):
        pde_residual(p, residual_fields["pair_sch"], (p.d, 0.0), 0.125, nspace=4)
