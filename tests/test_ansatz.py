import math

import numpy as np
import pytest

from vortexflow.ansatz import (ModelParams, Regime, build_pair, build_ring,
                               build_ring_phase, factor_axisym_laplacian, kernel_Zd,
                               ring_phase_residual, smoothstep_cutoff, vortex_geometry)
from vortexflow.fields import GridSpec, Symmetry, reflect_full
from vortexflow.profile import eval_profile


def pair_params(eps=0.1, kappa=0.0, d_hat=1.0, sch=False):
    return ModelParams(Regime.PAIR_SCH if sch else Regime.PAIR_WM, eps, kappa, d_hat)


def ring_params(eps=0.05, kappa=0.0, d_hat=0.3):
    return ModelParams(Regime.RING_SCH, eps, kappa, d_hat)


# -- ModelParams --------------------------------------------------------------

def test_params_relations():
    p = pair_params(eps=0.05)
    assert p.eps == pytest.approx(2 * p.c / math.sqrt(1 - p.c**2), rel=1e-13)
    ps = pair_params(eps=0.05, kappa=0.25, sch=True)
    assert ps.kappa * ps.eps == pytest.approx(ps.omega / math.sqrt(1 - ps.c**2), rel=1e-13)
    r = ring_params(eps=0.05, kappa=0.2)
    drive = 0.05 * abs(math.log(0.05))
    assert drive == pytest.approx(2 * r.c / math.sqrt(1 - r.c**2), rel=1e-13)
    assert r.kappa * drive == pytest.approx(r.omega / math.sqrt(1 - r.c**2), rel=1e-13)
    assert r.d == pytest.approx(r.d_hat / r.eps)


def test_params_validation():
    with pytest.raises(ValueError):
        pair_params(eps=0.3)
    with pytest.raises(ValueError):
        pair_params(d_hat=0.001)
    with pytest.raises(ValueError):
        ModelParams(Regime.PAIR_SCH, 0.05, 0.5, 1.0)  # 1 - 2 kappa = 0
    with pytest.raises(ValueError):
        ModelParams(Regime.PAIR_WM, 0.05, 0.1, 1.0)   # wave map needs kappa = 0


# -- vortex geometry ----------------------------------------------------------

def test_geometry_basic():
    ell, theta, ge, gt = vortex_geometry((0.0, 0.0), (1.0, 0.0))
    assert ell == 1.0 and theta == 0.0
    assert ge == (1.0, 0.0)
    assert gt == (0.0, 1.0)


def test_geometry_grad_theta_magnitude(rng):
    pts = rng.uniform(-5, 5, size=(1000, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-3]
    ell, _, _, gt = vortex_geometry((0.0, 0.0), (pts[:, 0], pts[:, 1]))
    mag = np.hypot(gt[0], gt[1])
    assert np.max(np.abs(mag * ell - 1.0)) < 1e-12


def test_geometry_theta_odd(rng):
    x = rng.uniform(0.1, 5, 200)
    y = rng.uniform(0.1, 5, 200)
    _, th_up, _, _ = vortex_geometry((0.0, 0.0), (x, y))
    _, th_dn, _, _ = vortex_geometry((0.0, 0.0), (x, -y))
    assert np.allclose(th_up, -th_dn, atol=0)


def test_geometry_coincident_raises():
    with pytest.raises(ValueError):
        vortex_geometry((1.0, 2.0), (1.0, 2.0))


# -- pair ansatz --------------------------------------------------------------

def test_pair_core_and_parity(profile):
    p = pair_params()
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    i_core = int(round(p.d / spec.h1))
    assert V.data[i_core, 0] == 0.0
    assert np.all(V.data[:, 0].imag == 0.0)
    # parity table through the reflection helper
    assert reflect_full(V, 3.0, -2.0) == np.conj(reflect_full(V, 3.0, 2.0))
    assert reflect_full(V, -3.0, 2.0) == reflect_full(V, 3.0, 2.0)


def test_pair_winding_signs(profile):
    # brute-force plaquette sums around each core on the reflected plane
    from vortexflow.diagnostics import detect_vortices

    p = pair_params()
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    allv = detect_vortices(V, full_plane=True)
    charges = {round(pos[0], 1): q for pos, q in allv}
    assert any(abs(k - p.d) < 0.5 and charges[k] == 1 for k in charges)
    assert any(abs(k + p.d) < 0.5 and charges[k] == -1 for k in charges)
    assert sum(q for _, q in allv) == 0


def test_pair_far_modulus(profile):
    p = pair_params(eps=0.2, d_hat=1.0)  # d = 5, 10 d = 50
    spec = GridSpec(52.0, 52.0, 0.5, 0.5, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    for phi in np.linspace(0.05, np.pi / 2 - 0.05, 7):
        z = 10 * p.d * np.exp(1j * phi)
        val = reflect_full(V, z.real, z.imag)
        assert abs(abs(val) - 1.0) <= 0.25


def test_pair_outside_domain(profile):
    p = pair_params(eps=0.1, d_hat=2.0)  # d = 20
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    with pytest.raises(ValueError):
        build_pair(p, spec, profile)


# -- ring phases --------------------------------------------------------------

def test_singular_phase_laplacian_oracle():
    # lap of Phi(y) = y2 log|y|^2 / (4 d) equals y2/(d |y|^2): finite
    # differences of the closed form at off-axis points
    d = 20.0

    def Phi(y1, y2):
        return y2 * np.log(y1**2 + y2**2) / (4 * d)

    h = 1e-3
    for y in ((1.3, 0.7), (-2.0, 1.1), (0.5, -2.5)):
        lap = (Phi(y[0] + h, y[1]) + Phi(y[0] - h, y[1]) +
               Phi(y[0], y[1] + h) + Phi(y[0], y[1] - h) - 4 * Phi(*y)) / h**2
        exact = y[1] / (d * (y[0]**2 + y[1]**2))
        assert abs(lap - exact) < 1e-8


def test_phi_s_vanishes_on_axis(profile):
    p = ring_params()
    spec = GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING)
    phi_s, phi_r = build_ring_phase(p, spec)
    assert np.all(phi_s.data[:, 0] == 0.0)
    assert np.all(phi_r.data[:, 0] == 0.0)


def test_ring_phase_residual_order_eps_squared(profile):
    eps = 0.05
    p = ring_params(eps=eps, d_hat=1.0)  # d = 20
    spec = GridSpec(40.0, 40.0, 0.25, 0.25, Symmetry.RING)
    X1, X2 = spec.mesh()
    ell1 = np.hypot(X1 - p.d, X2)
    res = ring_phase_residual(p, spec)
    zone = (ell1 > 1.0) & (ell1 < p.d / 10.0)
    assert np.max(np.abs(np.where(zone, res, 0.0))) <= 10 * eps**2


def test_phi_r_decay_bound(profile):
    p = ring_params()
    spec = GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING)
    _, phi_r = build_ring_phase(p, spec)
    X1, X2 = spec.mesh()
    r = np.hypot(X1, X2)
    assert np.max(np.abs(phi_r.data) * (1.0 + r)) < 5.0


def test_ring_phase_with_supplied_factor_is_bitwise():
    # one factor serves every separation on its grid, as in kernel_Zd
    p = ring_params()
    spec = GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING)
    lu = factor_axisym_laplacian(spec)
    for q in (p, p.with_d(1.001 * p.d)):
        _, own = build_ring_phase(q, spec)
        _, shared = build_ring_phase(q, spec, lu)
        assert shared.data.tobytes() == own.data.tobytes()


def test_ring_phase_rejects_factor_of_another_grid():
    spec = GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING)
    other = GridSpec(12.0, 12.0, 0.5, 0.5, Symmetry.RING)
    with pytest.raises(ValueError):
        build_ring_phase(ring_params(), spec, factor_axisym_laplacian(other))


def test_ring_requires_ring_regime(profile):
    spec = GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING)
    with pytest.raises(ValueError):
        build_ring_phase(pair_params(), spec)


def test_build_ring_with_zero_phase_is_pair_bitwise(profile):
    from vortexflow.fields import ScalarField

    p = ring_params()
    spec = GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING)
    zero = ScalarField(spec, np.zeros((spec.n1, spec.n2)), "odd")
    ring = build_ring(p, spec, profile, (zero, zero))
    pair = build_pair(p, spec, profile)
    assert np.array_equal(ring.data, pair.data)


def test_ring_modulus_matches_pair(profile):
    p = ring_params()
    spec = GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING)
    phases = build_ring_phase(p, spec)
    ring = build_ring(p, spec, profile, phases)
    pair = build_pair(p, spec, profile)
    assert np.allclose(np.abs(ring.data), np.abs(pair.data), rtol=5e-15, atol=0)


def test_ring_winding_unchanged_by_phase(profile):
    from vortexflow.diagnostics import detect_vortices

    p = ring_params()
    spec = GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING)
    ring = build_ring(p, spec, profile, build_ring_phase(p, spec))
    vs = detect_vortices(ring)
    assert len(vs) == 1 and vs[0][1] == 1
    assert abs(vs[0][0][0] - p.d) < 2 * spec.h1


# -- co-kernel ----------------------------------------------------------------

def test_cutoff_plateaus():
    s = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    vals = smoothstep_cutoff(s)
    assert vals[0] == vals[1] == vals[2] == 1.0
    assert vals[4] == vals[5] == 0.0
    assert 0.0 < vals[3] < 1.0


def test_kernel_support_and_parity(profile):
    p = pair_params()
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    R = 4.0
    Z = kernel_Zd(p, spec, profile, cutoff_radius=R)
    X1, X2 = spec.mesh()
    ell1 = np.hypot(X1 - p.d, X2)
    ell2 = np.hypot(X1 + p.d, X2)
    outside = (ell1 > 2 * R) & (ell2 > 2 * R)
    assert np.all(Z.data[outside] == 0.0)
    assert np.all(Z.data[:, 0].imag == 0.0)


def test_kernel_near_core_approximation(profile):
    # Z_d ~ -d1 w(y) e^{-i theta_2} near e1, to O(eps)
    p = pair_params(eps=0.05, d_hat=1.0)  # d = 20
    spec = GridSpec(40.0, 40.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    Z = kernel_Zd(p, spec, profile)
    X1, X2 = spec.mesh()
    ell1 = np.hypot(X1 - p.d, X2)
    th1 = np.arctan2(X2, X1 - p.d)
    th2 = np.arctan2(X2, X1 + p.d)
    rho, drho = eval_profile(profile, ell1)
    with np.errstate(invalid="ignore", divide="ignore"):
        d1w = (drho * np.cos(th1) - 1j * np.where(ell1 > 0, rho / ell1, 0.0)
               * np.sin(th1)) * np.exp(1j * th1)
    approx = -d1w * np.exp(-1j * th2)
    zone = (ell1 > 0.4) & (ell1 < 2.0)
    rel = np.abs(Z.data - approx)[zone] / np.abs(approx)[zone]
    assert np.max(rel) <= 0.1


def test_kernel_continuity_in_d(profile):
    p = pair_params()
    spec = GridSpec(22.0, 22.0, 0.25, 0.25, Symmetry.PAIR)
    Z0 = kernel_Zd(p, spec, profile)
    diffs = []
    for delta in (0.1, 0.05):
        Zd = kernel_Zd(p.with_d(p.d + delta), spec, profile)
        cell = spec.h1 * spec.h2
        diffs.append(np.sqrt(np.sum(np.abs(Zd.data - Z0.data) ** 2) * cell))
    ratio = diffs[0] / diffs[1]
    assert 1.6 <= ratio <= 2.4  # linear in the separation step
