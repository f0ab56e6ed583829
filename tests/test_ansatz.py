import math

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import spsolve

from references import reflect_full
from vortexflow.ansatz import (ModelParams, Regime, _core_frames, _solve_phase, build_pair,
                               build_ring, build_ring_phase, kernel_Zd, ring_forcing,
                               smoothstep_cutoff)
from vortexflow.fields import GridSpec, Symmetry, axisym_term, diff_ops
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
    # the closed form of [lap + H1](theta_1 - theta_2 + phi_s) where chi == 1
    # (within CHI_INNER_FRAC * d of e1) is O(eps^2)
    eps = 0.05
    p = ring_params(eps=eps, d_hat=1.0)  # d = 20
    spec = GridSpec(40.0, 40.0, 0.25, 0.25, Symmetry.RING)
    d = p.d
    X1, X2, ell1, _, ell2, _ = _core_frames(spec, d)
    l1sq = np.where(ell1 > 0, ell1**2, np.inf)
    l2sq = ell2**2
    with np.errstate(divide="ignore", invalid="ignore"):
        first = 4.0 * X2 * (X1 - d) / (l1sq * l2sq)
        second = np.where(X1 > 0, X2 * (X1**2 - X2**2 - d**2) / (X1 * l1sq * l2sq), 0.0)
    res = first + second
    zone = (ell1 > 1.0) & (ell1 < p.d / 10.0)
    assert np.max(np.abs(np.where(zone, res, 0.0))) <= 10 * eps**2


def test_phi_r_decay_bound(profile):
    p = ring_params()
    spec = GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING)
    _, phi_r = build_ring_phase(p, spec)
    X1, X2 = spec.mesh()
    r = np.hypot(X1, X2)
    assert np.max(np.abs(phi_r.data) * (1.0 + r)) < 5.0


def _axisym_laplacian(spec):
    """Sparse 2-D [lap + (1/x1) d1] for an odd-in-x2 scalar on the phase
    unknowns: the quarter grid without the x2 = 0 row (odd parity pins it
    to zero) and the outer Dirichlet layer, in row-major order.  The
    x1 = 0 column uses the even-parity axis limit lap_x1 + H1 -> 4 d11."""
    n1, n2, h1, h2 = spec.n1, spec.n2, spec.h1, spec.h2
    mask = np.zeros((n1, n2), dtype=bool)
    mask[: n1 - 1, 1: n2 - 1] = True
    idx = -np.ones((n1, n2), dtype=int)
    idx[mask] = np.arange(mask.sum())
    I, J = np.nonzero(mask)
    r = idx[I, J]
    x1 = spec.h1 * I

    rows, cols, vals = [r], [r], [np.full(r.size, -2.0 / h2**2)]

    def couple(ii, jj, v, sel=None):
        """Add v * phi[ii, jj] to the masked rows; jj = 0 is pinned to zero."""
        if sel is None:
            sel = np.ones(r.size, dtype=bool)
        keep = sel & mask[ii, jj]
        rows.append(r[keep])
        cols.append(idx[ii[keep], jj[keep]])
        vals.append(np.broadcast_to(v, r.size)[keep])

    couple(I, J + 1, 1.0 / h2**2)
    couple(I, np.maximum(J - 1, 0), 1.0 / h2**2, sel=J - 1 >= 1)

    axis = I == 0
    interior = ~axis
    rows.append(r[axis]); cols.append(r[axis]); vals.append(np.full(axis.sum(), -4.0 / h1**2))
    couple(np.minimum(I + 1, n1 - 1), J, 4.0 / h1**2, sel=axis)
    with np.errstate(divide="ignore"):
        ch = np.where(I > 0, 1.0 / (2.0 * h1 * np.where(x1 > 0, x1, 1.0)), 0.0)
    rows.append(r[interior]); cols.append(r[interior])
    vals.append(np.full(interior.sum(), -2.0 / h1**2))
    couple(np.minimum(I + 1, n1 - 1), J, 1.0 / h1**2 + ch, sel=interior)
    couple(np.maximum(I - 1, 0), J, 1.0 / h1**2 - ch, sel=interior)

    n = int(mask.sum())
    return csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))


@pytest.mark.parametrize("spec", [GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING),
                                  GridSpec(14.0, 9.0, 0.25, 0.2, Symmetry.RING)],
                         ids=["square", "rectangular"])
def test_ring_phase_matches_sparse_oracle(spec):
    # one factor solves a stack of forcings: the phase problems at d = 6 and 4.5
    cases = [ring_params(), ring_params(d_hat=0.225)]
    forcings = [ring_forcing(p, spec, build_ring_phase(p, spec)[0]) for p in cases]
    A = _axisym_laplacian(spec)
    for p, g_full, phi in zip(cases, forcings, _solve_phase(spec, forcings)):
        assert np.array_equal(phi, build_ring_phase(p, spec)[1].data)
        g = g_full[:-1, 1:-1].ravel()
        x = phi[:-1, 1:-1].ravel()
        assert np.linalg.norm(A @ x - g) <= 1e-11 * np.linalg.norm(g)
        ref = spsolve(A, g)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert np.all(phi[-1, :] == 0.0) and np.all(phi[:, [0, -1]] == 0.0)


@pytest.mark.parametrize("spec", [GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING),
                                  GridSpec(14.0, 9.0, 0.25, 0.2, Symmetry.RING)],
                         ids=["square", "rectangular"])
def test_ring_phase_axis_row_is_the_ghost_closure(spec):
    # _solve_phase writes the x1 = 0 row by hand (lap_x1 + H1 -> 4 d11); the
    # stencils close it with the even ghost of fields.reflect, and both must
    # give [lap + H1] phi_r = g on the unknowns
    p = ring_params()
    phi_s, phi_r = build_ring_phase(p, spec)
    g = ring_forcing(p, spec, phi_s)[:-1, 1:-1]
    got = (diff_ops(phi_r)[2].data + axisym_term(phi_r.data, spec))[:-1, 1:-1]
    assert np.max(np.abs(got - g)) <= 1e-10 * np.max(np.abs(g))


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
    Z = kernel_Zd(p, spec, profile)  # R = min(6, 0.4 d) = 4
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
