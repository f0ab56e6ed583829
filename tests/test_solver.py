import numpy as np
import pytest

from vortexflow import ansatz, solver
from vortexflow.ansatz import ModelParams, Regime, build_ansatz, build_pair, kernel_Zd
from vortexflow.fields import ComplexField, GridSpec, Symmetry, symmetrize_complex
from vortexflow.profile import eval_profile
from vortexflow.solver import (_bordered_lu, apply_S, assemble_jacobian, build_case,
                               extract_multiplier, linearize_apply,
                               solve_at_separation, solve_projected)


def pair_params(eps=0.1, kappa=0.0, d_hat=1.0, sch=False):
    return ModelParams(Regime.PAIR_SCH if sch else Regime.PAIR_WM, eps, kappa, d_hat)


def single_vortex(profile, spec, center):
    X1, X2 = spec.mesh()
    ell = np.hypot(X1 - center[0], X2 - center[1])
    th = np.arctan2(X2 - center[1], X1 - center[0])
    rho, _ = eval_profile(profile, ell)
    return ComplexField(spec, symmetrize_complex(rho * np.exp(1j * th)))


def test_S0_of_unit_constant_is_zero():
    spec = GridSpec(4.0, 4.0, 0.25, 0.25, Symmetry.PAIR)
    u = ComplexField(spec, np.ones((spec.n1, spec.n2), dtype=complex))
    p = pair_params()
    out = apply_S(u, "S0", p)
    assert np.all(out.data == 0.0)


def test_tag_grid_mismatch():
    p = pair_params()
    ring_spec = GridSpec(4.0, 4.0, 0.25, 0.25, Symmetry.RING)
    u = ComplexField(ring_spec, np.ones((ring_spec.n1, ring_spec.n2), dtype=complex))
    with pytest.raises(ValueError):
        apply_S(u, "S1", p)
    pair_spec = GridSpec(4.0, 4.0, 0.25, 0.25, Symmetry.PAIR)
    v = ComplexField(pair_spec, np.ones((pair_spec.n1, pair_spec.n2), dtype=complex))
    with pytest.raises(ValueError):
        apply_S(v, "S4", ModelParams(Regime.RING_SCH, 0.05, 0.0, 0.3))
    with pytest.raises(ValueError):
        apply_S(v, "S9", p)


def test_T2_on_plane_wave():
    spec = GridSpec(8.0, 8.0, 0.1, 0.1, Symmetry.PAIR)
    X1, X2 = spec.mesh()
    u = ComplexField(spec, symmetrize_complex(np.exp(1j * X2)))
    p = pair_params(sch=True, kappa=0.25)
    # isolate T2 = -i d2: S2 - S1 = kappa*eps*T2
    s2 = apply_S(u, "S2", p).data
    s1 = apply_S(u, "S1", p).data
    t2 = (s2 - s1) / (p.kappa * p.eps)
    interior = (slice(2, -2), slice(2, -2))
    expected = np.sin(0.1) / 0.1 * u.data[interior]
    assert np.max(np.abs(t2[interior] - expected)) < 1e-12


def test_single_vortex_truncation_refines(profile):
    errs = []
    for h in (0.2, 0.1):
        spec = GridSpec(24.0, 12.0, h, h, Symmetry.PAIR)
        w = single_vortex(profile, spec, (12.0, 0.0))
        S = apply_S(w, "S0", pair_params())
        X1, _ = spec.mesh()
        mask = np.zeros(S.data.shape, bool)
        mask[2:-2, :-2] = True
        mask &= X1 >= 2 * h  # keep clear of the even-ghost column
        errs.append(np.abs(np.where(mask, S.data, 0)).max())
    assert 3.0 <= errs[0] / errs[1] <= 5.5


def test_apply_S_commutes_with_parity(profile):
    # a parity-respecting field stays parity-respecting under S: the
    # imaginary part on the x2 = 0 row remains exactly zero, so the
    # full-plane reflection of S[u] is single-valued
    p = pair_params(eps=0.1, kappa=0.25, sch=True)
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    S = apply_S(V, "S2", p)
    assert np.all(S.data[:, 0].imag == 0.0)


def test_linearize_at_unit_constant():
    spec = GridSpec(4.0, 4.0, 0.25, 0.25, Symmetry.PAIR)
    ones = np.ones((spec.n1, spec.n2), dtype=complex)
    u = ComplexField(spec, ones.copy())
    v = ComplexField(spec, ones.copy())
    p = pair_params()
    out = linearize_apply(u, v, "S0", p)
    # radial derivative of F at |u| = 1 equals -1
    assert np.max(np.abs(out.data[1:-1, 1:-1] + 1.0)) < 1e-5


def test_linearize_linearity(profile):
    p = pair_params()
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    rng = np.random.default_rng(7)
    vdat = rng.standard_normal(V.data.shape) + 1j * rng.standard_normal(V.data.shape)
    vdat[:, 0] = vdat[:, 0].real
    vdat[-1, :] = 0
    vdat[:, -1] = 0
    base = linearize_apply(V, ComplexField(spec, vdat.copy()), "S1", p).data
    for alpha in (2.0, -3.0):
        scaled = linearize_apply(V, ComplexField(spec, alpha * vdat), "S1", p).data
        rel = np.abs(scaled - alpha * base).max() / np.abs(alpha * base).max()
        assert rel < 1e-6


def test_linearize_zero_direction_rejected(profile):
    p = pair_params()
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    with pytest.raises(ValueError):
        linearize_apply(V, ComplexField(spec, np.zeros_like(V.data)), "S1", p)


def test_assembled_jacobian_matches_directional(profile):
    for sch in (False, True):
        p = pair_params(eps=0.1, kappa=0.25 if sch else 0.0, sch=sch)
        spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
        V = build_pair(p, spec, profile)
        rng = np.random.default_rng(11)
        vdat = rng.standard_normal(V.data.shape) + 1j * rng.standard_normal(V.data.shape)
        vdat[:, 0] = vdat[:, 0].real
        vdat[-1, :] = 0
        vdat[:, -1] = 0
        A, dm = assemble_jacobian(V, p.tag, p)
        lhs = A @ dm.pack(vdat)
        rhs = dm.pack(linearize_apply(V, ComplexField(spec, vdat), p.tag, p).data)
        rel = np.abs(lhs - rhs).max() / np.abs(lhs).max()
        assert rel < 1e-6


def test_assembled_jacobian_matches_directional_ring(profile):
    p = ModelParams(Regime.RING_SCH, 0.05, 0.25, 0.3)
    spec = GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING)
    V = build_ansatz(p, spec, profile)
    rng = np.random.default_rng(13)
    vdat = rng.standard_normal(V.data.shape) + 1j * rng.standard_normal(V.data.shape)
    vdat[:, 0] = vdat[:, 0].real
    vdat[-1, :] = 0
    vdat[:, -1] = 0
    A, dm = assemble_jacobian(V, "S4", p)
    lhs = A @ dm.pack(vdat)
    rhs = dm.pack(linearize_apply(V, ComplexField(spec, vdat), "S4", p).data)
    assert np.abs(lhs - rhs).max() / np.abs(lhs).max() < 1e-6


def test_near_kernel_of_single_vortex(profile):
    # discrete realization of the translation-mode kernel at h = 0.1
    h = 0.1
    spec = GridSpec(30.0, 15.0, h, h, Symmetry.PAIR)
    center = (15.0, 0.0)
    w = single_vortex(profile, spec, center)
    X1, X2 = spec.mesh()
    ell = np.hypot(X1 - center[0], X2 - center[1])
    th = np.arctan2(X2, X1 - center[0])
    rho, drho = eval_profile(profile, ell)
    with np.errstate(invalid="ignore", divide="ignore"):
        d1w = (drho * np.cos(th) - 1j * np.where(ell > 0, rho / ell, 0.0)
               * np.sin(th)) * np.exp(1j * th)
    d1w = np.where(ell > 0, d1w, profile.slope_a)
    v = ComplexField(spec, symmetrize_complex(d1w))
    out = linearize_apply(w, v, "S0", pair_params())
    mask = np.zeros(out.data.shape, bool)
    mask[2:-2, :-2] = True
    mask &= X1 >= 2 * h
    num = np.sqrt(np.sum(np.abs(np.where(mask, out.data, 0)) ** 2))
    den = np.sqrt(np.sum(np.abs(np.where(mask, v.data, 0)) ** 2))
    assert num / den <= 5e-3


def test_solve_projected_small_pair(profile):
    p = pair_params(eps=0.1)
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    Z = kernel_Zd(p, spec, profile)
    res = solve_projected(p, V, Z, newton_tol=1e-11)
    assert res.converged and res.final_residual <= 1e-8
    assert res.newton_iters <= 15
    # parity of the solution is exact
    assert np.all(res.u.data[:, 0].imag == 0.0)
    # Dirichlet layer untouched
    assert np.array_equal(res.u.data[-1, :], V.data[-1, :])
    assert np.array_equal(res.u.data[:, -1], V.data[:, -1])
    # the multiplier is reproduced by post-hoc projection
    c_hat = extract_multiplier(res.u, V, Z, p.tag, p)
    assert abs(c_hat - res.c_mult) <= 1e-8
    # corrector is small
    assert res.corrector_norm_star < 0.5


def test_newton_tol_above_acceptance_floor_is_honoured(profile):
    # stops at its own tolerance, above the 1e-8 floor, and is accepted
    res = solve_at_separation(pair_params(eps=0.1), 10.0, profile, h=0.5,
                              newton_tol=1e-4)
    assert res.converged and 1e-8 < res.final_residual <= 1e-4


def test_ring_solve_factors_each_system_once(profile, monkeypatch):
    calls = []
    for mod in (ansatz, solver):
        def counted(*args, _splu=mod.splu, _name=mod.__name__, **kwargs):
            calls.append((_name, kwargs.get("permc_spec")))
            return _splu(*args, **kwargs)
        monkeypatch.setattr(mod, "splu", counted)
    p = ModelParams(Regime.RING_SCH, 0.05, 0.0, 0.3)
    res = solve_at_separation(p, p.d, profile, h=0.25)
    assert res.converged
    assert calls == [("vortexflow.ansatz", "MMD_AT_PLUS_A"),
                     ("vortexflow.solver", "MMD_AT_PLUS_A")]


def test_build_case_shares_one_factor_bitwise(profile, monkeypatch):
    p = ModelParams(Regime.RING_SCH, 0.05, 0.0, 0.3)
    spec = GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING)
    V_ref = build_ansatz(p, spec, profile)
    Z_ref = kernel_Zd(p, spec, profile)
    calls = []

    def counted(*args, _splu=ansatz.splu, **kwargs):
        calls.append(kwargs)
        return _splu(*args, **kwargs)

    monkeypatch.setattr(ansatz, "splu", counted)
    V, Z = build_case(p, spec, profile)
    assert len(calls) == 1
    assert V.data.tobytes() == V_ref.data.tobytes()
    assert Z.data.tobytes() == Z_ref.data.tobytes()


@pytest.mark.parametrize("ring", [False, True])
def test_bordered_lu_solves_bordered_system(profile, ring):
    if ring:
        p = ModelParams(Regime.RING_SCH, 0.05, 0.0, 0.3)
        spec = GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING)
    else:
        p = pair_params(eps=0.1)
        spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_ansatz(p, spec, profile)
    Z = kernel_Zd(p, spec, profile)
    P, dm = assemble_jacobian(V, p.tag, p)
    W = 1.0 / (1.0 + np.abs(V.data) ** 2) ** 2
    z_col = dm.pack(Z.data)
    grad_con = dm.pack(W * Z.data * spec.h1 * spec.h2)
    lu = _bordered_lu(P, dm, z_col, grad_con)
    b = np.random.default_rng(17).standard_normal(dm.n + 1)
    x = lu.solve(b)
    Bx = np.concatenate([P @ x[:-1] - x[-1] * z_col, [grad_con @ x[:-1]]])
    assert np.linalg.norm(Bx - b) <= 1e-12 * np.linalg.norm(b)
