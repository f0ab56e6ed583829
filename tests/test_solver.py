import math
import platform
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import block_diag, csc_matrix, csr_matrix, kron
from scipy.sparse.linalg import splu

from references import linearize_apply
from vortexflow import ansatz, diagnostics, solver
from vortexflow.ansatz import ModelParams, Regime, build_ansatz, build_pair, kernel_Zd
from vortexflow.cli_io import FieldFormatError, load_field, save_field
from vortexflow.diagnostics import corrector_norms
from vortexflow.fields import ComplexField, GridSpec, Symmetry, symmetrize_complex
from vortexflow.profile import eval_profile
from vortexflow.solver import (_ARMS, _COLOURS, _arm_coefficients, _border, _bordered_lu,
                               _coarse_spec, _half_sweep, _Jacobian, _joined, _on_grid, _packed,
                               _packed_split, _preconditioner, _prolong, _refresh_ghosts,
                               _restrict, _split, _split_unknowns, _unknown_index, apply_S,
                               assemble_jacobian, build_case, gmres, solve_at_separation,
                               solve_projected)


class _DofMap:
    """The layout oracle: the packed unknowns as boolean masks and index
    tables over the whole grid.  Re(u) at non-Dirichlet points, Im(u) at
    non-Dirichlet points off the x2 = 0 row, in row-major order."""

    def __init__(self, spec: GridSpec):
        n1, n2 = spec.n1, spec.n2
        act = np.zeros((n1, n2), dtype=bool)
        act[: n1 - 1, : n2 - 1] = True
        self.re_mask = act
        self.im_mask = act & (np.arange(n2)[None, :] >= 1)
        self.n_re = int(self.re_mask.sum())
        self.n_im = int(self.im_mask.sum())
        self.n = self.n_re + self.n_im
        self.re_idx = -np.ones((n1, n2), dtype=np.int32)
        self.im_idx = -np.ones((n1, n2), dtype=np.int32)
        self.re_idx[self.re_mask] = np.arange(self.n_re)
        self.im_idx[self.im_mask] = self.n_re + np.arange(self.n_im)
        self.spec = spec

    def pack(self, arr):
        return np.concatenate([arr.real[self.re_mask], arr.imag[self.im_mask]])

    def unpack(self, vec):
        out = np.zeros((self.spec.n1, self.spec.n2), dtype=complex)
        out.real[self.re_mask] = vec[: self.n_re]
        out.imag[self.im_mask] = vec[self.n_re:]
        return out


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
    out = apply_S(u, None)
    assert np.all(out.data == 0.0)


@pytest.mark.parametrize("params", [pair_params(), ModelParams(Regime.RING_SCH, 0.05, 0.0, 0.3)],
                         ids=["pair", "ring"])
@pytest.mark.parametrize("call", [apply_S, _Jacobian, diagnostics.error_field,
                                  lambda u, p: solve_projected(p, u, u)],
                         ids=["apply_S", "jacobian", "error_field", "solve_projected"])
def test_a_grid_of_the_other_symmetry_is_rejected(params, call):
    # the regime of params fixes the operator, and with it the grid's symmetry
    other = Symmetry.PAIR if params.is_ring else Symmetry.RING
    u = ComplexField(GridSpec(4.0, 4.0, 0.25, 0.25, other), np.ones((16, 16), complex))
    with pytest.raises(ValueError, match="grids"):
        call(u, params)


def test_T2_on_plane_wave():
    spec = GridSpec(8.0, 8.0, 0.1, 0.1, Symmetry.PAIR)
    X1, X2 = spec.mesh()
    u = ComplexField(spec, symmetrize_complex(np.exp(1j * X2)))
    p = pair_params(sch=True, kappa=0.25)
    # isolate T2 = -i d2: S2 at kappa minus S2 at kappa = 0 is kappa*eps*T2
    s2 = apply_S(u, p).data
    s1 = apply_S(u, replace(p, kappa=0.0)).data
    t2 = (s2 - s1) / (p.kappa * p.eps)
    interior = (slice(2, -2), slice(2, -2))
    expected = np.sin(0.1) / 0.1 * u.data[interior]
    assert np.max(np.abs(t2[interior] - expected)) < 1e-12


def test_single_vortex_truncation_refines(profile):
    errs = []
    for h in (0.2, 0.1):
        spec = GridSpec(24.0, 12.0, h, h, Symmetry.PAIR)
        w = single_vortex(profile, spec, (12.0, 0.0))
        S = apply_S(w, None)
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
    S = apply_S(V, p)
    assert np.all(S.data[:, 0].imag == 0.0)


def test_linearize_at_unit_constant():
    spec = GridSpec(4.0, 4.0, 0.25, 0.25, Symmetry.PAIR)
    ones = np.ones((spec.n1, spec.n2), dtype=complex)
    u = ComplexField(spec, ones.copy())
    v = ComplexField(spec, ones.copy())
    out = linearize_apply(u, v, None)
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
    base = linearize_apply(V, ComplexField(spec, vdat.copy()), p).data
    for alpha in (2.0, -3.0):
        scaled = linearize_apply(V, ComplexField(spec, alpha * vdat), p).data
        rel = np.abs(scaled - alpha * base).max() / np.abs(alpha * base).max()
        assert rel < 1e-6


def test_linearize_zero_direction_rejected(profile):
    p = pair_params()
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    with pytest.raises(ValueError):
        linearize_apply(V, ComplexField(spec, np.zeros_like(V.data)), p)


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
        dm = _DofMap(V.spec)
        A = assemble_jacobian(_Jacobian(V, p))
        lhs = A @ dm.pack(vdat)
        rhs = dm.pack(linearize_apply(V, ComplexField(spec, vdat), p).data)
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
    dm = _DofMap(V.spec)
    A = assemble_jacobian(_Jacobian(V, p))
    lhs = A @ dm.pack(vdat)
    rhs = dm.pack(linearize_apply(V, ComplexField(spec, vdat), p).data)
    assert np.abs(lhs - rhs).max() / np.abs(lhs).max() < 1e-6


def test_solve_projected_small_pair(profile):
    p = pair_params(eps=0.1)
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    Z = kernel_Zd(p, spec, profile)
    res = solve_projected(p, V, Z, newton_tol=1e-11)
    assert res.final_residual <= 1e-11
    assert res.newton_iters <= 15
    # parity of the solution is exact
    assert np.all(res.u.data[:, 0].imag == 0.0)
    # Dirichlet layer untouched
    assert np.array_equal(res.u.data[-1, :], V.data[-1, :])
    assert np.array_equal(res.u.data[:, -1], V.data[:, -1])
    # corrector is small
    assert corrector_norms(res.u, V, p)["star"] < 0.5


def test_loose_newton_tol_is_honoured(profile):
    # stops at its own tolerance, far above the default, and is accepted
    res = solve_at_separation(pair_params(eps=0.1), 10.0, profile, h=0.5,
                              newton_tol=1e-4)
    assert 1e-8 < res.final_residual <= 1e-4


def test_residual_above_newton_tol_is_not_accepted(profile, monkeypatch):
    # two steps end near 2e-10: above newton_tol, so the solve fails
    # rather than being accepted at a looser floor
    monkeypatch.setattr(solver, "NEWTON_MAX", 2)
    with pytest.raises(solver.NonConvergenceError) as err:
        solve_at_separation(pair_params(eps=0.1), 10.0, profile, h=0.5, newton_tol=1e-11)
    assert err.value.last_residual > 1e-11
    assert len(err.value.krylov_iters) == 2


def test_ring_solve_factors_each_system_once(profile, monkeypatch):
    calls = []
    for mod in (ansatz, solver):
        def counted(*args, _splu=mod.splu, _name=mod.__name__, **kwargs):
            calls.append((_name, kwargs.get("permc_spec")))
            return _splu(*args, **kwargs)
        monkeypatch.setattr(mod, "splu", counted)
    p = ModelParams(Regime.RING_SCH, 0.05, 0.0, 0.3)
    solve_at_separation(p, p.d, profile, h=0.25)
    assert [mod for mod, _ in calls].count("vortexflow.solver") == 1
    # V_d and the two rebuilds of Z_d share one phase factor
    assert [mod for mod, _ in calls].count("vortexflow.ansatz") == 1
    # both factors take SuperLU's minimum-degree order
    assert {(mod, spec) for mod, spec in calls} == {("vortexflow.ansatz", "MMD_AT_PLUS_A"),
                                                    ("vortexflow.solver", "MMD_AT_PLUS_A")}


def test_build_case_shares_one_factor_bitwise(profile, monkeypatch):
    p = ModelParams(Regime.RING_SCH, 0.05, 0.0, 0.3)
    spec = GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING)
    factors = []

    def counted(*args, _splu=ansatz.splu, **kwargs):
        factors.append(_splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(ansatz, "splu", counted)
    # the oracle: three standalone ansatz builds, each with its own phase
    # factor, and the cutoff difference formed here
    d, delta = p.d, 1e-3 * p.d
    V_ref, plus, minus = (build_ansatz(q, spec, profile)
                          for q in (p, p.with_d(d + delta), p.with_d(d - delta)))
    assert len(factors) == 3
    X1, X2 = spec.mesh()
    R = min(ansatz.CUTOFF_RADIUS, 0.4 * d)
    cut = (ansatz.smoothstep_cutoff(np.hypot(X1 - d, X2) / R)
           + ansatz.smoothstep_cutoff(np.hypot(X1 + d, X2) / R))
    Z_ref = symmetrize_complex((plus.data - minus.data) / (2.0 * delta) * cut)
    factors.clear()
    V, Z = build_case(p, spec, profile)
    assert len(factors) == 1
    assert V.data.tobytes() == V_ref.data.tobytes()
    assert Z.data.tobytes() == Z_ref.tobytes()
    assert kernel_Zd(p, spec, profile).data.tobytes() == Z_ref.tobytes()


def _tag_case(tag):
    """Parameters and grid of operator `tag`; "rect" is S1 on a grid with
    n1 != n2."""
    if tag == "rect":
        return pair_params(eps=0.1), GridSpec(20.0, 12.0, 0.25, 0.25, Symmetry.PAIR)
    if tag in ("S3", "S4"):
        p = ModelParams(Regime.RING_SCH if tag == "S4" else Regime.RING_WM, 0.05,
                        0.25 if tag == "S4" else 0.0, 0.3)
        return p, GridSpec(12.0, 12.0, 0.25, 0.25, Symmetry.RING)
    return (pair_params(eps=0.1, kappa=0.25 if tag == "S2" else 0.0, sch=tag == "S2"),
            GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR))


def _coo_jacobian(gammas, dm):
    """Reference assembly in coordinate form: every coupling of every arm
    listed in emission order, duplicates summed by scipy's conversion."""
    I, J = np.nonzero(dm.re_mask)
    rows, cols, vals = [], [], []
    for g, (di, dj, conj_all) in zip(gammas, _ARMS):
        ii, jj = np.abs(I + di), J + dj
        fold = jj < 0
        parts = ([(fold, True), (~fold, False)] if fold.any() and not conj_all
                 else [(np.ones_like(fold), conj_all)])
        for sel, conj in parts:
            r_re, r_im = dm.re_idx[I[sel], J[sel]], dm.im_idx[I[sel], J[sel]]
            c_re = dm.re_idx[ii[sel], np.abs(jj[sel])]
            c_im = dm.im_idx[ii[sel], np.abs(jj[sel])]
            gr, gi = g[sel].real, g[sel].imag
            for r, c, v in ((r_re, c_re, gr), (r_im, c_re, gi),
                            (r_re, c_im, gi if conj else -gi),
                            (r_im, c_im, -gr if conj else gr)):
                ok = (r >= 0) & (c >= 0)
                rows.append(r[ok])
                cols.append(c[ok])
                vals.append(v[ok])
    return csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(dm.n, dm.n))


def _same_bits(A, B):
    return (np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
            and A.data.tobytes() == B.data.tobytes())


@pytest.mark.parametrize("tag", ["S1", "S2", "S3", "S4"])
def test_assembly_is_the_coordinate_form_on_any_dof_map(profile, tag):
    # the matrix of a `_Jacobian`, indexed by the packed layout, is the
    # coordinate form indexed by the oracle's masks, at the ansatz and off it
    p, spec = _tag_case(tag)
    V = build_ansatz(p, spec, profile)
    rng = np.random.default_rng(19)
    u = ComplexField(spec, V.data + 0.05 * (rng.standard_normal(V.data.shape)
                                            + 1j * rng.standard_normal(V.data.shape)))
    dm = _DofMap(spec)
    for w in (V, u):
        A = assemble_jacobian(_Jacobian(w, p))
        assert _same_bits(A, _coo_jacobian(_arm_coefficients(w, p), dm))


@pytest.mark.parametrize("l1,l2,symmetry", [(20.0, 20.0, Symmetry.PAIR),
                                            (12.0, 12.0, Symmetry.RING),
                                            (20.0, 12.0, Symmetry.PAIR),
                                            (20.25, 12.25, Symmetry.RING)],
                         ids=["pair", "ring", "rect", "odd"])
def test_packed_layout_is_the_dof_maps(l1, l2, symmetry):
    # packing, unpacking, the assembly's index tables and the border are,
    # bit for bit, those of the mask-based oracle
    spec = GridSpec(l1, l2, 0.25, 0.25, symmetry)
    dm = _DofMap(spec)
    rng = np.random.default_rng(41)

    def field():
        shape = (spec.n1, spec.n2)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a = field()
    assert _packed(a[:-1, :-1]).tobytes() == dm.pack(a).tobytes()
    x = rng.standard_normal(dm.n)
    grid = np.zeros((spec.n1, spec.n2), complex)
    assert _on_grid(x, grid[:-1, :-1]).base is grid
    assert grid.tobytes() == dm.unpack(x).tobytes()
    re_idx, im_idx = _unknown_index(spec)
    assert re_idx.dtype == im_idx.dtype == dm.re_idx.dtype
    assert re_idx.tobytes() == dm.re_idx.tobytes() and im_idx.tobytes() == dm.im_idx.tobytes()
    V, Z = ComplexField(spec, field()), ComplexField(spec, field())
    z_col, grad_con, W = _border(V, Z)
    assert W.tobytes() == (1.0 / (1.0 + np.abs(V.data) ** 2) ** 2).tobytes()
    assert z_col.tobytes() == dm.pack(Z.data).tobytes()
    assert grad_con.tobytes() == dm.pack(W * Z.data * (spec.h1 * spec.h2)).tobytes()


@pytest.mark.parametrize("tag", ["S1", "S2", "S3", "S4", "rect"])
def test_stencil_product_matches_the_assembled_matrix(profile, tag):
    # `_Jacobian` applies the six arms matrix-free, closing the axes with
    # ghost rows: its product is the coordinate-form matrix's up to
    # rounding, on the x1 = 0 axis rows and the rows that fold across
    # x2 = 0 as elsewhere, and its diagonal is that matrix's to the bit
    p, spec = _tag_case(tag)
    V = build_ansatz(p, spec, profile)
    rng = np.random.default_rng(29)
    u = ComplexField(spec, V.data + 0.05 * (rng.standard_normal(V.data.shape)
                                            + 1j * rng.standard_normal(V.data.shape)))
    dm = _DofMap(spec)
    axis_rows = np.concatenate([dm.re_idx[0, :-1], dm.im_idx[0, 1:-1]])
    fold_rows = dm.re_idx[:-1, 0]
    for w in (V, u):
        J = _Jacobian(w, p)
        A = _coo_jacobian(_arm_coefficients(w, p), dm)
        x = rng.standard_normal(dm.n)
        got, want = J @ x, A @ x
        for rows in (slice(None), axis_rows, fold_rows):
            assert np.abs(got[rows] - want[rows]).max() <= 1e-13 * np.abs(want[rows]).max()
        assert J.diagonal().tobytes() == A.diagonal().tobytes()


def test_short_krylov_solve_raises(profile, monkeypatch):
    # the first step's forcing term takes two V-cycles; with one restart
    # cycle of one apply GMRES stops with info != 0, and a GMRES that
    # stops short of its forcing term fails the solve
    p = pair_params(eps=0.1)
    monkeypatch.setattr(solver, "NEWTON_MAX", 1)
    plain = solve_at_separation(p, 8.125, profile, h=0.25, newton_tol=1e-3)
    assert plain.newton_iters == 1 and plain.final_residual <= 1e-3
    assert plain.krylov_iters[0] > 1
    monkeypatch.setattr(solver, "GMRES_MAXITER", 1)
    monkeypatch.setattr(solver, "GMRES_RESTART", 1)
    eta = solver._forcing_term(plain.newton_residuals[0], 1e-3)
    with pytest.raises(solver.KrylovStagnationError, match=f"eta={eta:.2e}") as err:
        solve_at_separation(p, 8.125, profile, h=0.25, newton_tol=1e-3)
    assert len(err.value.krylov_iters) == 1 and err.value.krylov_iters[0] >= 1
    assert err.value.newton_residuals == (err.value.last_residual,)
    assert err.value.newton_residuals[0] == plain.newton_residuals[0]


def _bordered_case(tag, profile):
    """The parameters, ansatz V and co-kernel Z of `_tag_case(tag)`, the
    ansatz Jacobian's matrix P, the layout oracle `_DofMap`, and the
    border column z and row g of the bordered system, packed by the
    oracle."""
    p, spec = _tag_case(tag)
    V = build_ansatz(p, spec, profile)
    Z = kernel_Zd(p, spec, profile)
    dm = _DofMap(spec)
    P = assemble_jacobian(_Jacobian(V, p))
    W = 1.0 / (1.0 + np.abs(V.data) ** 2) ** 2
    return p, V, Z, P, dm, dm.pack(Z.data), dm.pack(W * Z.data * spec.h1 * spec.h2)


def _bordered_parts(tag, profile):
    """P, the `_DofMap`, z and g of `_bordered_case(tag)`."""
    return _bordered_case(tag, profile)[3:]


def _bordered_matvec(P, z_col, grad_con):
    """x -> [[P, -z], [g^T, 0]] x in float64."""
    return lambda x: np.concatenate([P @ x[:-1] - x[-1] * z_col, [grad_con @ x[:-1]]])


def _coo_bordered(P, dm, z_col, grad_con):
    """Canonical float64 CSC form of [[P, -z], [g^T, 0]] built from
    coordinates, with the zero corner kept."""
    Pc, n = P.tocoo(), dm.n
    zi, gi = np.flatnonzero(z_col), np.flatnonzero(grad_con)
    return csc_matrix((np.concatenate([Pc.data, -z_col[zi], grad_con[gi], [0.0]]),
                       (np.concatenate([Pc.row, zi, np.full(gi.size, n), [n]]),
                        np.concatenate([Pc.col, np.full(zi.size, n), gi, [n]]))),
                      shape=(n + 1, n + 1))


@pytest.mark.parametrize("tag", ["S1", "S4"])
def test_bordered_matrix_matches_coordinate_form(profile, monkeypatch, tag):
    # the matrix factored is, array for array, the canonical CSC form of
    # [[P, -z], [g^T, 0]] built from coordinates, its zero corner stored,
    # with its values rounded to single precision for the factor
    P, dm, z_col, grad_con = _bordered_parts(tag, profile)
    seen = []

    def recorded(B, **kw):
        seen.append((B, kw))
        return splu(B, **kw)

    monkeypatch.setattr(solver, "splu", recorded)
    _bordered_lu(P, z_col, grad_con)
    (B, kw), = seen
    assert kw == {"permc_spec": "MMD_AT_PLUS_A"}
    assert B.dtype == np.float32
    assert _same_bits(B, _coo_bordered(P, dm, z_col, grad_con).astype(np.float32))
    n = dm.n
    corner = B.indices[B.indptr[n]:B.indptr[n + 1]] == n
    assert corner.sum() == 1 and B.data[B.indptr[n]:B.indptr[n + 1]][corner] == 0.0


@pytest.mark.parametrize("ring", [False, True])
def test_bordered_lu_solves_bordered_system(profile, ring):
    # the single-precision factor alone solves the bordered system to
    # about float32 accuracy; as the preconditioner of `gmres` it gives
    # a float64 solution
    P, dm, z_col, grad_con = _bordered_parts("S4" if ring else "S1", profile)
    M, _ = _bordered_lu(P, z_col, grad_con)
    A = _bordered_matvec(P, z_col, grad_con)
    b = np.random.default_rng(17).standard_normal(dm.n + 1)
    bnorm = np.linalg.norm(b)
    x = M(b)
    assert x.dtype == np.float32
    assert np.linalg.norm(A(x) - b) <= 1e-3 * bnorm
    x, info = gmres(A, b, M=M, rtol=1e-12)
    assert info == 0
    assert np.linalg.norm(A(x) - b) <= 1e-12 * bnorm


def test_gmres_with_exact_preconditioner_takes_one_step(profile):
    P, dm, z_col, grad_con = _bordered_parts("S1", profile)
    exact = splu(_coo_bordered(P, dm, z_col, grad_con), permc_spec="MMD_AT_PLUS_A")
    applies = []

    def M(v):
        applies.append(1)
        return exact.solve(v)

    A = _bordered_matvec(P, z_col, grad_con)
    b = np.random.default_rng(5).standard_normal(dm.n + 1)
    x, info = gmres(A, b, M=M, rtol=1e-10)
    assert info == 0 and len(applies) == 1
    assert np.linalg.norm(A(x) - b) <= 1e-10 * np.linalg.norm(b)


def test_gmres_holds_at_most_151_krylov_vectors():
    # identity preconditioning cannot solve this 100-eigenvalue system in
    # one restart cycle, so that cycle fills V and Z; then M turns exact
    # (a flexible GMRES allows M to change) and the next cycle ends in
    # one step.  V and Z are the only n-vector blocks it allocates.
    n = 20000
    diag = np.repeat(np.geomspace(1.0, 1e4, 100), n // 100)
    b = np.random.default_rng(3).standard_normal(n)
    applies = []

    def M(v):
        applies.append(1)
        return v if len(applies) <= solver.GMRES_RESTART else v / diag

    tracemalloc.start()
    try:
        x, info = gmres(lambda v: diag * v, b, M=M, rtol=1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info == 0 and len(applies) == solver.GMRES_RESTART + 1
    assert np.linalg.norm(diag * x - b) <= 1e-10 * np.linalg.norm(b)
    assert 2 * solver.GMRES_RESTART + 1 == 151
    assert solver.GMRES_RESTART * solver.GMRES_MAXITER == 1200
    assert 151 * 8 * n <= peak <= (151 + 8) * 8 * n


def test_gmres_keeps_a_float32_preconditioners_vectors_in_float32():
    # the system of the test above with M's vectors rounded to float32: Z
    # takes M's dtype, so the filled restart cycle holds 76 float64 vectors
    # of V and 75 float32 vectors of Z, not 151 float64 ones
    n = 20000
    diag = np.repeat(np.geomspace(1.0, 1e4, 100), n // 100)
    b = np.random.default_rng(3).standard_normal(n)
    applies = []

    def M(v):
        applies.append(1)
        return (v if len(applies) <= solver.GMRES_RESTART else v / diag).astype(np.float32)

    tracemalloc.start()
    try:
        x, info = gmres(lambda v: diag * v, b, M=M, rtol=1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info == 0 and solver.GMRES_RESTART + 1 < len(applies) <= solver.GMRES_RESTART + 4
    assert x.dtype == np.float64
    assert np.linalg.norm(diag * x - b) <= 1e-10 * np.linalg.norm(b)
    basis = (76 * 8 + 75 * 4) * n
    assert basis <= peak <= basis + 8 * 8 * n


@pytest.mark.parametrize("A, M", [
    (lambda v: 2.0 * v, lambda v: np.full_like(v, math.nan)),
    (lambda v: 2.0 * v, lambda v: np.full_like(v, math.inf, dtype=np.float32)),
    (lambda v: 1e308 * v, lambda v: 1e10 * v),  # a finite M whose product overflows
], ids=["M-nan", "M-inf", "A-overflow"])
def test_gmres_stops_unconverged_on_a_non_finite_column(A, M):
    # the first apply's Hessenberg column is not finite: GMRES stops there,
    # with no floating-point warning, and reports the apply as unconverged
    x, info = gmres(A, np.ones(8), M=M, rtol=1e-10)
    assert info == 1 and x.tobytes() == np.zeros(8).tobytes()


def test_gmres_with_a_float32_preconditioner_matches_its_float64_cast(profile, monkeypatch):
    # A is applied to the stored float32 vector, so keeping M's float32
    # output as it is makes the same applies and the same Hessenberg as
    # casting it to float64 first; x differs only by rounding
    P, dm, z_col, grad_con = _bordered_parts("S1", profile)
    M, _ = _bordered_lu(P, z_col, grad_con)
    A = _bordered_matvec(P, z_col, grad_con)
    b = np.random.default_rng(37).standard_normal(dm.n + 1)
    solve_triangular = solver.solve_triangular

    def run(precond):
        seen, hessenbergs = [], []

        def recorded(H, g):
            hessenbergs.append((H.copy(), g.copy()))
            return solve_triangular(H, g)

        def counted(v):
            seen.append(v.copy())
            return precond(v)

        monkeypatch.setattr(solver, "solve_triangular", recorded)
        x, info = gmres(A, b, M=counted, rtol=1e-12)
        assert info == 0
        return x, seen, hessenbergs

    x32, seen32, H32 = run(M)
    x64, seen64, H64 = run(lambda v: M(v).astype(np.float64))
    assert M(b).dtype == np.float32
    assert len(seen32) == len(seen64) >= 2
    assert all(np.array_equal(u, v) for u, v in zip(seen32, seen64))
    assert len(H32) == len(H64) >= 1
    assert all(np.array_equal(H, K) and np.array_equal(g, q)
               for (H, g), (K, q) in zip(H32, H64))
    assert np.linalg.norm(x32 - x64) <= 1e-14 * np.linalg.norm(x64)


def test_krylov_iters_count_every_lu_apply(profile, monkeypatch):
    solves, fills = [], []

    class Counted:
        def __init__(self, lu):
            self._lu = lu
            self.nnz = lu.nnz
            fills.append(lu.nnz)

        def solve(self, v):
            solves.append(1)
            return self._lu.solve(v)

    splu_ = solver.splu
    monkeypatch.setattr(solver, "splu", lambda *a, **kw: Counted(splu_(*a, **kw)))
    res = solve_at_separation(pair_params(eps=0.1), 10.0, profile, h=0.5, newton_tol=1e-11)
    assert len(res.krylov_iters) == res.newton_iters >= 2
    assert all(k >= 1 for k in res.krylov_iters)
    assert sum(res.krylov_iters) == len(solves)
    assert res.lu_fill == fills[0] > 0 and len(fills) == 1


@pytest.mark.parametrize("tols", [dict(newton_tol=math.nan), dict(newton_tol=math.inf),
                                  dict(newton_tol=0.0)],
                         ids=lambda tols: ",".join(f"{k}={v}" for k, v in tols.items()))
def test_unusable_tolerances_are_rejected(profile, tols):
    # a nan or inf newton_tol used to return the unsolved ansatz as converged
    p = pair_params(eps=0.1)
    match = "finite and > 0"
    with pytest.raises(ValueError, match=match):
        solve_at_separation(p, 10.0, profile, h=0.5, **tols)
    spec = GridSpec(20.0, 20.0, 0.5, 0.5, Symmetry.PAIR)
    V, Z = build_case(p.with_d(10.0), spec, profile)
    with pytest.raises(ValueError, match=match):
        solve_projected(p.with_d(10.0), V, Z, **tols)


@pytest.mark.parametrize("tols", [dict(newton_tol=math.nan), dict(newton_tol=0.0)],
                         ids=lambda tols: ",".join(f"{k}={v}" for k, v in tols.items()))
def test_unusable_tolerances_are_rejected_before_the_case_is_built(profile, monkeypatch,
                                                                   tols):
    built = []
    monkeypatch.setattr(solver, "build_case", lambda *args: built.append(args))
    with pytest.raises(ValueError):
        solve_at_separation(pair_params(eps=0.1), 10.0, profile, h=0.5, **tols)
    with pytest.raises(ValueError):
        solver.solve_balanced(pair_params(eps=0.1), (8.0, 12.0), profile, h=0.5, **tols)
    assert not built


@pytest.mark.parametrize("h", [5e-324, 1e-300, 1e-9, 0.0, math.nan])
def test_an_unusable_spacing_is_refused_before_the_case_is_built(profile, monkeypatch, h):
    # 2d/h is inf at a subnormal h, where ceil raised OverflowError, and
    # finite but too many points per side at 1e-300 and 1e-9, where numpy
    # was asked for the grid (at 1e-9, 149 GiB); h = 0 divided by zero
    built = []
    monkeypatch.setattr(solver, "build_case", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=r"\bh = "):
        solve_at_separation(pair_params(eps=0.1), 10.0, profile, h=h)
    assert not built


@pytest.mark.parametrize("l1,l2", [(20.0, 20.0), (20.25, 20.25), (20.0, 12.25)],
                         ids=["even", "odd", "even-odd"])
def test_unknowns_split_as_their_grid_does(l1, l2):
    # `_split_unknowns` lays the packed unknowns out as `_split` lays out
    # the grid `_on_grid` writes them on, in either precision, and
    # `_packed_split` inverts it, padded or not
    spec = GridSpec(l1, l2, 0.25, 0.25, Symmetry.PAIR)
    m1, m2 = spec.n1 - 1, spec.n2 - 1
    x64 = np.random.default_rng(47).standard_normal(_DofMap(spec).n)
    for x in (x64, x64.astype(np.float32)):
        for pad in (0, 1):
            want = _split(_on_grid(x, np.zeros((m1, m2), np.result_type(x, np.complex64))), pad)
            U = _split_unknowns(spec, x, pad)
            assert U.dtype == want.dtype and np.array_equal(U, want)
            assert _packed_split(spec, U, pad).tobytes() == x.tobytes()


def _prolonged(spec, e):
    """`_prolong` of the packed coarse unknowns e onto zero, packed."""
    U = _split_unknowns(spec, np.zeros(_DofMap(spec).n, e.dtype), 1)
    return _packed_split(spec, _prolong(spec, e, U), 1)


def _restricted(spec, r):
    """`_restrict` of the packed unknowns r."""
    return _restrict(spec, _split_unknowns(spec, r))


@pytest.mark.parametrize("l1,l2", [(20.0, 20.0), (20.25, 20.25), (20.0, 12.25)],
                         ids=["even", "odd", "even-odd"])
def test_prolongation_reproduces_bilinear_fields(l1, l2):
    # bilinear fields on the 2h grid, zero on its Dirichlet layer where
    # they are unknowns, come out exact at the fine points; Im stays an
    # unknown off the x2 = 0 row only
    spec = GridSpec(l1, l2, 0.25, 0.25, Symmetry.PAIR)
    spec_c = _coarse_spec(spec)
    assert (spec_c.n1, spec_c.n2) == (math.ceil(spec.n1 / 2), math.ceil(spec.n2 / 2))
    assert spec_c.h1 == 2 * spec.h1
    dm, dm_c = _DofMap(spec), _DofMap(spec_c)
    edge1, edge2 = spec_c.x1()[-1], spec_c.x2()[-1]  # the coarse Dirichlet layer

    def field(s):
        X1, X2 = s.mesh()
        return (edge1 - X1) * (edge2 - X2) + 1j * X2 * (edge1 - X1)

    e = dm_c.pack(field(spec_c))
    got = dm.unpack(_prolonged(spec, e))
    want = field(spec)
    assert np.all(got[:, 0].imag == 0.0)
    assert np.allclose(got.real[dm.re_mask], want.real[dm.re_mask], rtol=0, atol=1e-12)
    # Im is not zero on the coarse Dirichlet row x2 = edge2, which the
    # interpolation reads as zero: it is exact up to the last coarse unknown
    inside = dm.im_mask & (spec.x2()[None, :] <= edge2 - spec_c.h2 + 1e-12)
    assert np.allclose(got.imag[inside], want.imag[inside], rtol=0, atol=1e-12)
    # the grid stencils are the Kronecker product of the 1-D interpolations,
    # on this field and on a random one, up to the order of the sums
    P = _kron_prolongation(dm, dm_c)
    for x in (e, np.random.default_rng(29).standard_normal(dm_c.n)):
        want = P @ x
        assert np.abs(_prolonged(spec, x) - want).max() <= 1e-15 * np.abs(want).max()


def _interpolation_1d(m_fine, m_coarse):
    """Linear interpolation from coarse points 0..m_coarse-1 (spacing
    2h, from the axis) to fine points 0..m_fine-1 (spacing h); a coarse
    point past m_coarse - 1 is Dirichlet data and counts as zero."""
    i = np.arange(m_fine)
    odd = i[i % 2 == 1]
    rows = np.concatenate([i, odd])
    cols = np.concatenate([i // 2, odd // 2 + 1])
    vals = np.concatenate([np.where(i % 2 == 1, 0.5, 1.0), np.full(odd.size, 0.5)])
    keep = cols < m_coarse
    return csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(m_fine, m_coarse))


def _kron_prolongation(dm, dm_c):
    """The prolongation as a sparse matrix, the Kronecker product of the
    1-D interpolations on Re and its rows and columns off the x2 = 0 row
    on Im: the reference for `solver._prolong`."""
    m1, m2 = dm.spec.n1 - 1, dm.spec.n2 - 1
    k1, k2 = dm_c.spec.n1 - 1, dm_c.spec.n2 - 1
    P_re = kron(_interpolation_1d(m1, k1), _interpolation_1d(m2, k2), format="csr")
    P_im = P_re[np.arange(m1 * m2) % m2 >= 1][:, np.arange(k1 * k2) % k2 >= 1]
    return block_diag([P_re, P_im], format="csr")


@pytest.mark.parametrize("symmetry", [Symmetry.PAIR, Symmetry.RING])
@pytest.mark.parametrize("l1,l2", [(20.0, 20.0), (20.25, 12.25)], ids=["even", "odd-even"])
def test_restriction_is_a_quarter_of_the_adjoint(symmetry, l1, l2):
    # <R f, e> = <f, P e> / 4 on random f and e, the single-precision
    # cycle's float32 transfers included
    spec = GridSpec(l1, l2, 0.25, 0.25, symmetry)
    dm, dm_c = _DofMap(spec), _DofMap(_coarse_spec(spec))
    rng = np.random.default_rng(31)
    f, e = rng.standard_normal(dm.n), rng.standard_normal(dm_c.n)
    Rf, Pe = _restricted(spec, f), _prolonged(spec, e)
    assert Rf.shape == (dm_c.n,) and Pe.shape == (dm.n,)
    assert abs(Rf @ e - 0.25 * (f @ Pe)) <= 1e-13 * np.abs(f).sum()
    want = 0.25 * (_kron_prolongation(dm, dm_c).T @ f)
    assert np.abs(Rf - want).max() <= 1e-15 * np.abs(want).max()
    # the x2 = 0 row's Im, no unknown, does not reach the restriction
    R = _split_unknowns(spec, f)
    R[[0, 2], :, 0] += 1j * rng.standard_normal(R[[0, 2], :, 0].shape)
    assert _restrict(spec, R).tobytes() == Rf.tobytes()
    f32, e32 = f.astype(np.float32), e.astype(np.float32)
    assert _restricted(spec, f32).dtype == _prolonged(spec, e32).dtype == np.float32
    R32 = _restricted(spec, f32).astype(np.float64)
    P32 = _prolonged(spec, e32).astype(np.float64)
    assert abs(R32 @ e32 - 0.25 * (f32 @ P32)) <= np.finfo(np.float32).eps * np.abs(f).sum()


def _two_levels_down(n):
    """Points per side of the 4h grid of a grid with n: the coarsest level
    of an h = 0.25 grid's cycle, h = 1.0."""
    return math.ceil(math.ceil(n / 2) / 2)


@pytest.mark.parametrize("tag", ["S1", "S4"])
def test_two_grid_cycle_preconditions_gmres(profile, tag):
    # the cycle as M takes `gmres` to a relative residual of 1e-10 on the
    # bordered system; its factor is that of the 4h case, h = 1.0, below
    # the h = 0.5 level
    p, V, Z, P, dm, z_col, grad_con = _bordered_case(tag, profile)
    J = _Jacobian(V, p)
    M, fill, n1 = _preconditioner(J, V, Z, p)
    coarsest = _coarse_spec(_coarse_spec(V.spec))
    assert coarsest.h1 == solver.COARSEST_SPACING and n1 == coarsest.n1
    A = _bordered_matvec(P, z_col, grad_con)
    b = np.random.default_rng(23).standard_normal(dm.n + 1)
    applies = []

    def cycle(v):
        applies.append(1)
        x = M(v, J)
        assert x.dtype == np.float32
        return x

    x, info = gmres(A, b, M=cycle, rtol=1e-10)
    assert info == 0
    assert np.linalg.norm(A(x) - b) <= 1e-10 * np.linalg.norm(b)
    assert len(applies) <= 40
    assert 0 < fill < _bordered_lu(P, z_col, grad_con)[1]


def _small_cases():
    # a pair with odd n1 and a ring with even n1
    return [(pair_params(eps=0.1), 8.125, 0.25),
            (ModelParams(Regime.RING_SCH, 0.05, 0.0, 0.3), 6.0, 0.25)]


@pytest.mark.parametrize("case", [0, 1], ids=["pair", "ring"])
def test_two_grid_solve_matches_direct(profile, monkeypatch, case):
    p, d, h = _small_cases()[case]
    cycled = solve_at_separation(p, d, profile, h=h, newton_tol=1e-11)
    n1 = cycled.u.spec.n1
    assert n1 % 2 == (1 if case == 0 else 0)
    assert cycled.lu_n1 == _two_levels_down(n1)
    # the reference takes the direct factor: with the cycle's cap at h,
    # the grid has no 2h grid
    monkeypatch.setattr(solver, "COARSEST_SPACING", h)
    direct = solve_at_separation(p, d, profile, h=h, newton_tol=1e-11)
    assert direct.lu_n1 == n1
    assert 0 < cycled.lu_fill < direct.lu_fill
    assert abs(cycled.c_mult - direct.c_mult) <= 1e-9 * abs(direct.c_mult)
    assert sum(cycled.krylov_iters) > sum(direct.krylov_iters)


@pytest.mark.parametrize("case", [0, 1, 2], ids=["pair-odd", "ring-even", "pair-small"])
def test_a_cold_solve_is_cycled_wherever_the_spacing_can_double(profile, case):
    # the preconditioner depends on the grid alone: every h = 0.25 grid,
    # however few its unknowns, factors only its 4h grid, h = 1.0
    p, d, h = (_small_cases() + [(pair_params(eps=0.1), 4.0, 0.25)])[case]
    res = solve_at_separation(p, d, profile, h=h)
    assert res.lu_n1 == _two_levels_down(res.u.spec.n1)


def _direct_case(monkeypatch):
    # a pair on h = 0.5 with the cycle's grids capped at h = 0.5 too, so
    # its spacing cannot double: the direct factor
    monkeypatch.setattr(solver, "COARSEST_SPACING", solver.MAX_SPACING)
    return pair_params(eps=0.1), 10.0, 0.5


@pytest.mark.parametrize("case", ["pair-direct", "ring-two-grid"])
def test_a_cold_solve_assembles_only_the_grid_it_factors(profile, monkeypatch, case):
    # Newton's products and the smoother's diagonal come from `_Jacobian`;
    # a matrix is assembled once, for the factor: the solve's own grid on
    # the direct path, the 4h grid in the three-level cycle
    p, d, h = _direct_case(monkeypatch) if case == "pair-direct" else _small_cases()[1]
    grids = []
    assemble = solver.assemble_jacobian

    def counted(J):
        grids.append(J.spec.n1)
        return assemble(J)

    monkeypatch.setattr(solver, "assemble_jacobian", counted)
    res = solve_at_separation(p, d, profile, h=h)
    assert res.newton_iters >= 2
    assert grids == [res.lu_n1]
    assert res.lu_n1 == (res.u.spec.n1 if case == "pair-direct"
                         else _two_levels_down(res.u.spec.n1))


def _factored_grids(monkeypatch):
    """Record the grid of every matrix assembled and the order of every
    bordered matrix factored."""
    grids, factors = [], []
    assemble, factor = solver.assemble_jacobian, solver.splu

    def assembled(J):
        grids.append(J.spec)
        return assemble(J)

    def factored(B, **kw):
        factors.append(B.shape[0])
        return factor(B, **kw)

    monkeypatch.setattr(solver, "assemble_jacobian", assembled)
    monkeypatch.setattr(solver, "splu", factored)
    return grids, factors


def test_a_fine_ring_factors_only_its_coarsest_grid(profile, monkeypatch):
    # on an h = 0.125 grid the V-cycle has four levels, and the one
    # matrix assembled and factored is that of its h = 1.0 grid, the grid
    # lu_n1 names
    p = ModelParams(Regime.RING_SCH, 0.05, 0.0, 0.3)
    grids, factors = _factored_grids(monkeypatch)
    res = solve_at_separation(p, p.d, profile, h=0.125)
    spec = res.u.spec
    coarsest = _coarse_spec(_coarse_spec(_coarse_spec(spec)))
    assert (spec.h1, coarsest.h1) == (0.125, 1.0)
    assert grids == [coarsest] and res.lu_n1 == coarsest.n1
    assert factors == [_DofMap(coarsest).n + 1]
    assert res.lu_fill > 0 and res.final_residual <= solver.NEWTON_TOL


def test_a_coarse_pair_factors_its_own_grid(profile, monkeypatch):
    # on a grid at the cycle's cap there is no cycle: the one matrix
    # assembled and factored is the solve's own, the grid lu_n1 names
    p, d, h = _direct_case(monkeypatch)
    grids, factors = _factored_grids(monkeypatch)
    res = solve_at_separation(p, d, profile, h=h)
    spec = res.u.spec
    assert spec.h1 == 0.5
    assert grids == [spec] and res.lu_n1 == spec.n1
    assert factors == [_DofMap(spec).n + 1]
    assert res.lu_fill > 0 and res.final_residual <= solver.NEWTON_TOL


@pytest.mark.parametrize("d_hat, h, n1, lu_n1", [(0.15, 0.125, 12, 6), (0.1, 0.25, 4, 4)])
def test_a_grid_too_small_to_halve_factors_the_last_grid_that_can(profile, monkeypatch,
                                                                  d_hat, h, n1, lu_n1):
    # a grid is coarsened only while its 2h grid keeps the 4 points per
    # side a GridSpec needs: 12 points halve to 6, which would halve to 3,
    # so the 6-point grid is factored; 4 points do not halve at all
    assert solver._can_double(GridSpec(1.75, 1.75, 0.25, 0.25, Symmetry.PAIR))  # 7 -> 4
    assert not solver._can_double(GridSpec(1.5, 1.5, 0.25, 0.25, Symmetry.PAIR))  # 6 -> 3
    p = pair_params(eps=0.2, d_hat=d_hat)
    grids, factors = _factored_grids(monkeypatch)
    res = solve_at_separation(p, p.d, profile, h=h)
    assert res.u.spec.n1 == n1 and res.lu_n1 == lu_n1
    assert [g.n1 for g in grids] == [lu_n1] and len(factors) == 1
    assert res.final_residual <= solver.NEWTON_TOL


def test_only_the_cycles_own_grids_reach_h_1(tmp_path):
    # an h = 0.5 grid halves to an h = 1.0 grid, the cycle's coarsest;
    # every grid a case or a field file can name stays capped at h = 0.5
    spec = GridSpec(20.0, 20.0, 0.5, 0.5, Symmetry.PAIR)
    assert solver._can_double(spec)
    coarse = _coarse_spec(spec)
    assert (coarse.h1, coarse.h2, coarse.n1, coarse.n2) == (1.0, 1.0, 20, 20)
    assert not solver._can_double(coarse)
    for h in (0.6, 1.0):
        with pytest.raises(ValueError, match=r"\(0, 0\.5\]"):
            GridSpec(20.0, 20.0, h, h, Symmetry.PAIR)
    with pytest.raises(ValueError, match=r"\bh = 1\.0\b"):
        solver._grid_for(10.0, 1.0, Symmetry.PAIR)
    path = tmp_path / "coarse.vsf"
    save_field(ComplexField(coarse, np.ones((20, 20), complex)), path)
    with pytest.raises(FieldFormatError, match=r"\(0, 0\.5\]"):
        load_field(path)


def test_each_coarser_level_sweeps_twice_as_often(profile, monkeypatch):
    # one apply of the h = 0.25 grid's cycle: 1 red-black sweep on each
    # side of its coarse correction there, 2 on the h = 0.5 level, then
    # the h = 1.0 factor.  A level of s sweeps makes 4s + 1 products on
    # one colour (`_Jacobian.half`): 2s - 1 before its restriction
    # (the first half-sweep starts from zero), two for the residual it
    # restricts, and 2s after the correction; no full product
    p, V, Z, _, dm, _, _ = _bordered_case("S1", profile)
    J = _Jacobian(V, p)
    M, _, n1 = _preconditioner(J, V, Z, p)
    products = {}
    half = _Jacobian.half

    def counted(self, U, colour):
        products[self.spec.n1] = products.get(self.spec.n1, 0) + 1
        return half(self, U, colour)

    def full(self, x):
        raise AssertionError("a full product in the cycle")

    monkeypatch.setattr(_Jacobian, "half", counted)
    monkeypatch.setattr(_Jacobian, "__matmul__", full)
    M(np.random.default_rng(37).standard_normal(dm.n + 1), J)
    assert (V.spec.n1, n1) == (80, 20)
    s = solver.SMOOTHING_SWEEPS
    assert products == {80: 4 * s + 1, 40: 8 * s + 1}


def test_a_steps_single_precision_copy_goes_with_its_jacobian(profile, monkeypatch):
    # each Newton step makes one colour-split complex64 copy of its
    # Jacobian for the cycle's sweeps, and that copy is gone once the
    # next step's Jacobian replaces the step's own
    p, d, h = _small_cases()[1]
    copies, dead_at_new = [], []
    init, single = _Jacobian.__init__, _Jacobian.single

    def made(self, u, *args):
        dead_at_new.append([r() is None for n1, r in copies if n1 == u.spec.n1])
        init(self, u, *args)

    def copied(self):
        if self._single is None and self.gammas[0].dtype == np.complex128:
            J = single(self)
            copies.append((self.spec.n1, weakref.ref(J.gammas[0])))
            return J
        return single(self)

    monkeypatch.setattr(_Jacobian, "__init__", made)
    monkeypatch.setattr(_Jacobian, "single", copied)
    res = solve_at_separation(p, d, profile, h=h)
    n1 = res.u.spec.n1
    assert res.newton_iters >= 2
    # one copy of the fine Jacobian per step (the coarse level's copy, on
    # its own grid, is made once for the whole solve)
    assert [m for m, _ in copies].count(n1) == res.newton_iters
    # after the ansatz's Jacobian (also the first step's) and the coarse
    # level's, each later step's Jacobian is made once every earlier
    # step's copy is dead
    later = [dead for dead in dead_at_new if dead]
    assert [len(dead) for dead in later] == list(range(1, res.newton_iters))
    assert all(all(dead) for dead in later)


def _colour_case(profile, tag, l=None):
    """The parameters, the layout oracle and the Jacobian of
    `_tag_case(tag)`, on a side of l when given, at a perturbed ansatz."""
    p, spec = _tag_case(tag)
    if l is not None:
        spec = GridSpec(l, l, spec.h1, spec.h2, spec.symmetry)
    V = build_ansatz(p, spec, profile)
    rng = np.random.default_rng(41)
    u = V.data + 0.05 * (rng.standard_normal(V.data.shape)
                         + 1j * rng.standard_normal(V.data.shape))
    return p, _DofMap(spec), _Jacobian(ComplexField(spec, u), p)


def _colour_of_unknowns(dm):
    """(i + j) mod 2 of the point of each packed unknown: 0 red, 1 black."""
    colour = np.add.outer(np.arange(dm.spec.n1), np.arange(dm.spec.n2)) % 2
    return dm.pack(colour + 1j * colour).astype(int)


def _ghosted(spec, x):
    """The padded sub-lattices of the packed unknowns x in complex64, with
    their ghosts filled."""
    U = _split_unknowns(spec, x.astype(np.float32), 1)
    for colour in (0, 1):
        _refresh_ghosts(U, colour)
    return U


@pytest.mark.parametrize("tag", ["S1", "S4"])
def test_single_precision_product_agrees_to_float32_rounding(profile, tag):
    # one stencil code (`_Jacobian.half`) serves both precisions: the
    # complex64 Jacobian's products on the two colours, joined, are the
    # complex128 product J @ x up to float32 rounding of its terms, and
    # zero off the grid
    p, spec = _tag_case(tag)
    V = build_ansatz(p, spec, profile)
    dm = _DofMap(spec)
    J = _Jacobian(V, p)
    S = J.single()
    assert S is J.single() and S.single() is S
    m1, m2 = spec.n1 - 1, spec.n2 - 1
    # its coefficients are stored once, an array an arm split by colour,
    # not beside a row-major copy, and so are J's
    assert len(S.gammas) == len(J.gammas) == len(_ARMS)
    for T, dtype in ((S, np.complex64), (J, np.complex128)):
        assert [k for k, a in vars(T).items() if isinstance(a, (np.ndarray, list))] == ["gammas"]
        for g in T.gammas:
            assert g.dtype == dtype and g.shape == (4, math.ceil(m1 / 2), math.ceil(m2 / 2))
    x = np.random.default_rng(31).standard_normal(dm.n)
    U = _ghosted(spec, x)
    Ju = np.empty(S.gammas[0].shape, np.complex64)
    for colour in (0, 1):
        for k, r in zip(_COLOURS[colour], S.half(U, colour)):
            Ju[k] = r
    assert np.array_equal(_split(_joined(Ju, m1, m2)), Ju)
    want, got = J @ x, _packed_split(spec, Ju)
    assert got.dtype == np.float32 and want.dtype == np.float64
    scale = sum(np.abs(g) for g in J.gammas).max() * np.abs(x).max()
    err = np.abs(got - want).max()
    assert err <= 8 * np.finfo(np.float32).eps * scale
    assert err > np.finfo(np.float64).eps * scale  # computed in single precision


@pytest.mark.parametrize("tag, l", [("S1", None), ("S4", None), ("S4", 12.25)],
                         ids=["S1", "S4", "S4-even"])
def test_a_red_black_sweep_is_the_float64_update_by_colour(profile, tag, l):
    # a red half-sweep, then a black one, on the colour-split grid is
    # u += D^-1 (b - J u) on the unknowns of one colour and then the
    # other, from the float64 `_Jacobian` product, up to float32 rounding:
    # on the axis rows (the ring's x1 = 0 fold), the x2 = 0 row (whose Im
    # stays pinned at zero) and beside the Dirichlet layer (which stays
    # zero) as elsewhere.  S1 and S4 have an odd count of unknowns a side,
    # S4-even an even one
    p, dm, J = _colour_case(profile, tag, l)
    spec = dm.spec
    m1, m2 = spec.n1 - 1, spec.n2 - 1
    assert (m1 % 2 == 0) == (l is not None)
    rng = np.random.default_rng(43)
    x, b = rng.standard_normal(dm.n), rng.standard_normal(dm.n)
    d = J.diagonal()
    colour = _colour_of_unknowns(dm)
    want = x.copy()
    for c in (0, 1):
        on = colour == c
        want[on] += ((b - J @ want) / d)[on]
    U = _ghosted(spec, x)
    B = _split_unknowns(spec, b.astype(np.float32))
    dinv = _split_unknowns(spec, (1.0 / d).astype(np.float32)).view(np.float32)
    S = J.single()
    _half_sweep(S, U, B, dinv, 0)
    _half_sweep(S, U, B, dinv, 1)
    assert np.all(U[[0, 2], :, 1].imag == 0.0)  # the x2 = 0 row's Im
    # every entry is a point of the grid or a ghost of one: the Dirichlet
    # layer and the entries past it are zero
    got = _packed_split(spec, U, 1)
    assert np.array_equal(U, _ghosted(spec, got))
    gamma = sum(np.abs(g) for g in J.gammas).max()
    scale = np.abs(want).max() + np.abs(1.0 / d).max() * (np.abs(b).max()
                                                          + gamma * np.abs(want).max())
    axis_rows = np.concatenate([dm.re_idx[0, :-1], dm.im_idx[0, 1:-1]])
    fold_rows = dm.re_idx[:-1, 0]
    edge_rows = np.concatenate([dm.re_idx[-2, :-1], dm.re_idx[:-1, -2], dm.im_idx[-2, 1:-1],
                                dm.im_idx[1:-1, -2]])
    for rows in (slice(None), axis_rows, fold_rows, edge_rows):
        assert np.abs(got[rows] - want[rows]).max() <= 8 * np.finfo(np.float32).eps * scale
    assert np.abs(got - want).max() > np.finfo(np.float64).eps * scale


def test_a_solve_computes_corrector_norms_only_when_read(profile, monkeypatch):
    # a solve measures no corrector norm; its caller does, from the
    # solution and the case's ansatz, which the result carries
    calls = []
    norms = diagnostics.corrector_norms
    monkeypatch.setattr(diagnostics, "corrector_norms",
                        lambda *args: calls.append(args) or norms(*args))
    p, d, h = _direct_case(monkeypatch)
    res = solve_at_separation(p, d, profile, h=h)
    assert calls == []
    pd = p.with_d(d)
    V, _ = build_case(pd, res.u.spec, profile)
    assert np.array_equal(res.V_d.data, V.data)
    assert norms(res.u, res.V_d, pd)["star"] == norms(res.u, V, pd)["star"]


def test_spacing_cap_keeps_the_direct_factor(profile, monkeypatch):
    p, d, h = _direct_case(monkeypatch)
    res = solve_at_separation(p, d, profile, h=h)
    assert res.lu_n1 == res.u.spec.n1


def test_a_cold_solve_trims_the_heap_once_its_state_is_gone(profile, monkeypatch):
    # a solve at a separation trims once its case is built, before any
    # preconditioner; the cold solve trims again once its preconditioner,
    # the cycle and its factor, is freed; a balance's solve, whose state
    # keeps the preconditioner for the next, does not
    if platform.libc_ver()[0] == "glibc":
        assert solver._MALLOC_TRIM is not None
    preconds, live_at_trim = [], []

    def tracked(build):
        def built(*args):
            out = build(*args)
            preconds.append((build.__name__, weakref.ref(out[0])))
            return out
        return built

    for name in ("_preconditioner", "_bordered_lu"):
        monkeypatch.setattr(solver, name, tracked(getattr(solver, name)))
    monkeypatch.setattr(solver, "_release_freed_memory", lambda: live_at_trim.append(
        sum(r() is not None for _, r in preconds)))
    p, d, _ = _small_cases()[0]
    for h in (0.25, 0.5):
        solve_at_separation(p, d, profile, h=h)
    # each coarse level of the cycle is a `_preconditioner` of its own, and
    # the coarsest one's M is its `_bordered_lu`: h = 0.25 cycles through
    # h = 0.5 to the h = 1.0 factor, h = 0.5 straight to it
    assert [name for name, _ in preconds] == ["_bordered_lu", "_preconditioner",
                                              "_preconditioner", "_preconditioner",
                                              "_bordered_lu", "_preconditioner",
                                              "_preconditioner"]
    assert live_at_trim == [0, 0, 0, 0]
    solver._BalanceState().solve(p, d, profile, 0.25)
    assert len(preconds) == 11 and live_at_trim == [0, 0, 0, 0, 0]


def test_failures_carry_the_applies_of_each_step(profile, monkeypatch):
    # one restart cycle of two applies meets the first step's loose
    # forcing term, then stops the second step's GMRES solve short of its
    # own
    p = pair_params(eps=0.1)
    monkeypatch.setattr(solver, "GMRES_MAXITER", 1)
    monkeypatch.setattr(solver, "GMRES_RESTART", 2)
    with pytest.raises(solver.KrylovStagnationError) as err:
        solve_at_separation(p, 8.125, profile, h=0.25)
    assert err.value.krylov_iters == (2, 2)
    monkeypatch.undo()
    # Newton stopped after one step, above its tolerance
    monkeypatch.setattr(solver, "NEWTON_MAX", 1)
    with pytest.raises(solver.NonConvergenceError) as err:
        solve_at_separation(p, 8.125, profile, h=0.25, newton_tol=1e-11)
    assert not isinstance(err.value, solver.KrylovStagnationError)
    assert len(err.value.krylov_iters) == 1 and err.value.krylov_iters[0] >= 1


@pytest.mark.parametrize("residual, eta", [
    (0.5, 0.1),     # KRYLOV_FORCING_MAX caps a large residual
    (1e-4, 1e-4),   # ||F_k|| keeps the convergence quadratic
    # from ||F_k||^2 <= 10 newton_tol on, a step aims at newton_tol / 2,
    # so it does not end just above newton_tol
    (5e-6, 0.5 * 1e-11 / 5e-6),
    (6e-8, 0.5 * 1e-11 / 6e-8),
    (2e-11, 0.1),   # the safeguard is capped too
])
def test_forcing_term(residual, eta):
    assert solver._forcing_term(residual, 1e-11) == eta


_positive = st.floats(min_value=5e-324, max_value=1e300)


@settings(deadline=None, max_examples=500)
@given(residual=_positive, newton_tol=_positive)
@example(residual=math.sqrt(0.5e-11), newton_tol=1e-11)
@example(residual=math.sqrt(1e-10), newton_tol=1e-11)
@example(residual=5e-6, newton_tol=1e-11)
def test_forcing_term_has_a_floor_of_its_own(residual, newton_tol):
    # ||F_k|| times the safeguard is newton_tol / 2, and the safeguard is
    # taken only up to ||F_k|| = sqrt(10 newton_tol), where it is
    # sqrt(newton_tol / 40): the forcing term needs no floor
    eta = solver._forcing_term(residual, newton_tol)
    assert eta >= min(solver.KRYLOV_FORCING_MAX, math.sqrt(newton_tol / 40))


def test_each_step_is_forced_to_its_residual(profile, monkeypatch):
    # step k asks GMRES for _forcing_term(||F_k||, newton_tol), ||F_k||
    # being the residual the step starts from
    newton_tol = 1e-11
    rtols = []

    def recorded(A, b, *, M, rtol):
        rtols.append(rtol)
        return gmres(A, b, M=M, rtol=rtol)

    monkeypatch.setattr(solver, "gmres", recorded)
    # here the last step starts near 4e-9, so its safeguard, about 1e-3,
    # is above the term of the step before; a case whose last step starts
    # higher need not show that (at h = 0.5 this pair's starts at 2e-8)
    res = solve_at_separation(pair_params(eps=0.1), 10.0, profile, h=0.4,
                              newton_tol=newton_tol)
    assert len(res.newton_residuals) == res.newton_iters + 1 == len(rtols) + 1
    assert res.newton_residuals[-1] == res.final_residual <= newton_tol
    assert rtols == [solver._forcing_term(r, newton_tol) for r in res.newton_residuals[:-1]]
    assert min(rtols) >= math.sqrt(newton_tol / 2)
    # the last step starts near newton_tol, where the safeguard is the
    # largest term: it solves only as far as newton_tol / 2 needs
    last = res.newton_residuals[-2]
    guard = 0.5 * newton_tol / last
    assert guard > last
    assert rtols[-1] == min(solver.KRYLOV_FORCING_MAX, guard) > rtols[-2]


@pytest.mark.parametrize("case", ["pair", "ring-two-grid"])
def test_forcing_cuts_applies_at_the_same_multiplier(profile, monkeypatch, case):
    # against a fixed forcing (every step to 1e-10), the forcing term
    # gives the same multiplier in fewer preconditioner applies, on the
    # direct factor and on the cycle alike
    p, d, h = _direct_case(monkeypatch) if case == "pair" else _small_cases()[1]
    forced = solve_at_separation(p, d, profile, h=h, newton_tol=1e-11)
    assert forced.lu_n1 == (forced.u.spec.n1 if case == "pair"
                            else _two_levels_down(forced.u.spec.n1))
    monkeypatch.setattr(solver, "_forcing_term", lambda residual, newton_tol: 1e-10)
    fixed = solve_at_separation(p, d, profile, h=h, newton_tol=1e-11)
    assert forced.final_residual <= 1e-11
    assert abs(forced.c_mult - fixed.c_mult) <= 1e-9 * abs(fixed.c_mult)
    assert sum(forced.krylov_iters) < sum(fixed.krylov_iters)


def test_failures_carry_the_residual_history(profile, monkeypatch):
    # a stagnating step names the tolerance it was asked for, and both
    # errors carry the residuals of the steps made before them
    p = pair_params(eps=0.1)
    monkeypatch.setattr(solver, "GMRES_MAXITER", 1)
    monkeypatch.setattr(solver, "GMRES_RESTART", 2)
    with pytest.raises(solver.KrylovStagnationError) as err:
        solve_at_separation(p, 8.125, profile, h=0.25)
    hist = err.value.newton_residuals
    assert len(hist) == len(err.value.krylov_iters) and hist[-1] == err.value.last_residual
    eta = solver._forcing_term(hist[-1], solver.NEWTON_TOL)  # the default newton_tol
    assert f"eta={eta:.2e}" in str(err.value)
    monkeypatch.undo()
    monkeypatch.setattr(solver, "NEWTON_MAX", 1)
    with pytest.raises(solver.NonConvergenceError) as err:
        solve_at_separation(p, 8.125, profile, h=0.25, newton_tol=1e-11)
    hist = err.value.newton_residuals
    assert len(hist) == 2 and hist[1] < hist[0] and hist[1] == err.value.last_residual
