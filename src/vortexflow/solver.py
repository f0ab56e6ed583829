"""Nonlinear operators and the projected (bordered) Newton-Krylov solver.

Operators on the quarter grid:

    S0[u] = lap u - (2 conj(u)/(1+|u|^2)) grad u . grad u + F(u)
    Q2[u] = i (1-|u|^2)/(1+|u|^2) d2 u        T2[u] = -i d2 u
    H1[u] = (1/x1) d1 u   (axis row: the limit d11 u)

    S1 = S0 + eps Q2                 S2 = S1 + kappa eps T2
    S3 = S0 + eps|log eps| Q2 + H1   S4 = S3 + kappa eps|log eps| T2

grad u . grad u is the complex bilinear sum (d1 u)^2 + (d2 u)^2, not the
Hermitian square.

The projected problem S[u] = c Z_d with Re<u - V_d, Z_d>_W = 0 (weight
W = (1+|V_d|^2)^-2) is solved by damped Newton on the bordered system
(unknowns u on the quarter grid plus the scalar c).  Inner linear
solves are GMRES on the analytic Jacobian assembled at the current
iterate, preconditioned by an LU factorization of the bordered Jacobian
frozen at the ansatz.

Every sparse system is factored once, with SuperLU's MMD_AT_PLUS_A
ordering (minimum degree on A + A^T), which leaves about half the fill
of the default COLAMD ordering on these 5-point stencils.  `build_case`
is the one construction of (V_d, Z_d): a ring factors its
d-independent phase Laplacian there once for the ansatz and both
co-kernel rebuilds, and releases it before the bordered factorization.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .ansatz import ModelParams, build_ansatz, factor_axisym_laplacian, kernel_Zd
from .fields import ComplexField, GridSpec, Symmetry, axisym_term, diff_ops
from .profile import VortexProfile, solve_profile
from .stereo import nonlinearity_F

PAIR_TAGS = ("S1", "S2")
RING_TAGS = ("S3", "S4")
ALL_TAGS = ("S0",) + PAIR_TAGS + RING_TAGS

# A Newton solve is accepted at residual max(newton_tol, ACCEPT_RESIDUAL):
# a tighter newton_tol that stalls above its target but below this floor
# still yields a usable solution.
ACCEPT_RESIDUAL = 1e-8


class NonConvergenceError(RuntimeError):
    def __init__(self, message, last_residual=None):
        super().__init__(message)
        self.last_residual = last_residual


class KrylovStagnationError(NonConvergenceError):
    pass


class BracketError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveResult:
    u: ComplexField
    c_mult: float
    newton_iters: int
    final_residual: float
    corrector_norm_star: float
    d_used: float
    converged: bool


def _check_tag(u, tag, params):
    if tag not in ALL_TAGS:
        raise ValueError(f"unknown operator tag {tag!r}")
    if tag in PAIR_TAGS and u.spec.symmetry is not Symmetry.PAIR:
        raise ValueError(f"{tag} acts on PAIR grids only")
    if tag in RING_TAGS and u.spec.symmetry is not Symmetry.RING:
        raise ValueError(f"{tag} acts on RING grids only")
    if tag in RING_TAGS and not params.is_ring:
        raise ValueError(f"{tag} needs RING-regime parameters")
    if tag in PAIR_TAGS and params.is_ring:
        raise ValueError(f"{tag} needs PAIR-regime parameters")


def apply_S(u: ComplexField, tag: str, params: ModelParams) -> ComplexField:
    """Apply S0..S4; the outer Dirichlet layer of the result is zero."""
    _check_tag(u, tag, params)
    d1, d2, lap = diff_ops(u)
    ud = u.data
    r2 = ud.real**2 + ud.imag**2
    grad_sq = d1.data**2 + d2.data**2
    out = lap.data - 2.0 * np.conj(ud) / (1.0 + r2) * grad_sq + nonlinearity_F(ud)
    if tag != "S0":
        q = params.drive
        G = (1.0 - r2) / (1.0 + r2)
        out = out + q * 1j * G * d2.data
        if tag in ("S2", "S4"):
            out = out + params.kappa * q * (-1j) * d2.data
        if tag in RING_TAGS:
            out = out + axisym_term(ud, u.spec)
    out[-1, :] = 0.0
    out[:, -1] = 0.0
    return ComplexField(u.spec, out)


def linearize_apply(u: ComplexField, v: ComplexField, tag: str,
                    params: ModelParams) -> ComplexField:
    """Directional derivative (S[u + d v] - S[u - d v]) / (2 d)."""
    vn = float(np.abs(v.data).max())
    if vn == 0.0:
        raise ValueError("zero direction")
    un = float(np.abs(u.data).max())
    delta = 1e-6 * max(1.0, un) / max(1e-12, vn)
    up = ComplexField(u.spec, u.data + delta * v.data)
    um = ComplexField(u.spec, u.data - delta * v.data)
    diff = (apply_S(up, tag, params).data - apply_S(um, tag, params).data) / (2.0 * delta)
    return ComplexField(u.spec, diff)


class _DofMap:
    """Real unknowns on the quarter grid: Re(u) at non-Dirichlet points,
    Im(u) at non-Dirichlet points off the x2 = 0 row (odd parity pins
    the axis imaginary part to zero, so it is not an unknown)."""

    def __init__(self, spec: GridSpec):
        n1, n2 = spec.n1, spec.n2
        act = np.zeros((n1, n2), dtype=bool)
        act[: n1 - 1, : n2 - 1] = True
        self.re_mask = act
        self.im_mask = act & (np.arange(n2)[None, :] >= 1)
        self.n_re = int(self.re_mask.sum())
        self.n_im = int(self.im_mask.sum())
        self.n = self.n_re + self.n_im
        self.re_idx = -np.ones((n1, n2), dtype=int)
        self.im_idx = -np.ones((n1, n2), dtype=int)
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


def assemble_jacobian(u: ComplexField, tag: str, params: ModelParams,
                      dm: _DofMap = None):
    """Sparse real-block Jacobian of S at u on the reduced unknowns.

    The analytic linearization is

        L[v] = lap v + A1 d1 v + A2 d2 v + B v + C conj(v)  (+ H1 v),

    with per-point coefficients below.  Stencil arms that cross an axis
    fold back into the quarter; folding across x2 = 0 conjugates, which
    turns a gamma*v coupling into gamma*conj(v) at the mirror node.
    """
    spec = u.spec
    _check_tag(u, tag, params)
    dm = dm or _DofMap(spec)
    h1, h2 = spec.h1, spec.h2

    d1f, d2f, _ = diff_ops(u)
    d1u, d2u = d1f.data, d2f.data
    r2 = u.data.real**2 + u.data.imag**2
    g = 1.0 / (1.0 + r2)
    g2 = g * g
    G = (1.0 - r2) * g
    Wq = d1u**2 + d2u**2
    cu = np.conj(u.data)
    A1 = -4.0 * g * cu * d1u
    A2 = -4.0 * g * cu * d2u
    B = 2.0 * cu**2 * Wq * g2 + (G - 2.0 * r2 * g2)
    C = -2.0 * g * Wq + 2.0 * r2 * Wq * g2 - 2.0 * u.data**2 * g2
    ring = tag in RING_TAGS
    if tag != "S0":
        q = params.drive
        A2 = A2 + q * 1j * G
        B = B - 2.0 * q * 1j * g2 * cu * d2u
        C = C - 2.0 * q * 1j * g2 * u.data * d2u
        if tag in ("S2", "S4"):
            A2 = A2 - 1j * params.kappa * q

    I, J = np.nonzero(dm.re_mask)
    row_re = dm.re_idx[I, J]
    row_im = dm.im_idx[I, J]
    rows, cols, vals = [], [], []

    def _emit(gamma, ii, jj, Ir_re, Ir_im, conj):
        """gamma * v(ii,jj) (or gamma * conj v) into the rows (Ir_re, Ir_im)."""
        tgt_re = dm.re_idx[ii, jj]
        tgt_im = dm.im_idx[ii, jj]
        gr, gi = gamma.real, gamma.imag
        s_re_im = gi if conj else -gi     # Re-row coupling to Im(v)
        s_im_im = -gr if conj else gr     # Im-row coupling to Im(v)
        ok = tgt_re >= 0
        rows.append(Ir_re[ok]); cols.append(tgt_re[ok]); vals.append(gr[ok])
        okr = ok & (Ir_im >= 0)
        rows.append(Ir_im[okr]); cols.append(tgt_re[okr]); vals.append(gi[okr])
        oki = ok & (tgt_im >= 0)
        rows.append(Ir_re[oki]); cols.append(tgt_im[oki]); vals.append(s_re_im[oki])
        okb = oki & (Ir_im >= 0)
        rows.append(Ir_im[okb]); cols.append(tgt_im[okb]); vals.append(s_im_im[okb])

    def add_arm(gamma_arr, di, dj, conj_all=False):
        gamma_arr = np.broadcast_to(np.asarray(gamma_arr, dtype=complex), I.shape)
        ii = I + di
        jj = J + dj
        fold = jj < 0
        ii = np.abs(ii)
        jj = np.abs(jj)
        if conj_all:
            _emit(gamma_arr, ii, jj, row_re, row_im, True)
            return
        if fold.any():
            _emit(gamma_arr[fold], ii[fold], jj[fold], row_re[fold], row_im[fold], True)
            keep = ~fold
            _emit(gamma_arr[keep], ii[keep], jj[keep], row_re[keep], row_im[keep], False)
        else:
            _emit(gamma_arr, ii, jj, row_re, row_im, False)

    inv_h1sq = 1.0 / h1**2
    inv_h2sq = 1.0 / h2**2
    x1 = h1 * I
    axis = I == 0
    with np.errstate(divide="ignore"):
        h1_inv = np.where(axis, 0.0, 1.0 / (2.0 * h1 * np.where(x1 > 0, x1, 1.0)))

    a1 = A1[I, J] / (2.0 * h1)
    a2 = A2[I, J] / (2.0 * h2)
    center = np.full(I.size, -2.0 * (inv_h1sq + inv_h2sq), dtype=complex) + B[I, J]

    add_arm(inv_h1sq + a1, +1, 0)
    add_arm(inv_h1sq - a1, -1, 0)
    add_arm(inv_h2sq + a2, 0, +1)
    add_arm(inv_h2sq - a2, 0, -1)
    if ring:
        add_arm(h1_inv.astype(complex), +1, 0)
        add_arm(-h1_inv.astype(complex), -1, 0)
        ax = np.where(axis, 2.0 * inv_h1sq, 0.0).astype(complex)
        add_arm(ax, +1, 0)
        center = center + np.where(axis, -2.0 * inv_h1sq, 0.0)
    add_arm(center, 0, 0)
    add_arm(C[I, J], 0, 0, conj_all=True)

    A = csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dm.n, dm.n),
    )
    return A, dm


def _bordered_lu(P, dm, z_col, grad_con):
    """LU of [[P, -z], [g^T, 0]] built in coordinate form (explicit zero
    corner kept structural so SuperLU can pivot through it)."""
    Pc = P.tocoo()
    zi = np.flatnonzero(z_col)
    gi = np.flatnonzero(grad_con)
    n = dm.n
    rows = np.concatenate([Pc.row, zi, np.full(gi.size, n), [n]])
    cols = np.concatenate([Pc.col, np.full(zi.size, n), gi, [n]])
    vals = np.concatenate([Pc.data, -z_col[zi], grad_con[gi], [0.0]])
    B = csc_matrix((vals, (rows, cols)), shape=(n + 1, n + 1))
    return splu(B, permc_spec="MMD_AT_PLUS_A")


def extract_multiplier(u: ComplexField, V: ComplexField, Z: ComplexField,
                       tag: str, params: ModelParams) -> float:
    """Post-hoc projection c = <S[u], Z>_W / <Z, Z>_W, W = (1+|V|^2)^-2."""
    S = apply_S(u, tag, params)
    W = 1.0 / (1.0 + np.abs(V.data) ** 2) ** 2
    num = float(np.sum((S.data * np.conj(Z.data)).real * W))
    den = float(np.sum((Z.data * np.conj(Z.data)).real * W))
    return num / den


def solve_projected(params: ModelParams, V_d: ComplexField, Z_d: ComplexField,
                    newton_max=50, newton_tol=1e-8, krylov_tol=1e-10) -> SolveResult:
    """Damped Newton on the bordered system (u, c) from the ansatz guess."""
    from .diagnostics import corrector_norms

    tag = params.tag
    spec = V_d.spec
    _check_tag(V_d, tag, params)
    dm = _DofMap(spec)
    cell = spec.h1 * spec.h2
    W = 1.0 / (1.0 + np.abs(V_d.data) ** 2) ** 2
    grad_con = dm.pack(W * Z_d.data * cell)
    z_col = dm.pack(Z_d.data)

    P, _ = assemble_jacobian(V_d, tag, params, dm)
    lu = _bordered_lu(P, dm, z_col, grad_con)
    nb = dm.n + 1

    u = np.array(V_d.data)
    c = 0.0

    def residual_vec(u_arr, c_val):
        S = apply_S(ComplexField(spec, u_arr.copy()), tag, params)
        pde = S.data - c_val * Z_d.data
        con = float(np.sum(((u_arr - V_d.data) * np.conj(Z_d.data)).real * W) * cell)
        return np.concatenate([dm.pack(pde), [con]])

    def resnorm(vec):
        return math.sqrt(cell * float(np.dot(vec[:-1], vec[:-1])) + vec[-1] ** 2)

    Mop = LinearOperator((nb, nb), matvec=lu.solve)

    state = {"J": P}

    def matvec(x):
        top = state["J"] @ x[:-1] - x[-1] * z_col
        bot = float(np.dot(grad_con, x[:-1]))
        return np.concatenate([top, [bot]])

    Aop = LinearOperator((nb, nb), matvec=matvec)

    R = residual_vec(u, c)
    best = resnorm(R)
    iters = 0
    while iters < newton_max and best > newton_tol:
        if iters > 0:
            state["J"], _ = assemble_jacobian(ComplexField(spec, u.copy()),
                                              tag, params, dm)
        bnorm = float(np.linalg.norm(R))
        sol, info = gmres(Aop, -R, rtol=krylov_tol, atol=0.0,
                          restart=150, maxiter=8, M=Mop)
        true_res = float(np.linalg.norm(matvec(sol) + R))
        if info != 0 and true_res > 1e-6 * bnorm:
            raise KrylovStagnationError(
                f"GMRES stagnated (info={info}, rel={true_res / bnorm:.2e})",
                last_residual=best)
        lam = 1.0
        accepted = False
        for _ in range(11):
            u_try = u + lam * dm.unpack(sol[:-1])
            c_try = c + lam * sol[-1]
            R_try = residual_vec(u_try, c_try)
            n_try = resnorm(R_try)
            if n_try < best:
                accepted = True
                break
            lam *= 0.5
        iters += 1
        if not accepted:
            break
        u, c, R = u_try, c_try, R_try
        progress = n_try / best
        best = n_try
        if progress > 0.95:
            break  # stalled at the rounding floor of the residual

    if best > max(newton_tol, ACCEPT_RESIDUAL):
        raise NonConvergenceError(
            f"Newton stopped at residual {best:.3e} after {iters} iterations",
            last_residual=best)

    u_field = ComplexField(spec, u)
    norms = corrector_norms(u_field, V_d, params)
    return SolveResult(
        u=u_field, c_mult=float(c), newton_iters=iters,
        final_residual=float(best), corrector_norm_star=norms["star"],
        d_used=params.d, converged=True,
    )


def _domain_for(d, h):
    return math.ceil(2.0 * d / h - 1e-9) * h


def build_case(params: ModelParams, spec: GridSpec, profile: VortexProfile):
    """Ansatz V_d and co-kernel Z_d of `params` on `spec`.  A ring factors
    its phase Laplacian once for the ansatz and both co-kernel rebuilds
    and drops it on return, before any bordered factorization."""
    laplacian_lu = factor_axisym_laplacian(spec) if params.is_ring else None
    V = build_ansatz(params, spec, profile, laplacian_lu)
    return V, kernel_Zd(params, spec, profile, laplacian_lu=laplacian_lu)


def solve_at_separation(params: ModelParams, d: float, profile: VortexProfile,
                        h=0.25, **opts) -> SolveResult:
    """Grid (L = 2d per side), ansatz and co-kernel at separation d, then
    the projected solve."""
    p = params.with_d(d)
    L = _domain_for(d, h)
    V, Z = build_case(p, GridSpec(L, L, h, h, p.symmetry), profile)
    return solve_projected(p, V, Z, **opts)


def solve_balanced(params: ModelParams, d_bracket, profile: VortexProfile = None,
                   h=0.25, c_rtol=1e-10, max_iters=60, **opts):
    """Safeguarded secant on d -> c_mult(d); returns (SolveResult, d_star).

    The Newton tolerance is pushed to 1e-11 so the multiplier noise
    floor stays below the |c| stopping scale."""
    if profile is None:
        profile = solve_profile()
    opts.setdefault("newton_tol", 1e-11)
    d_lo, d_hi = d_bracket
    r_lo = solve_at_separation(params, d_lo, profile, h, **opts)
    r_hi = solve_at_separation(params, d_hi, profile, h, **opts)
    c_lo, c_hi = r_lo.c_mult, r_hi.c_mult
    if c_lo == 0.0:
        return r_lo, d_lo
    if c_hi == 0.0:
        return r_hi, d_hi
    if c_lo * c_hi > 0.0:
        raise BracketError(
            f"no sign change: c({d_lo}) = {c_lo:.3e}, c({d_hi}) = {c_hi:.3e}")
    scale = max(abs(c_lo), abs(c_hi))
    best = (r_lo, d_lo) if abs(c_lo) < abs(c_hi) else (r_hi, d_hi)
    d_prev, c_prev = d_lo, c_lo
    d_cur, c_cur = d_hi, c_hi
    for _ in range(max_iters):
        if abs(best[0].c_mult) <= c_rtol * scale or (d_hi - d_lo) <= 1e-8 * d_hi:
            break
        if c_cur != c_prev:
            d_new = d_cur - c_cur * (d_cur - d_prev) / (c_cur - c_prev)
        else:
            d_new = 0.5 * (d_lo + d_hi)
        if not (d_lo < d_new < d_hi):
            d_new = 0.5 * (d_lo + d_hi)
        r_new = solve_at_separation(params, d_new, profile, h, **opts)
        c_new = r_new.c_mult
        if abs(c_new) < abs(best[0].c_mult):
            best = (r_new, d_new)
        if c_lo * c_new <= 0.0:
            d_hi, c_hi = d_new, c_new
        else:
            d_lo, c_lo = d_new, c_new
        d_prev, c_prev = d_cur, c_cur
        d_cur, c_cur = d_new, c_new
    return best


def unprojected_residual_norm(result: SolveResult, tag: str, params: ModelParams) -> float:
    """Discrete L2 of S_tag[u] at a solution (meaningful once c ~ 0)."""
    p = params.with_d(result.d_used)
    S = apply_S(result.u, tag, p)
    cell = result.u.spec.h1 * result.u.spec.h2
    return float(math.sqrt(np.sum(np.abs(S.data) ** 2) * cell))
