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

The Jacobian's sparsity does not change within a solve.  Its CSC
structure is built once, on the solve's `_DofMap`, together with int32
gathers that map the stencil coefficients onto it; every assembly then
writes values only, into arrays that share that structure, and the
bordered matrix appends its row and column to the ansatz Jacobian's CSC
arrays.  A GMRES solve that stops short of `krylov_tol` is accepted at
`KRYLOV_ACCEPT_RESIDUAL` relative residual and counted in the result.

Every sparse system is factored once, with SuperLU's MMD_AT_PLUS_A
ordering (minimum degree on A + A^T), which leaves about half the fill
of the default COLAMD ordering on these 5-point stencils.  `build_case`
is the one construction of (V_d, Z_d): a ring factors its
d-independent phase Laplacian there once for the ansatz and both
co-kernel rebuilds, and releases it before the bordered factorization.

`solve_balanced` takes its secant in X(d) = 1/d (pair) or (log d)/d
(ring), in which the leading-order multiplier is affine, so its solves
reach the root's grid early.  They share a `_BalanceState`: a solve on
the grid of the one before it reuses that solve's `_DofMap` and bordered
LU as its preconditioner, and Newton starts from the last corrector,
copied onto the new grid, when that start has the smaller residual.  A
solve that fails on reused state is redone cold.  A solve without the
state is the cold solve.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq
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
# A GMRES solve that stops short of krylov_tol is still accepted when its
# true residual is at most KRYLOV_ACCEPT_RESIDUAL * ||b||; it is counted
# in SolveResult.krylov_accepted.
KRYLOV_ACCEPT_RESIDUAL = 1e-6


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
    # Newton steps whose GMRES stopped short of krylov_tol (info != 0) but
    # was accepted at KRYLOV_ACCEPT_RESIDUAL
    krylov_accepted: int = 0
    # the preconditioner was the bordered LU of the solve before it (same
    # grid), and Newton started from that solve's corrector
    lu_reused: bool = False
    warm_start: bool = False
    # solve_balanced only: one (d, c, n1, lu_reused, warm_start) per solve
    balance_history: tuple = ()


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
    the axis imaginary part to zero, so it is not an unknown).

    It also holds the Jacobian's sparsity (`pattern`), built on first use
    and shared by every assembly on this grid."""

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
        self._patterns = {}

    def pack(self, arr):
        return np.concatenate([arr.real[self.re_mask], arr.imag[self.im_mask]])

    def unpack(self, vec):
        out = np.zeros((self.spec.n1, self.spec.n2), dtype=complex)
        out.real[self.re_mask] = vec[: self.n_re]
        out.imag[self.im_mask] = vec[self.n_re:]
        return out

    def pattern(self, ring):
        """The `_JacobianPattern` of the pair (ring=False) or ring stencil."""
        if ring not in self._patterns:
            self._patterns[ring] = _JacobianPattern(self, ring)
        return self._patterns[ring]


def _arms(ring):
    """Stencil arms (di, dj, conj_all) in emission order; `_arm_coefficients`
    returns their coefficients in the same order."""
    arms = [(+1, 0, False), (-1, 0, False), (0, +1, False), (0, -1, False)]
    if ring:
        arms += [(+1, 0, False), (-1, 0, False), (+1, 0, False)]
    return arms + [(0, 0, False), (0, 0, True)]


class _JacobianPattern:
    """Fixed CSC structure of the real-block Jacobian on one grid, and the
    int32 gathers that fill its values.

    Arm k at point p couples gamma * v(target) (or gamma * conj v) into
    the Re and Im rows of p, which gives up to four entries with values
    Re g, Im g, -Im g or -Re g.  An assembly stacks these four variants
    of every arm as `src` (shape (arms, 4, points)); `first` gathers each
    slot's first contribution from it, and each `(slots, src)` pair of
    `more` adds the next contribution of the slots that have one.  So the
    duplicates of a slot (up to 5 on the ring axis) are summed left to
    right in emission order, as the coordinate-format conversion summed
    them, and the matrix is the same to the bit."""

    def __init__(self, dm: _DofMap, ring):
        I, J = np.nonzero(dm.re_mask)
        row_re = dm.re_idx[I, J]
        row_im = dm.im_idx[I, J]
        npts = I.size
        arms = _arms(ring)
        src_type = np.int32 if 4 * len(arms) * npts < 2**31 else np.int64
        every = np.arange(npts, dtype=src_type)
        n = dm.n
        keys, srcs = [], []
        for k, (di, dj, conj_all) in enumerate(arms):
            ii = np.abs(I + di)
            jj = J + dj
            fold = jj < 0
            jj = np.abs(jj)
            if fold.any() and not conj_all:
                # folding across x2 = 0 conjugates
                parts = [(every[fold], True), (every[~fold], False)]
            else:
                parts = [(every, conj_all)]
            for pts, conj in parts:
                tgt_re = dm.re_idx[ii[pts], jj[pts]]
                tgt_im = dm.im_idx[ii[pts], jj[pts]]
                r_re, r_im = row_re[pts], row_im[pts]
                ok = tgt_re >= 0
                okr = ok & (r_im >= 0)
                oki = ok & (tgt_im >= 0)
                okb = oki & (r_im >= 0)
                # (mask, row, col, variant): Re-row/Re(v) takes Re g, Im-row/Re(v)
                # Im g, Re-row/Im(v) -Im g (Im g if conj), Im-row/Im(v) Re g
                # (-Re g if conj)
                for mask, r, c, var in ((ok, r_re, tgt_re, 0), (okr, r_im, tgt_re, 1),
                                        (oki, r_re, tgt_im, 1 if conj else 2),
                                        (okb, r_im, tgt_im, 3 if conj else 0)):
                    keys.append(c[mask].astype(np.int64) * n + r[mask])
                    srcs.append((4 * k + var) * npts + pts[mask])
        # CSC order (column, then row); the stable sort keeps emission order
        # among the contributions to one slot
        key = np.concatenate(keys)
        del keys
        order = np.argsort(key, kind="stable")
        key = key[order]
        src = np.concatenate(srcs)[order]
        del srcs, order
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        slot_key = key[starts]
        del key
        self.indices = (slot_key % n).astype(np.int32)
        self.indptr = np.searchsorted(slot_key, np.arange(n + 1, dtype=np.int64) * n
                                      ).astype(np.int32)
        del slot_key
        counts = np.diff(starts, append=src.size)
        self.first = src[starts]
        self.more = []
        for r in range(1, int(counts.max())):
            slots = np.flatnonzero(counts > r).astype(np.int32)
            self.more.append((slots, src[starts[slots] + r]))
        for arr in (self.indices, self.indptr):  # shared by every matrix built here
            arr.flags.writeable = False
        self.n = n
        self.npts = npts

    def matrix(self, gammas):
        """CSC matrix with the arm coefficients `gammas` (complex, one row
        per arm) on this structure; it shares `indices` and `indptr`."""
        src = np.empty((len(gammas), 4, self.npts))
        for k, g in enumerate(gammas):
            src[k, 0] = g.real
            src[k, 1] = g.imag
            np.negative(src[k, 1], out=src[k, 2])
            np.negative(src[k, 0], out=src[k, 3])
        src = src.ravel()
        data = src[self.first]
        for slots, more in self.more:
            data[slots] += src[more]
        return csc_matrix((data, self.indices, self.indptr), shape=(self.n, self.n),
                          copy=False)


def assemble_jacobian(u: ComplexField, tag: str, params: ModelParams,
                      dm: _DofMap = None):
    """Sparse real-block Jacobian of S at u on the reduced unknowns.

    The analytic linearization is

        L[v] = lap v + A1 d1 v + A2 d2 v + B v + C conj(v)  (+ H1 v),

    with per-point coefficients from `_arm_coefficients`.  Stencil arms
    that cross an axis fold back into the quarter; folding across x2 = 0
    conjugates, which turns a gamma*v coupling into gamma*conj(v) at the
    mirror node.  The sparsity is `dm`'s, built on its first assembly;
    later assemblies on the same `dm` compute the coefficients and write
    values only.
    """
    _check_tag(u, tag, params)
    dm = dm or _DofMap(u.spec)
    gammas = _arm_coefficients(u, tag, params, dm)
    return dm.pattern(tag in RING_TAGS).matrix(gammas), dm


def _arm_coefficients(u: ComplexField, tag: str, params: ModelParams, dm: _DofMap):
    """Per-point coefficients of the stencil arms of `_arms(ring)`, in
    that order, at the points of `dm.re_mask`."""
    spec = u.spec
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
    inv_h1sq = 1.0 / h1**2
    inv_h2sq = 1.0 / h2**2
    x1 = h1 * I
    axis = I == 0
    with np.errstate(divide="ignore"):
        h1_inv = np.where(axis, 0.0, 1.0 / (2.0 * h1 * np.where(x1 > 0, x1, 1.0)))

    a1 = A1[I, J] / (2.0 * h1)
    a2 = A2[I, J] / (2.0 * h2)
    center = np.full(I.size, -2.0 * (inv_h1sq + inv_h2sq), dtype=complex) + B[I, J]

    gammas = [inv_h1sq + a1, inv_h1sq - a1, inv_h2sq + a2, inv_h2sq - a2]
    if ring:
        gammas += [h1_inv.astype(complex), -h1_inv.astype(complex),
                   np.where(axis, 2.0 * inv_h1sq, 0.0).astype(complex)]
        center = center + np.where(axis, -2.0 * inv_h1sq, 0.0)
    return gammas + [center, C[I, J]]


def _bordered_lu(P, dm, z_col, grad_con):
    """LU of [[P, -z], [g^T, 0]]: the border row and column appended to
    P's CSC arrays (explicit zero corner kept structural so SuperLU can
    pivot through it)."""
    n = dm.n
    zi = np.flatnonzero(z_col)
    gi = np.flatnonzero(grad_con)
    # row n is last, so column j's border entry goes at the end of column j
    ends = P.indptr[gi + 1]
    data = np.concatenate([np.insert(P.data, ends, grad_con[gi]), -z_col[zi], [0.0]])
    indices = np.concatenate([np.insert(P.indices, ends, n), zi, [n]]).astype(np.int32)
    indptr = np.empty(n + 2, dtype=np.int32)
    indptr[: n + 1] = P.indptr + np.searchsorted(gi, np.arange(n + 1))
    indptr[n + 1] = data.size
    B = csc_matrix((data, indices, indptr), shape=(n + 1, n + 1))
    return splu(B, permc_spec="MMD_AT_PLUS_A")


def extract_multiplier(u: ComplexField, V: ComplexField, Z: ComplexField,
                       tag: str, params: ModelParams) -> float:
    """Post-hoc projection c = <S[u], Z>_W / <Z, Z>_W, W = (1+|V|^2)^-2."""
    S = apply_S(u, tag, params)
    W = 1.0 / (1.0 + np.abs(V.data) ** 2) ** 2
    num = float(np.sum((S.data * np.conj(Z.data)).real * W))
    den = float(np.sum((Z.data * np.conj(Z.data)).real * W))
    return num / den


class _BalanceState:
    """What one solve of a balance hands to the next.  It holds one grid
    at a time: that grid's `_DofMap` (so its Jacobian structure), the
    bordered LU factored on it, and the last solve's corrector u - V_d
    with its multiplier.  It keeps at most one LU: a change of grid or a
    solve redone cold releases it before the next factorization."""

    def __init__(self):
        self.spec = None
        self.dm = None
        self.lu = None
        self.corrector = None    # ComplexField u - V_d of the last solve
        self.c = 0.0
        self.reused = False      # the solve in progress started from this state
        self.fallbacks = 0       # solves redone cold after failing on this state

    def on_grid(self, spec):
        """Hold the `_DofMap` of `spec`; a change of grid releases the LU."""
        if spec != self.spec:
            self.dm = self.lu = None  # released before the new grid's map is built
            self.spec, self.dm = spec, _DofMap(spec)

    def warm_start(self, V):
        """V plus the last corrector copied onto V's grid over the block
        both grids share (a balance keeps the spacing and origin), or None."""
        w_old = self.corrector
        if w_old is None:
            return None
        w = np.zeros_like(V.data)
        m1, m2 = min(w.shape[0], w_old.spec.n1), min(w.shape[1], w_old.spec.n2)
        w[:m1, :m2] = w_old.data[:m1, :m2]
        w[-1, :] = 0.0  # u = V_d on the Dirichlet layer
        w[:, -1] = 0.0
        return V.data + w


def solve_projected(params: ModelParams, V_d: ComplexField, Z_d: ComplexField,
                    newton_max=50, newton_tol=1e-8, krylov_tol=1e-10,
                    state: _BalanceState = None) -> SolveResult:
    """Damped Newton on the bordered system (u, c).

    Without `state` (the cold solve) Newton starts from the ansatz and
    the preconditioner is the bordered Jacobian factored there.  With a
    `_BalanceState` it reuses the state's LU when the state is on V_d's
    grid, and starts from the state's corrector when that start has the
    smaller residual.  A solve that fails on reused state is redone cold
    and counted in `state.fallbacks`; the state then takes this solve's
    LU and corrector."""
    _check_tag(V_d, params.tag, params)
    opts = dict(newton_max=newton_max, newton_tol=newton_tol, krylov_tol=krylov_tol)
    if state is None:
        state = _BalanceState()
    state.on_grid(V_d.spec)
    try:
        res = _newton(params, V_d, Z_d, state, **opts)
    except NonConvergenceError:
        if not state.reused:
            raise
        res = None
    if res is None:  # outside the handler, so the failed attempt's frames are gone
        state.fallbacks += 1
        state.lu = state.corrector = None
        res = _newton(params, V_d, Z_d, state, **opts)
    state.corrector = ComplexField(V_d.spec, res.u.data - V_d.data)
    state.c = res.c_mult
    return res


def _newton(params, V_d, Z_d, state, newton_max, newton_tol, krylov_tol):
    """One Newton run of `solve_projected` on the state's grid, from the
    state's LU and corrector where it has them."""
    from .diagnostics import corrector_norms

    tag = params.tag
    spec = V_d.spec
    dm = state.dm
    cell = spec.h1 * spec.h2
    W = 1.0 / (1.0 + np.abs(V_d.data) ** 2) ** 2
    grad_con = dm.pack(W * Z_d.data * cell)
    z_col = dm.pack(Z_d.data)
    nb = dm.n + 1

    def residual_vec(u_arr, c_val):
        S = apply_S(ComplexField(spec, u_arr.copy()), tag, params)
        pde = S.data - c_val * Z_d.data
        con = float(np.sum(((u_arr - V_d.data) * np.conj(Z_d.data)).real * W) * cell)
        return np.concatenate([dm.pack(pde), [con]])

    def resnorm(vec):
        return math.sqrt(cell * float(np.dot(vec[:-1], vec[:-1])) + vec[-1] ** 2)

    u_w = state.warm_start(V_d)
    warm = u_w is not None and (resnorm(residual_vec(u_w, state.c))
                                < resnorm(residual_vec(V_d.data, 0.0)))
    lu_reused = state.lu is not None
    state.reused = warm or lu_reused

    J = None
    if lu_reused:
        lu = state.lu
    else:
        J, _ = assemble_jacobian(V_d, tag, params, dm)
        lu = state.lu = _bordered_lu(J, dm, z_col, grad_con)
    u, c = (u_w, state.c) if warm else (np.array(V_d.data), 0.0)
    if warm or J is None:
        J = None  # the ansatz Jacobian goes before the start's is assembled
        J, _ = assemble_jacobian(ComplexField(spec, u.copy()), tag, params, dm)
    jac = {"J": J}  # the first Newton step uses J; later steps replace it
    del J

    Mop = LinearOperator((nb, nb), matvec=lu.solve)

    def matvec(x):
        top = jac["J"] @ x[:-1] - x[-1] * z_col
        bot = float(np.dot(grad_con, x[:-1]))
        return np.concatenate([top, [bot]])

    Aop = LinearOperator((nb, nb), matvec=matvec)

    R = residual_vec(u, c)
    best = resnorm(R)
    iters = 0
    krylov_accepted = 0
    while iters < newton_max and best > newton_tol:
        if iters > 0:
            jac["J"] = None  # release the old values before assembling the new
            jac["J"], _ = assemble_jacobian(ComplexField(spec, u.copy()),
                                            tag, params, dm)
        bnorm = float(np.linalg.norm(R))
        sol, info = gmres(Aop, -R, rtol=krylov_tol, atol=0.0,
                          restart=150, maxiter=8, M=Mop)
        true_res = float(np.linalg.norm(matvec(sol) + R))
        if info != 0:
            if true_res > KRYLOV_ACCEPT_RESIDUAL * bnorm:
                raise KrylovStagnationError(
                    f"GMRES stagnated (info={info}, rel={true_res / bnorm:.2e})",
                    last_residual=best)
            krylov_accepted += 1
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
        d_used=params.d, converged=True, krylov_accepted=krylov_accepted,
        lu_reused=lu_reused, warm_start=warm,
    )


def _domain_for(d, h):
    return math.ceil(2.0 * d / h - 1e-9) * h


def balance_x(d, ring):
    """The variable in which the leading-order reduced multiplier
    (`reduction.leading_c`) is affine: X = 1/d for a pair, (log d)/d for
    a ring.  It decreases in d, for a ring only on d > e."""
    return math.log(d) / d if ring else 1.0 / d


def build_case(params: ModelParams, spec: GridSpec, profile: VortexProfile):
    """Ansatz V_d and co-kernel Z_d of `params` on `spec`.  A ring factors
    its phase Laplacian once for the ansatz and both co-kernel rebuilds
    and drops it on return, before any bordered factorization."""
    laplacian_lu = factor_axisym_laplacian(spec) if params.is_ring else None
    V = build_ansatz(params, spec, profile, laplacian_lu)
    return V, kernel_Zd(params, spec, profile, laplacian_lu=laplacian_lu)


def solve_at_separation(params: ModelParams, d: float, profile: VortexProfile,
                        h=0.25, *, state: _BalanceState = None, **opts) -> SolveResult:
    """Grid (L = 2d per side), ansatz and co-kernel at separation d, then
    the projected solve; `state` carries the solve before it (see
    `solve_projected`)."""
    p = params.with_d(d)
    L = _domain_for(d, h)
    spec = GridSpec(L, L, h, h, p.symmetry)
    if state is not None:
        state.on_grid(spec)  # a new grid drops the last LU before this solve builds
    V, Z = build_case(p, spec, profile)
    return solve_projected(p, V, Z, state=state, **opts)


def _secant_d(d_prev, c_prev, d_cur, c_cur, d_lo, d_hi, ring):
    """Zero of the secant through the last two solves, taken in X(d) and
    mapped back to d in (d_lo, d_hi), or None when it leaves the bracket.
    Where X is not monotone on the bracket (a ring bracket reaching
    d <= e) the secant is taken in d."""
    if c_cur == c_prev:
        return None
    if ring and d_lo <= math.e:
        d_new = d_cur - c_cur * (d_cur - d_prev) / (c_cur - c_prev)
    else:
        x_cur, x_prev = balance_x(d_cur, ring), balance_x(d_prev, ring)
        x_new = x_cur - c_cur * (x_cur - x_prev) / (c_cur - c_prev)
        if not balance_x(d_hi, ring) < x_new < balance_x(d_lo, ring):
            return None
        d_new = brentq(lambda d: balance_x(d, ring) - x_new, d_lo, d_hi,
                       xtol=1e-14 * d_hi)
    return d_new if d_lo < d_new < d_hi else None


def solve_balanced(params: ModelParams, d_bracket, profile: VortexProfile = None,
                   h=0.25, c_rtol=1e-10, max_iters=60, **opts):
    """Safeguarded secant for c_mult(d) = 0; returns (SolveResult, d_star).

    The secant is taken in X(d) (`balance_x`), in which the leading-order
    c is affine, and falls back to bisection when a step leaves the
    bracket.  It stops when |c| <= c_rtol max(|c(d_lo)|, |c(d_hi)|) or
    the bracket is narrower than 1e-8 d_hi.  The solves share one
    `_BalanceState`: a solve on the grid of the one before it reuses its
    bordered LU, and each starts from the last corrector when that lowers
    the residual.  The result carries `balance_history`, one record
    (d, c, n1, lu_reused, warm_start) per solve.

    The Newton tolerance is pushed to 1e-11 so the multiplier noise
    floor stays below the |c| stopping scale."""
    if profile is None:
        profile = solve_profile()
    opts.setdefault("newton_tol", 1e-11)
    ring = params.is_ring
    state = _BalanceState()
    history = []

    def solve(d):
        r = solve_at_separation(params, d, profile, h, state=state, **opts)
        history.append((d, r.c_mult, r.u.spec.n1, r.lu_reused, r.warm_start))
        return r

    def done(res, d):
        return replace(res, balance_history=tuple(history)), d

    d_lo, d_hi = d_bracket
    r_lo = solve(d_lo)
    r_hi = solve(d_hi)
    c_lo, c_hi = r_lo.c_mult, r_hi.c_mult
    if c_lo == 0.0:
        return done(r_lo, d_lo)
    if c_hi == 0.0:
        return done(r_hi, d_hi)
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
        d_new = _secant_d(d_prev, c_prev, d_cur, c_cur, d_lo, d_hi, ring)
        if d_new is None:
            d_new = 0.5 * (d_lo + d_hi)
        r_new = solve(d_new)
        c_new = r_new.c_mult
        if abs(c_new) < abs(best[0].c_mult):
            best = (r_new, d_new)
        if c_lo * c_new <= 0.0:
            d_hi, c_hi = d_new, c_new
        else:
            d_lo, c_lo = d_new, c_new
        d_prev, c_prev = d_cur, c_cur
        d_cur, c_cur = d_new, c_new
    return done(*best)


def unprojected_residual_norm(result: SolveResult, tag: str, params: ModelParams) -> float:
    """Discrete L2 of S_tag[u] at a solution (meaningful once c ~ 0)."""
    p = params.with_d(result.d_used)
    S = apply_S(result.u, tag, p)
    cell = result.u.spec.h1 * result.u.spec.h2
    return float(math.sqrt(np.sum(np.abs(S.data) ** 2) * cell))
