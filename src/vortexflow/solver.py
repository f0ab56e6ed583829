"""Nonlinear operators and the projected (bordered) Newton-Krylov solver.

Operators on the quarter grid:

    S0[u] = lap u - (2 conj(u)/(1+|u|^2)) grad u . grad u + F(u)
    Q2[u] = i (1-|u|^2)/(1+|u|^2) d2 u        T2[u] = -i d2 u
    H1[u] = (1/x1) d1 u   (axis row: the limit d11 u)

    S1 = S0 + eps Q2                 S2 = S1 + kappa eps T2
    S3 = S0 + eps|log eps| Q2 + H1   S4 = S3 + kappa eps|log eps| T2

grad u . grad u is the complex bilinear sum (d1 u)^2 + (d2 u)^2, not the
Hermitian square.

The case's regime decides its operator, so the operators take the
case's `ModelParams` and nothing else: `apply_S(u, params)` and the
Jacobian (`_Jacobian(u, params)`) add the Q2 drive (`params.drive`) to
S0, T2 for Schrodinger flow (`params.is_schrodinger`) and H1 for a ring
(`params.is_ring`), and raise ValueError on a grid whose symmetry is not
`params.symmetry`.  `apply_S(u, None)` applies S0 itself, the static
operator, which no regime implies.

The projected problem S[u] = c Z_d with Re<u - V_d, Z_d>_W = 0 (weight
W = (1+|V_d|^2)^-2) is solved by damped Newton on the bordered system
(unknowns u on the quarter grid plus the scalar c).  Inner linear
solves are the module's flexible GMRES (`gmres`) on the analytic
Jacobian at the current iterate, right-preconditioned in single
precision: by a V-cycle whose coarsest level is the LU factorization of
a bordered Jacobian frozen at the ansatz, or by that factor alone.  The
Krylov basis V, the Jacobian products and the true residual b - A x
that ends every restart cycle are float64, so the float32 preconditioner
sets how fast an inner solve converges, not how far, and its arrays
take half the memory of float64 ones (Abdelfattah et al., Int. J. High
Perform. Comput. Appl. 35, 2021).  GMRES keeps the preconditioned
vectors Z in the float32 the preconditioner returns and applies the
Jacobian to them as stored, so the flexible Arnoldi relation stays
exact.

Each inner solve goes only as far as its Newton step needs: step k
stops at relative residual eta_k = min(KRYLOV_FORCING_MAX, ||F_k||),
where ||F_k|| is the Newton residual the step starts from, until
||F_k||^2 <= 10 newton_tol; from there on at eta_k =
min(KRYLOV_FORCING_MAX, 0.5 newton_tol / ||F_k||) (`_forcing_term`;
Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982; Eisenstat &
Walker, SIAM J. Sci. Comput. 17, 1996).  A forcing term of order
||F_k|| keeps Newton's quadratic convergence.  The safeguard 0.5
newton_tol / ||F_k|| makes the last step aim at half of newton_tol: it
asks only for that reduction, so a solve ends at or below newton_tol
rather than far below it, and a step that starts within a factor
sqrt(10) of sqrt(newton_tol), where ||F_k|| alone would leave it just
above newton_tol, ends in that step.  The two terms multiply to
newton_tol / 2, so eta_k >= min(KRYLOV_FORCING_MAX, sqrt(newton_tol /
40)), 5e-7 at NEWTON_TOL: newton_tol is a solve's one tolerance.

Which bordered system is factored depends on the grid alone, and one
recursion decides it (`_preconditioner`).  A grid that can be coarsened
(`_can_double`) is preconditioned by a V-cycle: a red-black Gauss-Seidel
sweep on the fine rows on each side of a coarse correction by the same
case at 2h, which is the same cycle again, with twice the sweeps,
wherever that grid can be coarsened too (a variable V-cycle: Bramble &
Pasciak, Math. Comp. 49, 1987).  So every solve factors one bordered
system (`_bordered_lu`), on the first grid that cannot be coarsened (h =
COARSEST_SPACING = 1.0, about one core width, or fewer than 7 points a
side): the cycle's coarsest level, or the solve's own grid.  The cycle's
coarse grids are the only grids past MAX_SPACING, which only the entry
points of a grid (`_grid_for`, `cli_io.load_field`) enforce.  Every
level of the cycle runs in float32.  That factor is small (277,611
entries in L + U on the benchmark's ring grid, h = 0.125 and 293k
unknowns) and a Newton step takes 1 to 10 cycles under the forcing term,
so the cycle beats a factor of a finer grid at every grid size measured.

A solve is accepted iff its Newton residual ends at or below
newton_tol (default NEWTON_TOL); otherwise it raises
`NonConvergenceError`, and `KrylovStagnationError` when a step's GMRES
stops short of its eta_k.  `SolveResult.krylov_iters` records the
preconditioner applies of each Newton step, `newton_residuals` the
residual each step starts from and the final one, and `lu_n1` the grid
the factor was made on, as `_preconditioner` reports it.

The unknowns of a field a are `_packed(a[:-1, :-1])`: Re at every
point off the Dirichlet layer, then Im off the x2 = 0 row, where odd
parity pins it to zero; `_on_grid` inverts it, and every product,
transfer, index table and Newton step goes through that pair.  The
border of the bordered system, Z_d and W Z_d h1 h2 with W = (1 +
|V_d|^2)^-2, has one construction too (`_border`), on every grid.

Pair and ring operators share one stencil of six arms: the ring's H1
couples the targets of the Laplacian's two x1 arms and is added to their
coefficients.  Newton applies the Jacobian matrix-free from the arm
coefficients (`_Jacobian`), stored split by colour, for every GMRES
product and, from a complex64 copy, for the V-cycle's sweeps (Knoll &
Keyes, J. Comput. Phys. 193, 2004), so no matrix of a grid that can be
coarsened is built or stored.  Each level of the cycle
keeps its iterate on its own grid, as four padded sub-lattices, from
entry to exit, and packs only what it returns.  A sparse matrix is
assembled only to be factored (`assemble_jacobian(J)`, one
coordinate-format build from a `_Jacobian`), and the bordered matrix is
built from its coordinates and the border's.  A solve factors one
bordered system at most once, in SuperLU's own column order (minimum
degree on A + A^T, MMD_AT_PLUS_A) of the whole bordered matrix.

`build_case` is the one construction of (V_d, Z_d), and
`solve_at_separation` that of a solved case: grid (`_grid_for`), V_d,
Z_d and the cold solve.

`solve_projected` is the cold solve: Newton from the ansatz, on a
preconditioner built at V_d.  `solve_balanced` takes its secant in
X(d) = 1/d (pair) or (log d)/d (ring), in which the leading-order
multiplier is affine, so its solves reach the root's grid early.  Its
`_BalanceState` is the one place a solve hands anything on: a solve on
the grid of the one before it reuses that solve's preconditioner, and
Newton starts from the last corrector when that lowers the residual,
and takes one step at least from it.
Each of its solves still enters `solve_at_separation` and
`solve_projected`, which hands the Newton run to the balance in progress.
"""

import ctypes
import math
from contextvars import ContextVar
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import brentq
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

# build_ansatz stays importable from this module, where
# bench/test_tracing.py looks for it
from .ansatz import ModelParams, build_ansatz, build_case  # noqa: F401
from .fields import (MAX_FIELD_SAMPLES, MAX_SPACING, ComplexField, GridSpec, axisym_term,
                     diff_ops)
from .profile import VortexProfile
from .stereo import nonlinearity_F

# default newton_tol of every solve, the one residual at which a solve is
# accepted: the multiplier's noise floor must stay below the |c| scale at
# which solve_balanced stops (BALANCE_C_RTOL)
NEWTON_TOL = 1e-11
# most Newton steps of one solve, read when the solve runs
NEWTON_MAX = 50
# restart length and restart cycles of `gmres`: its V (restart + 1
# float64 vectors) and Z (restart vectors in the precision M returns)
# hold at most 151 Krylov vectors, (76 * 8 + 75 * 4) n bytes with this
# module's float32 preconditioners, and a solve makes at most 1200
# preconditioner applies
GMRES_RESTART = 75
GMRES_MAXITER = 16
# ceiling of the forcing term `_forcing_term`, the relative residual a
# Newton step's GMRES is asked for
KRYLOV_FORCING_MAX = 0.1
# red-black Gauss-Seidel sweeps of the V-cycle (`_preconditioner`) on each
# side of the finest level's coarse correction; each coarser level sweeps
# twice as often as the one above it
SMOOTHING_SWEEPS = 1
# largest spacing of the V-cycle's grids (`_can_double`), about one core
# width; the cycle's own grids are the only ones past MAX_SPACING
COARSEST_SPACING = 1.0
# glibc's malloc_trim (see `_release_freed_memory`), None where the C
# library has none
try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes = [ctypes.c_size_t]
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None
# solve_balanced stops once |c| is this fraction of the larger |c| at the
# bracket ends
BALANCE_C_RTOL = 1e-10
# most secant or bisection steps solve_balanced takes past its two bracket
# solves
BALANCE_MAX_ITERS = 60


class NonConvergenceError(RuntimeError):
    """A solve that failed: `last_residual` is the best Newton residual
    reached, `krylov_iters` the preconditioner applies of each Newton
    step made before the failure, the failing step's included, and
    `newton_residuals` the residual at the start and after each step
    completed before it, as in `SolveResult`."""

    def __init__(self, message, last_residual=None, krylov_iters=(), newton_residuals=()):
        super().__init__(message)
        self.last_residual = last_residual
        self.krylov_iters = tuple(krylov_iters)
        self.newton_residuals = tuple(newton_residuals)


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
    d_used: float
    # the case's ansatz; `diagnostics.corrector_norms(u, V_d, params)`
    # measures the corrector u - V_d
    V_d: ComplexField = field(repr=False, compare=False)
    # preconditioner applies (LU solves or V-cycles) of each Newton step's
    # GMRES solve
    krylov_iters: tuple = ()
    # Newton residual at the start and after each step, newton_iters + 1
    # values ending at final_residual; a step the line search rejects
    # leaves it as it was
    newton_residuals: tuple = ()
    # the preconditioner was that of the solve before it (same grid), and
    # Newton started from that solve's corrector
    lu_reused: bool = False
    warm_start: bool = False
    # nnz(L+U) of the bordered factor this solve made, 0 when it reused one
    lu_fill: int = 0
    # per-side point count of the grid that factor was made on, as
    # `_preconditioner` made it: the V-cycle's coarsest grid (h = 1.0 on
    # the benchmark's grids) where the solve's grid can be coarsened
    # (`_can_double`), u.spec.n1 for the direct factor where it cannot, 0
    # when the solve reused a factor
    lu_n1: int = 0
    # solve_balanced only: one (d, c, n1, lu_reused, warm_start) per solve,
    # and the count of solves redone cold after failing on reused state
    balance_history: tuple = ()
    fallbacks: int = 0


def _check_grid(u, params):
    """ValueError unless u's grid has the symmetry of params' regime."""
    if u.spec.symmetry is not params.symmetry:
        raise ValueError(f"{params.regime.value} acts on {params.symmetry.name} grids, "
                         f"not {u.spec.symmetry.name}")


def apply_S(u: ComplexField, params: ModelParams | None) -> ComplexField:
    """Apply the operator of params' regime (S1..S4), or S0 when params is
    None; the outer Dirichlet layer of the result is zero."""
    if params is not None:
        _check_grid(u, params)
    d1, d2, lap = diff_ops(u)
    ud = u.data
    r2 = ud.real**2 + ud.imag**2
    grad_sq = d1.data**2 + d2.data**2
    out = lap.data - 2.0 * np.conj(ud) / (1.0 + r2) * grad_sq + nonlinearity_F(ud)
    if params is not None:
        q = params.drive
        G = (1.0 - r2) / (1.0 + r2)
        out = out + q * 1j * G * d2.data
        if params.is_schrodinger:
            out = out + params.kappa * q * (-1j) * d2.data
        if params.is_ring:
            out = out + axisym_term(ud, u.spec)
    out[-1, :] = 0.0
    out[:, -1] = 0.0
    return ComplexField(u.spec, out)


def _on_grid(x, g):
    """Write the packed unknowns x onto g, an m1 x m2 complex grid of
    active points (a field's [:-1, :-1], or a view of it), and return g:
    Re at every point, then Im off the x2 = 0 row, where odd parity pins
    Im to zero and g keeps its own.  `_packed` inverts it."""
    m1, m2 = g.shape
    g.real = x[: m1 * m2].reshape(m1, m2)
    g.imag[:, 1:] = x[m1 * m2:].reshape(m1, m2 - 1)
    return g


def _packed(g):
    """The packed unknowns of the complex grid g of active points: Re
    everywhere, then Im off the x2 = 0 row.  The unknowns of a field a
    are `_packed(a[:-1, :-1])`: its Dirichlet layer is not one."""
    return np.concatenate([g.real.ravel(), g.imag[:, 1:].ravel()])


def _unknown_index(spec):
    """(re, im): the packed index of the Re and Im unknown at each point
    of `spec`, -1 where there is none (the Dirichlet layer, and Im on the
    x2 = 0 row), unpacked from the indices themselves."""
    m1, m2 = spec.n1 - 1, spec.n2 - 1
    idx = np.full((spec.n1, spec.n2), -1 - 1j)
    _on_grid(np.arange(m1 * (2 * m2 - 1), dtype=float), idx[:-1, :-1])
    return idx.real.astype(np.int32), idx.imag.astype(np.int32)


# Stencil arms (di, dj, conj_all): the centre, its conjugate C, +-x1, +-x2;
# `_arm_coefficients`, `_Jacobian` and `assemble_jacobian` follow this
# order.  The x1 arms also carry H1 = (1/x1) d1 of the ring operators.
_ARMS = ((0, 0, False), (0, 0, True), (+1, 0, False), (-1, 0, False),
         (0, +1, False), (0, -1, False))


# The colour-split layout of the Jacobian's coefficients and of the
# V-cycle's iterates.  The m1 x m2 active points of a grid are four
# sub-lattices (i mod 2, j mod 2), in the order of `_SUBLATTICES`, each a
# k1 x k2 block with k = ceil(m / 2) (`_split`).  The colour of a point is
# (i + j) mod 2: red (0) is sub-lattices 0 and 3, black (1) sub-lattices 1
# and 2 (`_COLOURS`).  An iterate's sub-lattices are padded by one row and
# column on each side: index 0 holds the ghosts i = -1 and j = -1, mirrors
# of i = 1 and j = 1 (the second conjugated), and the Dirichlet layer and
# every entry past it stay zero.  The ghosts lie on the odd sub-lattices,
# so every arm of `_ARMS` but the centre's lands on the other colour, as a
# shifted contiguous slice of a neighbouring sub-lattice.
_SUBLATTICES = ((0, 0), (0, 1), (1, 0), (1, 1))
_COLOURS = ((0, 3), (1, 2))


def _split(g, pad=0):
    """The four sub-lattices of the m1 x m2 grid g, a (4, k1 + 2 pad,
    k2 + 2 pad) array of g's dtype with k = ceil(m / 2): point (i, j) at
    [pad + i // 2, pad + j // 2] of sub-lattice 2 (i % 2) + j % 2, every
    other entry zero.  `_joined` inverts it."""
    m1, m2 = g.shape
    out = np.zeros((4, (m1 + 1) // 2 + 2 * pad, (m2 + 1) // 2 + 2 * pad), g.dtype)
    for k, (a, b) in enumerate(_SUBLATTICES):
        s = g[a::2, b::2]
        out[k, pad:pad + s.shape[0], pad:pad + s.shape[1]] = s
    return out


def _joined(U, m1, m2):
    """The m1 x m2 grid whose `_split` is U."""
    g = np.empty((m1, m2), U.dtype)
    for k, (a, b) in enumerate(_SUBLATTICES):
        s = g[a::2, b::2]
        s[...] = U[k, :s.shape[0], :s.shape[1]]
    return g


def _unknown_blocks(spec, x):
    """Views of the packed unknowns x of `spec` by sub-lattice, in the
    order of `_SUBLATTICES`: (re, im), the Re unknowns of sub-lattice
    (a, b) and the Im unknowns of its points off the x2 = 0 row, its
    columns from 1 - b on."""
    m1, m2 = spec.n1 - 1, spec.n2 - 1
    re, im = x[:m1 * m2].reshape(m1, m2), x[m1 * m2:].reshape(m1, m2 - 1)
    return [(re[a::2, b::2], im[a::2, 1 - b::2]) for a, b in _SUBLATTICES]


def _split_unknowns(spec, x, pad=0):
    """The packed unknowns x of `spec` on its sub-lattices, as
    `_split(., pad)` lays out the grid `_on_grid` writes them on, in
    complex64 or complex128 as x is float32 or float64."""
    m1, m2 = spec.n1 - 1, spec.n2 - 1
    out = np.zeros((4, (m1 + 1) // 2 + 2 * pad, (m2 + 1) // 2 + 2 * pad),
                   np.result_type(x, np.complex64))
    for k, (re, im) in enumerate(_unknown_blocks(spec, x)):
        s = out[k, pad:pad + re.shape[0], pad:pad + re.shape[1]]
        s.real = re
        s.imag[:, s.shape[1] - im.shape[1]:] = im
    return out


def _packed_split(spec, U, pad=0):
    """The packed unknowns of the sub-lattices U of `spec`, padded by
    `pad` or a list of four blocks: `_split_unknowns` inverted."""
    m1, m2 = spec.n1 - 1, spec.n2 - 1
    x = np.empty(m1 * (2 * m2 - 1), U[0].real.dtype)
    for k, (re, im) in enumerate(_unknown_blocks(spec, x)):
        s = U[k][pad:pad + re.shape[0], pad:pad + re.shape[1]]
        re[...] = s.real
        im[...] = s.imag[:, s.shape[1] - im.shape[1]:]
    return x


def _refresh_ghosts(U, colour):
    """Refill the ghosts of the padded sub-lattices U of `colour` from
    their points: a row copy (i = -1 mirrors i = 1) on a sub-lattice of
    odd i, a conjugated column copy (j = -1 mirrors j = 1) on one of
    odd j."""
    for k in _COLOURS[colour]:
        a, b = _SUBLATTICES[k]
        if b:
            np.conjugate(U[k, :, 1], out=U[k, :, 0])
        if a:
            U[k, 0] = U[k, 1]


class _Jacobian:
    """Real-block Jacobian at u of the operator of params' regime, on the
    packed unknowns of u's grid (`_packed`), applied matrix-free from the
    six arm coefficients (`_arm_coefficients`), stored split by colour:
    `gammas[arm][k]` is the coefficient of arm `_ARMS[arm]` on sub-lattice
    k (`_split`), zero where that sub-lattice has no point.  ValueError on
    a grid whose symmetry is not that of params.

    `half(U, colour)` is the product on the points of one colour, from
    the padded sub-lattices U of a vector with their ghosts current (even
    across x1 = 0, conjugated across x2 = 0; the Dirichlet layer is zero).
    `J @ x` is the two colours' products of x, packed: the product of
    `assemble_jacobian(J)`, up to rounding.  `diagonal()` is that
    matrix's diagonal, to the bit.  `single()` is the same Jacobian in
    complex64, for the V-cycle's sweeps."""

    def __init__(self, u: ComplexField, params: ModelParams):
        _check_grid(u, params)
        self.spec = u.spec
        m1, m2 = u.spec.n1 - 1, u.spec.n2 - 1
        # one array an arm: a single block of all six, freed at every
        # Newton step, raises glibc's dynamic mmap threshold above the
        # cycle's arrays, which then fragment the heap
        self.gammas = [_split(g.reshape(m1, m2)) for g in _arm_coefficients(u, params)]
        self._single = None

    def single(self):
        """This Jacobian with complex64 coefficients: made on the first
        call and kept by this one, so it is freed with it; itself when its
        coefficients are complex64 already."""
        if self.gammas[0].dtype == np.complex64:
            return self
        if self._single is None:
            J = object.__new__(_Jacobian)
            J.gammas = [g.astype(np.complex64) for g in self.gammas]
            J.spec, J._single = self.spec, None
            self._single = J
        return self._single

    def half(self, U, colour):
        """J u on the sub-lattices of `colour`, one k1 x k2 block each,
        from the padded sub-lattices U of u with their ghosts current; zero
        where a sub-lattice has no point.  Each arm of `_ARMS` reads a
        slice of the sub-lattice it lands on: arm (di, dj) of sub-lattice
        (a, b) reads ((a + di) mod 2, (b + dj) mod 2) from row
        1 + floor((a + di) / 2) and column 1 + floor((b + dj) / 2)."""
        k1, k2 = self.gammas[0].shape[1:]
        out = []
        for k in _COLOURS[colour]:
            a, b = _SUBLATTICES[k]
            acc = tmp = None
            for g, (di, dj, conj) in zip(self.gammas, _ARMS):
                g = g[k]
                r, c = 1 + (a + di) // 2, 1 + (b + dj) // 2
                t = U[2 * ((a + di) % 2) + (b + dj) % 2, r:r + k1, c:c + k2]
                if conj:
                    t = tmp = np.conjugate(t, out=tmp)
                if acc is None:
                    acc = g * t  # the first arm starts it
                else:
                    acc += np.multiply(g, t, out=tmp)
            out.append(acc)
        return out

    def __matmul__(self, x):
        U = _split_unknowns(self.spec, x.astype(self.gammas[0].real.dtype, copy=False), 1)
        _refresh_ghosts(U, 0)
        _refresh_ghosts(U, 1)
        out = [None] * 4
        for colour in (0, 1):
            for k, r in zip(_COLOURS[colour], self.half(U, colour)):
                out[k] = r
        return _packed_split(self.spec, out)

    def diagonal(self):
        """Re(centre + C) on the Re rows, Re(centre - C) on the Im rows."""
        centre, C = (_joined(self.gammas[arm], self.spec.n1 - 1, self.spec.n2 - 1)
                     for arm in (0, 1))
        return _packed((centre + C).real + 1j * (centre - C).real)


def _half_sweep(S, U, B, dinv, colour):
    """One half-sweep of red-black Gauss-Seidel on `colour` (0 red, 1
    black) of the padded sub-lattices U (`_split(., 1)`), for J u = b
    with J the complex64 `_Jacobian` S and b the sub-lattices B: u +=
    D^-1 (b - J u) at the points of that colour, then their ghosts
    refreshed (`_refresh_ghosts`).  `dinv` is D^-1 on the sub-lattices as
    float32 pairs, 1 / D of each point's Re unknown then of its Im, zero
    where there is no unknown."""
    for k, r in zip(_COLOURS[colour], S.half(U, colour)):
        r = np.subtract(B[k], r, out=r).view(np.float32)
        U[k, 1:-1, 1:-1].view(np.float32)[...] += np.multiply(dinv[k], r, out=r)
    _refresh_ghosts(U, colour)


def assemble_jacobian(J: _Jacobian):
    """The sparse real-block matrix of the `_Jacobian` J, for a factor;
    Newton's products apply J itself.

    The analytic linearization is

        L[v] = lap v + A1 d1 v + A2 d2 v + B v + C conj(v)  (+ H1 v),

    with per-point coefficients from `_arm_coefficients`.  Stencil arms
    that cross an axis fold back into the quarter; folding across x2 = 0
    conjugates, which turns a gamma*v coupling into gamma*conj(v) at the
    mirror node.  Arm k at point p couples gamma * v(target) into the Re
    and Im rows of p, up to four entries, indexed by `_unknown_index`;
    the matrix is built from these coordinates, and the conversion sums
    the entries that land on one slot.
    """
    re_idx, im_idx = _unknown_index(J.spec)
    I1, I2 = np.nonzero(re_idx >= 0)
    r_re, r_im = re_idx[I1, I2], im_idx[I1, I2]
    rows, cols, vals = [], [], []
    for arm, (di, dj, conj_all) in enumerate(_ARMS):
        g = _joined(J.gammas[arm], J.spec.n1 - 1, J.spec.n2 - 1)[I1, I2]
        t1, t2 = np.abs(I1 + di), I2 + dj
        conj = conj_all | (t2 < 0)  # folding across x2 = 0 conjugates
        t2 = np.abs(t2)
        c_re, c_im = re_idx[t1, t2], im_idx[t1, t2]
        for r, c, v in ((r_re, c_re, g.real), (r_im, c_re, g.imag),
                        (r_re, c_im, np.where(conj, g.imag, -g.imag)),
                        (r_im, c_im, np.where(conj, -g.real, g.real))):
            ok = (r >= 0) & (c >= 0)
            rows.append(r[ok])
            cols.append(c[ok])
            vals.append(v[ok])
    n = int(im_idx.max()) + 1
    return csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))


def _arm_coefficients(u: ComplexField, params: ModelParams):
    """Per-point coefficients of the stencil arms of `_ARMS`, in that
    order, for the Jacobian of the operator of params' regime at the
    active points of u's grid: the (n1-1) x (n2-1) block [:-1, :-1] in
    row-major order."""
    spec = u.spec
    h1, h2 = spec.h1, spec.h2

    d1f, d2f, _ = diff_ops(u)
    # every coefficient is pointwise, so it is computed on the block alone
    ud = u.data[:-1, :-1]
    d1u, d2u = d1f.data[:-1, :-1], d2f.data[:-1, :-1]
    r2 = ud.real**2 + ud.imag**2
    g = 1.0 / (1.0 + r2)
    g2 = g * g
    G = (1.0 - r2) * g
    Wq = d1u**2 + d2u**2
    cu = np.conj(ud)
    A1 = -4.0 * g * cu * d1u
    A2 = -4.0 * g * cu * d2u
    B = 2.0 * cu**2 * Wq * g2 + (G - 2.0 * r2 * g2)
    C = -2.0 * g * Wq + 2.0 * r2 * Wq * g2 - 2.0 * ud**2 * g2
    q = params.drive
    A2 = A2 + q * 1j * G
    B = B - 2.0 * q * 1j * g2 * cu * d2u
    C = C - 2.0 * q * 1j * g2 * ud * d2u
    if params.is_schrodinger:
        A2 = A2 - 1j * params.kappa * q

    inv_h1sq = 1.0 / h1**2
    inv_h2sq = 1.0 / h2**2
    a1 = A1 / (2.0 * h1)
    a2 = A2 / (2.0 * h2)
    center = np.full(B.shape, -2.0 * (inv_h1sq + inv_h2sq), dtype=complex) + B

    xp, xm = inv_h1sq + a1, inv_h1sq - a1
    if params.is_ring:
        # H1 = (1/x1) d1 on the x1 arms; on the axis its limit
        # 2 (u(h1) - u(0)) / h1^2 (the -x1 arm folds onto the +x1 target)
        I = np.arange(spec.n1 - 1)[:, None]
        axis = I == 0
        h1_inv = np.where(axis, 0.0, 1.0 / (2.0 * h1 * np.where(axis, 1.0, h1 * I)))
        xp = xp + np.where(axis, 2.0 * inv_h1sq, h1_inv)
        xm = xm - h1_inv
        center = center + np.where(axis, -2.0 * inv_h1sq, 0.0)
    return [a.ravel() for a in (center, C, xp, xm, inv_h2sq + a2, inv_h2sq - a2)]


def _bordered_lu(P, z_col, grad_con):
    """Single-precision LU of B = [[P, -z], [g^T, 0]]; returns (M,
    nnz(L+U)), where M maps a vector v to the B^-1 v of that factor in
    float32.  M also takes the Jacobian of the Newton step it
    serves, as the V-cycle of `_preconditioner` does, and does not use it.

    B is built from P's coordinates and the border's, with the zero
    corner kept structural so SuperLU can pivot through it, and factored
    in SuperLU's minimum-degree order on A + A^T (MMD_AT_PLUS_A).  P is
    released before the factorization."""
    n = P.shape[0]
    Pc = P.tocoo()
    del P  # a caller that passes the matrix it does not keep frees it here
    zi, gi = np.flatnonzero(z_col), np.flatnonzero(grad_con)
    # single precision: the factor only preconditions `gmres`, which
    # checks its float64 residual
    B = csc_matrix((np.concatenate([Pc.data, -z_col[zi], grad_con[gi], [0.0]],
                                   dtype=np.float32),
                    (np.concatenate([Pc.row, zi, np.full(gi.size, n), [n]]),
                     np.concatenate([Pc.col, np.full(zi.size, n), gi, [n]]))),
                   shape=(n + 1, n + 1))
    del Pc
    lu = splu(B, permc_spec="MMD_AT_PLUS_A")
    del B

    def apply(v, J=None):
        return lu.solve(v.astype(np.float32, copy=False))

    return apply, lu.nnz


def _coarse_spec(spec):
    """The 2h grid of the V-cycle: every other point of `spec` from the
    axes, ceil(n/2) points per side.  For odd n its Dirichlet layer is
    the fine one; for even n it lies one fine cell inside."""
    n1, n2 = -(-spec.n1 // 2), -(-spec.n2 // 2)
    h1, h2 = 2.0 * spec.h1, 2.0 * spec.h2
    return GridSpec(n1 * h1, n2 * h2, h1, h2, spec.symmetry)


def _prolong(spec, e, U):
    """Add the bilinear interpolation P e of the packed unknowns e of the
    2h grid of `spec` (`_coarse_spec`, without the border unknown) to U,
    the padded sub-lattices of `spec`'s points (`_split(., 1)`), and
    return U.  Along x1 and then x2, fine point 2I takes coarse point I
    and fine point 2I + 1 the mean of I and I + 1.  Re and Im are
    interpolated alike; the Im of the x2 = 0 row is zero (odd parity), and
    so is the coarse Dirichlet layer.  A coarse grid has m // 2 active
    points per side where `spec` has m."""
    m1, m2 = spec.n1 - 1, spec.n2 - 1
    k1, k2 = U.shape[1] - 2, U.shape[2] - 2
    c = np.zeros((k1 + 1, k2 + 1), U.dtype)
    _on_grid(e, c[:m1 // 2, :m2 // 2])
    for a, rows in enumerate((c[:k1], 0.5 * (c[:k1] + c[1:]))):
        for b, f in enumerate((rows[:, :k2], 0.5 * (rows[:, :k2] + rows[:, 1:]))):
            U[2 * a + b, 1:-1, 1:-1] += f
    return U


def _restrict(spec, R):
    """The restriction R r = P^T r / 4 (`_prolong`'s P) of r, given on
    the sub-lattices R of `spec`'s points (four blocks as `_split` makes
    them), as the packed unknowns of its 2h grid.  Along x1 and then x2,
    coarse point I takes fine point 2I and half of 2I - 1 and 2I + 1,
    without the terms that fall outside the grid.  The x2 = 0 row
    restricts to the coarse x2 = 0 row alone, whose Im is no unknown, so
    R's Im there drops out when that row is packed."""
    m1, m2 = spec.n1 - 1, spec.n2 - 1

    def fold(even, odd, n):  # the n coarse rows of fine rows even and odd
        s = odd[:n].copy()
        s[1:] += odd[:n - 1]
        return even[:n] + 0.5 * s

    rows = [fold(R[b], R[2 + b], m1 // 2) for b in (0, 1)]  # sub-lattices (0, b), (1, b)
    return 0.25 * _packed(fold(rows[0].T, rows[1].T, m2 // 2).T)


def _can_double(spec):
    """Whether `spec` has a 2h grid (`_coarse_spec`): 2h <= COARSEST_SPACING,
    and ceil(n/2) keeps the 4 points per side a GridSpec needs."""
    return 2.0 * max(spec.h1, spec.h2) <= COARSEST_SPACING and min(spec.n1, spec.n2) >= 7


def _border(V_d, Z_d):
    """(z, g, W) of the case (V_d, Z_d): the border column z = Z_d and
    row g = W Z_d h1 h2 of its bordered system, packed, and the weight
    W = (1+|V_d|^2)^-2 on the whole grid."""
    spec = V_d.spec
    W = 1.0 / (1.0 + np.abs(V_d.data) ** 2) ** 2
    Z = Z_d.data[:-1, :-1]
    return _packed(Z), _packed(W[:-1, :-1] * Z * (spec.h1 * spec.h2)), W


def _preconditioner(J, V_d, Z_d, params, sweeps=SMOOTHING_SWEEPS):
    """(M, nnz(L+U), n1) for the bordered system B = [[J, -z], [g^T, 0]]
    of the case (V_d, Z_d), whose Jacobian at V_d is J; n1 is the grid the
    one factor was made on.  M(v, J) maps v to float32, for the Newton
    step whose Jacobian is J.

    Where the grid cannot be coarsened (`_can_double`: its spacing
    cannot double within COARSEST_SPACING, or a side has fewer than 7
    points) M is the direct `_bordered_lu` of J's matrix.  Elsewhere it
    is one level of a V-cycle: `sweeps` red-black Gauss-Seidel sweeps on
    the u rows (none on c), a correction by the same case at 2h, and
    `sweeps` more, each sweep red then black (Trottenberg, Oosterlee &
    Schuller, Multigrid, 2001, ch. 2 and 4; Briggs, Henson & McCormick,
    A Multigrid Tutorial, 2000, ch. 3).  A half-sweep updates the points
    of one colour, u += D^-1 (b - J u), with D the scalar diagonal of
    each Re and Im unknown (`_Jacobian.diagonal()`, undamped).  The coarse
    case is V_d and Z_d injected onto `_coarse_spec`, preconditioned by
    this function again with twice the sweeps, so a solve factors only
    the grid where the coarsening stops, and the levels sweep 1, 2, 4,
    ... times from the finest down: the variable V-cycle of Bramble &
    Pasciak (Math. Comp. 49, 1987).  Each coarse level sweeps with the
    `_Jacobian` of its injected ansatz.  The transfers act on the grid,
    one axis at a time: the bilinear prolongation P (`_prolong`) and the
    restriction R = P^T / 4 (`_restrict`); c maps to itself, since each
    border row weights Z by its own grid's cell, so the two rows are the
    same integral.  The fine sweeps take their products with the step's
    J and their diagonal from the J given here (the ansatz's), so
    neither a fine matrix nor a transfer matrix is ever built.

    A level keeps its iterate on its own grid, colour-split (`_split`),
    from entry to exit: it unpacks the right-hand side once, sweeps with
    the products of one colour at a time (`_Jacobian.half`),
    restricts the residual of the two colours' products, and packs only
    the result.  The first half-sweep starts from u = 0, so it is
    D^-1 b and takes no product.

    Every level runs in single precision: the sweeps use `J.single()`,
    and the diagonal, border and transfers are complex64.  M only
    preconditions `gmres`, whose products, basis V and true residual are
    float64; gmres keeps M's float32 vectors as they are."""
    spec = V_d.spec
    if not _can_double(spec):
        z_col, grad_con, _ = _border(V_d, Z_d)
        return (*_bordered_lu(assemble_jacobian(J), z_col, grad_con), spec.n1)
    spec_c = _coarse_spec(spec)
    V_c = ComplexField(spec_c, np.ascontiguousarray(V_d.data[::2, ::2]))
    Z_c = ComplexField(spec_c, np.ascontiguousarray(Z_d.data[::2, ::2]))
    J_c = _Jacobian(V_c, params)
    coarse, fill, n1 = _preconditioner(J_c, V_c, Z_c, params, 2 * sweeps)
    J_c = J_c.single()  # the coarse level's sweeps; its float64 coefficients go
    # D^-1 as float32 pairs: 1 / D of each point's Re unknown, then of its
    # Im; zero on the pinned Im of the x2 = 0 row and off the grid
    dinv = _split_unknowns(spec, (1.0 / J.diagonal()).astype(np.float32)).view(np.float32)
    z_col, grad_con, _ = _border(V_d, Z_d)
    z_col = _split_unknowns(spec, z_col.astype(np.float32))
    grad_con = _split_unknowns(spec, grad_con.astype(np.float32), 1)

    def apply(v, J):
        S = J.single()
        B = _split_unknowns(spec, v[:-1].astype(np.float32))
        U = np.zeros_like(grad_con)  # padded, as the border row is
        for k in _COLOURS[0]:  # the first half-sweep, from u = 0
            np.multiply(dinv[k], B[k].view(np.float32), out=U[k, 1:-1, 1:-1].view(np.float32))
        _refresh_ghosts(U, 0)
        _half_sweep(S, U, B, dinv, 1)
        for _ in range(sweeps - 1):
            _half_sweep(S, U, B, dinv, 0)
            _half_sweep(S, U, B, dinv, 1)
        R = [None] * 4
        for colour in (0, 1):
            for k, r in zip(_COLOURS[colour], S.half(U, colour)):
                R[k] = np.subtract(B[k], r, out=r)
        # g^T u over the whole padded U: the border row is zero off the grid
        e = coarse(np.append(_restrict(spec, R), np.float32(v[-1]) - np.vdot(grad_con, U).real),
                   J_c)
        _prolong(spec, e[:-1], U)
        _refresh_ghosts(U, 0)
        _refresh_ghosts(U, 1)
        c = e[-1]
        B += c * z_col
        for _ in range(sweeps):
            _half_sweep(S, U, B, dinv, 0)
            _half_sweep(S, U, B, dinv, 1)
        return np.append(_packed_split(spec, U, 1), c)

    return apply, fill, n1


def gmres(A, b, *, M, rtol):
    """Right-preconditioned flexible GMRES for A x = b from x = 0 (Saad,
    SIAM J. Sci. Comput. 14, 1993); `A` maps a float32 or float64 vector
    to a float64 one, `M` a float64 vector to a float32 or float64 one.

    It keeps the preconditioned vectors Z and updates x = x0 + Z y, so M
    need not be the same linear map at every apply: an inexact M (the
    V-cycle, whose sweeps, transfers and factor are all single
    precision) slows convergence but does not limit it.  Z takes the
    dtype of M's first apply, so a float32 M (every preconditioner of
    this module) halves it, and A is applied to the stored vector, so the
    flexible Arnoldi relation A Z_k = V_{k+1} H_k holds for any M.  The
    basis V, the Hessenberg H and x are float64; x += Z^T y is summed one
    row of Z at a time, so no float64 copy of Z is made.
    Each restart cycle (GMRES_RESTART steps, at most GMRES_MAXITER
    cycles) ends on the true residual b - A x.  Returns (x, info): info
    is 0 when ||b - A x|| <= rtol ||b||, else the number of M applies
    made.  A non-finite Hessenberg column, which a non-finite M output
    or an overflowing product makes, stops it there unconverged, with x
    as the last restart cycle left it."""
    n, restart = b.size, GMRES_RESTART
    x = np.zeros(n)
    beta = bnorm = float(np.linalg.norm(b))
    target = rtol * bnorm
    if bnorm == 0.0:
        return x, 0
    V = np.empty((restart + 1, n))
    Z = None
    r = b
    applies = 0
    for _ in range(GMRES_MAXITER):
        H = np.zeros((restart + 1, restart))
        g = np.zeros(restart + 1)  # rotated right-hand side beta e1
        g[0] = beta
        cs, sn = np.zeros(restart), np.zeros(restart)
        np.divide(r, beta, out=V[0])
        k = 0
        while k < restart:
            # a diverging M overflows; its column is refused below
            with np.errstate(over="ignore", invalid="ignore"):
                z = M(V[k])
                if Z is None:
                    Z = np.empty((restart, n), dtype=z.dtype)
                Z[k] = z
                del z
                applies += 1
                w = A(Z[k])
                # classical Gram-Schmidt, done twice to keep V orthogonal
                h = V[: k + 1] @ w
                w -= h @ V[: k + 1]
                h2 = V[: k + 1] @ w
                w -= h2 @ V[: k + 1]
                hk = float(np.linalg.norm(w))
                col = np.append(h + h2, hk)
            if not np.isfinite(col).all():
                return x, applies
            for i in range(k):  # earlier rotations on the new column
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      cs[i] * col[i + 1] - sn[i] * col[i])
            rho = math.hypot(col[k], hk)
            if rho == 0.0:
                break  # singular Hessenberg: solve with the columns so far
            cs[k], sn[k] = col[k] / rho, hk / rho
            col[k], col[k + 1] = rho, 0.0
            H[: k + 2, k] = col
            g[k + 1] = -sn[k] * g[k]
            g[k] *= cs[k]
            k += 1
            if abs(g[k]) <= target or hk == 0.0:
                break
            np.divide(w, hk, out=V[k])
        if k:
            y = solve_triangular(H[:k, :k], g[:k])
            for i in range(k):  # a float64 product per row, not a float64 copy of Z
                x += y[i] * Z[i]
        r = b - A(x)
        beta = float(np.linalg.norm(r))
        if beta <= target:
            return x, 0
    return x, applies


def _forcing_term(residual, newton_tol):
    """eta_k, the relative residual that the GMRES of a Newton step
    starting at residual ||F_k|| = `residual` is asked for:

        min(KRYLOV_FORCING_MAX, ||F_k||)                 ||F_k||^2 > 10 newton_tol
        min(KRYLOV_FORCING_MAX, 0.5 newton_tol / ||F_k||)  otherwise

    ||F_k|| keeps Newton's quadratic convergence; 0.5 newton_tol / ||F_k||
    aims the last step at half of newton_tol and solves no further
    (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996; Kelley,
    Iterative Methods for Linear and Nonlinear Equations, SIAM, 1995,
    sec. 6.3).  It takes over at ||F_k||^2 = 10 newton_tol, below which
    ||F_k|| alone leaves a step ending near ||F_k||^2, just above
    newton_tol, and one more step to take.  Their product is newton_tol /
    2, so eta_k >= min(KRYLOV_FORCING_MAX, sqrt(newton_tol / 40)) for
    every ||F_k|| > 0, with no floor of its own."""
    if residual * residual <= 10.0 * newton_tol:
        return min(KRYLOV_FORCING_MAX, 0.5 * newton_tol / residual)
    return min(KRYLOV_FORCING_MAX, residual)


def check_tolerances(newton_tol):
    """ValueError unless newton_tol is finite and > 0 (a nan newton_tol
    would accept the unsolved start)."""
    if not 0.0 < newton_tol < math.inf:
        raise ValueError(f"newton_tol must be finite and > 0, got {newton_tol}")


def solve_projected(params: ModelParams, V_d: ComplexField, Z_d: ComplexField,
                    newton_tol=NEWTON_TOL) -> SolveResult:
    """Damped Newton on the bordered system (u, c): the cold solve.

    Newton starts from the ansatz, on a preconditioner built there (the
    V-cycle, or, on a grid that cannot be coarsened, the bordered
    Jacobian's factor); the solve lets it go and then gives the heap it
    freed back to the OS (`_release_freed_memory`).  Step k solves its
    GMRES to `_forcing_term(||F_k||, newton_tol)`, ||F_k|| being the
    residual it starts from.  The solve is accepted iff its residual
    reaches `newton_tol` within NEWTON_MAX steps; otherwise it raises
    `NonConvergenceError`, or `KrylovStagnationError` when a step's GMRES
    stops short of its forcing term.  newton_tol must be finite and > 0.

    A solve of `solve_balanced` comes here too, and the balance runs its
    Newton instead (`_BalanceState.run`), with what the solve before it
    handed on."""
    _check_grid(V_d, params)
    check_tolerances(newton_tol)
    balance = _BALANCE.get()
    if balance is not None:
        return balance.run(params, V_d, Z_d, newton_tol=newton_tol)
    # indexed, so no name holds the preconditioner past this line
    res = _newton(params, V_d, Z_d, newton_tol=newton_tol)[0]
    _release_freed_memory()
    return res


def _release_freed_memory():
    """Give the heap memory that a case build or a finished solve freed
    back to the OS.

    glibc raises its mmap threshold to the size of each large block it
    frees (up to 32 MiB), so after a solve's first Krylov basis most of
    its arrays come from the heap, and freeing them keeps up to twice
    that threshold at the top of the heap and every hole below a live
    block.  Where those lie depends on the order of allocations, so the
    resident memory a caller goes on from varied by tens of MiB between
    identical runs: 100 to 155 MiB after the benchmark's verify set-up
    solves, against 94 MiB trimmed.  The benchmark's ring case build
    left 26 MiB of them under its first solve and 77 MiB under its
    second, in one process.  malloc_trim(0) releases the free
    pages of the whole heap; without glibc this does nothing."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _residual(params, V_d, Z_d):
    """(residual, norm, z, g): the bordered residual at (u array, c),
    packed as (S[u] - c Z_d, Re<u - V_d, Z_d>_W), its norm, and the border
    column and row (`_border`)."""
    spec = V_d.spec
    cell = spec.h1 * spec.h2
    z_col, grad_con, W = _border(V_d, Z_d)

    def residual(u_arr, c_val):
        S = apply_S(ComplexField(spec, u_arr.copy()), params)
        pde = S.data - c_val * Z_d.data
        con = float(np.sum(((u_arr - V_d.data) * np.conj(Z_d.data)).real * W) * cell)
        return np.concatenate([_packed(pde[:-1, :-1]), [con]])

    def norm(vec):
        return math.sqrt(cell * float(np.dot(vec[:-1], vec[:-1])) + vec[-1] ** 2)

    return residual, norm, z_col, grad_con


def _newton(params, V_d, Z_d, precond=None, start=None, R=None, *, newton_tol=NEWTON_TOL):
    """One Newton run on the grid of V_d; returns (SolveResult, the
    preconditioner it used: `precond`, or one built at V_d when that is
    None).  Newton starts from `start`, a (u array, c), or from the
    ansatz when that is None; `R` is the `_residual` of that start when
    the caller has it.  A run from `start` takes one step at least, even
    from a start already within newton_tol, where the step is taken whole
    while its residual stays within newton_tol, so its c is its own d's."""
    spec = V_d.spec
    residual_vec, resnorm, z_col, grad_con = _residual(params, V_d, Z_d)
    warm = start is not None
    lu_reused = precond is not None

    J = None
    lu_fill = lu_n1 = 0
    if not lu_reused:
        J = _Jacobian(V_d, params)
        precond, lu_fill, lu_n1 = _preconditioner(J, V_d, Z_d, params)
    u, c = start if warm else (np.array(V_d.data), 0.0)
    if warm or J is None:
        J = None  # the ansatz's coefficients go before the start's are computed
        J = _Jacobian(ComplexField(spec, u.copy()), params)

    applies = 0

    # apply_M and matvec read J, the Jacobian of the step in progress
    def apply_M(v):
        nonlocal applies
        applies += 1
        return precond(v, J)

    def matvec(x):
        top = J @ x[:-1] - x[-1] * z_col
        bot = float(np.dot(grad_con, x[:-1]))
        return np.concatenate([top, [bot]])

    if R is None:
        R = residual_vec(u, c)
    best = resnorm(R)
    residuals = [best]
    iters = 0
    krylov_iters = []
    # a warm start takes one step at least: until a step moves it, its c is
    # that of the solve it came from, at another d.  From a start within
    # newton_tol that step is taken whole if it stays within newton_tol,
    # since at the residual's rounding floor no step need lower it
    while iters < NEWTON_MAX and (best > newton_tol or (warm and iters == 0)):
        forced = best <= newton_tol
        if iters > 0:
            J = None  # release the old coefficients before computing the new
            J = _Jacobian(ComplexField(spec, u.copy()), params)
        applies = 0
        eta = _forcing_term(best, newton_tol)
        sol, info = gmres(matvec, -R, M=apply_M, rtol=eta)
        krylov_iters.append(applies)
        if info != 0:
            rel = float(np.linalg.norm(matvec(sol) + R)) / float(np.linalg.norm(R))
            raise KrylovStagnationError(
                f"GMRES stagnated at Newton step {iters + 1} (info={info}, "
                f"rel={rel:.2e}, asked for eta={eta:.2e})",
                last_residual=best, krylov_iters=krylov_iters, newton_residuals=residuals)
        step = np.zeros_like(u)  # u's step on the grid, zero on the Dirichlet layer
        _on_grid(sol[:-1], step[:-1, :-1])
        lam = 1.0
        accepted = False
        for _ in range(11):
            u_try = u + lam * step
            c_try = c + lam * sol[-1]
            R_try = residual_vec(u_try, c_try)
            n_try = resnorm(R_try)
            if n_try < best or (forced and n_try <= newton_tol):
                accepted = True
                break
            lam *= 0.5
        del step  # not held through the next step's GMRES
        iters += 1
        if accepted:
            u, c, R = u_try, c_try, R_try
            progress = n_try / best
            best = n_try
        residuals.append(best)
        if not accepted or progress > 0.95:
            break  # no descent, or stalled at the rounding floor of the residual

    if best > newton_tol:
        raise NonConvergenceError(
            f"Newton stopped at residual {best:.3e} after {iters} iterations",
            last_residual=best, krylov_iters=krylov_iters, newton_residuals=residuals)

    return SolveResult(
        u=ComplexField(spec, u), c_mult=float(c), newton_iters=iters,
        final_residual=float(best), d_used=params.d, V_d=V_d,
        krylov_iters=tuple(krylov_iters), newton_residuals=tuple(residuals),
        lu_reused=lu_reused, warm_start=warm, lu_fill=lu_fill, lu_n1=lu_n1,
    ), precond


def _domain_for(d, h):
    return math.ceil(2.0 * d / h - 1e-9) * h


def _grid_for(d, h, symmetry):
    """The grid of the case at separation d: L = ceil(2d/h) h per side;
    ValueError naming h outside (0, MAX_SPACING] or past MAX_FIELD_SAMPLES points."""
    if not (0.0 < h <= MAX_SPACING and 2.0 * d / h - 1e-9 <= math.isqrt(MAX_FIELD_SAMPLES)):
        raise ValueError(f"h = {h} must lie in (0, {MAX_SPACING}] and give a grid of at most "
                         f"{MAX_FIELD_SAMPLES} points at d = {d}")
    L = _domain_for(d, h)
    return GridSpec(L, L, h, h, symmetry)


def balance_x(d, ring):
    """The variable in which the leading-order reduced multiplier
    (`reduction.leading_c`) is affine: X = 1/d for a pair, (log d)/d for
    a ring.  It decreases in d, for a ring only on d > e."""
    return math.log(d) / d if ring else 1.0 / d


def solve_at_separation(params: ModelParams, d: float, profile: VortexProfile,
                        h=0.25, newton_tol=NEWTON_TOL) -> SolveResult:
    """Grid (`_grid_for`, L = 2d per side), ansatz and co-kernel at
    separation d, then the cold projected solve (`solve_projected`).
    newton_tol and the grid's size are checked before the case is built, and
    the heap the build freed is given back to the OS before the solve
    (`_release_freed_memory`)."""
    check_tolerances(newton_tol)
    p = params.with_d(d)
    V, Z = build_case(p, _grid_for(d, h, p.symmetry), profile)
    _release_freed_memory()
    return solve_projected(p, V, Z, newton_tol=newton_tol)


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


class _BalanceState:
    """What one solve of `solve_balanced` hands to the next: one grid, the
    preconditioner built on it (the direct factor or the V-cycle; a solve
    that reuses it assembles no matrix), and the last corrector u - V_d
    with its c.  It keeps at most one LU: a change of grid or a solve
    redone cold releases it before the next factorization."""

    def __init__(self):
        self.spec = None         # the grid held
        self.precond = None      # the M of `_preconditioner`: direct factor or V-cycle
        self.corrector = None    # ComplexField u - V_d of the last solve
        self.c = 0.0
        self.fallbacks = 0       # solves redone cold after failing on reused state

    def solve(self, params, d, profile, h, newton_tol=NEWTON_TOL):
        """The solve at separation d: `solve_at_separation`, whose
        `solve_projected` hands its Newton run to `run` while this state
        is the balance in progress.  A change of grid drops the held
        preconditioner before the case is built."""
        spec = _grid_for(d, h, params.symmetry)
        if spec != self.spec:
            self.precond = None  # released before the new grid's case
            self.spec = spec
        token = _BALANCE.set(self)
        try:
            return solve_at_separation(params, d, profile, h, newton_tol=newton_tol)
        finally:
            _BALANCE.reset(token)

    def run(self, params, V, Z, newton_tol=NEWTON_TOL):
        """Newton on the case (V, Z) of the held grid, with the held
        preconditioner and from the last corrector when that start has
        the smaller residual.  A run that fails on either is redone cold."""
        start, R = self._warm_start(params, V, Z)
        try:
            res, self.precond = _newton(params, V, Z, self.precond, start, R,
                                        newton_tol=newton_tol)
        except NonConvergenceError:
            if self.precond is None and start is None:
                raise  # the run was already the cold one
            res = None
        if res is None:  # outside the handler, so the failed attempt's frames are gone
            start = R = None
            self.fallbacks += 1
            self.precond = self.corrector = None
            res, self.precond = _newton(params, V, Z, newton_tol=newton_tol)
        self.corrector = ComplexField(V.spec, res.u.data - V.data)
        self.c = res.c_mult
        return res

    def _warm_start(self, params, V, Z):
        """(start, R): the start (u array, c) of V plus the last corrector
        over the block both grids share and the last c when its residual
        is below the ansatz's, else None; R the `_residual` of the start
        Newton takes.  (None, None) before the first solve.  A balance
        keeps the spacing and origin."""
        w_old = self.corrector
        if w_old is None:
            return None, None
        w = np.zeros_like(V.data)
        m1, m2 = min(w.shape[0], w_old.spec.n1), min(w.shape[1], w_old.spec.n2)
        w[:m1, :m2] = w_old.data[:m1, :m2]
        w[-1, :] = 0.0  # u = V_d on the Dirichlet layer
        w[:, -1] = 0.0
        w += V.data  # in place, so the start is the one array made
        residual, norm, _, _ = _residual(params, V, Z)
        R_w, R_0 = residual(w, self.c), residual(V.data, 0.0)
        if norm(R_w) < norm(R_0):
            return (w, self.c), R_w
        return None, R_0


# the balance in progress: `_BalanceState.solve` sets it around its call of
# `solve_at_separation`, so a balance's solves take the public path and
# `solve_projected` hands their Newton runs to the balance
_BALANCE = ContextVar("vortexflow_balance", default=None)


def solve_balanced(params: ModelParams, d_bracket, profile: VortexProfile, h=0.25,
                   newton_tol=NEWTON_TOL):
    """Safeguarded secant for c_mult(d) = 0; returns (SolveResult, d_star).

    The secant is taken in X(d) (`balance_x`), in which the leading-order
    c is affine, and falls back to bisection when a step leaves the
    bracket.  It stops when |c| <= BALANCE_C_RTOL max(|c(d_lo)|,
    |c(d_hi)|), the bracket is narrower than 1e-8 d_hi, or after
    BALANCE_MAX_ITERS steps past the bracket's two solves.  Each solve is
    a `solve_at_separation`, and the solves share one `_BalanceState`, the
    one place a solve hands anything to the next: a solve on the grid of
    the one before it reuses its preconditioner, each starts from the last
    corrector when that lowers the residual, and a solve that fails on
    that reuse is redone cold.  The result carries `balance_history`, one record (d, c, n1,
    lu_reused, warm_start) per solve, and `fallbacks`, the solves redone
    cold.  Each solve is accepted only at its `newton_tol`, by default
    NEWTON_TOL (see `solve_projected`).  A bracket that does not satisfy
    0 < d_lo < d_hi < inf, or whose ends give a d_hat or a grid out of
    range (both grow with d), raises ValueError before a solve."""
    check_tolerances(newton_tol)
    d_lo, d_hi = d_bracket
    if not 0.0 < d_lo < d_hi < math.inf:
        raise ValueError(f"need a bracket 0 < d_lo < d_hi < inf, got ({d_lo}, {d_hi})")
    for d in (d_lo, d_hi):
        params.with_d(d)
    _grid_for(d_hi, h, params.symmetry)
    ring = params.is_ring
    state = _BalanceState()
    history = []

    def solve(d):
        r = state.solve(params, d, profile, h, newton_tol=newton_tol)
        history.append((d, r.c_mult, r.u.spec.n1, r.lu_reused, r.warm_start))
        return r

    def done(res, d):
        return replace(res, balance_history=tuple(history), fallbacks=state.fallbacks), d

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
    for _ in range(BALANCE_MAX_ITERS):
        if abs(best[0].c_mult) <= BALANCE_C_RTOL * scale or (d_hi - d_lo) <= 1e-8 * d_hi:
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

