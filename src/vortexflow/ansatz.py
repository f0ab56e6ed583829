"""Approximate solutions: vortex-pair product, ring phase corrections,
improved ring ansatz, and the cutoff-localized co-kernel field.

The pair ansatz is V_d(z) = w+(z - e1) w-(z - e2) with cores at
e1 = (d, 0), e2 = (-d, 0) and w± = rho(ell) e^{±i theta}.  The ring
ansatz multiplies in a phase correction e^{i phi_d}, phi_d = phi_s +
phi_r, that cancels the 1/x1-induced singular forcing near the core;
phi_s is an explicit cutoff-localized expression and phi_r solves a
linear axisymmetric Poisson problem on the quarter grid.  That problem
is separable: a sine transform in x2 leaves one tridiagonal in x1 per
mode, and SuperLU (minimum-degree ordering on A + A^T) factors their
block-diagonal sum with fill linear in the unknowns.

The phase operator depends on the grid alone, not on d, so one factor
serves a case: `_solve_phase` factors it and solves a stack of forcings
with it, and the factor never leaves that call.  `build_case`, the one
construction of (V_d, Z_d), stacks the three phase problems of a ring
case: V_d's and the V_{d +- delta} of the co-kernel difference.

The error of the ansatz, S[V_d] and its double-star norm, is measured
in `diagnostics` (`error_field`), next to the corrector's norms.
"""

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.fft import dst
from scipy.sparse import diags, kronsum
from scipy.sparse.linalg import splu

from .fields import (ComplexField, GridSpec, ScalarField, Symmetry,
                     axisym_term, diff_ops, symmetrize_complex)
from .profile import VortexProfile, eval_rho


class Regime(enum.Enum):
    PAIR_WM = "pair_wm"
    PAIR_SCH = "pair_sch"
    RING_WM = "ring_wm"
    RING_SCH = "ring_sch"


_TAGS = {Regime.PAIR_WM: "S1", Regime.PAIR_SCH: "S2",
         Regime.RING_WM: "S3", Regime.RING_SCH: "S4"}

CUTOFF_RADIUS = 6.0

# phi_s cutoff band as fractions of d.  The band must stay several grid
# cells wide at the balanced ring separation (d ~ 5-20), and its support
# must end before the symmetry axis and the mirror core; narrower
# asymptotic choices like (d/10, d/5) fall below grid resolution there
# and spike the ansatz error at the band edge.
CHI_INNER_FRAC = 0.25
CHI_OUTER_FRAC = 0.75


@dataclass(frozen=True)
class ModelParams:
    """Regime plus the coupled parameters (eps, kappa, d_hat).

    The traveling speed c and frequency omega are derived from the
    regime relations: pairs use eps = 2c/sqrt(1-c^2) and
    kappa*eps = omega/sqrt(1-c^2); rings replace eps by eps*|log eps|.
    """
    regime: Regime
    eps: float
    kappa: float = 0.0
    d_hat: float = 1.0
    c: float = field(init=False)
    omega: float = field(init=False)
    d: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.eps <= 0.2):
            raise ValueError("eps must lie in (0, 0.2]")
        if not (0.01 <= self.d_hat <= 100.0):
            raise ValueError("d_hat must lie in [1/100, 100]")
        if not (0.0 <= self.kappa < 0.5):
            raise ValueError("need 0 <= kappa and 1 - 2*kappa > 0")
        if not self.is_schrodinger and self.kappa != 0.0:
            raise ValueError("wave-map regimes have omega = 0, so kappa = 0")
        d = self.d_hat / self.eps
        if not math.isfinite(d):
            raise ValueError(f"d = d_hat / eps overflows at eps = {self.eps}")
        drive = self.drive
        c = drive / math.sqrt(4.0 + drive * drive)
        omega = self.kappa * drive * math.sqrt(1.0 - c * c)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "d", d)

    @property
    def is_ring(self):
        return self.regime in (Regime.RING_WM, Regime.RING_SCH)

    @property
    def is_schrodinger(self):
        """Schrodinger flow, whose operators S2 and S4 carry the T2 term."""
        return self.regime in (Regime.PAIR_SCH, Regime.RING_SCH)

    @property
    def drive(self):
        """Coefficient of the Q2 term: eps for pairs, eps|log eps| for rings."""
        return self.eps if not self.is_ring else self.eps * abs(math.log(self.eps))

    @property
    def tag(self):
        """The name of the regime's operator, S1..S4 (the `tag` line of a
        report); the operators read their terms from the regime itself."""
        return _TAGS[self.regime]

    @property
    def symmetry(self):
        return Symmetry.RING if self.is_ring else Symmetry.PAIR

    def with_d(self, d):
        return replace(self, d_hat=d * self.eps)

    def centers(self):
        return [(self.d, 0.0), (-self.d, 0.0)]


def _core_frames(spec, d):
    X1, X2 = spec.mesh()
    ell1 = np.hypot(X1 - d, X2)
    th1 = np.arctan2(X2, X1 - d)
    ell2 = np.hypot(X1 + d, X2)
    th2 = np.arctan2(X2, X1 + d)
    return X1, X2, ell1, th1, ell2, th2


def build_pair(params: ModelParams, spec: GridSpec, profile: VortexProfile) -> ComplexField:
    """Product ansatz w+(z - e1) w-(z - e2) on the quarter grid."""
    d = params.d
    # 2% slack admits the d +- delta rebuilds of the co-kernel derivative
    if d > spec.l1 / 2 * 1.02 + 1e-12:
        raise ValueError(f"vortex at d = {d} outside the domain (l1 = {spec.l1})")
    _, _, ell1, th1, ell2, th2 = _core_frames(spec, d)
    data = eval_rho(profile, ell1) * eval_rho(profile, ell2) * np.exp(1j * (th1 - th2))
    return ComplexField(spec, symmetrize_complex(data))


def _smooth_fall(t):
    """1 - t^2 (3 - 2t), the C^1 cubic from 1 at t = 0 to 0 at t = 1 of
    both cutoffs; t is clipped to [0, 1] by the caller."""
    return 1.0 - t * t * (3.0 - 2.0 * t)


def smoothstep_cutoff(s):
    """C^1 plateau cutoff: 1 on [0, 1], 0 on [2, inf), cubic in between."""
    s = np.asarray(s, dtype=float)
    return _smooth_fall(np.clip(s - 1.0, 0.0, 1.0))


def _chi(ell1, d):
    """Radial cutoff around e1: 1 inside CHI_INNER_FRAC * d, 0 outside
    CHI_OUTER_FRAC * d."""
    r_in, r_out = CHI_INNER_FRAC * d, CHI_OUTER_FRAC * d
    return _smooth_fall(np.clip((ell1 - r_in) / (r_out - r_in), 0.0, 1.0))


def _phi_s_samples(spec: GridSpec, d):
    _, X2, ell1, _, ell2, _ = _core_frames(spec, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ell1 > 0, _chi(ell1, d) * X2 / (4.0 * d) * np.log(ell1**2 / ell2**2), 0.0)


def ring_forcing(params: ModelParams, spec: GridSpec, phi_s: ScalarField):
    """Source -[lap + (1/x1) d1](theta_1 - theta_2 + phi_s) for phi_r,
    given the phi_s samples of `build_ring_phase`.

    The angle part is closed-form (the angle difference is harmonic and
    its axisymmetric part combines to -4 d x2/(ell1^2 ell2^2), with no
    finite differences of multivalued angles); the phi_s part is applied
    with the same discrete stencils used everywhere else, so the grid
    identity [lap_h + H1_h](phi_s + phi_r) = -(angle part) holds exactly
    and no cutoff-kink mismatch survives into the far-field error."""
    d = params.d
    _, X2, ell1, _, ell2, _ = _core_frames(spec, d)
    l1sq = np.where(ell1 > 0, ell1**2, np.inf)
    h1_angles = -4.0 * d * X2 / (l1sq * ell2**2)

    _, _, lap_s = diff_ops(phi_s)
    h1_s = axisym_term(phi_s.data, spec)
    g = -(h1_angles + lap_s.data + h1_s)
    g[-1, :] = 0.0
    g[:, -1] = 0.0
    return np.where(np.isfinite(g), g, 0.0)


def _solve_phase(spec: GridSpec, g):
    """The stack of phi with [lap + H1] phi = g[k] on `spec`, odd in x2 and
    zero on the outer Dirichlet layer, all solved with one factor of the
    operator; the unknowns are rows i = 0..n1-2, columns j = 1..n2-2 (odd
    parity pins j = 0).

    The x2 part is the constant 3-point Dirichlet stencil, which the
    DST-I diagonalizes with eigenvalues -(4/h2^2) sin^2(pi k / (2(n2-1))),
    k = 1..n2-2.  Each mode then leaves an x1 tridiagonal, with the
    even-parity axis row lap_x1 + H1 -> 4 d11; the modes form one
    Kronecker sum, each mode's block contiguous, factored by SuperLU
    (Hockney, J. ACM 12, 1965; Buzbee, Golub & Nielson, SIAM J. Numer.
    Anal. 7, 1970)."""
    n1, n2, h1, h2 = spec.n1, spec.n2, spec.h1, spec.h2
    p, m = n1 - 1, n2 - 2
    ch = 1.0 / (2.0 * h1 * (h1 * np.arange(1, p)))  # 1/(2 h1 x1) off the axis
    diag = np.full(p, -2.0 / h1**2)
    diag[0] = -4.0 / h1**2
    upper = np.concatenate(([4.0 / h1**2], 1.0 / h1**2 + ch[:-1]))
    x1_op = diags([1.0 / h1**2 - ch, diag, upper], [-1, 0, 1])
    lam = -(4.0 / h2**2) * np.sin(np.pi * np.arange(1, m + 1) / (2.0 * (n2 - 1)))**2
    lu = splu(kronsum(x1_op, diags(lam), format="csc"), permc_spec="MMD_AT_PLUS_A")
    phi = np.zeros((len(g), n1, n2))
    for k, g_k in enumerate(g):
        g_hat = dst(g_k[:p, 1:n2 - 1], type=1, axis=1, norm="ortho")
        sol = lu.solve(g_hat.T.ravel()).reshape(m, p).T
        phi[k, :p, 1:n2 - 1] = dst(sol, type=1, axis=1, norm="ortho")
    return phi


def _ring_phases(cases, spec):
    """(phi_s, phi_r) of each ring params in `cases` on `spec`."""
    phi_s = [ScalarField(spec, _phi_s_samples(spec, p.d), x2_parity="odd") for p in cases]
    phi_r = _solve_phase(spec, [ring_forcing(p, spec, s) for p, s in zip(cases, phi_s)])
    return [(s, ScalarField(spec, r, x2_parity="odd")) for s, r in zip(phi_s, phi_r)]


def build_ring_phase(params: ModelParams, spec: GridSpec):
    """Singular phase correction phi_s and regular part phi_r.

    phi_s = chi(ell1) * x2 log(ell1^2/ell2^2)/(4 d); phi_r solves
    [lap + H1] phi_r = -[lap + H1](theta_1 - theta_2 + phi_s) with odd
    x2-parity and homogeneous Dirichlet on the outer boundary."""
    if not params.is_ring:
        raise ValueError("ring phases only exist in RING regimes")
    return _ring_phases([params], spec)[0]


def build_ring(params: ModelParams, spec: GridSpec, profile: VortexProfile,
               phases) -> ComplexField:
    """Improved ring ansatz V_d = w+ w- e^{i phi_d}, phi_d = phi_s + phi_r."""
    if not params.is_ring:
        raise ValueError("build_ring requires a RING regime")
    pair = build_pair(params, spec, profile)
    phi_s, phi_r = phases
    phi_d = phi_s.data + phi_r.data
    data = pair.data * np.exp(1j * phi_d)
    return ComplexField(spec, symmetrize_complex(data))


def _ansatzes(cases, spec, profile):
    """Pair or ring ansatz of each params in `cases`, all of one regime."""
    if not cases[0].is_ring:
        return [build_pair(p, spec, profile) for p in cases]
    return [build_ring(p, spec, profile, ph) for p, ph in zip(cases, _ring_phases(cases, spec))]


def build_ansatz(params: ModelParams, spec: GridSpec, profile: VortexProfile) -> ComplexField:
    """Pair or improved-ring ansatz, per regime."""
    return _ansatzes([params], spec, profile)[0]


def kernel_Zd(params: ModelParams, spec: GridSpec, profile: VortexProfile) -> ComplexField:
    """Co-kernel Z_d = dV_d/dd * [eta(ell1/R) + eta(ell2/R)], that of
    `build_case`.

    The d-derivative is a central difference with step 1e-3 d,
    rebuilding the full ansatz (ring phases included) at d +- delta.
    R is 6 core widths, capped at 0.4 d so the cutoff stays inside the
    inter-vortex distance at small separations."""
    return build_case(params, spec, profile)[1]


def build_case(params: ModelParams, spec: GridSpec, profile: VortexProfile):
    """Ansatz V_d and co-kernel Z_d (`kernel_Zd`) of `params` on `spec`,
    from the three ansatz builds at d and d +- delta; a ring case solves
    their three phase problems with one factor."""
    d = params.d
    delta = 1e-3 * d
    V, plus, minus = _ansatzes([params, params.with_d(d + delta), params.with_d(d - delta)],
                               spec, profile)
    dV = (plus.data - minus.data) / (2.0 * delta)
    cutoff_radius = min(CUTOFF_RADIUS, 0.4 * d)
    _, _, ell1, _, ell2, _ = _core_frames(spec, d)
    cut = smoothstep_cutoff(ell1 / cutoff_radius) + smoothstep_cutoff(ell2 / cutoff_radius)
    return V, ComplexField(spec, symmetrize_complex(dV * cut))
