"""Approximate solutions: vortex-pair product, ring phase corrections,
improved ring ansatz, and the cutoff-localized co-kernel field.

The pair ansatz is V_d(z) = w+(z - e1) w-(z - e2) with cores at
e1 = (d, 0), e2 = (-d, 0) and w± = rho(ell) e^{±i theta}.  The ring
ansatz multiplies in a phase correction e^{i phi_d} that cancels the
1/x1-induced singular forcing near the core: phi_d solves the linear
axisymmetric Poisson problem [lap + H1] phi_d = -[lap + H1](theta_1 -
theta_2) on the quarter grid, whose right side is closed-form.  The
paper splits phi_d into an explicit cutoff-localized singular part
phi_s and a regular remainder phi_r.  On the grid that split cancels
exactly: with phi_r solving A phi_r = -a - A phi_s, A = lap_h + H1_h
the one discrete operator, a the closed-form angle term and phi_s zero
on the Dirichlet layer, phi_s + phi_r = -A^{-1} a, so one solve gives
phi_d.  That problem is separable: a sine transform in x2 leaves one
tridiagonal in x1 per mode, and SuperLU (minimum-degree ordering on
A + A^T) factors their block-diagonal sum with fill linear in the
unknowns.

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

from .fields import ComplexField, GridSpec, Symmetry, symmetrize_complex
from .profile import VortexProfile, eval_rho


class Regime(enum.Enum):
    PAIR_WM = "pair_wm"
    PAIR_SCH = "pair_sch"
    RING_WM = "ring_wm"
    RING_SCH = "ring_sch"


_TAGS = {Regime.PAIR_WM: "S1", Regime.PAIR_SCH: "S2",
         Regime.RING_WM: "S3", Regime.RING_SCH: "S4"}

CUTOFF_RADIUS = 6.0


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


def smoothstep_cutoff(s):
    """C^1 plateau cutoff: 1 on [0, 1], 0 on [2, inf), cubic in between."""
    t = np.clip(np.asarray(s, dtype=float) - 1.0, 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def _angle_forcing(spec: GridSpec, d):
    """-[lap + (1/x1) d1](theta_1 - theta_2) = 4 d x2/(ell1^2 ell2^2) in
    closed form (the angle difference is harmonic, so only its
    axisymmetric term is left, and no finite difference of a multivalued
    angle is taken); 0 at the core e1.  `_solve_phase` reads it on the
    unknowns alone."""
    _, X2, ell1, _, ell2, _ = _core_frames(spec, d)
    return 4.0 * d * X2 / (np.where(ell1 > 0, ell1**2, np.inf) * ell2**2)


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


def build_ring_phase(params: ModelParams, spec: GridSpec):
    """Ring phase correction phi_d: [lap + H1] phi_d = -[lap + H1](theta_1 -
    theta_2) with odd x2-parity and homogeneous Dirichlet on the outer
    boundary."""
    if not params.is_ring:
        raise ValueError("ring phases only exist in RING regimes")
    return _solve_phase(spec, [_angle_forcing(spec, params.d)])[0]


def build_ring(params: ModelParams, spec: GridSpec, profile: VortexProfile,
               phi_d) -> ComplexField:
    """Improved ring ansatz V_d = w+ w- e^{i phi_d}, phi_d the samples of
    `build_ring_phase`."""
    if not params.is_ring:
        raise ValueError("build_ring requires a RING regime")
    pair = build_pair(params, spec, profile)
    return ComplexField(spec, symmetrize_complex(pair.data * np.exp(1j * phi_d)))


def _ansatzes(cases, spec, profile):
    """Pair or ring ansatz of each params in `cases`, all of one regime."""
    if not cases[0].is_ring:
        return [build_pair(p, spec, profile) for p in cases]
    phases = _solve_phase(spec, [_angle_forcing(spec, p.d) for p in cases])
    return [build_ring(p, spec, profile, phi) for p, phi in zip(cases, phases)]


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
