"""Approximate solutions: vortex-pair product, ring phase corrections,
improved ring ansatz, and the cutoff-localized co-kernel field.

The pair ansatz is V_d(z) = w+(z - e1) w-(z - e2) with cores at
e1 = (d, 0), e2 = (-d, 0) and w± = rho(ell) e^{±i theta}.  The ring
ansatz multiplies in a phase correction e^{i phi_d}, phi_d = phi_s +
phi_r, that cancels the 1/x1-induced singular forcing near the core;
phi_s is an explicit cutoff-localized expression and phi_r solves a
linear axisymmetric Poisson problem on the quarter grid.  That problem's
matrix depends on the grid only, so one SuperLU factor of it (minimum-
degree ordering on A + A^T) serves every ring ansatz built on that grid.
"""

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .fields import (ComplexField, GridSpec, ScalarField, Symmetry,
                     axisym_term, diff_ops, discrete_norms, symmetrize_complex)
from .profile import VortexProfile, eval_profile


class Regime(enum.Enum):
    PAIR_WM = "pair_wm"
    PAIR_SCH = "pair_sch"
    RING_WM = "ring_wm"
    RING_SCH = "ring_sch"


_TAGS = {Regime.PAIR_WM: "S1", Regime.PAIR_SCH: "S2",
         Regime.RING_WM: "S3", Regime.RING_SCH: "S4"}

DEFAULT_CUTOFF_RADIUS = 6.0
CORE_MODULUS_FLOOR = 0.1
RHO_WEIGHT = 0.5  # decay exponent 0 < rho < 1 used in all weighted norms

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
        if self.regime in (Regime.PAIR_WM, Regime.RING_WM) and self.kappa != 0.0:
            raise ValueError("wave-map regimes have omega = 0, so kappa = 0")
        drive = self.drive
        c = drive / math.sqrt(4.0 + drive * drive)
        omega = self.kappa * drive * math.sqrt(1.0 - c * c)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "d", self.d_hat / self.eps)

    @property
    def is_ring(self):
        return self.regime in (Regime.RING_WM, Regime.RING_SCH)

    @property
    def drive(self):
        """Coefficient of the Q2 term: eps for pairs, eps|log eps| for rings."""
        return self.eps if not self.is_ring else self.eps * abs(math.log(self.eps))

    @property
    def tag(self):
        return _TAGS[self.regime]

    @property
    def symmetry(self):
        return Symmetry.RING if self.is_ring else Symmetry.PAIR

    def with_d(self, d):
        return replace(self, d_hat=d * self.eps)

    def centers(self):
        return [(self.d, 0.0), (-self.d, 0.0)]


def vortex_geometry(center, point):
    """Distance, angle and their gradients relative to a vortex center.

    theta is continuous off the cut along the negative x1-ray from the
    center; grad_theta = (z - xi)^perp / |z - xi|^2.
    """
    cx, cy = center
    px = np.asarray(point[0], dtype=float)
    py = np.asarray(point[1], dtype=float)
    dx, dy = px - cx, py - cy
    ell = np.hypot(dx, dy)
    if np.any(ell == 0.0):
        raise ValueError("point coincides with the vortex center")
    theta = np.arctan2(dy, dx)
    grad_ell = (dx / ell, dy / ell)
    grad_theta = (-dy / ell**2, dx / ell**2)
    return ell, theta, grad_ell, grad_theta


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
    rho1, _ = eval_profile(profile, ell1)
    rho2, _ = eval_profile(profile, ell2)
    data = rho1 * rho2 * np.exp(1j * (th1 - th2))
    return ComplexField(spec, symmetrize_complex(data))


def smoothstep_cutoff(s):
    """C^1 plateau cutoff: 1 on [0, 1], 0 on [2, inf), cubic in between."""
    s = np.asarray(s, dtype=float)
    t = np.clip(s - 1.0, 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def _chi(ell1, d):
    """Radial cutoff around e1: 1 inside CHI_INNER_FRAC * d, 0 outside
    CHI_OUTER_FRAC * d."""
    r_in, r_out = CHI_INNER_FRAC * d, CHI_OUTER_FRAC * d
    t = np.clip((ell1 - r_in) / (r_out - r_in), 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t), r_in, r_out


def _phi_s_samples(spec: GridSpec, d):
    _, X2, ell1, _, ell2, _ = _core_frames(spec, d)
    chi, _, _ = _chi(ell1, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_s = np.where(ell1 > 0, chi * X2 / (4.0 * d) * np.log(ell1**2 / ell2**2), 0.0)
    return phi_s


def ring_forcing(params: ModelParams, spec: GridSpec):
    """Source -[lap + (1/x1) d1](theta_1 - theta_2 + phi_s) for phi_r.

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

    phi_s = ScalarField(spec, _phi_s_samples(spec, d), x2_parity="odd")
    _, _, lap_s = diff_ops(phi_s)
    h1_s = axisym_term(phi_s.data, spec)
    g = -(h1_angles + lap_s.data + h1_s)
    g[-1, :] = 0.0
    g[:, -1] = 0.0
    return np.where(np.isfinite(g), g, 0.0)


def ring_phase_residual(params: ModelParams, spec: GridSpec):
    """Closed-form [lap + H1](theta_1 - theta_2 + phi_s), valid where
    chi == 1 (within CHI_INNER_FRAC * d of e1); the O(eps^2) smallness
    check of the phase construction lives here."""
    d = params.d
    X1, X2, ell1, _, ell2, _ = _core_frames(spec, d)
    l1sq = np.where(ell1 > 0, ell1**2, np.inf)
    l2sq = ell2**2
    with np.errstate(divide="ignore", invalid="ignore"):
        first = 4.0 * X2 * (X1 - d) / (l1sq * l2sq)
        second = np.where(X1 > 0, X2 * (X1**2 - X2**2 - d**2) / (X1 * l1sq * l2sq), 0.0)
    return first + second


def _phase_mask(spec: GridSpec):
    """Unknowns of the phase problem: the quarter grid without the x2 = 0
    row (odd parity pins it to zero) and the outer Dirichlet layer."""
    mask = np.zeros((spec.n1, spec.n2), dtype=bool)
    mask[: spec.n1 - 1, 1: spec.n2 - 1] = True
    return mask


def _assemble_axisym_laplacian(spec: GridSpec):
    """Sparse [lap + (1/x1) d1] for an odd-in-x2 scalar on the quarter grid.

    Unknowns are those of `_phase_mask`.  The x1 = 0 column uses the
    even-parity axis limit lap_x1 + H1 -> 2 d11 + 2 d11."""
    n1, n2, h1, h2 = spec.n1, spec.n2, spec.h1, spec.h2
    idx = -np.ones((n1, n2), dtype=int)
    mask = _phase_mask(spec)
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
    # axis column: lap_x1 + H1 -> 4 d11 (even parity, 1/x1 limit)
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


def factor_axisym_laplacian(spec: GridSpec):
    """SuperLU factor of the phase Laplacian on `spec`.

    MMD_AT_PLUS_A (minimum degree on A + A^T) suits this nearly
    symmetric 5-point stencil: it leaves about half the fill of SuperLU's
    default COLAMD ordering."""
    return splu(_assemble_axisym_laplacian(spec), permc_spec="MMD_AT_PLUS_A")


def build_ring_phase(params: ModelParams, spec: GridSpec, laplacian_lu=None):
    """Singular phase correction phi_s and regular part phi_r.

    phi_s = chi(ell1) * x2 log(ell1^2/ell2^2)/(4 d); phi_r solves
    [lap + H1] phi_r = -[lap + H1](theta_1 - theta_2 + phi_s) with odd
    x2-parity and homogeneous Dirichlet on the outer boundary.
    `laplacian_lu` is `factor_axisym_laplacian(spec)`; it is computed
    here when not given."""
    if not params.is_ring:
        raise ValueError("ring phases only exist in RING regimes")
    d = params.d
    phi_s_field = ScalarField(spec, _phi_s_samples(spec, d), x2_parity="odd")

    g = ring_forcing(params, spec)
    mask = _phase_mask(spec)
    if laplacian_lu is None:
        laplacian_lu = factor_axisym_laplacian(spec)
    elif laplacian_lu.shape != (mask.sum(),) * 2:
        raise ValueError("laplacian_lu was factored on another grid")
    sol = laplacian_lu.solve(g[mask])
    if not np.all(np.isfinite(sol)):
        raise RuntimeError("ring phase linear solve did not converge")
    phi_r = np.zeros((spec.n1, spec.n2))
    phi_r[mask] = sol
    return phi_s_field, ScalarField(spec, phi_r, x2_parity="odd")


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


def build_ansatz(params: ModelParams, spec: GridSpec, profile: VortexProfile,
                 laplacian_lu=None) -> ComplexField:
    """Pair or improved-ring ansatz, per regime.  A ring passes
    `laplacian_lu` on to `build_ring_phase`; a pair ignores it."""
    if params.is_ring:
        return build_ring(params, spec, profile,
                          build_ring_phase(params, spec, laplacian_lu))
    return build_pair(params, spec, profile)


def kernel_Zd(params: ModelParams, spec: GridSpec, profile: VortexProfile,
              cutoff_radius=None, laplacian_lu=None) -> ComplexField:
    """Co-kernel Z_d = dV_d/dd * [eta(ell1/R) + eta(ell2/R)].

    The d-derivative is a central difference with step 1e-3 d,
    rebuilding the full ansatz (ring phases included) at d +- delta;
    both rebuilds share `laplacian_lu` (see `build_ring_phase`).
    R defaults to 6 core widths, capped at 0.4 d so the cutoff stays
    inside the inter-vortex distance at small separations."""
    d = params.d
    if cutoff_radius is None:
        cutoff_radius = min(DEFAULT_CUTOFF_RADIUS, 0.4 * d)
    delta = 1e-3 * d
    plus = build_ansatz(params.with_d(d + delta), spec, profile, laplacian_lu)
    minus = build_ansatz(params.with_d(d - delta), spec, profile, laplacian_lu)
    dV = (plus.data - minus.data) / (2.0 * delta)
    _, _, ell1, _, ell2, _ = _core_frames(spec, d)
    cut = smoothstep_cutoff(ell1 / cutoff_radius) + smoothstep_cutoff(ell2 / cutoff_radius)
    return ComplexField(spec, symmetrize_complex(dV * cut))


def error_field(V: ComplexField, tag: str, params: ModelParams):
    """Ansatz error: Etilde = -S_tag[V]/(iV) away from the cores, the raw
    S_tag[V] where |V| < 0.1, plus its double-star weighted norm."""
    from .solver import apply_S  # local import; solver depends on this module

    S = apply_S(V, tag, params)
    absV = np.abs(V.data)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = -S.data / (1j * V.data)
    data = np.where(absV >= CORE_MODULUS_FLOOR, normalized, S.data)
    data = np.where(np.isfinite(data), data, 0.0)
    tilde = ComplexField(V.spec, np.ascontiguousarray(data))
    return tilde, error_norm_star2(tilde, S, params)


def error_norm_star2(tilde: ComplexField, S: ComplexField, params: ModelParams):
    """Discrete surrogate of the double-star norm: near-core sup (pair)
    or L^14 (ring) of the raw error, plus weighted sups of the real and
    imaginary parts outside."""
    spec = tilde.spec
    centers = params.centers()
    rho = RHO_WEIGHT
    if params.is_ring:
        inner = discrete_norms(S, 14, region=(centers, None, 3.0))
    else:
        inner = 2.0 * discrete_norms(S, np.inf, region=(centers, None, 3.0))
    re = ScalarField(spec, np.ascontiguousarray(tilde.data.real), "odd")
    im = ScalarField(spec, np.ascontiguousarray(tilde.data.imag), "even")
    outer_re = discrete_norms(re, np.inf, weight=(centers, 2.0 + rho),
                              region=(centers, 2.0, None))
    outer_im = discrete_norms(im, np.inf, weight=(centers, 1.0 + rho),
                              region=(centers, 2.0, None))
    return inner + outer_re + outer_im


def error_inner_lp(V: ComplexField, tag: str, params: ModelParams, p=14):
    """L^p norm of the raw error over the near-core region (|z - e_j| < 3)."""
    from .solver import apply_S

    S = apply_S(V, tag, params)
    return discrete_norms(S, p, region=(params.centers(), None, 3.0))
