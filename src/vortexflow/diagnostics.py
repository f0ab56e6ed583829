"""Topological and energetic verification.

Winding is counted per plaquette only: the branch-resolved phase sum
around each lattice cell of the reflected full plane, and vortices are
the clusters of cells with nonzero winding.  Energy and topological
charge use the sphere-valued field:

    E = int |d1 m|^2 + |d2 m|^2,    Q = (1/4 pi) int m . (d1 m x d2 m),

related by the Bogomolny bound E >= 8 pi |Q|.

This module is the one home of the double-star norms, the weighted-decay
bookkeeping of the construction.  The ansatz error (`error_field`) and
the corrector u - V (`corrector_norms`) are both measured as a near-core
term within 3 of a core (L^14 for a ring, twice the sup for a pair)
plus weighted sups beyond 2 with anisotropic weights on the real and
imaginary parts; both leave out the outer Dirichlet layer.  The
corrector's phase is psi = -i (u/V - 1) away from the cores and
phi = u - V inside.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .ansatz import ModelParams
from .fields import ComplexField, diff_ops, full_plane_data, reflect
from .solver import apply_S
from .stereo import unproject_array

EIGHT_PI = 8.0 * math.pi
CORE_MODULUS_FLOOR = 0.1
RHO_WEIGHT = 0.5  # decay exponent 0 < rho < 1 used in all weighted norms


@dataclass(frozen=True)
class DiagnosticsReport:
    energy: float
    charge: float
    vortices: list
    bogomolny_margin: float
    weighted_norms: dict = field(default_factory=dict)

    def __post_init__(self):
        if abs(self.charge - round(self.charge)) > 0.05:
            raise ValueError(f"charge {self.charge} is not near-integer")
        if self.bogomolny_margin < -0.05 * self.energy:
            raise ValueError("Bogomolny bound violated beyond tolerance")


def plaquette_windings(values):
    """Integer winding of every lattice plaquette (zeros nudged so the
    sum over a cluster around an on-lattice zero stays exact)."""
    v = np.where(values == 0.0, 1e-300, values)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (np.angle(v[1:, :-1] / v[:-1, :-1])
             + np.angle(v[1:, 1:] / v[1:, :-1])
             + np.angle(v[:-1, 1:] / v[1:, 1:])
             + np.angle(v[:-1, :-1] / v[:-1, 1:]))
    return np.rint(w / (2.0 * math.pi)).astype(int)


def _hit_clusters(hits):
    """Clusters of the lattice points `hits` (an (n, 2) integer array),
    joined when within Chebyshev distance 2: index arrays into `hits`,
    each increasing, in the order of their first members."""
    pairs = cKDTree(hits).query_pairs(2, p=np.inf, output_type="ndarray")
    n = len(hits)
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    # labels number the components in the order of their first members
    _, labels = connected_components(graph, directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def detect_vortices(f: ComplexField, full_plane=False):
    """Plaquette-winding sweep over the reflected plane; adjacent hits
    (Chebyshev distance <= 2) merge into one vortex at their centroid.

    By default only representatives with center x1 > 0 or on the x1 = 0
    axis are reported (the mirror partners are implied by symmetry);
    full_plane=True returns every cluster, whose charges sum to the
    boundary winding of the extension."""
    x1, x2, ext = full_plane_data(f)
    w = plaquette_windings(ext)
    hits = np.argwhere(w != 0)
    if hits.size == 0:
        return []
    out = []
    for members in _hit_clusters(hits):
        i, j = hits[members, 0], hits[members, 1]
        charge = int(w[i, j].sum())
        if charge == 0:
            continue
        cx = float(np.mean(x1[i] + 0.5 * f.spec.h1))
        cy = float(np.mean(x2[j] + 0.5 * f.spec.h2))
        out.append(((cx, cy), charge))
    if not full_plane:
        out = [v for v in out if v[0][0] > -0.5 * f.spec.h1]
    return sorted(out, key=lambda v: (v[0][0], v[0][1]))


def energy_charge(m, h1, h2):
    """Dirichlet energy and topological charge of sphere-valued samples
    m (n1, n2, 3) on a uniform grid: trapezoidal integrals of central
    differences over the interior."""
    m = np.asarray(m, dtype=float)
    norms = np.linalg.norm(m, axis=-1)
    if np.max(np.abs(norms - 1.0)) > 1e-6:
        raise ValueError("samples leave the unit sphere beyond 1e-6")
    d1 = (m[2:, 1:-1, :] - m[:-2, 1:-1, :]) / (2.0 * h1)
    d2 = (m[1:-1, 2:, :] - m[1:-1, :-2, :]) / (2.0 * h2)
    cell = h1 * h2
    e_density = (d1**2).sum(-1) + (d2**2).sum(-1)
    E = float(e_density.sum() * cell)
    cross = np.cross(d1, d2)
    q_density = (m[1:-1, 1:-1, :] * cross).sum(-1)
    Q = float(q_density.sum() * cell / (4.0 * math.pi))
    return E, Q


def _norm_regions(spec, centers):
    """The regions and weights of the double-star norms around `centers`:
    the near-core mask (within 3 of a core), the outer mask (beyond 2),
    both without the outer Dirichlet layer, and `weight(power)` =
    1 / sum_j ell_j^(-power), which behaves like min_j ell_j^power but
    stays finite where several cores contribute."""
    X1, X2 = spec.mesh()
    dists = [np.hypot(X1 - c1, X2 - c2) for c1, c2 in centers]
    dmin = np.minimum.reduce(dists)
    near, outer = dmin < 3.0, dmin > 2.0
    for mask in (near, outer):
        mask[-1, :] = False
        mask[:, -1] = False

    def weight(power):
        with np.errstate(divide="ignore"):
            inv = sum(np.where(d > 0, d, np.inf) ** (-power) for d in dists)
            return np.where(inv > 0, 1.0 / np.where(inv > 0, inv, 1.0), np.inf)

    return near, outer, weight


def _l14(vals, mask, spec):
    """L^14 norm (cell quadrature) of |vals| over `mask`."""
    cell = spec.h1 * spec.h2
    return float((np.where(mask, np.abs(vals), 0.0) ** 14).sum() * cell) ** (1 / 14)


def _near_core(parts, mask, params: ModelParams, spec):
    """Near-core term of a double-star norm: the sum of the L^14 norms of
    `parts` over `mask` for a ring, twice the sum of their sups for a
    pair."""
    if params.is_ring:
        return sum(_l14(v, mask, spec) for v in parts)
    return 2.0 * sum(float(np.where(mask, np.abs(v), 0.0).max()) for v in parts)


def _weighted_outer(terms, mask):
    """Outer term of a double-star norm: the sum over (vals, weight) in
    `terms` of the sup of |vals| * weight over `mask`."""
    return sum(float(np.where(mask, np.abs(v) * w, 0.0).max()) for v, w in terms)


def error_field(V: ComplexField, params: ModelParams):
    """Ansatz error, S the operator of params' regime: Etilde =
    -S[V]/(iV) away from the cores, the raw S[V] where |V| <
    CORE_MODULUS_FLOOR, plus its double-star norm: the near-core term of
    S[V] and the weighted outer sups of Re Etilde (weight ell^(2+rho))
    and Im Etilde (ell^(1+rho))."""
    S = apply_S(V, params).data
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = -S / (1j * V.data)
    data = np.where(np.abs(V.data) >= CORE_MODULUS_FLOOR, normalized, S)
    data = np.where(np.isfinite(data), data, 0.0)
    near, outer, weight = _norm_regions(V.spec, params.centers())
    star2 = (_near_core([S], near, params, V.spec)
             + _weighted_outer([(data.real, weight(2.0 + RHO_WEIGHT))], outer)
             + _weighted_outer([(data.imag, weight(1.0 + RHO_WEIGHT))], outer))
    return ComplexField(V.spec, data), star2


def _second_derivatives(d1p, d2p, spec):
    """(d11 phi, d22 phi): central differences of d1p = d1 phi along x1
    and d2p = d2 phi along x2, the outer layer left at zero.  The axis
    ghosts are those of the derivatives' parities, not phi's: d1 phi is
    odd across x1 = 0 (`reflect` with s1 = -1) and d2 phi anti-conjugate
    across x2 = 0 (s2 = -1)."""
    p1 = reflect(d1p, 1, 0, s1=-1)
    p2 = reflect(d2p, 0, 1, s2=-1)
    d11, d22 = np.zeros_like(d1p), np.zeros_like(d2p)
    d11[:-1, :-1] = (p1[2:, :-1] - p1[:-2, :-1]) / (2 * spec.h1)
    d22[:-1, :-1] = (p2[:-1, 2:] - p2[:-1, :-2]) / (2 * spec.h2)
    return d11, d22


def corrector_norms(u: ComplexField, V: ComplexField, params: ModelParams):
    """Weighted corrector norms: psi = -i (u/V - 1) where |V| > 0.1,
    phi = u - V near the cores.  The near-core term takes phi, |grad phi|
    and |(d11 phi, d22 phi)|; the outer terms take Re psi and |grad Re psi|
    (weights ell^rho, ell^(1+rho)) and Im psi and |grad Im psi|
    (ell^(1+rho), ell^(2+rho))."""
    spec = u.spec
    safe = np.abs(V.data) > CORE_MODULUS_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        chi = np.where(safe, (u.data - V.data) / np.where(safe, V.data, 1.0), 0.0)
    phi = ComplexField(spec, u.data - V.data)

    # psi = -i chi, chi = u/V - 1 conjugate-symmetric like u: one pass over chi
    # differences both parts, |grad Re psi| = |Im grad chi|, |grad Im psi| = |Re grad chi|
    g1, g2 = (g.data for g in diff_ops(ComplexField(spec, chi))[:2])
    d1p, d2p, _ = diff_ops(phi)
    d11, d22 = _second_derivatives(d1p.data, d2p.data, spec)

    near, outer, weight = _norm_regions(spec, params.centers())
    w_mid = weight(1.0 + RHO_WEIGHT)
    inner = _near_core([phi.data, np.hypot(np.abs(d1p.data), np.abs(d2p.data)),
                        np.hypot(np.abs(d11), np.abs(d22))], near, params, spec)
    outer_psi1 = _weighted_outer([(chi.imag, weight(RHO_WEIGHT)),
                                  (np.hypot(g1.imag, g2.imag), w_mid)], outer)
    outer_psi2 = _weighted_outer([(chi.real, w_mid),
                                  (np.hypot(g1.real, g2.real), weight(2.0 + RHO_WEIGHT))], outer)
    return {
        "star": inner + outer_psi1 + outer_psi2,
        "inner": inner,
        "outer_psi1": outer_psi1,
        "outer_psi2": outer_psi2,
        "phi_linf": float(np.abs(phi.data).max()),
        "psi_sup": float(np.abs(np.where(outer, chi, 0.0)).max()),
    }


def build_report(u: ComplexField, params: ModelParams = None,
                 V: ComplexField = None) -> DiagnosticsReport:
    """Assemble the standard report: energy/charge of the reflected
    plane, vortex inventory, Bogomolny margin, corrector norms."""
    m = unproject_array(full_plane_data(u)[2])
    E, Q = energy_charge(m, u.spec.h1, u.spec.h2)
    vortices = detect_vortices(u)
    norms = {}
    if V is not None and params is not None:
        norms = corrector_norms(u, V, params)
    return DiagnosticsReport(
        energy=E, charge=Q, vortices=vortices,
        bogomolny_margin=E - EIGHT_PI * abs(Q),
        weighted_norms=norms,
    )
