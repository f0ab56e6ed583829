"""Topological and energetic verification.

Winding is counted per plaquette only: the branch-resolved phase sum
around each lattice cell of the reflected full plane, and vortices are
the clusters of cells with nonzero winding.  Energy and topological
charge use the sphere-valued field:

    E = int |d1 m|^2 + |d2 m|^2,    Q = (1/4 pi) int m . (d1 m x d2 m),

related by the Bogomolny bound E >= 8 pi |Q|.  Corrector norms follow
the weighted-decay bookkeeping of the construction: the corrector phase
psi = -i (u/V - 1) away from the cores, phi = u - V inside, with
anisotropic weights on Re(psi) and Im(psi).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .ansatz import CORE_MODULUS_FLOOR, ModelParams, RHO_WEIGHT
from .fields import (ComplexField, ScalarField, combined_weight, diff_ops,
                     region_mask)
from .stereo import unproject_array

EIGHT_PI = 8.0 * math.pi


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


def full_plane_data(f: ComplexField):
    """Reflect the stored quarter to the full plane; returns
    (x1 coords, x2 coords, values)."""
    n1, n2 = f.spec.n1, f.spec.n2
    core = f.data
    right = np.concatenate([np.conj(core[:, :0:-1]), core], axis=1)
    ext = np.concatenate([right[:0:-1, :], right], axis=0)
    x1 = f.spec.h1 * np.arange(-(n1 - 1), n1)
    x2 = f.spec.h2 * np.arange(-(n2 - 1), n2)
    return x1, x2, ext


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
    # cluster by Chebyshev distance <= 2 (simple union scan, few hits)
    parent = list(range(len(hits)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(len(hits)):
        for b in range(a + 1, len(hits)):
            if max(abs(hits[a, 0] - hits[b, 0]), abs(hits[a, 1] - hits[b, 1])) <= 2:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    clusters = {}
    for k in range(len(hits)):
        clusters.setdefault(find(k), []).append(k)
    out = []
    for members in clusters.values():
        charge = int(sum(w[hits[k, 0], hits[k, 1]] for k in members))
        if charge == 0:
            continue
        cx = float(np.mean([x1[hits[k, 0]] + 0.5 * f.spec.h1 for k in members]))
        cy = float(np.mean([x2[hits[k, 1]] + 0.5 * f.spec.h2 for k in members]))
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


def corrector_norms(u: ComplexField, V: ComplexField, params: ModelParams):
    """Weighted corrector norms: psi = -i (u/V - 1) where |V| > 0.1,
    phi = u - V near the cores.  Pair regimes use sup/divided-difference
    surrogates near the cores; ring regimes use L^14 there."""
    spec = u.spec
    centers = params.centers()
    rho = RHO_WEIGHT
    absV = np.abs(V.data)
    safe = absV > CORE_MODULUS_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = np.where(safe, -1j * ((u.data - V.data) / np.where(safe, V.data, 1.0)), 0.0)
    phi = ComplexField(spec, np.ascontiguousarray(u.data - V.data))

    # psi parity is anti-conjugate: Re odd, Im even about x2 = 0
    psi1 = ScalarField(spec, np.ascontiguousarray(psi.real), "odd")
    psi2 = ScalarField(spec, np.ascontiguousarray(psi.imag), "even")
    g11, g12, _ = diff_ops(psi1)
    g21, g22, _ = diff_ops(psi2)
    grad1 = np.hypot(g11.data, g12.data)
    grad2 = np.hypot(g21.data, g22.data)

    outer = region_mask(spec, centers, 2.0, None)
    outer[-1, :] = False
    outer[:, -1] = False
    w1 = combined_weight(spec, centers, rho)
    w1g = w2 = combined_weight(spec, centers, 1.0 + rho)
    w2g = combined_weight(spec, centers, 2.0 + rho)

    def wsup(vals, w):
        return float(np.where(outer, np.abs(vals) * w, 0.0).max())

    outer_psi1 = wsup(psi.real, w1) + wsup(grad1, w1g)
    outer_psi2 = wsup(psi.imag, w2) + wsup(grad2, w2g)

    d1p, d2p, _ = diff_ops(phi)
    inner_mask = region_mask(spec, centers, None, 3.0)
    inner_mask[-1, :] = False
    inner_mask[:, -1] = False
    grad_phi = np.hypot(np.abs(d1p.data), np.abs(d2p.data))
    d11, _, _ = diff_ops(d1p)
    _, d22, _ = diff_ops(d2p)
    hess_phi = np.hypot(np.abs(d11.data), np.abs(d22.data))
    if params.is_ring:
        cell = spec.h1 * spec.h2
        p = 14

        def lp(vals):
            return float((np.where(inner_mask, np.abs(vals), 0.0) ** p).sum() * cell) ** (1 / p)

        inner = lp(phi.data) + lp(grad_phi) + lp(hess_phi)
    else:
        def sup(vals):
            return float(np.where(inner_mask, np.abs(vals), 0.0).max())

        inner = 2.0 * (sup(phi.data) + sup(grad_phi) + sup(hess_phi))

    phi_linf = float(np.abs(u.data - V.data).max())
    return {
        "star": inner + outer_psi1 + outer_psi2,
        "inner": inner,
        "outer_psi1": outer_psi1,
        "outer_psi2": outer_psi2,
        "phi_linf": phi_linf,
        "psi_sup": float(np.abs(np.where(outer, psi, 0.0)).max()),
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
