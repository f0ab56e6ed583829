import math

import numpy as np
import pytest

from vortexflow.ansatz import ModelParams, Regime, build_pair
from vortexflow.diagnostics import (DiagnosticsReport, _hit_clusters, _near_core,
                                    _norm_regions, _weighted_outer, build_report,
                                    corrector_norms, detect_vortices, energy_charge,
                                    plaquette_windings)
from vortexflow.fields import (ComplexField, GridSpec, Symmetry, full_plane_data,
                               symmetrize_complex)
from vortexflow.stereo import unproject_array


def test_detect_vortices_on_pair(profile):
    p = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    found = detect_vortices(V)
    assert len(found) == 1
    (pos, charge), = found
    assert charge == 1
    assert math.hypot(pos[0] - p.d, pos[1]) <= 2 * spec.h1
    # the mirror partner at -d cancels it on the reflected plane
    assert plaquette_windings(full_plane_data(V)[2]).sum() == 0


def test_detect_vortices_constant_field():
    spec = GridSpec(4.0, 4.0, 0.25, 0.25, Symmetry.PAIR)
    f = ComplexField(spec, np.full((spec.n1, spec.n2), 1.0 + 0.0j))
    assert detect_vortices(f) == []


def union_find_clusters(hits):
    """The oracle for `_hit_clusters`: a union-find over the pairs (a, b),
    a < b, in increasing order, joining hits within Chebyshev distance 2;
    clusters in the order of their first members.  The rows of `hits` are
    sorted (np.argwhere's order), so b stops at the first hit more than 2
    rows below a's, and a's candidates are measured at once."""
    parent = list(range(len(hits)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(len(hits)):
        stop = np.searchsorted(hits[:, 0], hits[a, 0] + 2, side="right")
        near = np.max(np.abs(hits[a + 1:stop] - hits[a]), axis=1) <= 2
        for b in a + 1 + np.flatnonzero(near):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    clusters = {}
    for k in range(len(hits)):
        clusters.setdefault(find(k), []).append(k)
    return list(clusters.values())


def union_find_vortices(f):
    """detect_vortices with the clusters of `union_find_clusters`, each
    summed and averaged hit by hit."""
    x1, x2, ext = full_plane_data(f)
    w = plaquette_windings(ext)
    hits = np.argwhere(w != 0)
    out = []
    for members in union_find_clusters(hits):
        charge = int(sum(w[hits[k, 0], hits[k, 1]] for k in members))
        if charge == 0:
            continue
        cx = float(np.mean([x1[hits[k, 0]] + 0.5 * f.spec.h1 for k in members]))
        cy = float(np.mean([x2[hits[k, 1]] + 0.5 * f.spec.h2 for k in members]))
        out.append(((cx, cy), charge))
    out = [v for v in out if v[0][0] > -0.5 * f.spec.h1]
    return sorted(out, key=lambda v: (v[0][0], v[0][1]))


def test_hit_clusters_match_union_find_on_random_hits():
    rng = np.random.default_rng(7)
    for _ in range(60):
        shape = rng.integers(1, 48, size=2)
        hits = np.argwhere(rng.random(shape) < rng.uniform(0.005, 0.7))
        if hits.size:
            assert [m.tolist() for m in _hit_clusters(hits)] == union_find_clusters(hits)


def test_detect_vortices_on_a_noisy_pair_matches_union_find(profile):
    p = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
    spec = GridSpec(40.0, 40.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    rng = np.random.default_rng(11)
    noisy = ComplexField(spec, V.data + 2.0 * (rng.standard_normal(V.data.shape)
                                               + 1j * rng.standard_normal(V.data.shape)))
    assert np.count_nonzero(plaquette_windings(full_plane_data(noisy)[2])) >= 20_000
    for f in (V, noisy):
        assert detect_vortices(f) == union_find_vortices(f)


def brute_force_energy_charge(m, h):
    """Plain-loop oracle for the vectorized integrals."""
    n1, n2, _ = m.shape
    E = 0.0
    Q = 0.0
    for i in range(1, n1 - 1):
        for j in range(1, n2 - 1):
            d1 = (m[i + 1, j] - m[i - 1, j]) / (2 * h)
            d2 = (m[i, j + 1] - m[i, j - 1]) / (2 * h)
            E += float(d1 @ d1 + d2 @ d2) * h * h
            Q += float(m[i, j] @ np.cross(d1, d2)) * h * h
    return E, Q / (4 * math.pi)


def degree_one_m(L, h):
    n = int(round(2 * L / h)) + 1
    x = -L + h * np.arange(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return unproject_array(X + 1j * Y)


def test_energy_charge_against_brute_force():
    m = degree_one_m(3.0, 0.25)
    E, Q = energy_charge(m, 0.25, 0.25)
    Eb, Qb = brute_force_energy_charge(m, 0.25)
    assert E == pytest.approx(Eb, rel=1e-12)
    assert Q == pytest.approx(Qb, rel=1e-12)


def test_energy_charge_trivials():
    m = np.zeros((8, 8, 3))
    m[..., 2] = 1.0
    E, Q = energy_charge(m, 0.1, 0.1)
    assert E == 0.0 and Q == 0.0


def test_charge_flips_under_reflection():
    m = degree_one_m(6.0, 0.2)
    E1, Q1 = energy_charge(m, 0.2, 0.2)
    m2 = m.copy()
    m2[..., 1] *= -1.0
    E2, Q2 = energy_charge(m2, 0.2, 0.2)
    assert E1 == pytest.approx(E2, rel=1e-12)
    assert Q1 == pytest.approx(-Q2, rel=1e-12)


def test_energy_charge_rejects_off_sphere():
    m = np.zeros((8, 8, 3))
    m[..., 2] = 1.0 + 1e-3
    with pytest.raises(ValueError):
        energy_charge(m, 0.1, 0.1)


def test_translation_invariance_of_energy():
    h = 0.2
    n = int(round(12.0 / h)) + 1
    x = -6.0 + h * np.arange(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    E1, _ = energy_charge(unproject_array(X + 1j * Y), h, h)
    # sample the same map on a window shifted by two whole cells
    E2, _ = energy_charge(unproject_array((X + 2 * h) + 1j * Y), h, h)
    assert E1 == pytest.approx(E2, rel=1e-2)


def test_corrector_norms_zero_and_phase(profile):
    p = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    norms0 = corrector_norms(V, V, p)
    assert norms0["star"] == 0.0
    delta = 1e-3
    u = ComplexField(spec, symmetrize_complex(V.data * np.exp(1j * delta)))
    norms = corrector_norms(u, V, p)
    # real corrector part carries the phase; the imaginary part is
    # O(delta^2) and stays tiny even after the decay weights
    assert norms["psi_sup"] == pytest.approx(delta, rel=1e-5)
    assert norms["outer_psi2"] <= 1e-3 * norms["outer_psi1"]


def test_norms_leave_out_the_dirichlet_layer(profile):
    p = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    data = V.data.copy()
    data[-1, :] *= 1.5
    data[:, -1] *= 1.5
    norms = corrector_norms(ComplexField(spec, data), V, p)
    # psi is nonzero on the layer alone; only the outer gradients next to
    # it see the layer's values
    assert norms["psi_sup"] == 0.0 and norms["inner"] == 0.0
    assert norms["phi_linf"] > 0.1


@pytest.mark.parametrize("axis", ["x1", "x2"])
def test_corrector_second_derivatives_on_the_axis_rows(axis):
    # phi = cos(k x1) (d1 phi odd across x1 = 0) and exp(i k x2) (d2 phi
    # anti-conjugate across x2 = 0).  A central difference maps them to
    # -s sin(k x1) and i s exp(i k x2), s = sin(k h) / h, and twice to
    # -s^2 phi, on the axis rows as inside.  With V = 0, psi is zero and
    # the cores at (+-1, 0) put both axis rows in the near-core region
    p = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 0.1)
    spec = GridSpec(8.0, 8.0, 0.25, 0.25, Symmetry.PAIR)
    X1, X2 = spec.mesh()
    k = 0.5
    s = math.sin(k * spec.h1) / spec.h1
    if axis == "x1":
        phi, grad = 0.01 * np.cos(k * X1) + 0j, 0.01 * s * np.abs(np.sin(k * X1))
    else:
        phi, grad = 0.01 * np.exp(1j * k * X2), np.full(X2.shape, 0.01 * s)
    near, _, _ = _norm_regions(spec, p.centers())
    assert near[0, 0]
    zero = ComplexField(spec, np.zeros((spec.n1, spec.n2), complex))
    want = _near_core([phi, grad, s * s * np.abs(phi)], near, p, spec)
    assert corrector_norms(ComplexField(spec, phi), zero, p)["inner"] == pytest.approx(
        want, rel=1e-10)


def test_near_core_term_is_l14_for_rings_and_twice_the_sup_for_pairs():
    pair = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
    ring = ModelParams(Regime.RING_WM, 0.1, 0.0, 1.0)
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    near, outer, _ = _norm_regions(spec, pair.centers())
    spike = np.zeros((spec.n1, spec.n2))
    spike[40, 1] = -1.0  # (10, 0.25): the core at d = 10
    assert near[40, 1] and not outer[40, 1]
    assert _near_core([spike], near, pair, spec) == 2.0
    # a one-cell spike: L^14 = (h^2)^(1/14)
    assert _near_core([spike], near, ring, spec) == pytest.approx(0.0625 ** (1 / 14), rel=1e-14)
    assert _near_core([spike, spike], near, pair, spec) == 4.0


def test_weighted_outer_sup_example():
    # || ell * 1/(1+ell) ||_inf over ell > 2 lies in (0.66, 1)
    spec = GridSpec(40.0, 40.0, 0.5, 0.5, Symmetry.PAIR)
    X1, X2 = spec.mesh()
    ell = np.hypot(X1, X2)
    _, outer, weight = _norm_regions(spec, [(0.0, 0.0)])
    val = _weighted_outer([(1.0 / (1.0 + ell), weight(1.0))], outer)
    assert 0.66 < val < 1.0
    assert not outer[-1, :].any() and not outer[:, -1].any()


def test_build_report_pair(profile):
    p = ModelParams(Regime.PAIR_WM, 0.1, 0.0, 1.0)
    spec = GridSpec(20.0, 20.0, 0.25, 0.25, Symmetry.PAIR)
    V = build_pair(p, spec, profile)
    rep = build_report(V, p, V)
    assert abs(rep.charge - round(rep.charge)) <= 0.05
    assert rep.bogomolny_margin >= -0.05 * rep.energy
    assert rep.vortices and rep.vortices[0][1] == 1


def test_report_invariants_enforced():
    with pytest.raises(ValueError):
        DiagnosticsReport(energy=1.0, charge=0.4, vortices=[],
                          bogomolny_margin=1.0)
    with pytest.raises(ValueError):
        DiagnosticsReport(energy=1.0, charge=0.0, vortices=[],
                          bogomolny_margin=-0.5)
