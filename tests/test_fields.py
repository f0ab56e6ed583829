import numpy as np
import pytest

from references import reflect_full
from vortexflow.diagnostics import _second_derivatives
from vortexflow.fields import (ComplexField, GridSpec, ScalarField, Symmetry, diff_ops,
                               full_plane_data, reflect, symmetrize_complex)


def make_spec(l=4.0, h=0.25, sym=Symmetry.PAIR):
    return GridSpec(l, l, h, h, sym)


def sample_complex(spec, fn):
    X1, X2 = spec.mesh()
    return ComplexField(spec, symmetrize_complex(fn(X1, X2)))


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(4.0, 4.0, 0.6, 0.25, Symmetry.PAIR)  # spacing > 0.5
    with pytest.raises(ValueError):
        GridSpec(4.0, 4.0, 0.3, 0.25, Symmetry.PAIR)  # 4/0.3 not integral
    spec = make_spec()
    assert spec.n1 * spec.h1 == pytest.approx(spec.l1)


def test_reflect_parity_table():
    spec = make_spec()
    f = sample_complex(spec, lambda x, y: np.cos(x) * np.cos(y) + 1j * np.sin(y) * np.cos(x))
    pts1 = spec.x1()[2], spec.x2()[3]
    # u(x1, -x2) = conj(u(x1, x2)) and u(-x1, x2) = u(x1, x2), bitwise
    assert reflect_full(f, pts1[0], -pts1[1]) == np.conj(reflect_full(f, *pts1))
    assert reflect_full(f, -pts1[0], pts1[1]) == reflect_full(f, *pts1)
    # imaginary part on the x2 = 0 axis is exactly zero
    vals = reflect_full(f, spec.x1(), np.zeros(spec.n1))
    assert np.all(vals.imag == 0.0)


def test_double_reflection_identity():
    spec = make_spec()
    f = sample_complex(spec, lambda x, y: np.exp(1j * y) * np.cos(x))
    x1 = np.array([0.5, 1.25, 2.0])
    x2 = np.array([0.25, 1.0, 3.0])
    once = reflect_full(f, -x1, -x2)
    assert np.array_equal(np.conj(once), reflect_full(f, x1, x2))


def test_out_of_domain_rejected():
    spec = make_spec()
    f = sample_complex(spec, lambda x, y: x + 0j * y)
    with pytest.raises(ValueError):
        reflect_full(f, 5.0, 0.0)


def test_laplacian_exact_on_quadratic():
    spec = make_spec(l=4.0, h=0.2)
    X1, X2 = spec.mesh()
    f = ScalarField(spec, X1**2 + X2**2)
    _, _, lap = diff_ops(f)
    interior = lap.data[1:-1, 1:-1]
    assert np.max(np.abs(interior - 4.0)) < 1e-10


def test_d2_vanishes_on_axis_for_even_field():
    spec = make_spec()
    X1, X2 = spec.mesh()
    f = ScalarField(spec, np.cos(X2) * X1, x2_parity="even")
    _, d2, _ = diff_ops(f)
    assert np.all(d2.data[:, 0] == 0.0)


def test_diff_ops_annihilate_constants():
    spec = make_spec()
    f = ScalarField(spec, np.full((spec.n1, spec.n2), 3.7))
    d1, d2, lap = diff_ops(f)
    for g in (d1, d2, lap):
        assert np.all(g.data == 0.0)


def test_refinement_order_two():
    errs = []
    for h in (0.25, 0.125):
        spec = GridSpec(4.0, 4.0, h, h, Symmetry.PAIR)
        X1, X2 = spec.mesh()
        f = ScalarField(spec, np.sin(X1) * np.cos(X2), x2_parity="even")
        _, _, lap = diff_ops(f)
        exact = -2.0 * np.sin(X1) * np.cos(X2)
        err = np.abs(lap.data - exact)[1:-1, 1:-1].max()
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 3.6 <= ratio <= 4.4


# -- the one reflection ---------------------------------------------------------

RECT = GridSpec(14.0, 9.0, 0.25, 0.2, Symmetry.RING)


def rect_fields():
    """A complex field and an even and an odd scalar on the h1 != h2 grid
    RECT, each nonzero on its outer layer too."""
    X1, X2 = RECT.mesh()
    u = sample_complex(RECT, lambda x, y: np.exp(0.3j * y + 0.2 * x) * (1.0 + 0.1 * x * y))
    even = ScalarField(RECT, np.cos(0.4 * X1) * np.cosh(0.3 * X2) + 0.05 * X1**3, "even")
    odd = ScalarField(RECT, np.cos(0.4 * X1) * np.sinh(0.3 * X2) + 0.05 * X2**3, "odd")
    return [u, even, odd]


def _sign2(f):
    return -1 if isinstance(f, ScalarField) and f.x2_parity == "odd" else 1


@pytest.mark.parametrize("f", rect_fields(), ids=["complex", "even", "odd"])
@pytest.mark.parametrize("w", [(1, 1), (2, 2), (2, 1), (RECT.n1 - 1, RECT.n2 - 1)],
                         ids=["w1", "w2", "w21", "full"])
def test_reflect_is_the_parity_table_on_the_lattice(f, w):
    w1, w2 = w
    ext = reflect(f.data, w1, w2, s2=_sign2(f))
    assert ext.shape == (RECT.n1 + w1, RECT.n2 + w2) and ext.dtype == f.data.dtype
    assert np.array_equal(ext[w1:, w2:], f.data)
    x1 = RECT.h1 * np.arange(-w1, RECT.n1)
    x2 = RECT.h2 * np.arange(-w2, RECT.n2)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    ref = reflect_full(f, X1.ravel(), X2.ravel()).reshape(X1.shape)
    # reflect_full is bilinear: on the lattice it is the sample up to rounding
    assert np.max(np.abs(ext - ref)) <= 1e-14 * np.max(np.abs(f.data))


def test_reflect_signs_flip_their_layers_alone():
    a = rect_fields()[0].data
    ext = reflect(a, 2, 3)
    odd1, odd2 = reflect(a, 2, 3, s1=-1), reflect(a, 2, 3, s2=-1)
    assert np.array_equal(odd1[:2], -ext[:2]) and np.array_equal(odd1[2:], ext[2:])
    assert np.array_equal(odd2[:, :3], -ext[:, :3]) and np.array_equal(odd2[:, 3:], ext[:, 3:])


def test_reflect_refuses_widths_past_the_grid():
    a = np.zeros((5, 4))
    for w1, w2 in ((5, 1), (1, 4), (-1, 0)):
        with pytest.raises(ValueError):
            reflect(a, w1, w2)


def test_full_plane_data_is_the_widest_reflection():
    u = rect_fields()[0]
    x1, x2, ext = full_plane_data(u)
    assert ext.shape == (2 * RECT.n1 - 1, 2 * RECT.n2 - 1)
    assert np.array_equal(x1[RECT.n1 - 1:], RECT.x1()) and np.array_equal(x2[RECT.n2 - 1:], RECT.x2())
    assert np.array_equal(x1, -x1[::-1]) and np.array_equal(x2, -x2[::-1])
    assert np.array_equal(ext, reflect(u.data, RECT.n1 - 1, RECT.n2 - 1))


def _central(P, h1, h2):
    """Plain central differences d1, d2 and laplacian at the interior
    points of the lattice array P."""
    c = P[1:-1, 1:-1]
    d1 = (P[2:, 1:-1] - P[:-2, 1:-1]) / (2 * h1)
    d2 = (P[1:-1, 2:] - P[1:-1, :-2]) / (2 * h2)
    lap = (P[2:, 1:-1] - 2 * c + P[:-2, 1:-1]) / h1**2 + (P[1:-1, 2:] - 2 * c + P[1:-1, :-2]) / h2**2
    return d1, d2, lap


@pytest.mark.parametrize("f", rect_fields(), ids=["complex", "even", "odd"])
def test_diff_ops_are_central_differences_of_the_full_plane(f):
    n1, n2 = RECT.n1, RECT.n2
    full = reflect(f.data, n1 - 1, n2 - 1, s2=_sign2(f))
    # the full plane's interior point (n1-1+i, n2-1+j) - 1 is stored point (i, j)
    want = [g[n1 - 2:, n2 - 2:] for g in _central(full, RECT.h1, RECT.h2)]
    for got, ref in zip(diff_ops(f), want):
        assert type(got) is type(f)
        assert np.array_equal(got.data[:-1, :-1], ref)  # every row, the axis rows too
        assert np.all(got.data[-1, :] == 0.0) and np.all(got.data[:, -1] == 0.0)


def test_second_derivatives_are_central_differences_of_the_full_plane():
    n1, n2 = RECT.n1, RECT.n2
    phi = rect_fields()[0]
    d1p, d2p, _ = diff_ops(phi)
    d11, d22 = _second_derivatives(d1p.data, d2p.data, RECT)
    d1f, d2f, _ = _central(reflect(phi.data, n1 - 1, n2 - 1), RECT.h1, RECT.h2)
    # d1f and d2f hold the full plane's interior; their central differences
    # reach stored row n1 - 3 (column n2 - 3), the last whose stencil stays
    # off the zeroed Dirichlet layer of d1 phi (d2 phi)
    want11 = ((d1f[2:] - d1f[:-2]) / (2 * RECT.h1))[n1 - 3:, n2 - 2:]
    want22 = ((d2f[:, 2:] - d2f[:, :-2]) / (2 * RECT.h2))[n1 - 2:, n2 - 3:]
    assert np.array_equal(d11[:-2, :-1], want11)
    assert np.array_equal(d22[:-1, :-2], want22)
    for d in (d11, d22):
        assert np.all(d[-1, :] == 0.0) and np.all(d[:, -1] == 0.0)


def test_scalar_field_refuses_complex_data():
    with pytest.raises(ValueError, match="real"):
        ScalarField(RECT, np.zeros((RECT.n1, RECT.n2), complex))
