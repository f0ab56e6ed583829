import numpy as np
import pytest

from vortexflow.fields import (ComplexField, GridSpec, ScalarField, Symmetry,
                               diff_ops, reflect_full,
                               symmetrize_complex)


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
