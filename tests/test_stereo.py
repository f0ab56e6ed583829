import numpy as np

from vortexflow.stereo import nonlinearity_F, unproject_array


def project_array(m):
    """The reference chart psi = (m1 + i m2)/(1 + m3) on an (..., 3) array
    of sphere points off the south pole.  For m3 < 0 the equivalent form
    (m1 + i m2)(1 - m3)/(m1^2 + m2^2) avoids the cancellation in 1 + m3
    near the pole, so the round trip stays accurate out to |psi| ~ 1e6."""
    m = np.asarray(m, dtype=float)
    m1, m2, m3 = m[..., 0], m[..., 1], m[..., 2]
    south = m3 < 0.0
    num = m1 + 1j * m2
    return np.where(south, num * (1.0 - m3) / np.where(south, m1**2 + m2**2, 1.0),
                    num / np.where(south, 1.0, 1.0 + m3))


def test_north_pole_projects_to_zero():
    assert project_array(np.array([0.0, 0.0, 1.0])) == 0.0


def test_equator_point():
    assert project_array(np.array([[1.0, 0.0, 0.0]]))[0] == 1.0


def test_unproject_trivials():
    assert unproject_array(np.array([0.0, 1.0])).tolist() == [[0.0, 0.0, 1.0],
                                                               [1.0, 0.0, 0.0]]


def test_unproject_large_modulus_approaches_south_pole():
    m = unproject_array(1e6)
    assert abs(m[2] - (1.0 - 1e12) / (1.0 + 1e12)) < 1e-11


def test_roundtrip_relative_accuracy(rng):
    # moduli spread over 12 decades up to 1e6
    r = 10.0 ** rng.uniform(-6, 6, size=10_000)
    phi = rng.uniform(-np.pi, np.pi, size=10_000)
    psi = r * np.exp(1j * phi)
    back = project_array(unproject_array(psi))
    assert np.max(np.abs(back - psi) / np.abs(psi)) < 1e-12


def test_unproject_lands_on_sphere(rng):
    psi = rng.standard_normal(1000) * 10 ** rng.uniform(-3, 3, 1000) \
        + 1j * rng.standard_normal(1000)
    m = unproject_array(psi)
    assert np.max(np.abs(np.linalg.norm(m, axis=-1) - 1.0)) < 1e-15


def test_nonlinearity_values():
    assert nonlinearity_F(0.0) == 0.0
    assert abs(nonlinearity_F(0.5) - 0.3) < 1e-15
    # exact zero on the unit circle
    u = np.exp(1j * np.linspace(0, 6, 50))
    vals = nonlinearity_F(u)
    assert np.max(np.abs(vals)) < 1e-15


def test_F_times_conj_is_real(rng):
    u = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    vals = nonlinearity_F(u) * np.conj(u)
    assert np.max(np.abs(vals.imag)) < 1e-14 * np.max(np.abs(vals.real) + 1)
