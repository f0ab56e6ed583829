"""Symmetry-reduced grids, field storage, reflection and stencils.

Only the quarter plane x1 >= 0, x2 >= 0 is stored.  The full plane is
recovered through the parity table

    u1(x1, x2) = u1(-x1, x2) = u1(x1, -x2),
    u2(x1, x2) = u2(-x1, x2) = -u2(x1, -x2),

i.e. u(x1, -x2) = conj(u(x1, x2)) and u(-x1, x2) = u(x1, x2).  The one
table covers real scalars too: a scalar even in x2 is the real part of a
`ComplexField`, one odd in x2 its imaginary part.  The ring phase phi_d
of `ansatz`, odd in x2, is one; the paper's split of it into phi_s and
phi_r, which a scalar type served, cancels on the grid, so `ansatz`
solves for phi_d alone and stores it as a plain array.  `reflect` keeps
the table on a stored field's lattice: the stencils' axis ghosts and the
full plane are slices of it.  The V-cycle's colour-split lattice keeps
it in `solver._refresh_ghosts`, tied to the table by the tests
test_stencil_product_matches_the_assembled_matrix and
test_a_red_black_sweep_is_the_float64_update_by_colour.  The outermost
stored row/column is Dirichlet data supplied by the caller, so no
stencil is evaluated there.  Matrix forms keep the table folded in:
`solver.assemble_jacobian`, the H1 axis terms of
`solver._arm_coefficients` and the 4/h1^2 axis row of
`ansatz._solve_phase`, tied to the stencils by the tests
test_assembled_jacobian_matches_directional (and _ring),
test_stencil_product_matches_the_assembled_matrix and
test_ring_phase_axis_row_is_the_ghost_closure.
"""

import enum
from dataclasses import dataclass, field

import numpy as np


# largest grid spacing of a case's grid (`solver._grid_for`) or a field
# file (`cli_io.load_field`); the V-cycle's own coarse grids go past it
MAX_SPACING = 0.5
# the most points a case's grid (`solver._grid_for`) or a field file may hold
MAX_FIELD_SAMPLES = 500_000_000


class Symmetry(enum.Enum):
    PAIR = 0
    RING = 1


@dataclass(frozen=True)
class GridSpec:
    l1: float
    l2: float
    h1: float
    h2: float
    symmetry: Symmetry
    n1: int = field(init=False)
    n2: int = field(init=False)

    def __post_init__(self):
        if not (self.h1 > 0.0 and self.h2 > 0.0):
            raise ValueError("spacings must be > 0")
        r1, r2 = self.l1 / self.h1, self.l2 / self.h2
        if not (np.isfinite(r1) and np.isfinite(r2)):
            raise ValueError("extents must be finite multiples of the spacings")
        n1 = int(round(r1))
        n2 = int(round(r2))
        if abs(n1 * self.h1 - self.l1) > 1e-9 or abs(n2 * self.h2 - self.l2) > 1e-9:
            raise ValueError("extents must be integer multiples of the spacings")
        if n1 < 4 or n2 < 4:
            raise ValueError("need at least 4 points per direction")
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)

    def x1(self):
        return self.h1 * np.arange(self.n1)

    def x2(self):
        return self.h2 * np.arange(self.n2)

    def mesh(self):
        return np.meshgrid(self.x1(), self.x2(), indexing="ij")


@dataclass(frozen=True)
class ComplexField:
    spec: GridSpec
    data: np.ndarray  # shape (n1, n2), complex, row-major over (x1, x2)

    def __post_init__(self):
        if self.data.shape != (self.spec.n1, self.spec.n2):
            raise ValueError("data shape does not match the grid")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("non-finite samples")
        self.data.setflags(write=False)


def symmetrize_complex(data):
    """Zero the imaginary part on the x2 = 0 row so the parity extension
    is single-valued on the axis."""
    out = np.array(data, dtype=complex)
    out[:, 0] = out[:, 0].real
    return out


def reflect(a, w1, w2, s1=1, s2=1):
    """`a` extended past the axes by w1 rows and w2 columns, a[i, j] at
    [w1 + i, w2 + j]: the row at x1 = -k h1 is s1 a[k], the column at
    x2 = -k h2 is s2 conj(a[:, k]) (a real `a` stays real)."""
    n1, n2 = a.shape
    if not (0 <= w1 < n1 and 0 <= w2 < n2):
        raise ValueError("ghost widths must lie in [0, n - 1]")
    out = np.empty((n1 + w1, n2 + w2), dtype=a.dtype)
    out[w1:, w2:] = a
    cols, rows = out[w1:, :w2], out[:w1]
    np.conjugate(a[:, w2:0:-1], out=cols)
    if s2 < 0:
        np.negative(cols, out=cols)
    rows[...] = out[2 * w1:w1:-1]
    if s1 < 0:
        np.negative(rows, out=rows)
    return out


def full_plane_data(f: ComplexField):
    """The stored quarter reflected to the full lattice; returns
    (x1 coords, x2 coords, values)."""
    n1, n2 = f.spec.n1, f.spec.n2
    return (f.spec.h1 * np.arange(1 - n1, n1), f.spec.h2 * np.arange(1 - n2, n2),
            reflect(f.data, n1 - 1, n2 - 1))


def diff_ops(f: ComplexField):
    """Second-order central d1, d2 and laplacian, slices of the width-1
    `reflect` of f, so the axis rows see the parity ghosts; the
    outermost layer is left at zero (Dirichlet data there belongs to the
    caller)."""
    spec = f.spec
    h1, h2 = spec.h1, spec.h2
    p = reflect(f.data, 1, 1)
    mid = p[1:-1, 1:-1]
    d1, d2, lap = (np.zeros_like(f.data) for _ in range(3))
    d1[:-1, :-1] = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2 * h1)
    d2[:-1, :-1] = (p[1:-1, 2:] - p[1:-1, :-2]) / (2 * h2)
    lap[:-1, :-1] = ((p[2:, 1:-1] - 2 * mid + p[:-2, 1:-1]) / h1**2
                     + (p[1:-1, 2:] - 2 * mid + p[1:-1, :-2]) / h2**2)
    return ComplexField(spec, d1), ComplexField(spec, d2), ComplexField(spec, lap)


def axisym_term(u_data, spec):
    """(1/x1) d1 u with the axis-row limit d11 u (valid because the even
    x1-parity forces d1 u(0, .) = 0); outer layer zeroed."""
    h1 = spec.h1
    out = np.zeros_like(u_data)
    x1 = spec.x1()
    out[1:-1, :] = (u_data[2:, :] - u_data[:-2, :]) / (2 * h1) / x1[1:-1, None]
    out[0, :] = 2.0 * (u_data[1, :] - u_data[0, :]) / h1**2
    out[-1, :] = 0.0
    out[:, -1] = 0.0
    return out
