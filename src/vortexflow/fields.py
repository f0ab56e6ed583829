"""Symmetry-reduced grids, field storage, reflection, stencils, norms.

Only the quarter plane x1 >= 0, x2 >= 0 is stored.  The full plane is
recovered through the parity table

    u1(x1, x2) = u1(-x1, x2) = u1(x1, -x2),
    u2(x1, x2) = u2(-x1, x2) = -u2(x1, -x2),

i.e. u(x1, -x2) = conj(u(x1, x2)) and u(-x1, x2) = u(x1, x2).  Scalar
fields carry an explicit x2-parity flag and are always even in x1.
Stencils close the axis rows with ghost values generated by the same
table; the outermost stored row/column is Dirichlet data supplied by
the caller, so no stencil is evaluated there.
"""

import enum
from dataclasses import dataclass, field

import numpy as np


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
        if not (0.0 < self.h1 <= 0.5 and 0.0 < self.h2 <= 0.5):
            raise ValueError("spacings must lie in (0, 0.5]")
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


@dataclass(frozen=True)
class ScalarField:
    spec: GridSpec
    data: np.ndarray
    x2_parity: str = "even"  # 'even' or 'odd' about the x2 = 0 axis

    def __post_init__(self):
        if self.data.shape != (self.spec.n1, self.spec.n2):
            raise ValueError("data shape does not match the grid")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("non-finite samples")
        if self.x2_parity not in ("even", "odd"):
            raise ValueError("x2_parity must be 'even' or 'odd'")
        self.data.setflags(write=False)


def symmetrize_complex(data):
    """Zero the imaginary part on the x2 = 0 row so the parity extension
    is single-valued on the axis."""
    out = np.array(data, dtype=complex)
    out[:, 0] = out[:, 0].real
    return out


def reflect_full(f, x1, x2):
    """Evaluate the full-plane extension at (x1, x2) by the parity table,
    bilinear off-lattice."""
    spec = f.spec
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    scalar = x1.ndim == 0 and x2.ndim == 0
    x1, x2 = np.atleast_1d(x1), np.atleast_1d(x2)
    if np.any(np.abs(x1) > spec.l1 + 1e-12) or np.any(np.abs(x2) > spec.l2 + 1e-12):
        raise ValueError("query outside the covered domain")
    a1, a2 = np.abs(x1), np.abs(x2)
    i = np.clip((a1 / spec.h1).astype(int), 0, spec.n1 - 2)
    j = np.clip((a2 / spec.h2).astype(int), 0, spec.n2 - 2)
    t = a1 / spec.h1 - i
    s = a2 / spec.h2 - j
    d = f.data
    val = ((1 - t) * (1 - s) * d[i, j] + t * (1 - s) * d[i + 1, j]
           + (1 - t) * s * d[i, j + 1] + t * s * d[i + 1, j + 1])
    if isinstance(f, ComplexField):
        flip = x2 < 0
        val = np.where(flip, np.conj(val), val)
    elif f.x2_parity == "odd":
        val = np.where(x2 < 0, -val, val)
    return val[0] if scalar else val


def _ghost_rows(f):
    """Ghost values just outside the axes per the parity table."""
    if isinstance(f, ComplexField):
        g1 = f.data[1, :]            # x1 = -h1 (even)
        g2 = np.conj(f.data[:, 1])   # x2 = -h2
    else:
        g1 = f.data[1, :]
        g2 = f.data[:, 1] if f.x2_parity == "even" else -f.data[:, 1]
    return g1, g2


def diff_ops(f):
    """Second-order central d1, d2 and laplacian; axis rows closed by the
    parity ghosts, outermost layer left at zero (Dirichlet data there
    belongs to the caller)."""
    spec = f.spec
    u = f.data
    h1, h2 = spec.h1, spec.h2
    g1, g2 = _ghost_rows(f)
    d1 = np.zeros_like(u)
    d2 = np.zeros_like(u)
    lap = np.zeros_like(u)

    d1[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2 * h1)
    d1[0, :] = (u[1, :] - g1) / (2 * h1)
    d2[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2 * h2)
    d2[:, 0] = (u[:, 1] - g2) / (2 * h2)

    lap[1:-1, :] = (u[2:, :] - 2 * u[1:-1, :] + u[:-2, :]) / h1**2
    lap[0, :] = (u[1, :] - 2 * u[0, :] + g1) / h1**2
    lap[:, 1:-1] += (u[:, 2:] - 2 * u[:, 1:-1] + u[:, :-2]) / h2**2
    lap[:, 0] += (u[:, 1] - 2 * u[:, 0] + g2) / h2**2

    for a in (d1, d2, lap):
        a[-1, :] = 0.0
        a[:, -1] = 0.0

    wrap = (lambda arr: ComplexField(spec, arr)) if isinstance(f, ComplexField) else (
        lambda arr: ScalarField(spec, arr.real.copy() if np.iscomplexobj(arr) else arr,
                                f.x2_parity))
    return wrap(d1), wrap(d2), wrap(lap)


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


def _center_distances(spec, centers):
    X1, X2 = spec.mesh()
    return [np.hypot(X1 - c[0], X2 - c[1]) for c in centers]


def combined_weight(spec, centers, power):
    """1 / sum_j ell_j^(-power): behaves like min_j ell_j^power but stays
    finite when several centers contribute."""
    dists = _center_distances(spec, centers)
    with np.errstate(divide="ignore"):
        inv = sum(np.where(d > 0, d, np.inf) ** (-power) for d in dists)
        return np.where(inv > 0, 1.0 / np.where(inv > 0, inv, 1.0), np.inf)


def region_mask(spec, centers, rmin=None, rmax=None):
    dists = _center_distances(spec, centers)
    dmin = np.minimum.reduce(dists)
    mask = np.ones(dmin.shape, dtype=bool)
    if rmin is not None:
        mask &= dmin > rmin
    if rmax is not None:
        mask &= dmin < rmax
    return mask


def discrete_norms(f, p, weight=None, region=None):
    """L^2 / L^14 (cell quadrature) or weighted sup norm of a field.

    `weight` is (centers, power): |f| is multiplied by the combined
    weight 1/sum_j ell_j^(-power).  `region` is (rmin, rmax) bounds on
    the minimum distance to the same centers.
    """
    spec = f.spec
    vals = np.abs(f.data).astype(float)
    if weight is not None:
        centers, power = weight
        vals = vals * combined_weight(spec, centers, power)
    mask = np.ones(vals.shape, dtype=bool)
    if region is not None:
        centers_r, rmin, rmax = region
        mask = region_mask(spec, centers_r, rmin, rmax)
    vals = np.where(mask, vals, 0.0)
    if p == np.inf or p == "inf":
        return float(vals.max())
    if p not in (2, 14):
        raise ValueError("supported exponents: 2, 14, inf")
    cell = spec.h1 * spec.h2
    return float((vals**p).sum() * cell) ** (1.0 / p)
