"""Cartesian grid geometry and the rank-R canonical reference kernel.

The radial kernel 1/rho is written as a Gaussian integral and discretized by
a trapezoidal rule after a double-exponential change of variables, giving
``1/rho ~ sum_k c_k exp(-t_k^2 rho^2)`` with a measured sup relative error
over a target interval.  Sampling the Gaussians on a doubled grid yields a
separable canonical tensor whose columns split into smooth long-range and
compactly supported short-range groups by an exponent threshold.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from ._quadtable import QUAD_TABLE
from .errors import ConfigError
from .formats import CanonicalTensor3

_SQRT_PI = np.sqrt(np.pi)
_SQRT3 = np.sqrt(3.0)
# ceiling on a requested quadrature rank: the auto ladder stops at 60, and
# a tune evaluates arrays of thousands of points per term
MAX_QUAD_RANK = 256


@dataclass(frozen=True)
class Grid3:
    """Uniform n x n x n grid on the cube [-b, b]^3.

    Node i (0-based) on each axis sits at ``-b + i*h`` with ``h = 2b/(n-1)``,
    so the first and last nodes land on the faces exactly.
    """

    n: int
    b: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ConfigError("grid needs n >= 3 points per axis")
        if not (0 < self.b < np.inf):
            raise ConfigError("box half-width must be positive and finite")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "b", float(self.b))

    @property
    def h(self):
        return 2.0 * self.b / (self.n - 1)

    def coords(self):
        """Node coordinates of one axis, strictly increasing, endpoints exact."""
        return np.linspace(-self.b, self.b, self.n)

    def doubled_coords(self):
        """Axis coordinates of the doubled 2n-point grid, node j at (j - n)h."""
        return (np.arange(2 * self.n) - self.n) * self.h


@dataclass(frozen=True)
class SincQuadrature:
    """Gaussian-sum quadrature for 1/rho on a target interval.

    ``nodes`` (exponents t_k, ascending) and ``weights`` (c_k > 0) satisfy
    ``sup over target_interval of |rho * sum_k c_k exp(-t_k^2 rho^2) - 1|
    <= achieved_relative_error``; the error field stores the measured value.
    """

    nodes: np.ndarray
    weights: np.ndarray
    target_interval: tuple
    achieved_relative_error: float

    def __post_init__(self):
        t = np.asarray(self.nodes, dtype=float)
        c = np.asarray(self.weights, dtype=float)
        if t.shape != c.shape or t.ndim != 1:
            raise ConfigError("nodes and weights must be equal-length vectors")
        if np.any(c <= 0):
            raise ConfigError("quadrature weights must be positive")
        if np.any(t < 0) or np.any(np.diff(t) <= 0):
            raise ConfigError("quadrature nodes must be nonnegative and ascending")
        object.__setattr__(self, "nodes", t)
        object.__setattr__(self, "weights", c)

    @property
    def rank(self):
        return self.nodes.shape[0]


def _gauss(t, c, rho):
    # the one evaluator of sum_k c_k exp(-t_k^2 rho^2), for the quadrature's
    # error profile rho * _gauss - 1 (and the tests' gaussian_sum); exponents
    # are clipped where exp underflows
    X = np.multiply.outer(rho * rho, t * t)
    np.clip(X, None, 700.0, out=X)
    return np.exp(-X) @ c


def _de_nodes(v_lo, v_hi, beta, R):
    # t = exp(psi(v)/2) with psi(v) = v - exp(-v + beta); trapezoid in v
    if R == 1:
        v = np.array([0.5 * (v_lo + v_hi)])
        hv = 1.0
    else:
        v = np.linspace(v_lo, v_hi, R)
        hv = (v_hi - v_lo) / (R - 1)
    e = np.exp(-v + beta)
    psi = v - e
    dpsi = 1.0 + e
    t = np.exp(0.5 * psi)
    c = (2.0 / _SQRT_PI) * hv * 0.5 * dpsi * t
    return t, c


def _tune(R, B, n_samp=3000):
    # coarse scan of the three substitution parameters around -2*ln(B),
    # then a simplex polish on the measured sup relative error; returns
    # (v_lo, v_hi, beta)
    from scipy.optimize import minimize

    rho = np.geomspace(1.0, max(B, 1.0), n_samp)
    lnB = np.log(max(B, 1.0))

    def obj(p):
        v_lo, v_hi, beta = p
        if v_hi <= v_lo:
            return 9.0
        t, c = _de_nodes(v_lo, v_hi, beta, R)
        err = np.max(np.abs(rho * _gauss(t, c, rho) - 1.0))
        return np.log10(err + 1e-300)

    best = None
    for blo in np.linspace(-2.0, 4.0, 7):
        for bhi in np.linspace(1.5, 4.5, 7):
            for bb in np.linspace(-2.0, 3.0, 6):
                p = (-2.0 * lnB - blo, bhi, -2.0 * lnB + bb)
                v = obj(p)
                if best is None or v < best[0]:
                    best = (v, p)
    res = minimize(obj, best[1], method="Nelder-Mead",
                   options={"xatol": 1e-6, "fatol": 1e-6, "maxiter": 800})
    p = res.x if res.fun < best[0] else best[1]
    return tuple(float(v) for v in p)


def canonical_ratio(n):
    """rho_max/rho_min = 2*sqrt(3)*b/h of an n-point grid, computed at b=1.

    The ratio is sqrt(3)*(n-1) for every b; ``QUAD_TABLE`` entries are tuned
    at exactly this value.
    """
    return 2.0 * _SQRT3 / (2.0 / (n - 1))


def _table_params(R, B):
    # a shipped entry applies only where B is its grid's ratio to 1e-12
    for (r, n), p in QUAD_TABLE.items():
        if r == R and abs(B / canonical_ratio(n) - 1.0) <= 1e-12:
            return p
    return None


_TUNE_CACHE = {}


def build_quadrature(R, rho_min, rho_max):
    """Build a rank-R Gaussian-sum quadrature for 1/rho on [rho_min, rho_max].

    The result depends on the interval only through B = rho_max/rho_min
    (nodes and weights scale with 1/rho_min).  The double-exponential
    substitution parameters (v_lo, v_hi, beta) minimize the sup relative
    error on [1, B].  They are read from the shipped table
    ``rstensor._quadtable.QUAD_TABLE``, keyed by (R, n), when B equals the
    ratio sqrt(3)*(n-1) of an n-point grid's cube diagonal 2*sqrt(3)*b to
    its spacing h, within a relative 1e-12.  Otherwise they are tuned by a
    coarse scan and a Nelder-Mead polish (about 0.5 s per call) and cached
    per process.  ``tools/tune_quadrature.py`` regenerates and checks the
    table.  Either way the stored ``achieved_relative_error`` is re-measured on 4096
    log-spaced points of the target interval.

    Parameters
    ----------
    R : int
        Number of Gaussian terms, >= 1.
    rho_min, rho_max : float
        Target interval, 0 < rho_min <= rho_max.

    Returns
    -------
    SincQuadrature
    """
    if int(R) != R or R < 1:
        raise ConfigError("quadrature rank must be a positive integer")
    if not (0 < rho_min <= rho_max):
        raise ConfigError("need 0 < rho_min <= rho_max")
    R = int(R)
    B = rho_max / rho_min
    p = _table_params(R, B)
    if p is None:
        key = (R, round(B, 12))
        if key not in _TUNE_CACHE:
            _TUNE_CACHE[key] = _tune(R, B)
        p = _TUNE_CACHE[key]
    t, c = _de_nodes(p[0], p[1], p[2], R)
    t = t / rho_min
    c = c / rho_min
    rho = np.geomspace(rho_min, rho_max, 4096) if rho_max > rho_min \
        else np.array([rho_min])
    err = float(np.max(np.abs(rho * _gauss(t, c, rho) - 1.0)))
    return SincQuadrature(t, c, (float(rho_min), float(rho_max)), err)


@dataclass(frozen=True)
class ReferenceKernel:
    """Canonical reference tensor of 1/||x|| on the doubled grid.

    ``wide_tensor`` holds the Gaussian columns sampled at the 2n doubled-grid
    nodes per axis (weights c_k in the canonical weight vector, side vectors
    pure Gaussian samples).  After splitting, columns 0..split_index-1 are
    long-range and the rest are short-range with effective support radius
    ``separation_gamma * h / 2``.
    """

    grid: Grid3
    quadrature: SincQuadrature
    wide_tensor: CanonicalTensor3
    split_index: int = None
    separation_gamma: int = None
    eps_support: float = None

    @property
    def rank(self):
        return self.quadrature.rank

    @property
    def n_short(self):
        if self.split_index is None:
            return None
        return self.rank - self.split_index


def assemble_reference_tensor(q, grid):
    """Sample the Gaussian-sum kernel on the doubled grid as a canonical tensor.

    Column k of every side matrix is ``exp(-t_k^2 x^2)`` at the 2n doubled
    coordinates; the weight vector carries c_k.  Evaluating the canonical sum
    at a node with ``h <= ||x|| <= rho_max`` matches 1/||x|| within the
    quadrature's achieved relative error.
    """
    d = grid.doubled_coords()
    V = np.exp(-np.outer(d * d, q.nodes ** 2))
    wide = CanonicalTensor3(q.weights.copy(), (V, V.copy(), V.copy()))
    return ReferenceKernel(grid, q, wide)


def split_reference(kernel, gamma, eps_support):
    """Partition kernel columns into long- and short-range by support radius.

    A column is short-range when its Gaussian has decayed below
    ``eps_support`` at radius ``gamma*h/2``; with ascending exponents this
    makes the long-range set the prefix ``{k : exp(-t_k^2 (gamma h/2)^2) >
    eps_support}``.  The partition is exact: no entry arithmetic happens.

    Returns a new ReferenceKernel with ``split_index`` set.
    """
    if int(gamma) != gamma or gamma < 1:
        raise ConfigError("gamma must be a positive integer of grid units")
    if not (eps_support > 0):
        raise ConfigError("eps_support must be positive")
    gamma = int(gamma)
    h = kernel.grid.h
    if gamma * h > 2.0 * kernel.grid.b:
        raise ConfigError("separation width gamma*h exceeds the box")
    r = 0.5 * gamma * h
    t = kernel.quadrature.nodes
    R_l = int(np.sum(np.exp(-(t * r) ** 2) > eps_support))
    return dataclasses.replace(kernel, split_index=R_l,
                               separation_gamma=gamma,
                               eps_support=float(eps_support))


def gamma_for_separation(grid, radius):
    """Integer grid units giving a short-range support radius of ``radius``.

    The support radius is gamma*h/2, so gamma = round(2*radius/h), at least 2.
    A radius at or beyond the box half-width violates the margin rule for
    any atom, which must stay gamma*h/2 + 2h from each face.
    """
    if not (radius > 0):
        raise ConfigError("separation radius must be positive")
    if not (radius < grid.b):
        raise ConfigError("margin rule violated: separation radius %.3g A "
                          "reaches the box half-width %.3g A" % (radius, grid.b))
    return max(2, int(round(2.0 * radius / grid.h)))
