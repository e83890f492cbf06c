"""Discrete Laplacian and the regularized Poisson solve.

The 3D finite-difference Laplacian with homogeneous Dirichlet closure turns
the assembled potential into a discretized delta: ``delta = -A_lap P``.
``apply_stencil_dense`` is the dense 7-point stencil, and
``poisson_solve`` solves ``(-A_lap + kappa^2) U = f`` directly by
diagonalization in the 3D discrete sine basis, with zero faces or with
given face values lifted into the right-hand side.  The pipeline solves
only with given faces (``--bc analytic``): with zero faces the stencil
image of the densified long part has that part itself as its solution.
``apply_kron_laplacian`` is the same operator on canonical tensors,
mode-wise (rank-3 Kronecker structure), and equals the stencil at every
node.
"""

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dstn

from .errors import ConfigError, DataError, NumericError
from .formats import CanonicalTensor3

_F64 = "<f8"


@dataclass(frozen=True)
class DiscreteLaplacian:
    """7-point Laplacian on a Grid3 with zero Dirichlet ghost values.

    The univariate stencil is ``h^-2 tridiag(1, -2, 1)``; an optional constant
    screening ``kappa`` (1/Angstrom) augments the operator to the screened
    form ``-lap + kappa^2`` used by the solver.
    """

    grid: object
    kappa: float = 0.0

    def __post_init__(self):
        if not (self.kappa >= 0):
            raise ConfigError("screening constant must be nonnegative")


def eigenvalues_1d(n, h):
    """Eigenvalues of the 1D negated Dirichlet Laplacian, (2/h^2)(1-cos(pi j/(n+1)))."""
    j = np.arange(1, n + 1)
    return (2.0 / (h * h)) * (1.0 - np.cos(np.pi * j / (n + 1)))


def _d1(V, h):
    # univariate stencil on the columns of V, ghosts zero
    W = -2.0 * V
    W[:-1] += V[1:]
    W[1:] += V[:-1]
    return W / (h * h)


def apply_stencil_dense(L, v):
    """Dense action of the screened Laplacian, ``lap v - kappa^2 v``."""
    h2 = L.grid.h ** 2
    w = -6.0 * v
    w[:-1] += v[1:]
    w[1:] += v[:-1]
    w[:, :-1] += v[:, 1:]
    w[:, 1:] += v[:, :-1]
    w[:, :, :-1] += v[:, :, 1:]
    w[:, :, 1:] += v[:, :, :-1]
    w /= h2
    if L.kappa > 0:
        w -= (L.kappa ** 2) * v
    return w


def apply_kron_laplacian(t, L):
    """Screened Laplacian action on a canonical tensor, mode-wise.

    Output columns per input column k are (D a1, a2, a3), (a1, D a2, a3),
    (a1, a2, D a3) with D the univariate stencil, so the output rank is
    3 R; when kappa > 0 another R identity-scaled columns with weight
    ``-kappa^2 xi_k`` are appended.  Equals the dense 7-point stencil action
    (minus ``kappa^2`` times the field) at every node.
    """
    n = L.grid.n
    if t.shape != (n, n, n):
        raise ConfigError("tensor mode sizes %r do not match the grid" % (t.shape,))
    if t.rank == 0:
        return t
    h = L.grid.h
    A1, A2, A3 = t.factors
    D1, D2, D3 = _d1(A1, h), _d1(A2, h), _d1(A3, h)
    w = [t.weights] * 3
    F1 = [D1, A1, A1]
    F2 = [A2, D2, A2]
    F3 = [A3, A3, D3]
    if L.kappa > 0:
        w.append(-(L.kappa ** 2) * t.weights)
        F1.append(A1)
        F2.append(A2)
        F3.append(A3)
    return CanonicalTensor3(np.concatenate(w),
                            (np.concatenate(F1, axis=1),
                             np.concatenate(F2, axis=1),
                             np.concatenate(F3, axis=1)))


@dataclass
class GridFunction3:
    """Dense scalar field on a Grid3 (potential in charge/length units)."""

    grid: object
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.grid.n
        if self.values.shape != (n, n, n):
            raise ConfigError("field shape %r does not match grid n=%d"
                              % (self.values.shape, n))
        if not np.all(np.isfinite(self.values)):
            raise NumericError("field contains non-finite values")


def poisson_solve(rhs, L, bc="homogeneous", bc_field=None):
    """Solve ``(-lap + kappa^2) u = rhs`` with Dirichlet boundary data.

    Direct diagonalization in the 3D discrete sine basis.

    Parameters
    ----------
    rhs : dense (n, n, n) array
    L : DiscreteLaplacian
    bc : {"homogeneous", "trace"}
        Homogeneous ghosts, or face values taken from ``bc_field`` with the
        interior solved after moving the face data into the right-hand side.
    bc_field : dense (n, n, n) array, required when bc="trace"; only its
        faces are read.

    Returns
    -------
    GridFunction3 with ``meta["residual"]`` set.
    """
    n, h = L.grid.n, L.grid.h
    f = np.asarray(rhs, dtype=float)
    if f.shape != (n, n, n):
        raise ConfigError("right-hand side shape does not match the grid")

    if bc == "homogeneous":
        u = _solve_spectral(f, n, h, L.kappa)
        res = _residual(L, u, f)
        return GridFunction3(L.grid, u, {"residual": res, "bc": bc,
                                         "kappa": L.kappa})
    if bc != "trace":
        raise ConfigError("bc must be 'homogeneous' or 'trace'")
    if bc_field is None:
        raise ConfigError("bc='trace' needs bc_field")
    g = np.asarray(bc_field, dtype=float)
    if g.shape != (n, n, n):
        raise ConfigError("boundary field shape does not match the grid")
    # move the known face values into the interior right-hand side
    fi = f[1:-1, 1:-1, 1:-1].copy(order="K")
    h2 = h * h
    fi[0] += g[0, 1:-1, 1:-1] / h2
    fi[-1] += g[-1, 1:-1, 1:-1] / h2
    fi[:, 0] += g[1:-1, 0, 1:-1] / h2
    fi[:, -1] += g[1:-1, -1, 1:-1] / h2
    fi[:, :, 0] += g[1:-1, 1:-1, 0] / h2
    fi[:, :, -1] += g[1:-1, 1:-1, -1] / h2
    ui = _solve_spectral(fi, n - 2, h, L.kappa)
    u = g.copy(order="K")
    u[1:-1, 1:-1, 1:-1] = ui
    # residual over the interior equations actually solved
    res_f = apply_stencil_dense(DiscreteLaplacian(L.grid, L.kappa), u)
    num = np.linalg.norm((-res_f - f)[1:-1, 1:-1, 1:-1])
    den = np.linalg.norm(fi)
    res = float(num / den) if den > 0 else 0.0
    return GridFunction3(L.grid, u, {"residual": res, "bc": bc,
                                     "kappa": L.kappa})


def _solve_spectral(f, n, h, kappa):
    if f.flags.f_contiguous:
        # the operator is the same along every axis: solve the C-ordered
        # transpose, and the result keeps the layout of f
        return _solve_spectral(f.T, n, h, kappa).T
    lam = eigenvalues_1d(n, h)
    workers = len(os.sched_getaffinity(0))
    F = dstn(f, type=1, norm="ortho", workers=workers)
    plane = lam[:, None] + lam[None, :] + kappa * kappa
    for i in range(n):
        F[i] /= lam[i] + plane
    return dstn(F, type=1, norm="ortho", workers=workers)


def _residual(L, u, f):
    den = np.linalg.norm(f)
    if den == 0:
        return 0.0
    return float(np.linalg.norm(-apply_stencil_dense(L, u) - f) / den)


def compose_total(u_long, short):
    """Total potential ``u_long + short``: one add, in their memory layout."""
    if u_long.grid != short.grid:
        raise ConfigError("long and short field grids differ")
    total = np.add(u_long.values, short.values, order="K")
    return GridFunction3(u_long.grid, total, dict(u_long.meta, composed=True))


def save_field(f, path):
    """Write a field dump: raw little-endian float64, mode-1 fastest, plus a
    ``path + '.info'`` text sidecar with grid and solver metadata.

    A Fortran-ordered field, as every field the pipeline builds is, is
    written from its own memory with no copy; a C-ordered one is copied
    into that layout first.  ``residual`` and ``quad_rank`` are written
    when ``f.meta`` has them: the residual of a Poisson solve and the
    quadrature rank of the run.
    """
    with open(path, "wb") as fh:
        # the C-contiguous transpose of the F-ordered values is their bytes
        # in mode-1-fastest order
        fh.write(np.asfortranarray(f.values, dtype=_F64).T)
    g = f.grid
    lines = ["n=%d" % g.n, "b=%.17g" % g.b, "h=%.17g" % g.h,
             "units=charge/angstrom", "order=mode1-fastest",
             "bc=%s" % f.meta.get("bc", "homogeneous")]
    if "residual" in f.meta:
        lines.append("residual=%.17g" % f.meta["residual"])
    if "quad_rank" in f.meta:
        lines.append("quad_rank=%d" % f.meta["quad_rank"])
    with open(str(path) + ".info", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path):
    """Read a field dump written by ``save_field``.

    Raises DataError when the ``.info`` sidecar lacks a numeric ``n`` or
    ``b`` (or gives values no grid has), has a ``residual`` that is not a
    number or a ``quad_rank`` that is not a positive integer, or the dump
    does not hold n^3 finite float64 values.
    """
    from .grid_kernel import Grid3
    info_path = str(path) + ".info"
    info = {}
    try:
        with open(info_path) as fh:
            for line in fh:
                if "=" in line:
                    k, v = line.strip().split("=", 1)
                    info[k] = v
        grid = Grid3(int(info["n"]), float(info["b"]))
        meta = {"bc": info.get("bc", "homogeneous")}
        if "residual" in info:
            meta["residual"] = float(info["residual"])
        if "quad_rank" in info:
            meta["quad_rank"] = int(info["quad_rank"])
            if meta["quad_rank"] < 1:
                raise ValueError("quad_rank must be positive")
    except (KeyError, ValueError, ConfigError) as e:
        raise DataError("malformed %s: %s %s"
                        % (info_path, type(e).__name__, e))
    n = grid.n
    size = os.path.getsize(path)
    if size != 8 * n ** 3:
        raise DataError("%s holds %d bytes, n=%d needs %d"
                        % (path, size, n, 8 * n ** 3))
    vals = np.fromfile(path, dtype=_F64).reshape((n, n, n), order="F")
    if not np.all(np.isfinite(vals)):
        raise DataError("%s holds non-finite values" % path)
    return GridFunction3(grid, vals, meta)
