"""Discrete Laplacian and the regularized Poisson solve.

The 3D finite-difference Laplacian with homogeneous Dirichlet closure turns
the assembled potential into a discretized delta: ``delta = -A_lap P``.
``apply_stencil_dense`` is the dense 7-point stencil, and ``poisson_solve``
solves ``(-A_lap + kappa^2) U = f`` on the interior nodes directly by
diagonalization in the 3D discrete sine basis, the face layers of its
right-hand side being the Dirichlet values.  The pipeline solves only
with the exact faces of ``--bc analytic``: with zero faces the stencil
image of the densified long part has that part itself as its solution.
``apply_kron_laplacian`` is the same operator on canonical tensors,
mode-wise (rank-3 Kronecker structure), and equals the stencil at every
node.  The sine transforms are scipy's, on as many threads as numpy's
BLAS (so ``OPENBLAS_NUM_THREADS=1`` makes them serial); ``dstn`` imports
``scipy.fft`` at its first call, so the paths that never solve load no
scipy.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .assembly import _window_adder
from .errors import ConfigError, DataError, NumericError
from .formats import CanonicalTensor3, _blas_threads, _on_slabs

_F64 = "<f8"
_BLOCK = 2 ** 18  # floats in a block of compose_total's pass (2 MiB)


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
        # one i3-plane at a time: no temporary of the input's size
        for i3 in range(w.shape[2]):
            w[:, :, i3] -= (L.kappa ** 2) * v[:, :, i3]
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
        if not _all_finite(self.values):
            raise NumericError("field contains non-finite values")


def _all_finite(a):
    # in blocks of 2^16 values in memory order, shared out by _on_slabs:
    # np.isfinite of the whole field would be an n^3 bool temporary
    flat, k = a.ravel(order="K"), 2 ** 16
    ok = np.ones(-(-flat.size // k), dtype=bool)

    def blocks(j0, j1):
        for j in range(j0, j1):
            ok[j] = np.isfinite(flat[j * k:(j + 1) * k]).all()

    _on_slabs(blocks, ok.size)
    return bool(ok.all())


def poisson_solve(rhs, L):
    """Solve ``(-lap + kappa^2) u = f`` for the interior of a dense (n, n, n)
    ``rhs`` by diagonalization in the 3D discrete sine basis.

    The six face layers of ``rhs`` are the Dirichlet values: the result
    keeps them bit for bit, and they are lifted into its interior, the
    right-hand side f of the (n-2)^3 system.  Returns a GridFunction3 in
    the layout of ``rhs``, with ``meta["bc"]`` "trace" and
    ``meta["residual"]`` = ``||stencil(u_i) + f_i|| / ||f_i||``, u_i the
    interior solution and f_i the lifted right-hand side.
    """
    n, h = L.grid.n, L.grid.h
    g = np.asarray(rhs, dtype=float)
    if g.shape != (n, n, n):
        raise ConfigError("right-hand side shape does not match the grid")
    fi = g[1:-1, 1:-1, 1:-1].copy(order="K")
    for ax in range(3):
        fa, ga = np.moveaxis(fi, ax, 0), np.moveaxis(g, ax, 0)
        for end in (0, -1):
            fa[end] += ga[end, 1:-1, 1:-1] / (h * h)
    ui = _solve_spectral(fi, h, L.kappa)
    # the stencil with zero ghosts is the operator of the lifted system
    r = apply_stencil_dense(L, ui)
    r += fi
    den = np.linalg.norm(fi)
    res = float(np.linalg.norm(r) / den) if den > 0 else 0.0
    del r, fi  # before the n^3 result is allocated
    u = g.copy(order="K")
    u[1:-1, 1:-1, 1:-1] = ui
    return GridFunction3(L.grid, u, {"residual": res, "bc": "trace"})


def dstn(x, **kwargs):
    """``scipy.fft.dstn``, imported at the first call.  ``_solve_spectral``
    looks this name up at each call, so a wrapper set on ``solver.dstn``
    sees both transforms of a solve."""
    from scipy import fft
    return fft.dstn(x, **kwargs)


def _solve_spectral(f, h, kappa):
    if f.flags.f_contiguous and not f.flags.c_contiguous:
        # the operator is the same along every axis: solve the C-ordered
        # transpose of an F-ordered f, and the result keeps its layout (a
        # single unknown is both, and is solved as it is)
        return _solve_spectral(f.T, h, kappa).T
    n = f.shape[0]
    lam = eigenvalues_1d(n, h)
    workers = _blas_threads()
    F = dstn(f, type=1, norm="ortho", workers=workers)
    plane = lam[:, None] + lam[None, :] + kappa * kappa
    for i in range(n):
        F[i] /= lam[i] + plane
    return dstn(F, type=1, norm="ortho", workers=workers)


def compose_total(u_long, rs):
    """Total potential: the short part of ``rs`` added into the array of
    ``u_long``, which so becomes the total's.  Each ``_on_slabs`` worker
    takes its slab of mode-3 planes ``max(1, _BLOCK // n^2)`` planes at a
    time: it zeroes its block buffer, adds the template windows that
    reach the block into it in atom order (``scatter_short``'s
    arithmetic) and adds the buffer into the block, so every node gets
    the bits of ``u_long + scatter_short(rs, zeros)`` at any worker count
    and no n^3 short field exists."""
    if u_long.grid != rs.grid:
        raise ConfigError("long field and RS tensor grids differ")
    a, add = u_long.values, _window_adder(rs)
    n = a.shape[2]
    k = max(1, _BLOCK // n ** 2)

    def slab(z0, z1):
        buf = np.empty((n, n, min(k, z1 - z0)), order="F")
        for b0 in range(z0, z1, k):
            b1 = min(b0 + k, z1)
            s = buf[:, :, :b1 - b0]
            s.fill(0.0)
            add(s, b0, b1)
            np.add(a[:, :, b0:b1], s, out=a[:, :, b0:b1])

    _on_slabs(slab, n)
    return GridFunction3(u_long.grid, a, dict(u_long.meta, composed=True))


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
    number or a ``quad_rank`` that is not an integer in [1,
    ``MAX_QUAD_RANK``], or the dump does not hold n^3 finite float64 values.
    """
    from .grid_kernel import MAX_QUAD_RANK, Grid3
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
            if not 1 <= meta["quad_rank"] <= MAX_QUAD_RANK:
                raise ValueError("quad_rank must lie in [1, %d]" % MAX_QUAD_RANK)
    except (KeyError, ValueError, ConfigError) as e:
        raise DataError("malformed %s: %s %s"
                        % (info_path, type(e).__name__, e))
    n = grid.n
    size = os.path.getsize(path)
    if size != 8 * n ** 3:
        raise DataError("%s holds %d bytes, n=%d needs %d"
                        % (path, size, n, 8 * n ** 3))
    vals = np.fromfile(path, dtype=_F64).reshape((n, n, n), order="F")
    try:
        return GridFunction3(grid, vals, meta)
    except NumericError:
        raise DataError("%s holds non-finite values" % path) from None
