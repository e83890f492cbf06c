"""Reference arithmetic that only the tests use.

Each helper is a plain, slow or dense counterpart of something the package
does in compressed form: the pointwise Gaussian sum of a quadrature, the
Gaussian-sum oracle on its raw tables, batch
and slice evaluation of canonical tensors, the explicit delta of the
short-range part, the O(n^2)-per-line sine transform, the Poisson solve
on all nodes with zero ghosts, single shifted kernel windows, a split at a
fixed long-range count, reading back an exported CSV slice, and serial
whole-grid counterparts of the passes that run on slabs of planes: the
short-range scatter and the error metrics of compare.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from rstensor import (CanonicalTensor3, ConfigError, DiscreteLaplacian,
                      Grid3, GridFunction3, apply_kron_laplacian,
                      poisson_solve, zero_canonical)
from rstensor.formats import _plane_sum, dense, shift_sum
from rstensor.grid_kernel import _gauss


def gaussian_sum(q, rho):
    """Evaluate sum_k c_k exp(-t_k^2 rho^2) at scalar or array rho."""
    return _gauss(q.nodes, q.weights, np.asarray(rho, dtype=float))


def raw_gaussian_field(positions, charges, grid, q):
    """``gaussian_field`` on the raw tables exp(-t_k^2 (x - u)^2), without
    the floor: entries below 2^-256 and subnormal ones are kept."""
    x, t2 = grid.coords(), q.nodes[:, None, None] ** 2
    return _plane_sum(lambda l, u: np.exp(-t2 * (x - u[:, None]) ** 2),
                      q.weights, positions, charges)


def negate(t):
    """Canonical tensor with all weights negated."""
    return CanonicalTensor3(-t.weights, t.factors)


def eval_entries(t, idx):
    """Evaluate a batch of entries; ``idx`` is an (S, 3) integer array."""
    idx = np.asarray(idx, dtype=int).reshape(-1, 3)
    if t.rank == 0 or idx.size == 0:
        return np.zeros(len(idx))
    for ax in range(3):
        if idx[:, ax].min() < 0 or idx[:, ax].max() >= t.shape[ax]:
            raise ConfigError("entry index out of range")
    return np.einsum("sk,sk,sk,k->s",
                     t.factors[0][idx[:, 0]],
                     t.factors[1][idx[:, 1]],
                     t.factors[2][idx[:, 2]],
                     t.weights)


def dense_slice(t, axis, index):
    """One full 2D slice of a canonical tensor, fixing ``axis`` (0..2) at ``index``."""
    if axis not in (0, 1, 2):
        raise ConfigError("axis must be 0, 1 or 2")
    if not (0 <= index < t.shape[axis]):
        raise ConfigError("slice index out of range")
    rest = [l for l in range(3) if l != axis]
    if t.rank == 0:
        return np.zeros((t.shape[rest[0]], t.shape[rest[1]]))
    w = t.weights * t.factors[axis][index]
    return np.einsum("k,ak,bk->ab", w, t.factors[rest[0]], t.factors[rest[1]])


def canonical_axpy(alpha, x, y):
    """Return alpha*x + y as a canonical tensor of rank R_x + R_y."""
    if x.shape != y.shape:
        raise ConfigError("mode sizes differ: %r vs %r" % (x.shape, y.shape))
    w = np.concatenate([alpha * x.weights, y.weights])
    A = tuple(np.concatenate([x.factors[l], y.factors[l]], axis=1) for l in range(3))
    return CanonicalTensor3(w, A)


def frobenius_norm(t):
    """Frobenius norm via Gram matrices of the side matrices, O(R^2 n)."""
    if t.rank == 0:
        return 0.0
    G = t.factors[0].T @ t.factors[0]
    G = G * (t.factors[1].T @ t.factors[1])
    G = G * (t.factors[2].T @ t.factors[2])
    s = float(t.weights @ G @ t.weights)
    # cancellation can leave a tiny negative residue
    return np.sqrt(max(s, 0.0))


@dataclass
class DeltaSplit:
    """Long- and short-range parts of the discretized delta.

    ``delta_long`` has rank at most 3 R_L (+R_L with screening) and stays
    localized near the atoms; ``delta_short`` collects the compactly
    supported per-atom contributions.  Both are the plain negated Laplacian
    action, no 4*pi factor, so solving ``(-lap+kappa^2) U = delta_long``
    returns the long-range potential in the same units as the assembly.
    """

    delta_long: CanonicalTensor3
    delta_short: CanonicalTensor3


def _short_collective(rs):
    # per-atom template columns embedded into full-grid side vectors
    n = rs.grid.n
    R0 = rs.short_reference.rank
    if R0 == 0 or not rs.short_list:
        return zero_canonical((n, n, n))
    r = rs.support_radius
    N = len(rs.short_list)
    w = np.empty(N * R0)
    A = [np.zeros((n, N * R0)) for _ in range(3)]
    for a, (c, z) in enumerate(rs.short_list):
        sl = slice(a * R0, (a + 1) * R0)
        w[sl] = z * rs.short_reference.weights
        for l in range(3):
            lo = c[l] - r
            beg = max(lo, 0)
            end = min(lo + 2 * r + 1, n)
            A[l][beg:end, sl] = rs.short_reference.factors[l][beg - lo:end - lo]
    return CanonicalTensor3(w, tuple(A))


def build_delta_split(rs, L):
    """Discretized delta of a range-separated potential, split long/short.

    Both parts are the negated Kronecker-Laplacian action on the respective
    potential parts; the short part materializes each atom's compact template
    as full-grid canonical columns, N*R0 of them.
    """
    if rs.grid.n != L.grid.n or abs(rs.grid.b - L.grid.b) > 1e-12:
        raise ConfigError("tensor and operator grids differ")
    return DeltaSplit(negate(apply_kron_laplacian(rs.long, L)),
                      negate(apply_kron_laplacian(_short_collective(rs), L)))


def dst1_direct(v):
    """O(n^2) per line reference transform: orthonormal type-I sine matrix."""
    n = v.shape[0]
    j = np.arange(1, n + 1)
    S = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))
    out = np.tensordot(S, v, axes=(1, 0))
    out = np.moveaxis(np.tensordot(S, np.moveaxis(out, 1, 0), axes=(1, 0)), 0, 1)
    return np.moveaxis(np.tensordot(S, np.moveaxis(out, 2, 0), axes=(1, 0)), 0, 2)


def zero_ghost_solve(f, L):
    """Solve ``(-lap + kappa^2) u = f`` on all n^3 nodes of ``L.grid`` with
    zero ghosts: ``poisson_solve`` on the grid one node wider on each
    side, ``f`` padded with zero faces.  The operator is the same, but the
    padded grid's h, ``2 (b + h) / (n + 1)``, may differ from ``L.grid.h``
    in the last bit.  Returns the interior, in the layout of ``f``, with
    the solve's meta.
    """
    n, g = L.grid.n, L.grid
    f = np.asarray(f, dtype=float)
    order = "F" if f.flags.f_contiguous and not f.flags.c_contiguous else "C"
    F = np.zeros((n + 2,) * 3, order=order)
    F[1:-1, 1:-1, 1:-1] = f
    u = poisson_solve(F, DiscreteLaplacian(Grid3(n + 2, g.b + g.h), L.kappa))
    return GridFunction3(g, u.values[1:-1, 1:-1, 1:-1].copy(order="K"),
                         u.meta)


def shift_and_window(kernel, center, part="both"):
    """Window the doubled-grid reference tensor so its center lands on a node.

    The result's entry at node ``j`` equals the reference tensor's entry at
    displacement ``j - center``; ``part`` restricts the columns to the
    long-range prefix ("long"), the short-range suffix ("short") or keeps
    all of them ("both").  Returns a CanonicalTensor3 on the n-grid.
    """
    n = kernel.grid.n
    center = tuple(int(v) for v in center)
    for cl in center:
        if not (0 <= cl < n):
            raise ConfigError("window center %r outside the grid" % (center,))
    if part == "both":
        cols = slice(0, kernel.rank)
    elif part in ("long", "short"):
        if kernel.split_index is None:
            raise ConfigError("kernel is not split; cannot select %r columns" % part)
        cols = slice(0, kernel.split_index) if part == "long" \
            else slice(kernel.split_index, kernel.rank)
    else:
        raise ConfigError("part must be 'long', 'short' or 'both'")
    t = kernel.wide_tensor
    ref = CanonicalTensor3(t.weights[cols], tuple(A[:, cols] for A in t.factors))
    return shift_sum(ref, [center], [1.0])


def split_by_count(kernel, n_long, gamma):
    """Split kernel columns at a fixed long-range count.

    Used for rank-compression studies where the number of long-range columns
    is prescribed directly; ``gamma`` still sets the short-range support
    radius used by assembly and evaluation.  The implied support threshold
    (value of the first short column at radius gamma*h/2) is recorded in
    ``eps_support``.
    """
    if int(n_long) != n_long or not (0 <= n_long <= kernel.rank):
        raise ConfigError("long-range count must lie in [0, R]")
    if int(gamma) != gamma or gamma < 1:
        raise ConfigError("gamma must be a positive integer of grid units")
    n_long = int(n_long)
    gamma = int(gamma)
    t = kernel.quadrature.nodes
    r = 0.5 * gamma * kernel.grid.h
    eps = float(np.exp(-(t[n_long] * r) ** 2)) if n_long < kernel.rank else 0.0
    return dataclasses.replace(kernel, split_index=n_long,
                               separation_gamma=gamma, eps_support=eps)


def import_slice(path):
    """Read back a CSV slice written by ``rstensor.export_slice``."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def scatter_short_serial(t, out, scale=1.0):
    """``scatter_short`` as one loop over the windows, each clipped to the
    grid only."""
    n, r = t.grid.n, t.support_radius
    T = dense(t.short_reference)
    for c, w in t.short_list:
        lo = [ci - r for ci in c]
        a = [max(l, 0) for l in lo]
        b = [min(l + 2 * r + 1, n) for l in lo]
        out[a[0]:b[0], a[1]:b[1], a[2]:b[2]] += (scale * w) * T[
            a[0] - lo[0]:b[0] - lo[0], a[1] - lo[1]:b[1] - lo[1],
            a[2] - lo[2]:b[2] - lo[2]]
    return out


def compare_reference(a, b, centers, listed, h):
    """The metrics of ``compare(a, b)`` on a grid of spacing h, keyed like
    ``ErrorReport``, in plain whole-grid numpy: the ``listed`` nodes leave
    every metric, the radius-1 cores of the ``centers`` only the
    core-excluding max."""
    core = np.zeros(a.shape, dtype=bool)
    for c in centers:
        core[tuple(slice(max(ci - 1, 0), ci + 2) for ci in c)] = True
    keep = np.ones(a.shape, dtype=bool)
    for c in listed:
        keep[c] = False
    diff = a - b
    ss = np.sum(diff[keep] ** 2)
    ref_ss = np.sum(b[keep] ** 2)
    return {"discrete_l2": np.sqrt(h ** 3 * ss), "rss": np.sqrt(ss),
            "relative_l2": np.sqrt(ss / ref_ss) if ref_ss > 0 else 0.0,
            "max_abs": np.max(np.abs(diff[keep]), initial=0.0),
            "max_abs_excluding_cores": np.max(np.abs(diff[keep & ~core]),
                                              initial=0.0)}
