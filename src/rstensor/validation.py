"""Brute-force reference fields and error metrics.

The direct-sum oracle evaluates the collective potential either with the
exact radial kernel 1/r (an O(N n^3) loop over atoms) or with the same
Gaussian-sum kernel the tensor pipeline uses; the latter is the default
comparison target, so reported errors isolate compression and solver terms
from quadrature error.  The Gaussian sum adds the atoms one plane (distinct
third coordinate) at a time, O(N R n^2 + R Z n^3) for Z planes; Z is at
most n for grid-snapped charges, whatever N is, and its GEMMs run on
numpy's BLAS: neither oracle loads scipy.  Its tables zero the Gaussians
below ``_FLOOR``, which keeps subnormal floats, slow on x86 CPUs, out of
those GEMMs.  ``compare`` reads the two fields one chunk of mode-2 rows
at a time, about 2^21 values a chunk, and each chunk a block of planes at
a time, the blocks shared out among the threads of ``_on_slabs``, so it
allocates no n^3 array: each block masks only the nodes that reach it.
``_oracle_rows`` serves either oracle chunk by chunk, the Gaussian sum
tabulating its mode-2 factors at the chunk's rows only, so ``run`` and
``validate`` compare against an oracle that never exists as an n^3 array
or mask; ``direct_sum_oracle`` evaluates it over all rows at once.
"""

from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import ConfigError, NumericError
from .formats import _on_slabs, _plane_sum
from .solver import GridFunction3

# F: gaussian_field zeroes its table entries below it.  Three kept entries
# make a product of at least 2^-768, normal times any |w_k z_a| >= 2^-250;
# a node loses less than F sum|w_k| sum|z_a|, half an ulp of 2^53 F
# sum|w_k| sum|z_a|: 2e-57 on a 2000-atom cluster, whose |oracle| > 1e-6
_FLOOR = 2.0 ** -256


@dataclass
class ErrorReport:
    """Error metrics of one field against a reference.

    ``discrete_l2`` is sqrt(h^3 * sum diff^2) (potential * Angstrom^(3/2));
    ``rss`` is the unweighted root-sum-square; ``relative_l2`` is the ratio
    of difference to reference norms.  Nodes where the reference is
    undefined are left out of all five metrics; nodes within one grid unit
    (Chebyshev) of an atom center are also left out of
    ``max_abs_excluding_cores``.
    """

    discrete_l2: float
    max_abs: float
    max_abs_excluding_cores: float
    relative_l2: float
    rss: float
    n: int
    b: float
    config: dict = dfield(default_factory=dict)

    def text(self):
        """Line-oriented human-readable block."""
        lines = ["error report (n=%d, b=%.6g)" % (self.n, self.b),
                 "  discrete L2 (h^3-weighted): %.6e" % self.discrete_l2,
                 "  unweighted root-sum-square: %.6e" % self.rss,
                 "  relative L2:                %.6e" % self.relative_l2,
                 "  max abs:                    %.6e" % self.max_abs,
                 "  max abs excluding cores:    %.6e" % self.max_abs_excluding_cores]
        for k in sorted(self.config):
            lines.append("  %s: %s" % (k, self.config[k]))
        return "\n".join(lines)

    def keyvalues(self):
        """Machine-readable key=value lines."""
        pairs = [("n", "%d" % self.n), ("b", "%.17g" % self.b),
                 ("discrete_l2", "%.17g" % self.discrete_l2),
                 ("rss", "%.17g" % self.rss),
                 ("relative_l2", "%.17g" % self.relative_l2),
                 ("max_abs", "%.17g" % self.max_abs),
                 ("max_abs_excluding_cores", "%.17g" % self.max_abs_excluding_cores)]
        pairs += [(k, str(self.config[k])) for k in sorted(self.config)]
        return "\n".join("%s=%s" % kv for kv in pairs) + "\n"


def gaussian_field(positions, charges, grid, q, rows=None, tables=None):
    """Dense Gaussian-sum potential of point charges at arbitrary positions.

    The factors ``exp(-t_k^2 (x - u)^2)`` are tabulated once per term k and
    distinct coordinate u of each mode; ``_plane_sum`` sums them plane by
    plane (distinct third coordinate) and returns the Fortran-ordered
    (mode-1 fastest) field, so the largest temporary besides it is one
    block of at most n^3 two-mode products; the mode-1 table carries the
    weights w_k.  Entries below ``_FLOOR`` = 2^-256 are zeroed before
    that, so no subnormal float slows the GEMMs; a node moves
    by less than 2^-256 sum_k |w_k| sum_a |z_a|.  ``rows``, a range of
    mode-2 nodes, gives the field over those rows only, shape (n,
    len(rows), n): the mode-2 factors are tabulated at them alone.
    ``tables`` maps 0 and 2 to the mode-1 and mode-3 tables of the same
    positions, grid and q (``_gaussian_table``), so that a caller summing
    chunk after chunk of rows tabulates those two modes once.
    """
    x, tables = grid.coords(), tables or {}
    xs = (x, x if rows is None else x[rows], x)
    return _plane_sum(lambda l, u: tables[l] if l in tables
                      else _gaussian_table(q, xs[l], u, l),
                      None, positions, charges)


def _gaussian_table(q, x, u, l):
    # (R, len(u), len(x)) factors exp(-t_k^2 (x - u)^2) of table l, zeroed
    # below _FLOOR; table 0's are weighted by w_k in place, as _plane_sum
    # takes them with no weights of its own
    t = np.exp(-q.nodes[:, None, None] ** 2 * (x - u[:, None]) ** 2)
    t[t < _FLOOR] = 0.0  # a bool mask: no float temporary
    if l == 0:
        t *= q.weights[:, None, None]
    return t


def direct_sum_oracle(m, grid, kernel="gaussian_sum", quad=None):
    """Collective potential by direct summation over atoms.

    Parameters
    ----------
    m : Molecule
    grid : Grid3
    kernel : {"gaussian_sum", "exact_newton"}
        Gaussian-sum mode needs ``quad`` and is the consistent comparison
        target for the tensor pipeline; exact mode computes sum_v z_v / r and
        additionally carries the quadrature error when compared against
        tensor output.
    quad : SincQuadrature, required for gaussian_sum.

    Returns
    -------
    GridFunction3; in exact mode, nodes coinciding with an atom, where 1/r
    is undefined, are set to 0 and listed in ``meta["excluded_nodes"]``,
    an (M, 3) node array, which ``compare`` leaves out of every metric.
    This is the oracle that ``compare`` streams (``_oracle_rows``) built
    over all rows in one call: where ``compare`` reads it in one chunk
    (n <= 146) the two have the same bits, elsewhere the Gaussian sum's
    agree to roundoff.
    """
    vals, undefined = _oracle_rows(m, grid, kernel, quad)(0, grid.n)
    meta = {"kernel": kernel}
    if kernel == "exact_newton":
        meta["excluded_nodes"] = undefined
    return GridFunction3(grid, vals, meta)


def _oracle_rows(m, grid, kernel="gaussian_sum", quad=None):
    """The oracle of ``direct_sum_oracle`` as a function ``rows(r0, r1)``
    that ``compare`` reads one chunk of mode-2 rows at a time: it returns
    the oracle's values over the rows r0 <= i2 < r1, Fortran-ordered with
    shape (n, r1 - r0, n), and the (M, 3) grid nodes among them where the
    oracle is undefined (the exact kernel's atom nodes), so no n^3 array
    or mask of the oracle exists.
    """
    if kernel == "gaussian_sum":
        if quad is None:
            raise ConfigError("gaussian_sum oracle needs a quadrature")
        # the mode-1 and mode-3 tables are those of every chunk
        x = grid.coords()
        fixed = {l: _gaussian_table(quad, x, np.unique(m.positions[:, l]), l)
                 for l in (0, 2)}
        return lambda r0, r1: (gaussian_field(m.positions, m.charges, grid,
                                              quad, rows=range(r0, r1),
                                              tables=fixed), ())
    if kernel != "exact_newton":
        raise ConfigError("unknown oracle kernel %r" % kernel)
    x = grid.coords()

    def rows(r0, r1):
        out, singular = _coulomb_sum(m, x, x[r0:r1], x, tol=1e-9 * grid.h)
        return out, np.argwhere(singular) + (0, r0, 0)

    return rows


def _coulomb_sum(m, x1, x2, x3, kappa=0.0, tol=0.0):
    """sum_a z_a exp(-kappa r_a) / r_a at the nodes (x1[i], x2[j], x3[k]),
    for the exact oracle and the ``--bc analytic`` faces alike.

    Returns ``(values, mask)``, Fortran-ordered: nodes within ``tol`` of an
    atom, where 1/r is undefined, are 0 in ``values`` and True in ``mask``.
    """
    shape = (len(x1), len(x2), len(x3))
    out = np.zeros(shape, order="F")
    singular = np.zeros(shape, dtype=bool, order="F")
    for pos, z in zip(m.positions, m.charges):
        d1 = (x1 - pos[0]) ** 2
        d2 = (x2 - pos[1]) ** 2
        d3 = (x3 - pos[2]) ** 2
        # built on reversed axes, so that its transpose is mode-1 fastest
        r = ((d1[None, None, :] + d2[None, :, None]) + d3[:, None, None]).T
        hit = r < tol ** 2
        singular |= hit
        r[hit] = 1.0
        np.sqrt(r, out=r)
        w = z * np.exp(-kappa * r) if kappa > 0 else z
        out += np.divide(w, r, out=r)
        del r, hit, w  # freed before the next atom's are made
    out[singular] = 0.0
    return out, singular


def _chunks(n):
    # the chunks (r0, r1) of mode-2 rows that compare reads, set by n
    # alone: the rows shared out evenly among the whole number of chunks
    # nearest n^3 / 2^21, at least one and at most n, so a chunk holds
    # about 2^21 values (16 MiB), under 1.5 times that plus a row, and
    # n <= 146 makes one chunk
    k = max(1, min(n, round(n ** 3 / 2 ** 21)))
    return [(n * j // k, n * (j + 1) // k) for j in range(k)]


def compare(a, b, exclude_centers=None, config=None):
    """Error metrics of field ``a`` against reference ``b``.

    ``b`` is a GridFunction3 or a function ``b(r0, r1)``, as
    ``_oracle_rows`` makes, that returns the reference over the mode-2 rows
    r0 <= i2 < r1, an (n, r1 - r0, n) array, and the (M, 3) nodes among
    them where it is undefined.  Both are read one chunk of rows at a time,
    so a reference given as a function is never held whole; a GridFunction3
    is sliced, its undefined nodes listed in ``b.meta["excluded_nodes"]``
    (the exact oracle's atom nodes, stored as 0).  Each chunk is read a
    block of i3 planes at a time, each block's difference formed in its
    worker's buffer.  Undefined nodes drop out of every metric.
    ``exclude_centers`` lists node index triples (atom centers); the nodes
    within one grid unit (Chebyshev) of any of them, the singular cores,
    drop out of ``max_abs_excluding_cores`` only.  Both lists are (M, 3)
    node arrays or sequences of triples in [0, n)^3 (else
    ``ConfigError``), and each block masks only those of their nodes that
    reach it.
    """
    if callable(b):
        g, rows = a.grid, b
    elif a.grid != b.grid:
        raise ConfigError("fields live on different grids")
    else:
        g, rows = b.grid, _sliced(b)
    n = g.n
    cores = _by_plane(exclude_centers, n, "exclude_centers")
    # each chunk in blocks of k planes, shared out by _on_slabs: a block
    # holds at most max(1, 2^15 // n^2) planes' worth of nodes (256 KiB of
    # floats, or one plane when a plane is larger), set by n alone, and
    # goes through its worker's buffer, so W workers hold W of them; its
    # undefined nodes are zeroed first, its core nodes once the block's
    # sums and full-grid max are taken.  part[j] holds block j's (ref_ss,
    # ss, max_abs, max_excl), combined in block order below, so the report
    # has the same bits at any worker count
    size, part = max(1, 2 ** 15 // n ** 2) * n * n, []
    for r0, r1 in _chunks(n):
        ref, undefined = rows(r0, r1)
        undefined = _by_plane(undefined, n, "excluded_nodes")
        near = cores[(cores[:, 1] >= r0 - 1) & (cores[:, 1] <= r1)]
        k = min(n, max(1, size // (n * (r1 - r0))))
        z = np.arange(0, n + k, k).clip(max=n)
        nb = len(z) - 1
        # the nodes of block j: undefined[u[j]:u[j + 1]] and, of the
        # centers, near[c[j]:c[nb + j]], from one search each
        u = np.searchsorted(undefined[:, 2], z)
        c = np.searchsorted(near[:, 2], np.r_[z[:-1] - 1, z[1:] + 1])
        p = np.empty((nb, 4))

        def blocks(j0, j1):
            buf = np.empty(n * (r1 - r0) * k)
            for j in range(j0, j1):
                z0, z1 = z[j], z[j + 1]
                shape, lo = (n, r1 - r0, z1 - z0), (0, r0, z0)
                d = buf[:np.prod(shape)].reshape(shape, order="F")
                ref_j = ref[:, :, z0:z1]
                if len(undefined):  # a chunk's blocks all compacted
                    listed = _in_block(undefined[u[j]:u[j + 1]], 0, lo, shape)
                    keep = np.ones(shape, dtype=bool)
                    keep[listed] = False
                    p[j, 0] = _sumsq(ref_j[keep])
                else:
                    p[j, 0] = _sumsq(ref_j)
                np.abs(np.subtract(a.values[:, r0:r1, z0:z1], ref_j, out=d),
                       out=d)
                if len(undefined):
                    d[listed] = 0.0
                p[j, 2] = d.max()
                p[j, 1] = _sumsq(d)
                centers = near[c[j]:c[nb + j]]
                if len(centers):
                    d[_in_block(centers, 1, lo, shape)] = 0.0
                p[j, 3] = d.max()

        _on_slabs(blocks, len(p))
        part.append(p)
        del ref  # freed before the next chunk is made
    part = np.concatenate(part)
    if not np.isfinite(part).all():
        raise NumericError("field or reference is not finite, or overflows")
    ref_ss = ss = 0.0
    for r_j, s_j in part[:, :2].tolist():
        ref_ss += r_j
        ss += s_j
    max_abs, max_excl = (float(v) for v in part[:, 2:].max(axis=0))
    l2 = np.sqrt(g.h ** 3 * ss)
    rel = np.sqrt(ss / ref_ss) if ref_ss > 0 else (0.0 if ss == 0 else np.inf)
    if not np.isfinite(rel):
        raise NumericError("reference field is identically zero")
    return ErrorReport(discrete_l2=l2, max_abs=max_abs,
                       max_abs_excluding_cores=max_excl,
                       relative_l2=float(rel), rss=float(np.sqrt(ss)),
                       n=g.n, b=g.b, config=dict(config or {}))


def _sliced(f):
    # compare's reader of a dense reference: its rows r0 .. r1 and the
    # nodes of meta["excluded_nodes"] among them
    listed = _by_plane(f.meta.get("excluded_nodes"), f.grid.n,
                       "excluded_nodes")
    return lambda r0, r1: (f.values[:, r0:r1],
                           listed[(listed[:, 1] >= r0) & (listed[:, 1] < r1)])


_CUBE = np.indices((3, 3, 3)).reshape(3, -1).T - 1  # a radius-1 core


def _by_plane(nodes, n, name):
    # (M, 3) int nodes sorted by i3, each in [0, n)^3, i3 contiguous
    p = np.reshape(np.asarray(() if nodes is None else nodes, int), (-1, 3))
    if np.any((p < 0) | (p >= n)):
        raise ConfigError("%s holds a node outside [0, %d)^3" % (name, n))
    return np.asfortranarray(p[np.argsort(p[:, 2])])


def _in_block(p, r, lo, shape):
    # index, in the block of the given shape whose first node is lo, of the
    # nodes within Chebyshev distance r (0 or 1) of the nodes p, each of
    # which lies within r of the block.  An offset node off the block or
    # the grid is clipped onto a node of the block in the same core
    q = p[:, None] + ((_CUBE if r else 0) - np.asarray(lo))
    if r:
        np.clip(q, 0, np.subtract(shape, 1), out=q)
    return q[..., 0], q[..., 1], q[..., 2]


def _sumsq(x):
    v = x.ravel(order="K")
    return float(np.dot(v, v))


def write_report(report, path):
    """Write the text block to ``path`` and key=value lines to ``path + '.kv'``."""
    with open(path, "w") as fh:
        fh.write(report.text() + "\n")
    with open(str(path) + ".kv", "w") as fh:
        fh.write(report.keyvalues())
