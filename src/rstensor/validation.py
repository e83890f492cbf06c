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
those GEMMs.  ``compare`` reads the two fields a block of planes at a
time, the blocks shared out among the threads of ``_on_slabs``, so it
allocates no n^3 array: each block masks only the nodes that reach it.
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


def gaussian_field(positions, charges, grid, q):
    """Dense Gaussian-sum potential of point charges at arbitrary positions.

    The factors ``exp(-t_k^2 (x - u)^2)`` are tabulated once per term k and
    distinct coordinate u of each mode; ``_plane_sum`` sums them plane by
    plane (distinct third coordinate) and returns the Fortran-ordered
    (mode-1 fastest) field, so the largest temporary besides it is one
    block of at most n^3 two-mode products.  Entries below ``_FLOOR`` =
    2^-256 are zeroed, so no subnormal float slows the GEMMs; a node moves
    by less than 2^-256 sum_k |w_k| sum_a |z_a|.
    """
    x, t2 = grid.coords(), q.nodes[:, None, None] ** 2

    def table(l, u):
        t = np.exp(-t2 * (x - u[:, None]) ** 2)
        t[t < _FLOOR] = 0.0  # a bool mask: no float temporary
        return t

    return _plane_sum(table, q.weights, positions, charges)


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
    """
    if kernel == "gaussian_sum":
        if quad is None:
            raise ConfigError("gaussian_sum oracle needs a quadrature")
        vals = gaussian_field(m.positions, m.charges, grid, quad)
        return GridFunction3(grid, vals, {"kernel": kernel})
    if kernel != "exact_newton":
        raise ConfigError("unknown oracle kernel %r" % kernel)
    x = grid.coords()
    out, singular = _coulomb_sum(m, x, x, x, tol=1e-9 * grid.h)
    return GridFunction3(grid, out, {"kernel": kernel,
                                     "excluded_nodes": np.argwhere(singular)})


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
    out[singular] = 0.0
    return out, singular


def compare(a, b, exclude_centers=None, config=None):
    """Error metrics of field ``a`` against reference ``b``.

    Both are read a block of i3 planes at a time, each block's difference
    formed in its worker's buffer.  Nodes the reference lists as undefined in
    ``b.meta["excluded_nodes"]`` (the exact oracle's atom nodes, stored as
    0) drop out of every metric.  ``exclude_centers`` lists node index
    triples (atom centers); the nodes within one grid unit (Chebyshev) of
    any of them, the singular cores, drop out of
    ``max_abs_excluding_cores`` only.  Both lists are (M, 3) node arrays or
    sequences of triples in [0, n)^3 (else ``ConfigError``), and each
    block masks only those of their nodes that reach it.
    """
    if a.grid != b.grid:
        raise ConfigError("fields live on different grids")
    g = b.grid
    cores = _by_plane(exclude_centers, g.n, "exclude_centers")
    undefined = _by_plane(b.meta.get("excluded_nodes"), g.n, "excluded_nodes")
    # blocks of k planes, k set by n alone, shared out by _on_slabs: each
    # block of |a - b| goes through its worker's buffer of 2^15
    # values (256 KiB), or of one plane when a plane is larger, so W
    # workers hold W of them; its undefined nodes are zeroed first, its
    # core nodes once the block's sums and full-grid max are taken.
    # part[j] holds block j's (ref_ss, ss, max_abs, max_excl), combined in
    # block order below, so the report has the same bits at any worker count
    k = max(1, 2 ** 15 // g.n ** 2)
    part = np.empty((-(-g.n // k), 4))

    def blocks(j0, j1):
        buf = np.empty((g.n, g.n, min(k, g.n)), order="F")
        for j in range(j0, j1):
            z0, z1 = j * k, min((j + 1) * k, g.n)
            sl, d = np.s_[:, :, z0:z1], buf[:, :, :z1 - z0]
            ref, listed = b.values[sl], _in_block(undefined, 0, g.n, z0, z1)
            if len(undefined):  # every block compacted: one summation order
                keep = np.ones(ref.shape, dtype=bool)
                keep[listed] = False
                ref = ref[keep]
            part[j, 0] = _sumsq(ref)
            np.abs(np.subtract(a.values[sl], b.values[sl], out=d), out=d)
            d[listed] = 0.0
            part[j, 2] = d.max()
            part[j, 1] = _sumsq(d)
            d[_in_block(cores, 1, g.n, z0, z1)] = 0.0
            part[j, 3] = d.max()

    _on_slabs(blocks, len(part))
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


_CUBE = np.indices((3, 3, 3)).reshape(3, -1).T - 1  # a radius-1 core


def _by_plane(nodes, n, name):
    # (M, 3) int nodes sorted by i3, each in [0, n)^3, i3 contiguous
    p = np.reshape(np.asarray(() if nodes is None else nodes, int), (-1, 3))
    if np.any((p < 0) | (p >= n)):
        raise ConfigError("%s holds a node outside [0, %d)^3" % (name, n))
    return np.asfortranarray(p[np.argsort(p[:, 2])])


def _in_block(p, r, n, z0, z1):
    # block index (i1, i2, i3 - z0) of the nodes within Chebyshev distance
    # r (0 or 1) of the nodes p, sorted by i3 (_by_plane), that lie in the
    # planes z0 <= i3 < z1 of the n-grid.  An offset node off the block or
    # the grid is clipped onto a node of the block in the same core
    p = p[np.searchsorted(p[:, 2], z0 - r):np.searchsorted(p[:, 2], z1 + r)]
    q = p[:, None] + (_CUBE if r else 0) - (0, 0, z0)
    np.clip(q, 0, (n - 1, n - 1, z1 - z0 - 1), out=q)
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
