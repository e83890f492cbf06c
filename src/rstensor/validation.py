"""Brute-force reference fields and error metrics.

The direct-sum oracle evaluates the collective potential either with the
exact radial kernel 1/r (an O(N n^3) loop over atoms) or with the same
Gaussian-sum kernel the tensor pipeline uses; the latter is the default
comparison target, so reported errors isolate compression and solver terms
from quadrature error.  The Gaussian sum adds the atoms one plane (distinct
third coordinate) at a time, O(N R n^2 + R Z n^3) for Z planes; Z is at
most n for grid-snapped charges, whatever N is.
"""

from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import ConfigError, NumericError
from .formats import _plane_sum
from .solver import GridFunction3


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
    distinct coordinate u of each mode; ``_plane_sum`` adds them up plane
    by plane (distinct third coordinate) into a Fortran-ordered (mode-1
    fastest) output, so the largest temporary is one n^3 block.
    """
    x, t2 = grid.coords(), q.nodes[:, None, None] ** 2
    out = np.zeros((grid.n,) * 3, order="F")
    return _plane_sum(out, lambda l, u: np.exp(-t2 * (x - u[:, None]) ** 2),
                      q.weights, positions, charges)


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
    which ``compare`` leaves out of every metric.
    """
    if kernel == "gaussian_sum":
        if quad is None:
            raise ConfigError("gaussian_sum oracle needs a quadrature")
        vals = gaussian_field(m.positions, m.charges, grid, quad)
        return GridFunction3(grid, vals, {"kernel": kernel})
    if kernel != "exact_newton":
        raise ConfigError("unknown oracle kernel %r" % kernel)
    x = grid.coords()
    n = grid.n
    out = np.zeros((n, n, n), order="F")
    singular = np.zeros((n, n, n), dtype=bool, order="F")
    tol2 = (1e-9 * grid.h) ** 2
    for pos, z in zip(m.positions, m.charges):
        d1 = (x - pos[0]) ** 2
        d2 = (x - pos[1]) ** 2
        d3 = (x - pos[2]) ** 2
        # built on reversed axes, so that its transpose is mode-1 fastest
        D = ((d1[None, None, :] + d2[None, :, None]) + d3[:, None, None]).T
        hit = D < tol2
        if np.any(hit):
            singular |= hit
            D[hit] = 1.0
        out += z / np.sqrt(D)
    excluded = [tuple(int(v) for v in idx) for idx in np.argwhere(singular)]
    if excluded:
        out[singular] = 0.0
    return GridFunction3(grid, out, {"kernel": kernel,
                                     "excluded_nodes": excluded})


def compare(a, b, exclude_centers=None, config=None):
    """Error metrics of field ``a`` against reference ``b``.

    Nodes the reference lists as undefined in ``b.meta["excluded_nodes"]``
    (the exact oracle's atom nodes, stored as 0) drop out of every metric.
    ``exclude_centers`` lists node index triples (atom centers); the nodes
    within one grid unit (Chebyshev) of any of them, the singular cores,
    drop out of ``max_abs_excluding_cores`` only.
    """
    if a.grid.n != b.grid.n or abs(a.grid.b - b.grid.b) > 1e-12:
        raise ConfigError("fields live on different grids")
    g = a.grid
    mask = np.zeros((g.n,) * 3, dtype=bool, order="F")
    for c in exclude_centers or []:
        lo = [max(ci - 1, 0) for ci in c]
        hi = [min(ci + 2, g.n) for ci in c]
        mask[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    undefined = None
    if b.meta.get("excluded_nodes"):
        undefined = np.zeros((g.n,) * 3, dtype=bool, order="F")
        undefined[tuple(np.reshape(b.meta["excluded_nodes"], (-1, 3)).T)] = True
    # |a - b| goes through one 2 MiB buffer, a block of i3 planes at a time;
    # its undefined nodes are zeroed first, its core nodes once the block's
    # sums and full-grid max are taken
    k = max(1, 2 ** 18 // g.n ** 2)
    buf = np.empty((g.n, g.n, min(k, g.n)), order="F")
    max_abs = max_excl = ss = ref_ss = 0.0
    for i3 in range(0, g.n, k):
        sl = np.s_[:, :, i3:i3 + k]
        d, ref = buf[:, :, :min(k, g.n - i3)], b.values[sl]
        np.abs(np.subtract(a.values[sl], ref, out=d), out=d)
        if undefined is not None:
            d[undefined[sl]], ref = 0.0, ref[~undefined[sl]]
        max_abs = max(max_abs, float(d.max()))
        ss, ref_ss = ss + _sumsq(d), ref_ss + _sumsq(ref)
        d[mask[sl]] = 0.0
        max_excl = max(max_excl, float(d.max()))
    l2 = np.sqrt(g.h ** 3 * ss)
    rel = np.sqrt(ss / ref_ss) if ref_ss > 0 else (0.0 if ss == 0 else np.inf)
    if not np.isfinite(rel):
        raise NumericError("reference field is identically zero")
    return ErrorReport(discrete_l2=l2, max_abs=max_abs,
                       max_abs_excluding_cores=max_excl,
                       relative_l2=float(rel), rss=float(np.sqrt(ss)),
                       n=g.n, b=g.b, config=dict(config or {}))


def _sumsq(x):
    v = x.ravel(order="K")
    return float(np.dot(v, v))


def write_report(report, path):
    """Write the text block to ``path`` and key=value lines to ``path + '.kv'``."""
    with open(path, "w") as fh:
        fh.write(report.text() + "\n")
    with open(str(path) + ".kv", "w") as fh:
        fh.write(report.keyvalues())
