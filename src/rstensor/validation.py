"""Brute-force reference fields and error metrics.

The direct-sum oracle evaluates the collective potential either with the
exact radial kernel 1/r (an O(N n^3) loop over atoms) or with the same
Gaussian-sum kernel the tensor pipeline uses; the latter is the default
comparison target, so reported errors isolate compression and solver terms
from quadrature error.  The Gaussian sum groups its N*R separable terms by
(term, distinct third coordinate), costing O(N R n^2 + G n^3) for G groups;
G is at most R n for grid-snapped charges.
"""

from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import ConfigError, NumericError
from .solver import GridFunction3


@dataclass
class ErrorReport:
    """Error metrics of one field against a reference.

    ``discrete_l2`` is sqrt(h^3 * sum diff^2) (potential * Angstrom^(3/2));
    ``rss`` is the unweighted root-sum-square; ``relative_l2`` is the ratio
    of difference to reference norms; nodes within ``exclude_radius`` grid
    units (Chebyshev) of a listed center are dropped from
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

    The (atom, term) columns are grouped by term and distinct third
    coordinate: each group contributes one n x n GEMM of its first two
    Gaussian factors.  The groups are contracted with their shared third
    factor n at a time, by one in-place GEMM into the Fortran-ordered
    (mode-1 fastest) output seen as an n^2 x n matrix, so the largest
    temporary is one n^3 block of group products.  For charges on grid
    nodes the group count is at most R n, whatever N is.
    """
    # loaded here, not at package import: only the oracle needs it
    from scipy.linalg.blas import dgemm
    x = grid.coords()
    n = grid.n
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    charges = np.asarray(charges, dtype=float)
    t2 = q.nodes ** 2
    z3, inv3 = np.unique(positions[:, 2], return_inverse=True)
    # group g = k * z3.size + j holds term k of the atoms at z3[j]
    atoms = np.argsort(inv3, kind="stable")
    bounds = np.r_[0, np.cumsum(np.bincount(inv3))]
    G = q.rank * z3.size
    out = np.zeros((n, n, n), order="F")
    # row i1 + n*i2, column i3: a view of out, which dgemm updates in place
    out2 = out.reshape(n * n, n, order="F")
    # kab[g] is indexed [i2, i1], so kab[:m] reshaped to (m, n^2) is the
    # transpose of the F-ordered (n^2, m) left operand
    kab = np.empty((min(n, G), n, n))
    for g0 in range(0, G, n):
        gk, gj = np.divmod(np.arange(g0, min(g0 + n, G)), z3.size)
        for g, (k, j) in enumerate(zip(gk, gj)):
            ia = atoms[bounds[j]:bounds[j + 1]]
            E1 = np.exp(-t2[k] * (x[:, None] - positions[ia, 0][None, :]) ** 2)
            E1 *= charges[ia] * q.weights[k]
            E2 = np.exp(-t2[k] * (x[:, None] - positions[ia, 1][None, :]) ** 2)
            np.matmul(E2, E1.T, out=kab[g])
        E3 = np.exp(-t2[gk][None, :] * (x[:, None] - z3[gj][None, :]) ** 2)
        dgemm(1.0, kab[:gk.size].reshape(gk.size, n * n).T, E3.T, beta=1.0,
              c=out2, overwrite_c=1)
    return out


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
    GridFunction3; in exact mode, nodes coinciding with an atom are set to 0
    and listed in ``meta["excluded_nodes"]``.
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


def compare(a, b, exclude_centers=None, exclude_radius=1, config=None,
            l2_excludes_cores=False):
    """Error metrics of field ``a`` against reference ``b``.

    ``exclude_centers`` lists node index triples (atom centers); nodes within
    ``exclude_radius`` grid units of any of them, plus any nodes the
    reference itself excluded, are dropped from the core-excluding max norm.
    With ``l2_excludes_cores`` the L2-type metrics drop those nodes too;
    that is the right mode when ``a`` and ``b`` resolve the singular cores
    differently (e.g. two quadratures of unequal rank), since the core
    values are quadrature-dependent regularizations, not field values.
    """
    if a.grid.n != b.grid.n or abs(a.grid.b - b.grid.b) > 1e-12:
        raise ConfigError("fields live on different grids")
    g = a.grid
    mask = np.zeros((g.n,) * 3, dtype=bool)
    centers = list(exclude_centers or [])
    centers += b.meta.get("excluded_nodes", [])
    for c in centers:
        lo = [max(ci - exclude_radius, 0) for ci in c]
        hi = [min(ci + exclude_radius + 1, g.n) for ci in c]
        mask[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    # |a - b| is the only n^3 float temporary of the full-grid metrics; its
    # core nodes are zeroed in place once the full-grid figures are taken
    absd = a.values - b.values
    np.abs(absd, out=absd)
    max_abs = float(absd.max())
    if not l2_excludes_cores:
        ss, ref_ss = _sumsq(absd), _sumsq(b.values)
    absd[mask] = 0.0
    max_excl = float(absd.max())
    if l2_excludes_cores:
        ss, ref_ss = _sumsq(absd), _sumsq(b.values[~mask])
    l2 = np.sqrt(g.h ** 3 * ss)
    rel = np.sqrt(ss / ref_ss) if ref_ss > 0 else (0.0 if ss == 0 else np.inf)
    if not np.isfinite(rel):
        raise NumericError("reference field is identically zero")
    cfg = dict(config or {})
    if l2_excludes_cores:
        cfg["l2_excludes_cores"] = True
    return ErrorReport(discrete_l2=l2, max_abs=max_abs,
                       max_abs_excluding_cores=max_excl,
                       relative_l2=float(rel), rss=float(np.sqrt(ss)),
                       n=g.n, b=g.b, config=cfg)


def _sumsq(x):
    v = x.ravel(order="K")
    return float(np.dot(v, v))


def write_report(report, path):
    """Write the text block to ``path`` and key=value lines to ``path + '.kv'``."""
    with open(path, "w") as fh:
        fh.write(report.text() + "\n")
    with open(str(path) + ".kv", "w") as fh:
        fh.write(report.keyvalues())
