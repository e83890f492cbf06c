"""Collective potential of a molecule in range-separated canonical form.

Every atom contributes a shifted window of the doubled-grid reference kernel.
The smooth long-range part is the sum of those windows' long-range columns.
It is rank-compressed without stacking the N*R_L shifted columns: binning
the atoms by node in each mode gives the mode SVDs an n x (occupied nodes *
R_L) matrix, and the Tucker core comes from the sparse charge grid and the
projected shift tables, so the cost no longer grows with N*R_L*n.  The
short-range columns are kept as a single compact reference template plus
the atoms' (N, 3) centre nodes and (N,) charges, evaluated locally through
a CSR index from uniform grid cells to the atoms whose windows reach them.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .formats import (CanonicalTensor3, TuckerTensor3, _on_slabs, c2t_shift_sum,
                      dense, eval_entry, shift_sum, shift_sum_dense,
                      t2c_with_image, tucker_dense, zero_canonical)

_TIE = 1e-9
_EMPTY = slice(0, 0)  # the row of a cell no window reaches


@dataclass
class Molecule:
    """Point charges as arrays, copied and checked on construction.

    ``positions`` (N, 3) and ``radii`` (N,; zeros by default) in Angstrom,
    ``charges`` (N,) in elementary units.
    """

    positions: np.ndarray
    charges: np.ndarray
    radii: np.ndarray = None
    name: str = ""

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        z = np.array(self.charges, dtype=float)
        r = (np.zeros(z.shape) if self.radii is None
             else np.array(self.radii, dtype=float))
        if pos.size == 0:
            raise DataError("molecule has no atoms")
        if pos.ndim != 2 or pos.shape[1] != 3 or z.shape != (len(pos),) \
                or r.shape != z.shape:
            raise DataError("molecule needs (N, 3) positions and N charges "
                            "and radii")
        if not np.all(np.isfinite(pos)):
            raise DataError("atom positions must be finite")
        if not np.all(np.isfinite(z)):
            raise DataError("atom charges must be finite")
        if not np.all(r >= 0):
            raise DataError("atom radii must be nonnegative")
        self.positions, self.charges, self.radii = pos, z, r

    @property
    def n_atoms(self):
        return len(self.charges)

    @property
    def net_charge(self):
        return float(np.sum(self.charges))


def snap_to_grid(m, grid):
    """Nearest grid node per atom, ties rounded away from the box center.

    Parameters
    ----------
    m : Molecule
    grid : Grid3

    Returns
    -------
    nodes : (N, 3) int array
        0-based node indices.
    offsets : (N, 3) float array
        The residual ``position - node``, max-norm at most h/2.
    """
    pts = m.positions
    if np.any(np.abs(pts) > grid.b + 1e-9):
        raise ConfigError("atom outside the computational box")
    h = grid.h
    u = (pts + grid.b) / h
    c = 0.5 * (grid.n - 1)
    lo = np.floor(u)
    frac = u - lo
    idx = lo.copy()
    idx[frac > 0.5 + _TIE] += 1
    tie = np.abs(frac - 0.5) <= _TIE
    idx[tie & (u >= c)] += 1
    idx = np.clip(idx, 0, grid.n - 1).astype(int)
    return idx, pts - (-grid.b + idx * h)


def snapped_molecule(m, grid):
    """Copy of ``m`` with every atom moved to its nearest grid node.

    Returns the new molecule and the ``(nodes, offsets)`` pair from
    ``snap_to_grid``.
    """
    nodes, offsets = snap_to_grid(m, grid)
    return (Molecule(-grid.b + nodes * grid.h, m.charges, m.radii, m.name),
            (nodes, offsets))


def _columns(t, cols):
    # canonical tensor of the terms ``cols`` of t
    return CanonicalTensor3(t.weights[cols], tuple(A[:, cols] for A in t.factors))


def _template_radius(gamma):
    # template length 2r+1 stays below 2*gamma while covering the support
    # radius gamma/2 nodes plus the threshold tail
    return min(gamma - 1, gamma // 2 + 2) if gamma > 1 else 1


@dataclass
class RSTensor:
    """Range-separated representation of a collective potential.

    ``long`` is a rank-R_L canonical tensor on the full grid, the form that
    entry evaluation and ``long.ct3`` use; ``short_reference`` is the
    compact short-range template (canonical, side length
    2*support_radius + 1) shared by all atoms; ``nodes`` (N, 3) int and
    ``weights`` (N,) hold each atom's centre node and charge.  Storage is
    3*R_L*n + 4*N numbers plus the template's 3*R0*(2*support_radius+1)
    <= 3*R0*2*gamma.  ``quad_rank`` is the rank of the kernel's
    quadrature, which its oracle rebuilds.

    ``long_image`` is the Tucker tensor, over the binned RHOSVD factors,
    that equals ``long``'s reduced terms, and ``long_reference`` holds the
    R_L reference columns of an explicit per-atom sum; both are None when
    ``long`` was read from a bundle.  ``long_field`` picks the densify
    route from them and drops ``long_image`` once it is densified; a later
    ``long_field`` reads ``long``.  Every dense array the tensor builds is
    Fortran-ordered, like every n^3 field.

    Entry queries read a cell index built on first use (``cell_index``):
    the grid is cut into cells of side gamma nodes, and each cell's row in
    a CSR layout lists the atoms whose template window reaches into it.
    """

    grid: object
    long: CanonicalTensor3
    short_reference: CanonicalTensor3
    nodes: np.ndarray
    weights: np.ndarray
    gamma: int
    quad_rank: int
    long_rank_pre: int = 0
    long_image: TuckerTensor3 = field(default=None, repr=False)
    long_reference: CanonicalTensor3 = field(default=None, repr=False)
    _template: np.ndarray = field(default=None, repr=False)
    _cells: tuple = field(default=None, repr=False)

    @property
    def short_list(self):
        # (centre tuple, weight) pairs for perfbench/worker.py, O(N) a read,
        # so the package reads nodes and weights; goes with ROADMAP item 2
        return list(zip(map(tuple, self.nodes.tolist()), self.weights.tolist()))

    @property
    def support_radius(self):
        return (self.short_reference.factors[0].shape[0] - 1) // 2

    def template_dense(self):
        """Dense short-range template block, cached.  It is densified from
        a copy of the factors with their subnormal entries zeroed, which
        would put its GEMMs on the CPU's slow path; every fixture and
        cluster tried keeps every bit of the block."""
        if self._template is None:
            t = self.short_reference
            self._template = dense(CanonicalTensor3(t.weights, tuple(
                np.where(np.abs(A) < np.finfo(float).tiny, 0.0, A)
                for A in t.factors)))
        return self._template

    def long_field(self):
        """The long part on the full grid: three mode products of its Tucker
        image when it was reduced, a plane sum over the reference columns
        when it is the explicit per-atom sum, else term by term."""
        if self.long_image is not None:
            image, self.long_image = self.long_image, None
            return tucker_dense(image)
        if self.long_reference is not None:
            return shift_sum_dense(self.long_reference, self.nodes, self.weights)
        return dense(self.long)

    def cell_index(self):
        """CSR index from grid cells to the atoms whose windows reach them.

        Cells have side gamma nodes, ``nc = (n - 1) // gamma + 1`` per
        axis, and node i lies in cell ``(i0//gamma*nc + i1//gamma)*nc +
        i2//gamma``.  Built once and cached, as the tuple ``(rows, ids,
        row_centres, corners)``:

        - ``ids`` lists atom indices row by row, each row in atom order,
          and ``row_centres`` (3, M) holds their centre nodes column by
          column in the same order; an atom appears once in each cell its
          window ``[c - r, c + r]`` reaches into (at most 27: the windows
          assembly builds are at most 2*gamma + 1 wide).
        - ``rows`` maps a cell to the slice of ``ids`` that is its row;
          a cell no window reaches has no entry, so the index holds O(N)
          numbers whatever the number of cells.
        - ``corners[a] = (c - r) . (1, L, L*L)``, L = 2r + 1, so node i of
          atom a's window is entry ``i . (1, L, L*L) - corners[a]`` of the
          template flattened in its Fortran order.
        """
        if self._cells is None:
            n, g, r = self.grid.n, self.gamma, self.support_radius
            L = 2 * r + 1
            centres, nc = self.nodes, (n - 1) // g + 1
            # cells each window covers along each axis: lo + d for d < span
            lo = np.maximum(centres - r, 0) // g
            hi = np.minimum(centres + r, n - 1) // g
            span = int(np.max(hi - lo, initial=0)) + 1
            cx = lo[:, :, None] + np.arange(span)
            reach = cx <= hi[:, :, None]
            keys = ((cx[:, 0, :, None, None] * nc + cx[:, 1, None, :, None])
                    * nc + cx[:, 2, None, None, :])
            ok = reach[:, 0, :, None, None] & reach[:, 1, None, :, None] \
                & reach[:, 2, None, None, :]
            atom = np.broadcast_to(
                np.arange(len(centres))[:, None, None, None], keys.shape)
            keys, atom = keys[ok], atom[ok]
            order = np.argsort(keys, kind="stable")
            ids = atom[order]
            cells, beg = np.unique(keys[order], return_index=True)
            end = np.append(beg[1:], len(ids))
            rows = {k: slice(b, e) for k, b, e
                    in zip(cells.tolist(), beg.tolist(), end.tolist())}
            corners = (centres - r) @ np.array([1, L, L * L])
            self._cells = (rows, ids, np.ascontiguousarray(centres[ids].T),
                           corners)
        return self._cells

    def nearby_atoms(self, i):
        """Indices of the atoms whose template window covers node i.

        Reads the row of node i's cell in ``cell_index`` and keeps the
        atoms within Chebyshev distance support_radius of i, as an int
        array in atom order.
        """
        rows, ids, row_centres, _ = self.cell_index()
        g = self.gamma
        nc = (self.grid.n - 1) // g + 1
        row = rows.get((i[0] // g * nc + i[1] // g) * nc + i[2] // g, _EMPTY)
        dist = np.abs(row_centres[:, row] - np.array(i)[:, None]).max(axis=0)
        return ids[row][dist <= self.support_radius]


def assemble_collective(m, kernel, eps_reduce):
    """Assemble a molecule's collective potential in range-separated form.

    The long-range part is the sum over atoms of the charge-weighted
    long-range window columns (rank N * R_l).  With ``eps_reduce`` it is
    compressed by the binned RHOSVD of ``c2t_shift_sum`` followed by
    ``t2c``, and the result keeps the Tucker image of the kept canonical
    terms (``long_image``) that ``t2c_with_image`` returns with them; when
    that does not lower the rank below N * R_l the explicit per-atom
    tensor is returned instead, with the long reference columns
    (``long_reference``) in place of an image.  The short-range part is
    the shared template plus the snapped centre nodes and the charges.

    Parameters
    ----------
    m : Molecule
    kernel : ReferenceKernel, already split.
    eps_reduce : float or None
        Rank-reduction tolerance for the long-range sum; None keeps the
        uncompressed rank N * R_l.

    Returns
    -------
    RSTensor
    """
    if kernel.split_index is None:
        raise ConfigError("kernel must be split before assembly")
    grid = kernel.grid
    n = grid.n
    gamma = kernel.separation_gamma
    margin = np.min(grid.b - np.abs(m.positions))
    if margin < 0.5 * gamma * grid.h - 1e-9:
        raise ConfigError("atom margin %.3f A is below gamma*h/2 = %.3f A"
                          % (margin, 0.5 * gamma * grid.h))
    nodes, _ = snap_to_grid(m, grid)
    z = m.charges
    R_l = kernel.split_index
    N = m.n_atoms

    long_pre, long, image, ref = 0, zero_canonical((n, n, n)), None, None
    if R_l > 0:
        long_pre = N * R_l
        ref = _columns(kernel.wide_tensor, slice(0, R_l))
        if eps_reduce is not None:
            long, image = t2c_with_image(
                c2t_shift_sum(ref, nodes, z, eps_reduce), eps_reduce)
        if eps_reduce is None or long.rank >= long_pre:
            long, image = shift_sum(ref, nodes, z), None

    r_t = _template_radius(gamma)
    R_s = kernel.rank - R_l
    if R_s == 0:
        short_ref = zero_canonical((2 * r_t + 1,) * 3)
    else:
        Wc = [kernel.wide_tensor.factors[l][n - r_t:n + r_t + 1, R_l:]
              for l in range(3)]
        short_ref = CanonicalTensor3(kernel.wide_tensor.weights[R_l:], tuple(Wc))
    return RSTensor(grid, long, short_ref, nodes, z.copy(), gamma, kernel.rank,
                    long_rank_pre=long_pre, long_image=image,
                    long_reference=ref if image is None else None)


def rs_eval_entry(t, i):
    """Evaluate one entry of a range-separated tensor.

    Cost is O(R_L) for the long part plus a fixed number of vectorised
    operations for the short part: ``nearby_atoms`` reads one row of the
    cell index, and the hits' template values are gathered from the cached
    dense template in one indexed read.
    """
    n = t.grid.n
    i = tuple(map(int, i))
    if min(i) < 0 or max(i) >= n:
        raise ConfigError("index %r out of range" % (i,))
    val = eval_entry(t.long, i) if t.long.rank else 0.0
    T = t.template_dense()
    L = 2 * t.support_radius + 1
    hits = t.nearby_atoms(i)
    flat = (i[2] * L + i[1]) * L + i[0] - t.cell_index()[3][hits]
    return float(val + np.dot(t.weights[hits], T.ravel(order="F")[flat]))


def scatter_short(t, out, scale=1.0):
    """Add ``scale`` times the short-range field into dense n^3 ``out`` in
    place and return it; each window's weight is multiplied by ``scale``,
    so the default adds the field bit for bit.  The template shares the
    fields' Fortran order, so each add of a Fortran-ordered ``out`` walks
    both operands in memory order.

    The workers of ``_on_slabs`` each take a slab of mode-3 planes and add
    the windows that reach into it, clipped to it, in atom order, so
    every node gets its adds in that order and the result has the same
    bits at any worker count.
    """
    n = t.grid.n
    if out.shape != (n, n, n):
        raise ConfigError("output array does not match the grid")
    add = _window_adder(t, scale)
    _on_slabs(lambda z0, z1: add(out[:, :, z0:z1], z0, z1), n)
    return out


def _window_adder(t, scale=1.0):
    # add(dst, z0, z1) adds into dst, the (n, n, z1 - z0) array of planes
    # z0 <= i3 < z1, the windows [c - r, c + r] that reach them, clipped
    # to the grid and the planes, in atom order: dst[a:b] += (scale w)
    # T[a-lo:b-lo].  T is densified and each window's mode-1 and mode-2
    # slices are cut here, once, before any worker starts
    n = t.grid.n
    T = t.template_dense()
    r = t.support_radius
    lo = t.nodes - r
    a, b = np.maximum(lo, 0), np.minimum(lo + 2 * r + 1, n)
    za, zb = a[:, 2], b[:, 2]
    win = [((slice(a0, b0), slice(a1, b1)),
            T[a0 - l0:b0 - l0, a1 - l1:b1 - l1], a2, b2, l2, w)
           for (a0, a1, a2), (b0, b1, b2), (l0, l1, l2), w
           in zip(a.tolist(), b.tolist(), lo.tolist(),
                  (scale * t.weights).tolist())]

    def add(dst, z0, z1):
        for i in np.flatnonzero((zb > z0) & (za < z1)).tolist():
            s01, T01, a2, b2, l2, w = win[i]
            a2, b2 = max(a2, z0), min(b2, z1)
            d = dst[s01 + (slice(a2 - z0, b2 - z0),)]
            np.add(d, w * T01[:, :, a2 - l2:b2 - l2], out=d)
    return add
