"""Canonical and Tucker tensor containers with the rank-reduction pipeline.

A rank-R canonical tensor stores a weight vector ``xi`` (length R) and three
side matrices ``A[l]`` of shape (n_l, R); entry (i,j,k) is
``sum_q xi[q] * A[0][i,q] * A[1][j,q] * A[2][k,q]``.  Rank reduction goes
canonical -> Tucker (reduced higher-order SVD of the side matrices) ->
canonical (two-level SVD of the Tucker core), never materializing the full
array.  Each mode SVD runs on the small triangular factor of a QR of the
side matrix's transpose, which has the side matrix's left singular pairs,
and the Tucker core is ``dense`` of the side matrices projected onto the
kept bases.  A sum of shifted copies of one reference tensor (the
long-range part of a molecule) has its own canonical -> Tucker step that
bins the copies by node instead of stacking their columns, and builds its
core with the same plane-by-plane kernel that densifies such a sum.  The
second step also returns the Tucker image of the terms it keeps, a core
built from their core coordinates over the same factors, so a reduced
tensor is densified by mode products of that image rather than term by
term.  Every product here runs on numpy's own BLAS; the module imports no
scipy.  Every threaded step of the package runs through one splitter,
``_on_slabs``, which cuts a range into W contiguous shares, W being that
BLAS's thread count at the call, and runs them on W threads with the BLAS
pinned to one thread: the second-level SVDs of ``t2c_with_image`` and the
mode-2 rows of the plane sum here, the n^3 passes of the other modules.
W single-threaded BLAS calls at once are faster on such small matrices
than one BLAS call with W threads, and ``OPENBLAS_NUM_THREADS=1`` makes
every step serial.
"""

import ctypes
import functools
import glob
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError


@dataclass
class CanonicalTensor3:
    """Rank-R separable 3D tensor: weights plus one side matrix per mode.

    Parameters
    ----------
    weights : (R,) ndarray
        Term weights; may carry either sign.  R = 0 encodes the zero tensor.
    factors : tuple of three (n_l, R) ndarrays
        Side matrices, one column per term.
    """

    weights: np.ndarray
    factors: tuple

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        self.factors = tuple(np.asarray(A, dtype=float) for A in self.factors)
        if len(self.factors) != 3:
            raise ConfigError("canonical tensor needs exactly three side matrices")
        R = self.weights.shape[0]
        for A in self.factors:
            if A.ndim != 2 or A.shape[1] != R:
                raise ConfigError("side matrix shape does not match rank %d" % R)

    @property
    def rank(self):
        return self.weights.shape[0]

    @property
    def shape(self):
        return tuple(A.shape[0] for A in self.factors)


def zero_canonical(shape):
    """Rank-0 canonical tensor of the given mode sizes."""
    return CanonicalTensor3(np.zeros(0), tuple(np.zeros((n, 0)) for n in shape))


@dataclass
class TuckerTensor3:
    """Orthogonal-factor compressed tensor: core plus orthonormal factors.

    ``factors[l]`` has shape (n_l, r_l) with orthonormal columns; ``core`` is
    the dense r1 x r2 x r3 array.
    """

    core: np.ndarray
    factors: tuple

    def __post_init__(self):
        self.core = np.asarray(self.core, dtype=float)
        self.factors = tuple(np.asarray(U, dtype=float) for U in self.factors)
        for l, U in enumerate(self.factors):
            if U.shape[1] != self.core.shape[l]:
                raise ConfigError("factor %d does not match core shape" % l)

    @property
    def ranks(self):
        return self.core.shape

    @property
    def shape(self):
        return tuple(U.shape[0] for U in self.factors)


def eval_entry(t, i):
    """Evaluate one entry of a canonical tensor in O(R).

    Parameters
    ----------
    t : CanonicalTensor3
    i : sequence of three ints

    Returns
    -------
    float
    """
    i1, i2, i3 = i
    A1, A2, A3 = t.factors
    if not (0 <= i1 < len(A1) and 0 <= i2 < len(A2) and 0 <= i3 < len(A3)):
        raise ConfigError("index %r out of range for shape %r" % (tuple(i), t.shape))
    if t.rank == 0:
        return 0.0
    return float(np.dot(t.weights, A1[i1] * A2[i2] * A3[i3]))


def dense(t):
    """Materialize a canonical tensor as a Fortran-ordered dense array.

    Each i3-slab is one GEMM of the mode-2 side matrix, scaled by that
    slab's weighted mode-3 row, with the mode-1 one, written straight into
    the output, so the only temporary is an n2 x R matrix.
    """
    out = np.empty(t.shape, order="F")
    A1, B, A3 = t.factors
    for k in range(t.shape[2]):
        np.matmul(B * (A3[k] * t.weights), A1.T, out=out[:, :, k].T)
    return out


def tucker_dense(t):
    """Materialize a Tucker tensor, Fortran-ordered, by three mode products
    of the core; the products build its C-ordered transpose."""
    (n1, n2, n3), (r1, r2, r3) = t.shape, t.ranks
    X = (t.factors[2] @ t.core.T.reshape(r3, -1)).reshape(n3 * r2, r1)
    X = (X @ t.factors[0].T).reshape(n3, r2, n1)
    return np.matmul(t.factors[1], X).T


@functools.cache
def _openblas():
    # (get, set, stop) of numpy's bundled OpenBLAS, the BLAS every product
    # here runs on: its thread-count getter and setter and the call that
    # stops its idle threads; None when numpy was built against another BLAS
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return (lib.scipy_openblas_get_num_threads64_,
                    lib.scipy_openblas_set_num_threads64_,
                    getattr(lib, "blas_thread_shutdown_", lambda: None))
    return None


def _blas_threads():
    blas = _openblas()
    return blas[0]() if blas else 1


def _slab_workers():
    # how many shares _on_slabs cuts its range into: one per BLAS thread
    # (the tests patch it to try other counts)
    return _blas_threads()


def _on_slabs(fn, n):
    # fn(i0, i1) for the W contiguous shares [i0, i1) that cut range(n),
    # W = min(n, _slab_workers()), on W threads, the caller taking the
    # first, with the BLAS pinned to one thread until the last share is
    # done.  Its idle threads spin for a while after a multi-threaded call,
    # on the cores the shares need, so they are stopped first; its next
    # such call starts them
    blas, threads = _openblas(), _blas_threads()
    W = max(1, min(n, _slab_workers()))
    edges = [n * k // W for k in range(W + 1)]
    if blas:
        blas[1](1)
        blas[2]()
    try:
        with ThreadPoolExecutor(max(1, W - 1)) as pool:
            rest = [pool.submit(fn, edges[k], edges[k + 1])
                    for k in range(1, W)]
            fn(edges[0], edges[1])
            for f in rest:
                f.result()
    finally:
        if blas:
            blas[1](threads)


def _check_finite(t):
    for A in t.factors:
        if not np.all(np.isfinite(A)):
            raise NumericError("side matrix contains non-finite values")
    if not np.all(np.isfinite(t.weights)):
        raise NumericError("weight vector contains non-finite values")


def _mode_basis(M, eps):
    # leading left singular vectors of M with sigma > eps * sigma_max, at
    # least one.  M = R^T Q^T for the QR factors of M^T, so M has the left
    # singular pairs of the small triangular R^T, whose SVD forms no right
    # singular vectors of M's length.
    U, s, _ = np.linalg.svd(np.linalg.qr(M.T, mode="r").T, full_matrices=False)
    r = int(np.sum(s > eps * s[0])) if s.size and s[0] > 0 else 0
    return U[:, :max(r, 1)]


def c2t_rhosvd(t, eps):
    """Canonical -> Tucker by reduced higher-order SVD of the side matrices.

    Each mode SVD runs on the side matrix scaled column-wise by
    ``|xi|**(1/3)``, so the three modes see the same term magnitudes;
    singular values with ``sigma > eps * sigma_max`` are kept per mode.  The
    core is ``dense`` of the canonical tensor with the same weights and the
    projected side matrices ``U_l^T A_l``, so the n^3 tensor is never
    formed and the core needs no temporary larger than an r_l x R matrix.

    Parameters
    ----------
    t : CanonicalTensor3
    eps : float
        Relative singular-value truncation threshold, > 0.

    Returns
    -------
    TuckerTensor3
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    if t.rank == 0:
        raise ConfigError("cannot compress an empty tensor")
    _check_finite(t)

    w = np.abs(t.weights) ** (1.0 / 3.0)
    Us = tuple(_mode_basis(A * w, eps) for A in t.factors)
    core = dense(CanonicalTensor3(
        t.weights, tuple(U.T @ A for U, A in zip(Us, t.factors))))
    return TuckerTensor3(core, Us)


def _shift_columns(W, nodes):
    # (n, len(nodes), R) array whose [:, m, k] is column k of the doubled-grid
    # side matrix W (2n rows) with its center row n moved to node nodes[m]
    n = W.shape[0] // 2
    return W[n + np.arange(n)[:, None] - np.asarray(nodes)[None, :]]


def _plane_sum(table, w, points, q):
    """``sum_a q[a] sum_k w[k] T1_k(x_a) x T2_k(y_a) x T3_k(z_a)`` as a
    Fortran-ordered (n1, n2, n3) array.

    ``table(l, u)`` is the (R, len(u), n_l) array of the terms' mode-l
    vectors at the sorted distinct mode-l coordinates u of the (N, 3)
    ``points``; ``w`` None means that the mode-1 table carries the
    weights.  Each plane (distinct mode-3 coordinate) gets its R two-mode
    products by one batched GEMM.  The first block of about n1 (plane,
    term) groups meets its mode-3 vectors in one GEMM whose (n3, n1 n2)
    product is the result; each later block adds into it one tile of
    min(2^20 / n3, n1 n2 / 8) / W columns at a time.  The W shares of
    ``_on_slabs`` each take a contiguous range of mode-2 rows, so their
    two-mode products, GEMMs and tiles touch disjoint columns of the
    result.  Share k builds a block's products a chunk of its rows at a
    time in its own buffer of at most 2^21 floats (16 MiB), or one row;
    where the unchunked block fits, as at every n1 = n2 = n3 <= 128, a
    chunk is the whole share, with that block's GEMMs and bits.  The
    buffers are allocated before the shares start.
    """
    points, q = np.reshape(points, (-1, 3)), np.asarray(q, dtype=float)
    u, idx = zip(*(np.unique(p, return_inverse=True) for p in points.T))
    T = [np.ascontiguousarray(table(l, u[l])) for l in range(3)]
    if w is not None:
        T[0] = T[0] * np.reshape(w, (-1, 1, 1))
    R, (n1, n2, n3) = T[0].shape[0], (t.shape[2] for t in T)
    # plane p holds the points bounds[p] .. bounds[p + 1] of the points
    # sorted by their mode-3 coordinate, whose mode-1 and mode-2 table
    # rows are i0 and i1 and whose weights are q
    order = np.argsort(idx[2], kind="stable")
    bounds = np.r_[0, np.cumsum(np.bincount(idx[2]))]
    i0, i1, q = idx[0][order], idx[1][order], q[order, None]
    Z, step = bounds.size - 1, max(1, n1 // R)
    # the number of shares _on_slabs(work, n2) makes
    W = max(1, min(n2, _slab_workers()))
    # allocated first, so a grid too large for memory fails before any work
    out = np.empty((n3, n1 * n2))
    # share k, rows edges[k] .. edges[k + 1], takes block k, for chunks of
    # min(rows, its rows) mode-2 rows of G n1 floats, 2^21 floats or one
    # row, and tile k, of at most 2^20 floats and an eighth of out
    G, edges = min(step, Z) * R, [n2 * k // W for k in range(W + 1)]
    rows = max(1, 2 ** 21 // (G * n1))
    ends = np.cumsum([0] + [G * n1 * min(rows, b - a)
                            for a, b in zip(edges, edges[1:])])
    blocks = np.empty(ends[-1])
    cols = max(1, min(2 ** 20 // n3, n1 * n2 // 8) // W)
    bufs = {edges[k]: (blocks[ends[k]:ends[k + 1]], tile) for k, tile in
            enumerate(np.empty((W, n3, cols)) if Z > step else [None] * W)}

    def work(j0, j1):
        block, buf = bufs[j0]
        for p0 in range(0, Z, step):
            P = min(step, Z - p0)
            # (E3, K) of the planes p0 .. p0 + P: E3 @ K is their sum
            E3 = T[2][:, p0:p0 + P].transpose(2, 1, 0).reshape(n3, P * R)
            for r0 in range(j0, j1, rows):
                # rows r0 .. r1 are output columns c0 .. c1: kab[p*R + k] is
                # indexed [i2, i1], so K's columns are mode-1-fastest
                r1 = min(r0 + rows, j1)
                c0, c1 = r0 * n1, r1 * n1
                kab = block[:P * R * (c1 - c0)].reshape(P * R, r1 - r0, n1)
                for p in range(P):
                    a = slice(bounds[p0 + p], bounds[p0 + p + 1])
                    np.matmul(
                        (T[1][:, i1[a], r0:r1] * q[a]).transpose(0, 2, 1),
                        T[0][:, i0[a]], out=kab[p * R:(p + 1) * R])
                K = kab.reshape(P * R, c1 - c0)
                if p0 == 0:
                    np.matmul(E3, K, out=out[:, c0:c1])
                    continue
                for c in range(0, c1 - c0, cols):
                    Kt = K[:, c:c + cols]
                    out[:, c0 + c:c0 + c + Kt.shape[1]] += np.matmul(
                        E3, Kt, out=buf[:, :Kt.shape[1]])

    _on_slabs(work, n2)
    return out.T.reshape((n1, n2, n3), order="F")


def shift_sum(ref, centers, charges):
    """Explicit canonical form of a charge-weighted sum of shifted copies.

    ``ref`` is a canonical tensor sampled on a doubled grid (2n rows per
    mode, center at row n); copy ``a`` is moved so its center lands on node
    ``centers[a]`` of the n-grid and scaled by ``charges[a]``.  Column
    ``a*R + k`` of the result is term k of copy a, so the rank is N*R.
    """
    centers = np.asarray(centers, dtype=int).reshape(-1, 3)
    N, R = centers.shape[0], ref.rank
    w = np.multiply.outer(np.asarray(charges, dtype=float), ref.weights)
    A = tuple(_shift_columns(ref.factors[l], centers[:, l]).reshape(-1, N * R)
              for l in range(3))
    return CanonicalTensor3(w.ravel(), A)


def shift_sum_dense(ref, centers, charges):
    """``dense(shift_sum(ref, centers, charges))``, Fortran-ordered, summed
    plane by plane from the shifted columns of ``ref``: O(n^3 R Z) flops
    for Z occupied mode-3 nodes against the O(n^3 R N) of ``dense``.
    """
    return _plane_sum(lambda l, u: _shift_columns(ref.factors[l], u).T,
                      ref.weights, centers, charges)


def c2t_shift_sum(ref, centers, charges, eps):
    """``c2t_rhosvd(shift_sum(ref, centers, charges), eps)`` without the N*R
    side matrices.

    Every column of the explicit tensor is a shifted copy of a column of
    ``ref``, so binning the copies by node in each mode turns the mode-l
    Gram matrix into a sum over occupied nodes i with weights
    ``W_i = sum_{a at i} |charges[a]|**(2/3)``: the mode SVD runs on the
    n x (occupied nodes * R) matrix with columns
    ``sqrt(W_i) |xi_k|**(1/3) g_k(. - i)``, which has the same singular
    values and left singular subspaces, hence the same truncation ranks.
    The core is ``sum_a charges[a] sum_k xi_k P_1k(x_a) x P_2k(y_a) x
    P_3k(z_a)`` with P_lk = U_l^T g_k(. - i) the projected shift tables at
    the occupied nodes i: ``_plane_sum`` sums it into an r1 x r2 x r3 array
    as ``shift_sum_dense`` sums the unprojected tables into an n^3 one,
    each point on its own (points on one node are not merged first).
    With Tucker ranks r <= n and Z <= n occupied mode-3 nodes the cost is
    O(R n^3 + N R r^2 + R Z r^3) instead of the O(N R (n^2 + r^3)) of the
    explicit route.

    Returns
    -------
    TuckerTensor3
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    centers = np.asarray(centers, dtype=int).reshape(-1, 3)
    charges = np.asarray(charges, dtype=float)
    if centers.shape[0] == 0 or ref.rank == 0:
        raise ConfigError("cannot compress an empty tensor")
    _check_finite(ref)
    if not np.all(np.isfinite(charges)):
        raise NumericError("charges contain non-finite values")

    cw = np.abs(ref.weights) ** (1.0 / 3.0)
    zw = np.abs(charges) ** (2.0 / 3.0)
    Us, P = [], []
    for l in range(3):
        nodes, inv = np.unique(centers[:, l], return_inverse=True)
        G = _shift_columns(ref.factors[l], nodes)
        W = np.sqrt(np.bincount(inv, weights=zw))
        U = _mode_basis((G * np.multiply.outer(W, cw)).reshape(G.shape[0], -1),
                        eps)
        Us.append(U)
        # (R, nodes, r_l): U_l^T G_l, term-major as _plane_sum reads it
        P.append(np.ascontiguousarray(
            np.tensordot(U, G, axes=(0, 0)).transpose(2, 1, 0)))
    del G
    # P[l] is tabled at the sorted distinct mode-l nodes, the u of _plane_sum
    return TuckerTensor3(_plane_sum(lambda l, u: P[l], ref.weights, centers,
                                    charges), tuple(Us))


def t2c(t, eps):
    """Tucker -> canonical via a two-level SVD of the core.

    The core is matricized along the mode giving the smallest canonical rank
    bound (ties broken by mode order); each retained right singular vector is
    reshaped and SVD-factored again, so every kept triple becomes one
    canonical term.  Terms are truncated against a global Frobenius budget of
    ``eps * ||core||_F``, which is exact because the triples form an
    orthonormal system.  The kept terms come by descending weight, ties in
    row-major (core row, singular value) order.

    Returns
    -------
    CanonicalTensor3 with rank <= min(r1*r2, r2*r3, r1*r3).
    """
    return t2c_with_image(t, eps)[0]


def t2c_with_image(t, eps):
    """``t2c(t, eps)`` together with the Tucker image of its terms.

    The first-level SVD is taken of the transpose of the core unfolding,
    which is tall, and the second level is one SVD of each of its singular
    vectors reshaped to a matrix, on the shares of ``_on_slabs``.  The
    image has ``t``'s factors and the core ``sum_k w_k c_1k x c_2k x c_3k``
    of the kept terms' core coordinates c_lk.  The terms of first-level
    vector j share their mode-m coordinates, so each j sums its terms' other
    two modes into one r_a x r_b matrix Y_j, and one GEMM of the mode-m
    coordinates with the stacked Y_j gives the core: O(r^2 K + r^4) flops
    for K kept terms.

    Returns
    -------
    (CanonicalTensor3, TuckerTensor3)
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    G = t.core
    if not np.all(np.isfinite(G)):
        raise NumericError("core contains non-finite values")
    r = G.shape
    if min(r) == 0:
        return zero_canonical(t.shape), t

    cost = [r[0] * min(r[1], r[2]), r[1] * min(r[0], r[2]), r[2] * min(r[0], r[1])]
    m = int(np.argmin(cost))
    a, b = (l for l in range(3) if l != m)
    # SVD of the tall transpose of the wide unfolding: LAPACK's wide path
    # is about twice as slow
    V, tau, Ut = np.linalg.svd(np.moveaxis(G, m, 0).reshape(r[m], -1).T,
                               full_matrices=False)
    # every right singular vector of the unfolding, as an r_a x r_b matrix,
    # SVD-factored on its own; term (j, i) has weight tau_j s_ji
    J, k = V.shape[1], min(r[a], r[b])
    P, s, Q = np.empty((J, r[a], k)), np.empty((J, k)), np.empty((J, k, r[b]))

    def second_level(j0, j1):
        for j in range(j0, j1):
            P[j], s[j], Q[j] = np.linalg.svd(V[:, j].reshape(r[a], r[b]),
                                             full_matrices=False)

    _on_slabs(second_level, J)
    del V
    w = (tau[:, None] * s).ravel()

    # ascending, ties in row-major order: the smallest terms, zero weights
    # first, go while their squared weights sum to at most the budget
    order = np.argsort(w, kind="stable")
    keep = order[np.searchsorted(np.cumsum(w[order] ** 2),
                                 eps * eps * np.sum(tau ** 2), side="right"):]
    keep = keep[np.argsort(-w[keep], kind="stable")]
    j, i = np.divmod(keep, s.shape[1])
    w = w[keep]

    coords = {m: Ut[j].T, a: P.transpose(1, 0, 2)[:, j, i],
              b: Q.transpose(2, 0, 1)[:, j, i]}
    del P, Q
    # copied to C order: BLAS rounds transposed (F-ordered) operands differently
    A = tuple(t.factors[l] @ np.ascontiguousarray(coords[l]) for l in range(3))

    by_j = np.argsort(j, kind="stable")
    rows, beg = np.unique(j[by_j], return_index=True)
    Y = np.empty((rows.size, r[a], r[b]))
    for y, sel in zip(Y, np.split(by_j, beg[1:])):
        np.matmul(coords[a][:, sel] * w[sel], coords[b][:, sel].T, out=y)
    core = Ut[rows].T @ Y.reshape(rows.size, r[a] * r[b])
    image = np.moveaxis(core.reshape(r[m], r[a], r[b]), 0, m)
    return CanonicalTensor3(w, A), TuckerTensor3(image, t.factors)


def reduce_rank(t, eps):
    """Compress a canonical tensor by RHOSVD followed by the core transform.

    Returns the input unchanged when compression does not lower the rank, so
    the result never has more terms than the input.
    """
    if t.rank == 0:
        return t
    out = t2c(c2t_rhosvd(t, eps), eps)
    return out if out.rank < t.rank else t


_MAGIC = b"CT3\x00"


def save_canonical(t, path):
    """Write a canonical tensor to ``path``.

    Byte layout: 4-byte magic ``b"CT3\\x00"``, four little-endian uint64
    (n1, n2, n3, R), then little-endian float64 arrays back to back: xi
    (R values), A1, A2, A3 each written column-major (n_l * R values).
    A Fortran-ordered side matrix is written from its own memory; any
    other is copied a block of at most 2^16 values at a time.
    """
    n1, n2, n3 = t.shape
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<4Q", n1, n2, n3, t.rank))
        f.write(np.ascontiguousarray(t.weights, dtype="<f8").tobytes())
        for A in t.factors:
            # the rows of A^T in C order are A's columns
            At = np.asarray(A, dtype="<f8").T
            step = max(1, 2 ** 16 // max(1, At.shape[1]))
            for c in range(0, At.shape[0], step):
                f.write(np.ascontiguousarray(At[c:c + step]))


def load_canonical(path):
    """Read a canonical tensor written by ``save_canonical``.

    Raises DataError when the magic is wrong, the file length does not
    match the sizes in its header, or a weight or side matrix entry is not
    finite.
    """
    with open(path, "rb") as f:
        if f.read(4) != _MAGIC:
            raise DataError("not a canonical tensor file: %s" % path)
        head = f.read(32)
        if len(head) != 32:
            raise DataError("truncated canonical tensor header: %s" % path)
        n1, n2, n3, R = struct.unpack("<4Q", head)
        size = os.fstat(f.fileno()).st_size
        need = 36 + 8 * R * (1 + n1 + n2 + n3)
        if size != need:
            raise DataError("canonical tensor file %s holds %d bytes, its "
                            "header (n=%d,%d,%d R=%d) needs %d"
                            % (path, size, n1, n2, n3, R, need))
        xi = np.frombuffer(f.read(8 * R), dtype="<f8").astype(float)
        A = []
        for n in (n1, n2, n3):
            buf = np.frombuffer(f.read(8 * n * R), dtype="<f8")
            A.append(buf.reshape((n, R), order="F").astype(float))
    if not all(np.all(np.isfinite(a)) for a in (xi, *A)):
        raise DataError("canonical tensor file %s holds non-finite values"
                        % path)
    return CanonicalTensor3(xi, tuple(A))
