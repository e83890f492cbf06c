import os
import struct
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import rstensor as rt
from conftest import EDGE_FLOATS, rand_canonical, same_bits, slab_workers
from helpers import canonical_axpy, dense_slice, eval_entries, frobenius_norm
from rstensor import formats
from rstensor.formats import (_mode_basis, _on_slabs, _openblas, _plane_sum,
                              c2t_shift_sum, shift_sum, t2c_with_image,
                              tucker_dense)


def test_eval_entry_zero_tensor():
    t = rt.zero_canonical((4, 4, 4))
    assert rt.eval_entry(t, (1, 2, 3)) == 0.0
    assert np.all(rt.dense(t) == 0.0)


def test_eval_entry_rank1_ones():
    t = rt.CanonicalTensor3(np.array([2.0]), tuple(np.ones((3, 1)) for _ in range(3)))
    for i in np.ndindex(3, 3, 3):
        assert rt.eval_entry(t, i) == pytest.approx(2.0, abs=1e-15)


def test_eval_entry_matches_dense():
    rng = np.random.default_rng(0)
    t = rand_canonical(rng, 5, 3)
    D = rt.dense(t)
    for i in np.ndindex(5, 5, 5):
        assert rt.eval_entry(t, i) == pytest.approx(D[i], abs=1e-12)


def test_eval_entries_vectorized():
    rng = np.random.default_rng(1)
    t = rand_canonical(rng, 7, 4)
    idx = rng.integers(0, 7, (30, 3))
    v = eval_entries(t, idx)
    for k in range(30):
        assert v[k] == pytest.approx(rt.eval_entry(t, idx[k]), abs=1e-13)


def test_eval_entry_out_of_range():
    t = rt.zero_canonical((4, 4, 4))
    with pytest.raises(rt.ConfigError):
        rt.eval_entry(t, (4, 0, 0))


def test_dense_slice_all_axes():
    rng = np.random.default_rng(2)
    t = rand_canonical(rng, 6, 4)
    D = rt.dense(t)
    assert np.allclose(dense_slice(t, 0, 2), D[2], atol=1e-13)
    assert np.allclose(dense_slice(t, 1, 4), D[:, 4], atol=1e-13)
    assert np.allclose(dense_slice(t, 2, 0), D[:, :, 0], atol=1e-13)


def test_c2t_rank1_exact():
    rng = np.random.default_rng(3)
    t = rand_canonical(rng, 8, 1)
    tk = rt.c2t_rhosvd(t, 1e-10)
    assert tk.ranks == (1, 1, 1)
    err = np.linalg.norm(tucker_dense(tk) - rt.dense(t)) / np.linalg.norm(rt.dense(t))
    assert err <= 1e-12


def test_c2t_duplicate_columns_collapse():
    rng = np.random.default_rng(4)
    a = [rng.standard_normal((8, 1)) for _ in range(3)]
    t = rt.CanonicalTensor3(np.array([1.5, -0.5]),
                            tuple(np.hstack([f, f]) for f in a))
    tk = rt.c2t_rhosvd(t, 1e-10)
    assert tk.ranks == (1, 1, 1)
    err = np.linalg.norm(tucker_dense(tk) - rt.dense(t))
    assert err <= 1e-12 * np.linalg.norm(rt.dense(t))


def test_c2t_random_round_trip():
    rng = np.random.default_rng(5)
    t = rand_canonical(rng, 33, 20)
    tk = rt.c2t_rhosvd(t, 1e-10)
    D = rt.dense(t)
    err = np.linalg.norm(tucker_dense(tk) - D) / np.linalg.norm(D)
    assert err <= 1e-8


def _ortho_factors(rng, n, ranks):
    return tuple(np.linalg.qr(rng.standard_normal((n, r)))[0] for r in ranks)


def test_t2c_rank_one_core():
    rng = np.random.default_rng(6)
    core = np.full((1, 1, 1), 2.5)
    tk = rt.TuckerTensor3(core, _ortho_factors(rng, 9, (1, 1, 1)))
    t = rt.t2c(tk, 1e-12)
    assert t.rank == 1
    err = np.linalg.norm(rt.dense(t) - tucker_dense(tk))
    assert err <= 1e-12 * np.linalg.norm(tucker_dense(tk))


def test_t2c_diagonal_core():
    rng = np.random.default_rng(7)
    core = np.zeros((2, 2, 2))
    core[0, 0, 0] = 1.0
    core[1, 1, 1] = 1.0
    tk = rt.TuckerTensor3(core, _ortho_factors(rng, 7, (2, 2, 2)))
    t = rt.t2c(tk, 1e-12)
    assert t.rank == 2
    err = np.linalg.norm(rt.dense(t) - tucker_dense(tk))
    assert err <= 1e-10


def test_t2c_random_round_trip():
    rng = np.random.default_rng(8)
    core = rng.standard_normal((6, 6, 6))
    tk = rt.TuckerTensor3(core, _ortho_factors(rng, 12, (6, 6, 6)))
    t = rt.t2c(tk, 1e-9)
    D = tucker_dense(tk)
    err = np.linalg.norm(rt.dense(t) - D) / np.linalg.norm(D)
    assert err <= 1e-7


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 12), ranks=st.tuples(*[st.integers(1, 8)] * 3),
       decay=st.floats(min_value=0.05, max_value=1.0),
       log_eps=st.floats(min_value=-10.0, max_value=-2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_t2c_image_property(n, ranks, decay, log_eps, seed):
    # the Tucker image of t2c's kept terms densifies to the canonical
    # result, which is t2c's own; the core decays so truncation bites.  At
    # a vanishing eps every term is kept and the image is the input core
    ranks = tuple(min(r, n) for r in ranks)
    rng = np.random.default_rng(seed)
    scale = decay ** np.add.outer(np.add.outer(*[np.arange(r) for r in
                                                 ranks[:2]]),
                                  np.arange(ranks[2]))
    tk = rt.TuckerTensor3(rng.standard_normal(ranks) * scale,
                          _ortho_factors(rng, n, ranks))
    eps = 10.0 ** log_eps
    t, image = t2c_with_image(tk, eps)
    ref = rt.t2c(tk, eps)
    assert same_bits(t.weights, ref.weights)
    assert all(same_bits(a, b) for a, b in zip(t.factors, ref.factors))
    assert all(a is b for a, b in zip(image.factors, tk.factors))
    D = rt.dense(ref)
    assert np.linalg.norm(tucker_dense(image) - D) <= 1e-12 * np.linalg.norm(D)
    full = t2c_with_image(tk, 1e-300)[1].core
    assert full.shape == tk.core.shape
    assert np.max(np.abs(full - tk.core)) <= 1e-13 * np.max(np.abs(tk.core))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 10), ranks=st.tuples(*[st.integers(1, 7)] * 3),
       decay=st.floats(min_value=0.05, max_value=1.0),
       rounded=st.booleans(), slab=st.integers(-1, 2),
       log_eps=st.floats(min_value=-10.0, max_value=np.log10(0.8)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_t2c_truncation_rule(n, ranks, decay, rounded, slab, log_eps, seed):
    # the kept terms are the largest, and the discarded ones are the
    # smallest that fit the budget eps^2 ||core||^2; the discarded terms
    # are the terms of t2c at a vanishing eps that t2c at eps drops
    ranks = tuple(min(r, n) for r in ranks)
    rng = np.random.default_rng(seed)
    scale = decay ** np.add.outer(np.add.outer(*[np.arange(r) for r in
                                                 ranks[:2]]),
                                  np.arange(ranks[2]))
    core = rng.standard_normal(ranks) * scale
    if rounded:      # cores of one-decimal entries give tied weights
        core = np.round(core, 1)
    if slab >= 0:
        core[(slice(None),) * slab + (rng.integers(ranks[slab]),)] = 0.0
    tk = rt.TuckerTensor3(core, _ortho_factors(rng, n, ranks))
    eps = 10.0 ** log_eps
    kept, full = rt.t2c(tk, eps), rt.t2c(tk, 1e-300)

    X = np.vstack((full.weights,) + full.factors)
    Y = np.vstack((kept.weights,) + kept.factors)
    dist = np.abs(X[:, :, None] - Y[:, None, :]).max(axis=0)
    match = dist.argmin(axis=0) if full.rank else np.zeros(0, dtype=int)
    assert np.all(dist[match, np.arange(kept.rank)] <= 1e-12)
    assert np.unique(match).size == kept.rank
    drop = np.setdiff1d(np.arange(full.rank), match)
    gone = rt.CanonicalTensor3(full.weights[drop],
                               tuple(A[:, drop] for A in full.factors))

    budget = eps * eps * np.sum(core ** 2)
    assert np.all(np.diff(kept.weights) <= 0)
    assert np.sum(gone.weights ** 2) <= budget * (1 + 1e-12)
    if kept.rank:
        w_min = kept.weights[-1]
        assert np.sum(gone.weights ** 2) + w_min ** 2 > budget * (1 - 1e-12)
    D = tucker_dense(tk)
    err = np.linalg.norm(rt.dense(kept) + rt.dense(gone) - D)
    assert err <= 1e-12 * max(np.linalg.norm(D), 1.0)


@settings(max_examples=40, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 9)] * 3), R=st.integers(0, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dense_matches_einsum(shape, R, seed):
    rng = np.random.default_rng(seed)
    t = rt.CanonicalTensor3(rng.standard_normal(R),
                            tuple(rng.standard_normal((n, R)) for n in shape))
    ref = np.einsum("k,ak,bk,ck->abc", t.weights, *t.factors)
    assert np.allclose(rt.dense(t), ref, rtol=0, atol=1e-13 * max(1, R))


@pytest.mark.parametrize("shape,R", [((4, 6, 5), 3), ((1, 7, 2), 0),
                                     ((5, 5, 5), 4), ((3, 3, 3), 0)],
                         ids=["mixed", "mixed_rank0", "cubic", "cubic_rank0"])
def test_dense_arrays_are_fortran_ordered(shape, R):
    # dense, tucker_dense and the short template share the fields' layout
    rng = np.random.default_rng(R)
    t = rt.CanonicalTensor3(rng.standard_normal(R),
                            tuple(rng.standard_normal((n, R)) for n in shape))
    ranks = tuple(min(n, r) for n, r in zip(shape, (2, 3, 1)))
    tk = rt.TuckerTensor3(rng.standard_normal(ranks), tuple(
        np.linalg.qr(rng.standard_normal((n, r)))[0]
        for n, r in zip(shape, ranks)))
    rs = rt.RSTensor(rt.Grid3(9, 1.0), rt.zero_canonical((9, 9, 9)), t,
                     np.empty((0, 3), dtype=int), np.empty(0), 2, R)
    ref = np.einsum("k,ak,bk,ck->abc", t.weights, *t.factors)
    tref = np.einsum("abc,ia,jb,kc->ijk", tk.core, *tk.factors)
    for D, E in ((rt.dense(t), ref), (rs.template_dense(), ref),
                 (tucker_dense(tk), tref)):
        assert D.flags.f_contiguous and D.shape == shape
        assert np.allclose(D, E, rtol=0, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 6)] * 3), R=st.integers(1, 8),
       m=st.tuples(*[st.integers(1, 12)] * 3), N=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1), W=st.integers(1, 3))
# three shares of one mode-2 row each
@example(shape=(5, 3, 4), R=2, m=(2, 2, 9), N=40, seed=0, W=3)
# 40 points on 2 x 2 x 9 nodes share some, 9 planes go in blocks of 2,
# and the 25 columns of the output in tiles of 3, or of 1 in two shares
@example(shape=(5, 5, 3), R=2, m=(2, 2, 9), N=40, seed=1, W=1)
@example(shape=(5, 5, 3), R=2, m=(2, 2, 9), N=40, seed=1, W=2)
# at most 3 planes against blocks of 6 // 2 = 3: one GEMM, no tiles
@example(shape=(6, 4, 5), R=2, m=(3, 3, 3), N=20, seed=2, W=2)
# one mode-2 row, fewer than the shares asked for
@example(shape=(4, 1, 5), R=2, m=(3, 1, 9), N=30, seed=3, W=3)
def test_plane_sum_matches_einsum(shape, R, m, N, seed, W):
    # N points on m_l coordinates per mode repeat nodes and crowd planes;
    # up to 12 planes against max(1, n1 // R) per group block cross blocks,
    # n1 n2 // 8 // W columns per tile leave a ragged last tile, and W
    # shares of mode-2 rows split the columns
    rng = np.random.default_rng(seed)
    T = [rng.standard_normal((R, ml, nl)) for ml, nl in zip(m, shape)]
    pts = np.stack([rng.integers(0, ml, N) for ml in m], axis=1)
    w, q = rng.standard_normal(R), rng.standard_normal(N)
    with slab_workers(W):
        out = _plane_sum(lambda l, u: T[l][:, u], w, pts, q)
    G = [t[:, p] for t, p in zip(T, pts.T)]
    ref = np.einsum("k,a,kai,kaj,kal->ijl", w, q, *G)
    scale = np.einsum("k,a,kai,kaj,kal->ijl", np.abs(w), np.abs(q),
                      *map(np.abs, G))
    assert out.shape == shape and out.flags.f_contiguous
    assert np.all(np.abs(out - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("W", [1, 2, 3])
def test_plane_sum_chunks_rows_past_the_cap(W):
    # R = 256 terms, 2 planes a block: a mode-2 row of the block is
    # 512 x 512 floats, so a share builds its products 2^21 / 2^18 = 8 rows
    # at a time, and the third plane's block adds its 4096 columns a chunk
    # in ragged tiles of 2560 // W.  The sum is that of the terms, point by
    # point, and no buffer holds the unchunked 512 x 40 x 512 floats (84 MB):
    # the peak is the output, the tables (the mode-1 one twice, weighted),
    # W blocks of 2^21 floats, and each share's gathers of a plane's mode-1
    # rows and of its mode-2 rows in a chunk, twice
    rng = np.random.default_rng(4)
    R, shape, m, N = 256, (512, 40, 3), (4, 4, 3), 12
    T = [rng.standard_normal((R, ml, nl)) for ml, nl in zip(m, shape)]
    pts = np.stack([rng.integers(0, ml, N) for ml in m], axis=1)
    pts[:3, 2] = range(3)
    w, q = rng.standard_normal(R), rng.standard_normal(N)
    tracemalloc.start()
    try:
        with slab_workers(W):
            out = _plane_sum(lambda l, u: T[l][:, u], w, pts, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ref, scale = np.zeros(shape), np.zeros(shape)
    for a, (i, j, k) in enumerate(pts):
        for acc, f in ((ref, lambda x: x), (scale, np.abs)):
            KR = (f(T[1][:, j, :, None]) * f(T[2][:, k, None, :]))
            acc += ((f(T[0][:, i]) * f(w * q[a])[:, None]).T
                    @ KR.reshape(R, -1)).reshape(shape)
    assert out.shape == shape and out.flags.f_contiguous
    assert np.all(np.abs(out - ref) <= 1e-13 * scale)
    tables = R * (2 * m[0] * shape[0] + m[1] * shape[1] + m[2] * shape[2])
    gathers = W * R * np.bincount(pts[:, 2]).max() * (shape[0] + 2 * 8)
    bound = 8 * (W * 2 ** 21 + tables + gathers + np.prod(shape)) + 2 ** 20
    assert peak <= bound, (peak, bound)


def _svd_batch(out, M, ran, bad=None):
    # fn for _on_slabs: the SVD of M[i] into out[i], each i of its share
    # once, with the thread that ran it added to ran; item bad raises
    def fn(i0, i1):
        for i in range(i0, i1):
            if i == bad:
                raise ValueError("item %d" % i)
            assert np.all(np.isnan(out[i]))
            ran.add(threading.get_ident())
            out[i] = np.linalg.svd(M[i], compute_uv=False)
    return fn


@pytest.mark.parametrize("bad", [0, 6], ids=["caller_share", "worker_share"])
def test_on_slabs_restores_blas_threads_after_raise(set_blas_threads, bad):
    set_blas_threads(2)
    M = np.random.default_rng(0).standard_normal((7, 30, 20))
    fn = _svd_batch(np.full((7, 20), np.nan), M, set(), bad)
    with pytest.raises(ValueError, match="item %d" % bad):
        _on_slabs(fn, 7)
    assert _openblas()[0]() == 2


def test_on_slabs_without_setter_matches_threaded(set_blas_threads,
                                                  monkeypatch):
    # two threads, the caller one of them; without the setter the same
    # items run in the caller alone, with the same results
    M = np.random.default_rng(1).standard_normal((9, 40, 25))
    threaded, serial = np.full((2, 9, 25), np.nan)
    ran = [set(), set()]
    set_blas_threads(2)
    _on_slabs(_svd_batch(threaded, M, ran[0]), 9)
    monkeypatch.setattr(formats, "_openblas", lambda: None)
    _on_slabs(_svd_batch(serial, M, ran[1]), 9)
    assert same_bits(serial, threaded)
    me = threading.get_ident()
    assert len(ran[0]) == 2 and me in ran[0] and ran[1] == {me}


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 40), rank=st.integers(0, 12),
       decay=st.floats(min_value=0.01, max_value=1.0),
       log_eps=st.floats(min_value=-12.0, max_value=-1.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(rows=5, cols=30, rank=5, decay=0.5, log_eps=-6.0, seed=0)    # wide
@example(rows=12, cols=4, rank=4, decay=0.5, log_eps=-6.0, seed=1)    # tall
@example(rows=6, cols=9, rank=0, decay=1.0, log_eps=-6.0, seed=2)     # zero
@example(rows=8, cols=20, rank=3, decay=1.0, log_eps=-10.0, seed=3)   # deficient
def test_mode_basis_matches_svd(rows, cols, rank, decay, log_eps, seed):
    # the SVD of the QR factor keeps what the SVD of M keeps: the same
    # truncation rank and, where the kept singular values are separated
    # from the rest, the same column span
    rng = np.random.default_rng(seed)
    k = min(rank, rows, cols)
    M = (rng.standard_normal((rows, k)) * decay ** np.arange(k)) \
        @ rng.standard_normal((k, cols))
    eps = 10.0 ** log_eps
    U0, s, _ = np.linalg.svd(M, full_matrices=False)
    if s[0] > 0:
        # no singular value within 1% of the threshold
        assume(np.all(np.abs(s / s[0] - eps) > 0.01 * eps))
    r = max(int(np.sum(s > eps * s[0])) if s[0] > 0 else 0, 1)
    U = _mode_basis(M, eps)
    assert U.shape == (rows, r)
    assert np.allclose(U.T @ U, np.eye(r), rtol=0, atol=1e-12)
    tail = s[r] if r < s.size else 0.0
    if s[r - 1] - tail > 1e-4 * s[0]:
        d = U @ U.T - U0[:, :r] @ U0[:, :r].T
        assert np.max(np.abs(d)) <= 1e-10


def _gaussian_reference(n, R, rng):
    # R smooth Gaussians on a doubled grid (2n rows, center row n), like the
    # long-range columns of a reference kernel, so the mode SVDs truncate
    x = np.arange(2 * n) - n
    A = [np.exp(-np.outer(x * x, rng.uniform(0.05, 0.8, R) ** 2))
         for _ in range(3)]
    return rt.CanonicalTensor3(rng.uniform(0.5, 2.0, R), tuple(A))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["few-planes", "ragged", "shared-node", "cancel"]),
       n=st.integers(6, 12), R=st.integers(1, 6), N=st.integers(2, 30),
       log_eps=st.floats(min_value=-12.0, max_value=-3.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_core_matches_stacked_reduction(case, n, R, N, log_eps, seed):
    # the binned core, summed one GEMM per block of max(1, Z // R) planes,
    # is the core of the stacked columns: Z < R (one plane per block), a
    # ragged last block, several atoms on one node, and a plane whose
    # charges cancel on one node
    rng = np.random.default_rng(seed)
    if case == "few-planes":
        R = max(R, 3)
        Z = int(rng.integers(1, R))
    elif case == "ragged":
        # Z > R with Z not a multiple of the block Z // R
        Z = next((z for z in range(R + 1, n + 1) if z % (z // R)), None)
        assume(Z is not None)
    else:
        Z = int(rng.integers(1, n + 1))
    ref = _gaussian_reference(n, R, rng)
    planes = rng.choice(n, Z, replace=False)
    N = max(N, Z) + 2
    centers = rng.integers(0, n, (N, 3))
    centers[:, 2] = planes[np.r_[np.arange(Z), rng.integers(0, Z, N - Z)]]
    charges = rng.choice([-1.0, 1.0], N) * rng.uniform(0.5, 2.0, N)
    if case == "shared-node":
        centers[Z:] = centers[0]
    if case == "cancel":
        # plane planes[0] holds only a +0.75 and a -0.75 on one node
        off = centers[:, 2] != planes[0]
        node = [rng.integers(0, n), rng.integers(0, n), planes[0]]
        centers = np.vstack([centers[off], [node, node]])
        charges = np.r_[charges[off], 0.75, -0.75]
    assert np.unique(centers[:, 2]).size == Z

    eps = 10.0 ** log_eps
    stacked = shift_sum(ref, centers, charges)
    w = np.abs(stacked.weights) ** (1.0 / 3.0)
    for A in stacked.factors:
        s = np.linalg.svd(A * w, compute_uv=False)
        assume(np.all(np.abs(s / s[0] - eps) > 0.01 * eps))
    tk = c2t_shift_sum(ref, centers, charges, eps)
    tk0 = rt.c2t_rhosvd(stacked, eps)
    assert tk.ranks == tk0.ranks
    D, D0 = tucker_dense(tk), tucker_dense(tk0)
    scale = np.sum(np.abs(charges)) * np.sum(ref.weights)
    assert np.max(np.abs(D - D0)) <= 1e-12 * scale


def test_reduce_rank_redundant_columns():
    # 12 columns spanning only 3 rank-1 terms: true rank 3
    rng = np.random.default_rng(9)
    base = [rng.standard_normal((10, 3)) for _ in range(3)]
    t = rt.CanonicalTensor3(rng.standard_normal(12),
                            tuple(np.tile(f, (1, 4)) for f in base))
    out = rt.reduce_rank(t, 1e-10)
    assert out.rank <= 9
    D = rt.dense(t)
    err = np.linalg.norm(rt.dense(out) - D) / np.linalg.norm(D)
    assert err <= 1e-8


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 12), r=st.integers(1, 8), dup=st.integers(0, 8),
       log_eps=st.floats(min_value=-10.0, max_value=-2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_reduce_rank_property(n, r, dup, log_eps, seed):
    # Gaussian random terms, some repeated with fresh weights: the result
    # never has more terms and stays within 2 eps (relative Frobenius)
    rng = np.random.default_rng(seed)
    t = rand_canonical(rng, n, r)
    pick = rng.integers(0, r, dup)
    t = rt.CanonicalTensor3(np.concatenate([t.weights, rng.standard_normal(dup)]),
                            tuple(np.concatenate([A, A[:, pick]], axis=1)
                                  for A in t.factors))
    eps = 10.0 ** log_eps
    out = rt.reduce_rank(t, eps)
    assert out.rank <= t.rank
    D = rt.dense(t)
    assert np.linalg.norm(rt.dense(out) - D) <= 2 * eps * np.linalg.norm(D)


def test_reduce_rank_keeps_minimal_input():
    rng = np.random.default_rng(10)
    t = rand_canonical(rng, 6, 2)
    out = rt.reduce_rank(t, 1e-14)
    assert out.rank <= t.rank
    if out.rank == t.rank:
        assert out is t


def test_axpy_alpha_zero():
    rng = np.random.default_rng(11)
    x = rand_canonical(rng, 7, 3)
    y = rand_canonical(rng, 7, 2)
    s = canonical_axpy(0.0, x, y)
    assert s.rank == 5
    assert np.allclose(rt.dense(s), rt.dense(y), atol=1e-14)


def test_axpy_cancellation():
    rng = np.random.default_rng(12)
    x = rand_canonical(rng, 9, 3)
    minus = rt.CanonicalTensor3(-x.weights, x.factors)
    s = canonical_axpy(1.0, x, minus)
    assert np.max(np.abs(rt.dense(s))) <= 1e-13 * np.max(np.abs(rt.dense(x)))


def test_axpy_random_matches_dense():
    rng = np.random.default_rng(13)
    x = rand_canonical(rng, 7, 4)
    y = rand_canonical(rng, 7, 3)
    s = canonical_axpy(-1.7, x, y)
    assert np.allclose(rt.dense(s), -1.7 * rt.dense(x) + rt.dense(y), atol=1e-12)


def test_axpy_shape_mismatch():
    rng = np.random.default_rng(14)
    with pytest.raises(rt.ConfigError):
        canonical_axpy(1.0, rand_canonical(rng, 5, 2), rand_canonical(rng, 6, 2))


def test_frobenius_zero():
    assert frobenius_norm(rt.zero_canonical((5, 5, 5))) == 0.0


def test_frobenius_rank1_unit_vectors():
    e = np.zeros((8, 1))
    e[3, 0] = 1.0
    t = rt.CanonicalTensor3(np.array([3.0]), (e, e.copy(), e.copy()))
    assert frobenius_norm(t) == pytest.approx(3.0, rel=1e-14)


def test_frobenius_matches_dense():
    rng = np.random.default_rng(15)
    t = rand_canonical(rng, 8, 4)
    ref = np.linalg.norm(rt.dense(t))
    assert frobenius_norm(t) == pytest.approx(ref, rel=1e-12)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    t = rand_canonical(rng, 9, 5)
    p = tmp_path / "t.ct3"
    rt.save_canonical(t, p)
    u = rt.load_canonical(p)
    assert np.array_equal(u.weights, t.weights)
    for a, b in zip(u.factors, t.factors):
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=st.tuples(*[st.integers(1, 6)] * 3),
       R=st.integers(0, 5))
def test_save_load_round_trip_is_exact(data, shape, R):
    w = data.draw(arrays(np.float64, (R,), elements=EDGE_FLOATS))
    fac = tuple(data.draw(arrays(np.float64, (n, R), elements=EDGE_FLOATS))
                for n in shape)
    t = rt.CanonicalTensor3(w, fac)
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "t.ct3")
        rt.save_canonical(t, p)
        u = rt.load_canonical(p)
    assert u.shape == tuple(shape) and u.rank == R
    assert same_bits(u.weights, w)
    assert all(same_bits(a, b) for a, b in zip(u.factors, fac))


def _full_copy_bytes(t):
    # the former writer's bytes: each side matrix copied whole, in
    # column-major order
    return (b"CT3\x00" + struct.pack("<4Q", *t.shape, t.rank)
            + np.asarray(t.weights, dtype="<f8").tobytes()
            + b"".join(np.asarray(A, dtype="<f8").tobytes(order="F")
                       for A in t.factors))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape, R", [((9, 1, 4), 5), ((3, 2, 5), 0),
                                      ((300, 7, 257), 301)])
def test_save_canonical_bytes_match_full_copy(tmp_path, order, shape, R):
    # 300 x 301 side matrices are written in two blocks of 2^16 values
    # or fewer, with a ragged last one
    rng = np.random.default_rng(17)
    t = rt.CanonicalTensor3(rng.standard_normal(R), tuple(
        np.asarray(rng.standard_normal((n, R)), order=order) for n in shape))
    assert all(A.flags[order + "_CONTIGUOUS"] for A in t.factors)
    rt.save_canonical(t, tmp_path / "t.ct3")
    assert (tmp_path / "t.ct3").read_bytes() == _full_copy_bytes(t)


@pytest.mark.parametrize("order", ["C", "F"])
def test_save_canonical_memory(tmp_path, order):
    # no copy of a whole side matrix (3.1 MB here): at most one block of
    # 2^16 values, for a C-ordered one
    n, R = 129, 3000
    t = rt.CanonicalTensor3(np.ones(R), tuple(
        np.ones((n, R), order=order) for _ in range(3)))
    tracemalloc.start()
    try:
        rt.save_canonical(t, tmp_path / "t.ct3")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 16 + 2 ** 16, peak


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.ct3"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(rt.DataError):
        rt.load_canonical(p)
