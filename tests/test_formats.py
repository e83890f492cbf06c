import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import rstensor as rt
from conftest import EDGE_FLOATS, rand_canonical, same_bits
from helpers import (canonical_axpy, dense_slice, eval_entries, frobenius_norm,
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


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.ct3"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(rt.DataError):
        rt.load_canonical(p)
