import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import dstn
from scipy.sparse.linalg import LinearOperator, cg

import rstensor as rt
from conftest import EDGE_FLOATS, rand_canonical, same_bits
from helpers import build_delta_split, dst1_direct, negate

SQRT3 = np.sqrt(3.0)


def _ones_rank1(n):
    return rt.CanonicalTensor3(np.array([1.0]), tuple(np.ones((n, 1)) for _ in range(3)))


def test_kron_laplacian_of_constant():
    n = 9
    g = rt.Grid3(n, 2.0)
    L = rt.DiscreteLaplacian(g)
    out = rt.dense(rt.apply_kron_laplacian(_ones_rank1(n), L))
    ih2 = 1.0 / g.h ** 2
    assert np.max(np.abs(out[1:-1, 1:-1, 1:-1])) <= 1e-12 * ih2
    assert out[0, 4, 4] == pytest.approx(-ih2, rel=1e-13)
    assert out[0, 0, 4] == pytest.approx(-2 * ih2, rel=1e-13)
    assert out[0, 0, 0] == pytest.approx(-3 * ih2, rel=1e-13)


def test_kron_laplacian_sine_eigenvector():
    n = 15
    g = rt.Grid3(n, 2.0)
    L = rt.DiscreteLaplacian(g)
    s = np.sin(np.pi * np.arange(1, n + 1) / (n + 1)).reshape(n, 1)
    t = rt.CanonicalTensor3(np.array([1.0]), (s, s.copy(), s.copy()))
    lam = 3.0 * (2.0 / g.h ** 2) * (1.0 - np.cos(np.pi / (n + 1)))
    out = rt.dense(rt.apply_kron_laplacian(t, L))
    ref = -lam * rt.dense(t)
    assert np.max(np.abs(out - ref)) <= 1e-12 * lam


def test_kron_laplacian_matches_dense_stencil():
    rng = np.random.default_rng(0)
    n = 9
    g = rt.Grid3(n, 1.0)
    t = rand_canonical(rng, n, 2)
    for kappa in (0.0, 0.7):
        L = rt.DiscreteLaplacian(g, kappa)
        out = rt.dense(rt.apply_kron_laplacian(t, L))
        ref = rt.apply_stencil_dense(L, rt.dense(t))
        assert np.max(np.abs(out - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert rt.apply_kron_laplacian(t, L).rank == 3 * t.rank + (t.rank if kappa else 0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 12), r=st.integers(0, 6),
       kappa=st.sampled_from([0.0, 0.3, 1.7]),
       b=st.floats(min_value=0.5, max_value=20.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stencil_of_dense_equals_kron_image(n, r, kappa, b, seed):
    # the pipeline's right-hand side -stencil(dense(t)) against the dense
    # image of the 3R (4R with kappa) term Kronecker form, at every node
    t = rand_canonical(np.random.default_rng(seed), n, r)
    L = rt.DiscreteLaplacian(rt.Grid3(n, b), kappa)
    ref = rt.dense(negate(rt.apply_kron_laplacian(t, L)))
    out = -rt.apply_stencil_dense(L, rt.dense(t))
    assert np.max(np.abs(out - ref), initial=0.0) \
        <= 1e-12 * np.max(np.abs(ref), initial=0.0)


def test_delta_split_zero_charges():
    g = rt.Grid3(17, 2.0)
    q = rt.build_quadrature(8, g.h, 2 * SQRT3 * g.b)
    k = rt.split_reference(rt.assemble_reference_tensor(q, g), 4, 1e-8)
    m = rt.Molecule([(0.0, 0.0, 0.0)], [0.0])
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, k, None)
    ds = build_delta_split(rs, rt.DiscreteLaplacian(g))
    assert np.max(np.abs(rt.dense(ds.delta_long))) == 0.0
    assert np.max(np.abs(rt.dense(ds.delta_short))) == 0.0


def test_delta_split_matches_dense_stencil():
    g = rt.Grid3(33, 4.0)
    q = rt.build_quadrature(10, g.h, 2 * SQRT3 * g.b)
    k = rt.split_reference(rt.assemble_reference_tensor(q, g), 8, 1e-8)
    m = rt.Molecule([(0.0, 0.0, 0.0)], [1.0])
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, k, None)
    L = rt.DiscreteLaplacian(g)
    ds = build_delta_split(rs, L)
    ref = -rt.apply_stencil_dense(L, rt.dense(rs.long))
    out = rt.dense(ds.delta_long)
    assert np.max(np.abs(out - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_delta_split_additivity():
    g = rt.Grid3(17, 2.0)
    q = rt.build_quadrature(8, g.h, 2 * SQRT3 * g.b)
    k = rt.split_reference(rt.assemble_reference_tensor(q, g), 4, 1e-8)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1.0, 1.0, (3, 3))
    m = rt.Molecule(pts, [1.0, -0.5, 0.25])
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, k, None)
    L = rt.DiscreteLaplacian(g)
    ds = build_delta_split(rs, L)
    total = rt.dense(rs.long)
    rt.scatter_short(rs, total)
    ref = -rt.apply_stencil_dense(L, total)
    out = rt.dense(ds.delta_long) + rt.dense(ds.delta_short)
    assert np.max(np.abs(out - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_poisson_round_trip_random_field():
    rng = np.random.default_rng(2)
    n = 21
    g = rt.Grid3(n, 2.0)
    L = rt.DiscreteLaplacian(g)
    u_star = rng.standard_normal((n, n, n))
    f = -rt.apply_stencil_dense(L, u_star)
    # an F-ordered right-hand side is solved as its C-ordered transpose
    for order in "CF":
        u = rt.poisson_solve(np.asarray(f, order=order), L)
        assert u.values.flags.f_contiguous == (order == "F")
        err = np.linalg.norm(u.values - u_star) / np.linalg.norm(u_star)
        assert err <= 1e-10
        assert u.meta["residual"] <= 1e-12


def test_poisson_separable_sine_rhs():
    # the lowest sine mode is an eigenvector of -lap + kappa^2
    n = 15
    g = rt.Grid3(n, 2.0)
    s = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    f = np.einsum("i,j,k->ijk", s, s, s)
    lam = 3.0 * (2.0 / g.h ** 2) * (1.0 - np.cos(np.pi / (n + 1)))
    for kappa in (0.0, 0.1):
        u = rt.poisson_solve(f, rt.DiscreteLaplacian(g, kappa))
        ref = f / (lam + kappa ** 2)
        assert np.max(np.abs(u.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_poisson_spectral_vs_cg_screened():
    # reference: conjugate gradients on the SPD operator -lap + kappa^2,
    # applied matrix-free through the dense stencil
    n = 17
    g = rt.Grid3(n, 2.0)
    L = rt.DiscreteLaplacian(g, kappa=0.1)
    f = np.ones((n, n, n))
    us = rt.poisson_solve(f, L)
    A = LinearOperator(
        (n ** 3, n ** 3), dtype=float,
        matvec=lambda x: -rt.apply_stencil_dense(L, x.reshape(n, n, n)).ravel())
    uc, info = cg(A, f.ravel(), rtol=1e-12, maxiter=10 * n ** 3)
    assert info == 0
    err = np.linalg.norm(us.values.ravel() - uc) / np.linalg.norm(us.values)
    assert err <= 1e-8


def test_poisson_trace_boundary_lifting():
    rng = np.random.default_rng(3)
    n = 17
    g = rt.Grid3(n, 2.0)
    L = rt.DiscreteLaplacian(g)
    u_star = rng.standard_normal((n, n, n))
    f = -rt.apply_stencil_dense(L, u_star)
    for order in "CF":
        u = rt.poisson_solve(np.asarray(f, order=order), L, bc="trace",
                             bc_field=np.asarray(u_star, order=order))
        assert u.values.flags.f_contiguous == (order == "F")
        err = np.linalg.norm(u.values - u_star) / np.linalg.norm(u_star)
        assert err <= 1e-10


def test_poisson_rejects_bad_options():
    g = rt.Grid3(9, 1.0)
    L = rt.DiscreteLaplacian(g)
    f = np.zeros((9, 9, 9))
    with pytest.raises(rt.ConfigError):
        rt.poisson_solve(f, L, bc="periodic")
    with pytest.raises(rt.ConfigError):
        rt.poisson_solve(f, L, bc="trace")
    with pytest.raises(rt.ConfigError):
        rt.poisson_solve(np.zeros((3, 3, 3)), L)


def test_keystone_round_trip_small():
    # the long-range delta is the stencil image of the long-range kernel, so
    # the homogeneous solve must reproduce it
    g = rt.Grid3(33, 4.0)
    q = rt.build_quadrature(10, g.h, 2 * SQRT3 * g.b)
    k = rt.split_reference(rt.assemble_reference_tensor(q, g), 8, 1e-8)
    m = rt.Molecule([(0.0, 0.0, 0.0)], [1.0])
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, k, None)
    L = rt.DiscreteLaplacian(g)
    ds = build_delta_split(rs, L)
    u = rt.poisson_solve(rt.dense(ds.delta_long), L)
    ref = rt.dense(rs.long)
    err = np.linalg.norm(u.values - ref) / np.linalg.norm(ref)
    assert err <= 1e-10


def test_compose_total_adds_short_field():
    g = rt.Grid3(17, 2.0)
    q = rt.build_quadrature(8, g.h, 2 * SQRT3 * g.b)
    k = rt.split_reference(rt.assemble_reference_tensor(q, g), 4, 1e-8)
    m = rt.Molecule([(0.0, 0.0, 0.0)], [1.0])
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, k, None)
    zero = rt.GridFunction3(g, np.zeros((17, 17, 17)))
    ref = rt.scatter_short(rs, np.zeros((17, 17, 17)))
    tot = rt.compose_total(zero, rt.GridFunction3(g, ref, {"bc": "none"}))
    assert np.array_equal(tot.values, ref)
    assert tot.meta["composed"] is True
    with pytest.raises(rt.ConfigError):
        rt.compose_total(zero, rt.GridFunction3(rt.Grid3(17, 3.0), ref))


def test_dst1_direct_matches_fft_version():
    rng = np.random.default_rng(4)
    for n in (5, 16, 33):
        v = rng.standard_normal((n, n, n))
        a = dst1_direct(v)
        b = dstn(v, type=1, norm="ortho")
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_field_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    g = rt.Grid3(9, 1.0)
    f = rt.GridFunction3(g, rng.standard_normal((9, 9, 9)),
                         {"bc": "homogeneous", "residual": 3e-13})
    p = tmp_path / "u.bin"
    rt.save_field(f, p)
    f2 = rt.load_field(p)
    assert np.array_equal(f2.values, f.values)
    assert f2.grid.n == 9 and f2.grid.b == 1.0
    info = (tmp_path / "u.bin.info").read_text()
    assert "order=mode1-fastest" in info and "bc=homogeneous" in info


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(3, 7),
       b=st.floats(min_value=5e-324, max_value=1e300),
       residual=EDGE_FLOATS, order=st.sampled_from("CF"))
def test_field_round_trip_is_exact(data, n, b, residual, order):
    vals = data.draw(arrays(np.float64, (n, n, n), elements=EDGE_FLOATS))
    f = rt.GridFunction3(rt.Grid3(n, b), np.asarray(vals, order=order),
                         {"bc": "homogeneous", "residual": residual})
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "f.bin")
        rt.save_field(f, p)
        f2 = rt.load_field(p)
    assert f2.grid == f.grid
    assert f2.values.flags.f_contiguous
    assert same_bits(f2.values, f.values)
    assert same_bits(f2.meta["residual"], residual)


@pytest.mark.parametrize("order", ["C", "F"])
def test_save_field_writes_mode1_fastest_bytes(tmp_path, order):
    vals = np.random.default_rng(8).standard_normal((5, 5, 5))
    f = rt.GridFunction3(rt.Grid3(5, 1.0), np.asarray(vals, order=order))
    rt.save_field(f, tmp_path / "f.bin")
    assert (tmp_path / "f.bin").read_bytes() == vals.tobytes(order="F")


def test_save_field_f_order_writes_without_copy(tmp_path):
    # an F-ordered field is written from its own memory: the traced peak
    # stays far below the n^3 * 8 bytes a transposing copy takes
    n = 65
    f = rt.GridFunction3(rt.Grid3(n, 1.0),
                         np.asfortranarray(np.ones((n, n, n))))
    tracemalloc.start()
    try:
        rt.save_field(f, tmp_path / "f.bin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n ** 3 * 8 / 4
    assert os.path.getsize(tmp_path / "f.bin") == n ** 3 * 8


def test_field_rejects_nonfinite():
    g = rt.Grid3(5, 1.0)
    bad = np.zeros((5, 5, 5))
    bad[2, 2, 2] = np.inf
    with pytest.raises(rt.NumericError):
        rt.GridFunction3(g, bad)
