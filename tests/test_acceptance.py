"""Acceptance gate: one test per release criterion, in order.

Each test prints a single line with the measured quantities and the pinned
tolerance it is gated on, so `pytest -v` shows one pass/fail line per
criterion and `-s` (or any failure) shows the numbers.
"""

import os
import time

import numpy as np
import pytest

import rstensor as rt
from conftest import FIXTURES
from helpers import (canonical_axpy, dense_slice, eval_entries, negate,
                     split_by_count, zero_ghost_solve)

SQRT3 = np.sqrt(3.0)

# run-rank schedule for the error-trend criteria: the kernel rank grows with
# the grid so the quadrature error tracks refinement, and the reference field
# uses a much deeper quadrature of the same family
RANK_SCHEDULE = {97: 29, 129: 34, 257: 46}
REFERENCE_RANK = 60

LADDER = (8, 10, 12, 14, 17, 20, 24, 29, 34, 40, 46, 52, 60)


def _trend(m, b, ns):
    """Discrete L2 of the composed total against the deep-rank oracle.

    The two quadratures differ in rank, so their values in the singular
    cores are different regularizations, not field values: the nodes
    within one grid unit of an atom are marked undefined in the oracle,
    which leaves them out of the L2 sum.
    """
    cube = np.indices((3, 3, 3)).reshape(3, -1).T - 1
    out = []
    for n in ns:
        res = rt.run_case(rt.RunConfig(n=n, b=b, rank=RANK_SCHEDULE[n]), m)
        g = res["total"].grid
        qref = rt.build_quadrature(REFERENCE_RANK, g.h, 2 * SQRT3 * g.b)
        oracle = rt.direct_sum_oracle(res["molecule"], g,
                                      kernel="gaussian_sum", quad=qref)
        cores = (res["rs"].nodes[:, None, :] + cube).reshape(-1, 3)
        oracle.meta["excluded_nodes"] = \
            cores[np.all((cores >= 0) & (cores < g.n), axis=1)].tolist()
        out.append(rt.compare(res["total"], oracle).discrete_l2)
    return out


@pytest.fixture(scope="module")
def cloud782():
    # shared by criteria 4 and 7: 782-particle cloud, count split 15/14
    cloud = rt.synthetic_cluster(782, 19.0, min_sep=1.0, seed=11)
    g = rt.Grid3(257, 24.0)
    q = rt.build_quadrature(29, g.h, 2 * SQRT3 * g.b)
    k = split_by_count(rt.assemble_reference_tensor(q, g), 14,
                          rt.gamma_for_separation(g, 3.5))
    sm, _ = rt.snapped_molecule(cloud, g)
    rs = rt.assemble_collective(sm, k, 1e-8)
    return {"grid": g, "quad": q, "kernel": k, "mol": sm, "rs": rs}


def test_criterion_01_keystone_round_trip(born_mol, ligand_mol):
    # the long-range delta is the negated stencil image of the long-range
    # tensor, so the zero-ghost solve must reproduce that tensor; the
    # pipeline relies on this and composes from the long part directly
    worst_err, worst_dt = 0.0, 0.0
    for m in (born_mol, ligand_mol):
        for n in (65, 129):
            t0 = time.perf_counter()
            res = rt.run_case(rt.RunConfig(n=n, b=16.0), m)
            L = rt.DiscreteLaplacian(res["rs"].grid)
            ref = rt.dense(res["rs"].long)
            u = zero_ghost_solve(-rt.apply_stencil_dense(L, ref), L)
            dt = time.perf_counter() - t0
            err = float(np.linalg.norm(u.values - ref) / np.linalg.norm(ref))
            worst_err = max(worst_err, err)
            worst_dt = max(worst_dt, dt)
    print("criterion 01: keystone relative L2 %.3e <= 1e-9, "
          "slowest case %.1f s <= 30 s" % (worst_err, worst_dt))
    assert worst_err <= 1e-9
    assert worst_dt <= 30.0


def test_criterion_02_single_ion_error_trend(born_mol):
    # measured: 6.63e-7 -> 8.49e-8 -> 9.66e-10
    l2 = _trend(born_mol, 16.0, (97, 129, 257))
    print("criterion 02: single-ion L2 trend %s, final %.3e <= 1e-7"
          % (["%.3e" % v for v in l2], l2[-1]))
    assert all(a > b for a, b in zip(l2, l2[1:]))
    assert l2[-1] <= 1e-7


def test_criterion_03_molecule_and_cluster_error_trend(ligand_mol):
    # measured: ligand 9.12e-7 -> 1.21e-7 -> 1.43e-9;
    #           1228-atom cluster 3.81e-6 -> 2.23e-7
    l2_mol = _trend(ligand_mol, 16.0, (97, 129, 257))
    cluster = rt.synthetic_cluster(1228, 24.0, min_sep=1.0, seed=7)
    l2_cl = _trend(cluster, 30.0, (129, 257))
    print("criterion 03: 18-atom trend %s, cluster trend %s, "
          "finals %.3e / %.3e <= 1e-6"
          % (["%.3e" % v for v in l2_mol], ["%.3e" % v for v in l2_cl],
             l2_mol[-1], l2_cl[-1]))
    assert all(a > b for a, b in zip(l2_mol, l2_mol[1:]))
    assert all(a > b for a, b in zip(l2_cl, l2_cl[1:]))
    assert l2_mol[-1] <= 1e-6
    assert l2_cl[-1] <= 1e-6


def test_criterion_04_rank_compression(cloud782):
    # measured: 10948 -> 250, sampled relative error 2.1e-6
    rs = cloud782["rs"]
    assert rs.long_rank_pre == 782 * 14 == 10948
    rs0 = rt.assemble_collective(cloud782["mol"], cloud782["kernel"], None)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 257, (200, 3))
    v = eval_entries(rs.long, idx)
    v0 = eval_entries(rs0.long, idx)
    ref = np.abs(v0)
    scale = float(np.max(ref))
    ref[ref < 1e-12 * scale] = scale
    err = float(np.max(np.abs(v - v0) / ref))
    print("criterion 04: long rank %d -> %d (<= 1000), "
          "sampled relative error %.3e <= 1e-5"
          % (rs.long_rank_pre, rs.long.rank, err))
    assert rs.long.rank <= 1000
    assert err <= 1e-5


def test_criterion_05_rank_growth_with_doubling():
    # measured ratios: 1.035, 1.047, 1.073
    dens = 782 / 40.0 ** 3
    ranks = {}
    for N in (50, 100, 200, 400):
        L = (N / dens) ** (1.0 / 3.0)
        cl = rt.synthetic_cluster(N, L / 2, min_sep=1.0, seed=21)
        g = rt.Grid3(129, L / 2 + 5.0)
        q = rt.build_quadrature(29, g.h, 2 * SQRT3 * g.b)
        k = split_by_count(rt.assemble_reference_tensor(q, g), 15,
                              rt.gamma_for_separation(g, 3.5))
        sm, _ = rt.snapped_molecule(cl, g)
        ranks[N] = rt.assemble_collective(sm, k, 1e-8).long.rank
    ratios = [ranks[100] / ranks[50], ranks[200] / ranks[100],
              ranks[400] / ranks[200]]
    print("criterion 05: ranks %s, doubling ratios %s, all <= 1.5"
          % (ranks, ["%.3f" % r for r in ratios]))
    assert all(r <= 1.5 for r in ratios)


def test_criterion_06_compression_error_vs_tolerance():
    # measured: 1.4e-6 <= 1e-4 at (1e-6, 1e-7), tightening gains 11.9x >= 5x
    cl = rt.synthetic_cluster(379, 11.0, min_sep=1.0, seed=3)
    g = rt.Grid3(129, 16.0)
    gamma = rt.gamma_for_separation(g, 3.5)
    sm, _ = rt.snapped_molecule(cl, g)
    errs = []
    for eps_kernel, eps_c2t in ((1e-6, 1e-7), (1e-7, 1e-8)):
        q = next(rt.build_quadrature(R, g.h, 2 * SQRT3 * g.b) for R in LADDER
                 if rt.build_quadrature(R, g.h, 2 * SQRT3 * g.b)
                 .achieved_relative_error <= eps_kernel)
        k = rt.split_reference(rt.assemble_reference_tensor(q, g), gamma, 1e-8)
        dc = rt.dense(rt.assemble_collective(sm, k, eps_c2t).long)
        du = rt.dense(rt.assemble_collective(sm, k, None).long)
        errs.append(float(np.max(np.abs(dc - du))))
    print("criterion 06: max-abs compression error %.3e <= 1e-4, "
          "tolerance tightening gains %.1fx >= 5x" % (errs[0], errs[0] / errs[1]))
    assert errs[0] <= 1e-4
    assert errs[0] / errs[1] >= 5.0


def test_criterion_07_short_long_contrast(cloud782):
    # measured: contrast 3.8e4 at a probe 10.2 A from the nearest atom
    rs, g, q, k = (cloud782[s] for s in ("rs", "grid", "quad", "kernel"))
    n = g.n
    mid = n // 2
    plane = dense_slice(rs.long, 2, mid).copy()
    T = rs.template_dense()
    r_t = rs.support_radius
    for c, w in zip(rs.nodes.tolist(), rs.weights.tolist()):
        dz = mid - c[2]
        if abs(dz) > r_t:
            continue
        sl = T[:, :, r_t + dz] * w
        i0, j0 = c[0] - r_t, c[1] - r_t
        a0, a1 = max(i0, 0), min(i0 + 2 * r_t + 1, n)
        b0, b1 = max(j0, 0), min(j0 + 2 * r_t + 1, n)
        plane[a0:a1, b0:b1] += sl[a0 - i0:a1 - i0, b0 - j0:b1 - j0]
    tot_max = float(np.max(np.abs(plane)))
    x = g.coords()
    P = cloud782["mol"].positions
    xy = np.stack(np.meshgrid(x, x, indexing="ij"), -1)
    d2 = np.full((n, n), np.inf)
    for p in P:
        np.minimum(d2, (xy[..., 0] - p[0]) ** 2 + (xy[..., 1] - p[1]) ** 2
                   + (x[mid] - p[2]) ** 2, out=d2)
    far = np.unravel_index(int(np.argmax(d2)), d2.shape)
    dist = float(np.sqrt(d2[far]))
    assert dist >= rs.gamma * g.h
    probe = np.array([x[far[0]], x[far[1]], x[mid]])
    ts = q.nodes[k.split_index:]
    cs = q.weights[k.split_index:]
    rho2 = np.sum((P - probe) ** 2, axis=1)
    sval = float(np.sum(cloud782["mol"].charges
                        * np.sum(cs * np.exp(-np.outer(rho2, ts ** 2)), axis=1)))
    ratio = tot_max / abs(sval) if sval else np.inf
    print("criterion 07: mid-plane max %.3e vs short-range %.3e at a %.1f A "
          "probe, contrast %.2e > 1e3" % (tot_max, sval, dist, ratio))
    assert ratio > 1e3


def test_criterion_08_delta_localization(born_mol, ligand_mol):
    # measured: 4.9e-6 (single ion) and 4.2e-6 (18 atoms)
    worst = 0.0
    for m in (born_mol, ligand_mol):
        res = rt.run_case(rt.RunConfig(n=129, b=16.0), m)
        rs = res["rs"]
        g = res["total"].grid
        L = rt.DiscreteLaplacian(g)
        D = rt.dense(negate(rt.apply_kron_laplacian(rs.long, L)))
        # the Dirichlet closure writes O(1/h^2) values on the outermost node
        # shell for any field with a nonzero trace; localization concerns the
        # interior
        interior = np.zeros_like(D, dtype=bool)
        interior[1:-1, 1:-1, 1:-1] = True
        x = g.coords()
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        d2 = np.full(D.shape, np.inf)
        for p in res["molecule"].positions:
            np.minimum(d2, (X - p[0]) ** 2 + (Y - p[1]) ** 2 + (Z - p[2]) ** 2,
                       out=d2)
        far = interior & (d2 > (rs.gamma * g.h) ** 2)
        ratio = float(np.max(np.abs(D[far])) / np.max(np.abs(D[interior])))
        worst = max(worst, ratio)
    print("criterion 08: far-field delta magnitude ratio %.3e <= 1e-3" % worst)
    assert worst <= 1e-3


def test_criterion_09_dense_oracle_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 17

    # canonical additivity against dense arithmetic
    x = rt.CanonicalTensor3(rng.standard_normal(4),
                            tuple(rng.standard_normal((n, 4)) for _ in range(3)))
    y = rt.CanonicalTensor3(rng.standard_normal(3),
                            tuple(rng.standard_normal((n, 3)) for _ in range(3)))
    s = canonical_axpy(2.0, x, y)
    assert np.max(np.abs(rt.dense(s) - 2 * rt.dense(x) - rt.dense(y))) <= 1e-12

    # compression round-trip against dense arithmetic
    base = [rng.standard_normal((n, 3)) for _ in range(3)]
    red = rt.CanonicalTensor3(rng.standard_normal(9),
                              tuple(np.tile(f, (1, 3)) for f in base))
    out = rt.reduce_rank(red, 1e-10)
    D = rt.dense(red)
    assert out.rank <= red.rank
    assert np.linalg.norm(rt.dense(out) - D) <= 1e-8 * np.linalg.norm(D)

    # operator action against the dense stencil
    g = rt.Grid3(n, 2.0)
    L = rt.DiscreteLaplacian(g)
    t = rt.CanonicalTensor3(rng.standard_normal(2),
                            tuple(rng.standard_normal((n, 2)) for _ in range(3)))
    lhs = rt.dense(rt.apply_kron_laplacian(t, L))
    rhs = rt.apply_stencil_dense(L, rt.dense(t))
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * np.max(np.abs(rhs))

    # range-separated entry formula against dense long + scattered short
    q = rt.build_quadrature(8, g.h, 2 * SQRT3 * g.b)
    k = rt.split_reference(rt.assemble_reference_tensor(q, g), 4, 1e-8)
    m = rt.Molecule([(0.5, 0.0, -0.25), (-0.5, 0.25, 0.0)], [1.0, -0.7])
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, k, None)
    ref = rt.dense(rs.long)
    rt.scatter_short(rs, ref)
    for i in np.ndindex(n, n, n):
        assert abs(rt.rs_eval_entry(rs, i) - ref[i]) <= 1e-10

    dt = time.perf_counter() - t0
    print("criterion 09: dense oracle suite passed in %.1f s <= 60 s" % dt)
    assert dt <= 60.0


def test_criterion_10_scope_note_in_readme():
    readme = os.path.join(os.path.dirname(FIXTURES), "README.md")
    text = " ".join(open(readme).read().lower().split())
    ok = ("external" in text and "not reproduced" in text
          and "oracle" in text and "protein" in text)
    print("criterion 10: README states the non-reproduced external "
          "comparisons and the oracle coverage: %s" % ok)
    assert ok
