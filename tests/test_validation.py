import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rstensor as rt
from conftest import FIXTURES, same_bits, slab_workers
from helpers import compare_reference, raw_gaussian_field
from rstensor import validation
from rstensor.cli import _resolve_quadrature

SQRT3 = np.sqrt(3.0)
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _field(g, vals):
    return rt.GridFunction3(g, vals)


def test_identical_fields_zero_report():
    rng = np.random.default_rng(0)
    g = rt.Grid3(9, 1.0)
    v = rng.standard_normal((9, 9, 9))
    rep = rt.compare(_field(g, v), _field(g, v.copy()))
    assert rep.discrete_l2 == 0.0
    assert rep.max_abs == 0.0
    assert rep.relative_l2 == 0.0
    assert rep.rss == 0.0


def test_constant_offset_closed_form():
    g = rt.Grid3(9, 1.0)
    c = 0.75
    a = _field(g, np.full((9, 9, 9), 2.0 + c))
    b = _field(g, np.full((9, 9, 9), 2.0))
    rep = rt.compare(a, b)
    assert rep.max_abs == pytest.approx(c, rel=1e-14)
    assert rep.discrete_l2 == pytest.approx(c * np.sqrt(g.h ** 3 * 9 ** 3), rel=1e-13)
    assert rep.rss == pytest.approx(c * np.sqrt(9 ** 3), rel=1e-13)


def test_compare_rejects_grid_mismatch():
    a = _field(rt.Grid3(9, 1.0), np.zeros((9, 9, 9)))
    b = _field(rt.Grid3(9, 2.0), np.zeros((9, 9, 9)))
    with pytest.raises(rt.ConfigError):
        rt.compare(a, b)


_ONE_ULP = {
    "compare": rt.compare,
    "compose_total": rt.compose_total,
}


@pytest.mark.parametrize("call", sorted(_ONE_ULP))
def test_same_grid_is_grid_equality(call):
    # every pairing of fields asks for equal Grid3s: a box half-width one
    # ulp apart is another grid, as load_field reads b back bit for bit
    b = 1.0
    a = _field(rt.Grid3(9, b), np.ones((9, 9, 9), order="F"))
    other = _field(rt.Grid3(9, np.nextafter(b, 2.0)),
                   np.ones((9, 9, 9), order="F"))
    with pytest.raises(rt.ConfigError):
        _ONE_ULP[call](a, other)


def test_compare_rejects_zero_reference():
    g = rt.Grid3(9, 1.0)
    a = _field(g, np.ones((9, 9, 9)))
    b = _field(g, np.zeros((9, 9, 9)))
    with pytest.raises(rt.NumericError):
        rt.compare(a, b)


def test_exact_newton_point_value():
    g = rt.Grid3(33, 4.0)
    m = rt.Molecule([(0.0, 0.0, 0.0)], [1.0])
    f = rt.direct_sum_oracle(m, g, kernel="exact_newton")
    i = int(round((2.0 + g.b) / g.h))
    c = (g.n - 1) // 2
    assert f.values[i, c, c] == pytest.approx(0.5, rel=1e-14)


def test_exact_newton_antisymmetry():
    g = rt.Grid3(33, 4.0)
    m = rt.Molecule([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)], [1.0, -1.0])
    f = rt.direct_sum_oracle(m, g, kernel="exact_newton")
    v = f.values
    flip = v[::-1]
    keep = np.isfinite(v) & (v != 0.0)
    assert np.max(np.abs((v + flip)[keep & keep[::-1]])) <= 1e-14 * np.max(np.abs(v[keep]))


def test_exact_newton_flags_singular_nodes():
    g = rt.Grid3(17, 2.0)
    c = (g.n - 1) // 2
    m = rt.Molecule([(0.0, 0.0, 0.0)], [1.0])
    f = rt.direct_sum_oracle(m, g, kernel="exact_newton")
    assert [c, c, c] in f.meta["excluded_nodes"].tolist()
    assert f.values[c, c, c] == 0.0
    other = rt.GridFunction3(g, f.values + 1e-3)
    rep = rt.compare(other, f)
    assert rep.max_abs_excluding_cores <= rep.max_abs


def test_gaussian_oracle_needs_quadrature():
    g = rt.Grid3(9, 1.0)
    m = rt.Molecule([(0.0, 0.0, 0.0)], [1.0])
    with pytest.raises(rt.ConfigError):
        rt.direct_sum_oracle(m, g, kernel="gaussian_sum")
    with pytest.raises(rt.ConfigError):
        rt.direct_sum_oracle(m, g, kernel="bogus")


def test_gaussian_oracle_matches_uncompressed_assembly():
    g = rt.Grid3(33, 4.0)
    q = rt.build_quadrature(10, g.h, 2 * SQRT3 * g.b)
    k = rt.split_reference(rt.assemble_reference_tensor(q, g), 8, 1e-8)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2.5, 2.5, (3, 3))
    m = rt.Molecule(pts, [1.0, -1.0, 0.5])
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, k, None)
    oracle = rt.direct_sum_oracle(sm, g, kernel="gaussian_sum", quad=q)
    ref = rt.dense(rs.long)
    rt.scatter_short(rs, ref)
    assert np.max(np.abs(ref - oracle.values)) <= 1e-11 * np.max(np.abs(oracle.values))


def test_norm_homogeneity():
    rng = np.random.default_rng(2)
    g = rt.Grid3(9, 1.0)
    va = rng.standard_normal((9, 9, 9))
    vb = rng.standard_normal((9, 9, 9))
    r1 = rt.compare(_field(g, va), _field(g, vb))
    r3 = rt.compare(_field(g, 3 * va), _field(g, 3 * vb))
    assert r3.discrete_l2 == pytest.approx(3 * r1.discrete_l2, rel=1e-12)
    assert r3.max_abs == pytest.approx(3 * r1.max_abs, rel=1e-12)


def test_triangle_inequality():
    rng = np.random.default_rng(3)
    g = rt.Grid3(9, 1.0)
    a, b, c = (rng.standard_normal((9, 9, 9)) for _ in range(3))
    d_ac = rt.compare(_field(g, a), _field(g, c)).discrete_l2
    d_ab = rt.compare(_field(g, a), _field(g, b)).discrete_l2
    d_bc = rt.compare(_field(g, b), _field(g, c)).discrete_l2
    assert d_ac <= d_ab + d_bc + 1e-14


def test_core_exclusion_mask():
    g = rt.Grid3(17, 2.0)
    rng = np.random.default_rng(4)
    base = rng.standard_normal((17, 17, 17))
    bumped = base.copy()
    bumped[8, 8, 8] += 100.0
    a = _field(g, bumped)
    b = _field(g, base)
    # a core stays in every metric but the core-excluding max
    rep = rt.compare(a, b, exclude_centers=[(8, 8, 8)])
    assert rep.max_abs == pytest.approx(100.0, rel=1e-12)
    assert rep.max_abs_excluding_cores == 0.0
    assert rep.discrete_l2 == pytest.approx(100.0 * np.sqrt(g.h ** 3), rel=1e-12)
    # a node the reference leaves undefined drops out of every metric
    undefined = rt.GridFunction3(g, base, {"excluded_nodes": [(8, 8, 8)]})
    rep2 = rt.compare(a, undefined)
    assert rep2.discrete_l2 == rep2.rss == rep2.relative_l2 == 0.0
    assert rep2.max_abs == rep2.max_abs_excluding_cores == 0.0


def _drawn_nodes(rng, n, count, as_array):
    # count nodes, each coordinate anywhere on the grid or on one of its
    # faces, i3 also on the first or last plane of one of compare's blocks
    # of k planes, where a mask built per block could miss a core; as an
    # (count, 3) array or a list of triples
    k = max(1, 2 ** 15 // n ** 2)
    edges = [z for j in range(0, n, k) for z in (j, min(j + k, n) - 1)]
    pools = (range(n), (0, n - 1), edges)
    nodes = [tuple(int(rng.choice(pools[rng.integers(2 + (l == 2))]))
                   for l in range(3)) for _ in range(count)]
    return np.array(nodes, dtype=int).reshape(-1, 3) if as_array else nodes


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 10), seed=st.integers(0, 2 ** 32 - 1),
       n_centers=st.integers(0, 4), n_listed=st.integers(0, 3),
       fortran=st.booleans(), as_array=st.booleans())
def test_compare_matches_numpy_reference(n, seed, n_centers, n_listed,
                                         fortran, as_array):
    # all five metrics, cores given as centers and undefined nodes as the
    # reference's own list; a core at the middle of a 3-node grid covers
    # every node
    rng = np.random.default_rng(seed)
    g = rt.Grid3(n, rng.uniform(0.5, 5.0))
    a = rng.standard_normal((n, n, n))
    b = rng.standard_normal((n, n, n))
    if fortran:
        a, b = np.asfortranarray(a), np.asfortranarray(b)
    centers = _drawn_nodes(rng, n, n_centers, as_array)
    listed = _drawn_nodes(rng, n, n_listed, as_array)
    fb = rt.GridFunction3(g, b, {"excluded_nodes": listed})
    rep = rt.compare(_field(g, a), fb, exclude_centers=centers)
    ref = compare_reference(a, b, centers, listed, g.h)
    for k, v in ref.items():
        assert getattr(rep, k) == pytest.approx(v, rel=1e-12, abs=0.0), k
    assert np.array_equal(fb.values, b)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(40, 64), seed=st.integers(0, 2 ** 32 - 1),
       n_centers=st.integers(0, 6), n_listed=st.integers(0, 3),
       as_array=st.booleans())
def test_compare_slabs_match_reference(n, seed, n_centers, n_listed,
                                       as_array):
    # 2 to 7 blocks of planes on 1, 2 and 3 workers.  The values are
    # multiples of 2^-8 below 8 in magnitude, so every sum, difference and
    # sum of squares here is exact in any order: each worker count gives
    # the reference's metrics, and a block missed or counted twice would
    # show in full
    rng = np.random.default_rng(seed)
    g = rt.Grid3(n, rng.uniform(0.5, 5.0))
    u, b = (np.asfortranarray(v) for v in
            rng.integers(-2 ** 11, 2 ** 11, (2, n, n, n)) / 256.0)
    centers = _drawn_nodes(rng, n, n_centers, as_array)
    listed = _drawn_nodes(rng, n, n_listed, as_array)
    fb = rt.GridFunction3(g, b, {"excluded_nodes": listed})
    a = _field(g, u)
    want = compare_reference(u, b, centers, listed, g.h)
    reps = []
    for W in (1, 2, 3):
        with slab_workers(W):
            reps.append(rt.compare(a, fb, exclude_centers=centers))
    for rep in reps:
        assert dataclasses.asdict(rep) == dataclasses.asdict(reps[0])
        for k, v in want.items():
            assert getattr(rep, k) == pytest.approx(v, rel=1e-15, abs=0.0), k


def test_compare_same_bits_at_any_worker_and_blas_thread_count(
        set_blas_threads):
    # each block of planes sums its squares on a single-threaded BLAS and
    # the blocks are combined in order, so neither the slab workers nor
    # the BLAS thread count moves a bit of the report
    g = rt.Grid3(65, 2.0)
    rng = np.random.default_rng(11)
    u, s, b = (np.asfortranarray(v)
               for v in rng.standard_normal((3, 65, 65, 65)))
    fb = rt.GridFunction3(g, b, {"excluded_nodes": [(0, 0, 0), (64, 3, 64)]})
    centers = [(1, 2, 3), (30, 31, 63), (64, 64, 64)]
    reps = []
    for threads in (1, 2):
        set_blas_threads(threads)
        for W in (1, 2, 3):
            with slab_workers(W):
                reps.append(rt.compare(_field(g, u + s), fb,
                                       exclude_centers=centers))
    assert [r.keyvalues() for r in reps] == [reps[0].keyvalues()] * 6
    want = compare_reference(u + s, b, centers, fb.meta["excluded_nodes"], g.h)
    for k, v in want.items():
        assert getattr(reps[0], k) == pytest.approx(v, rel=1e-13, abs=0.0), k


def test_compare_all_nodes_excluded():
    # a reference undefined at every node leaves nothing to measure
    g = rt.Grid3(5, 1.0)
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((2, 5, 5, 5))
    every = [tuple(v) for v in np.argwhere(np.ones((5, 5, 5), dtype=bool))]
    rep = rt.compare(_field(g, a),
                     rt.GridFunction3(g, b, {"excluded_nodes": every}),
                     exclude_centers=[(2, 2, 2)])
    assert rep.max_abs == rep.max_abs_excluding_cores == 0.0
    assert rep.discrete_l2 == rep.rss == rep.relative_l2 == 0.0


@pytest.mark.parametrize("centers, listed", [
    ([(-5, -5, -5)], []), ([], [(-1, 0, 0)]), ([], [(9, 0, 0)])],
    ids=["center-below", "listed-below", "listed-above"])
def test_compare_refuses_nodes_off_the_grid(centers, listed):
    # a node off [0, 9)^3 is refused.  Taken as an index, a center at -5
    # slices 0:-3, marks nodes 0-5 of each axis as core and hides the bump
    # from the core-excluding max, a listed -1 drops node 8, and a listed
    # 9 is a bare IndexError.  The grid's corners are nodes like any other
    g = rt.Grid3(9, 1.0)
    base = np.ones((9, 9, 9))
    bumped = base.copy()
    bumped[4, 4, 4] += 1.0
    a = _field(g, bumped)
    with pytest.raises(rt.ConfigError):
        rt.compare(a, rt.GridFunction3(g, base, {"excluded_nodes": listed}),
                   exclude_centers=centers)
    corners = [(0, 0, 0), (8, 8, 8)]
    rep = rt.compare(a, rt.GridFunction3(g, base, {"excluded_nodes": corners}),
                     exclude_centers=corners)
    assert rep.max_abs == rep.max_abs_excluding_cores == 1.0


def test_compare_allocates_no_grid_array():
    # 2,000 centers and 100 listed nodes at n=129: compare holds each
    # worker's block buffers, the sorted node lists and, per block, the
    # cores of the centers that reach it, far below one n^3 bool mask
    n, N, M = 129, 2000, 100
    g = rt.Grid3(n, 4.0)
    rng = np.random.default_rng(12)
    a, b = (np.asfortranarray(v) for v in rng.standard_normal((2, n, n, n)))
    nodes = rng.integers(0, n, (N, 3))
    centers = nodes.tolist()
    fb = rt.GridFunction3(g, b, {"excluded_nodes": centers[:M]})
    W = 2
    with slab_workers(W):
        rt.compare(_field(g, a), fb, exclude_centers=centers)  # warm
        tracemalloc.start()
        try:
            rt.compare(_field(g, a), fb, exclude_centers=centers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    k = max(1, 2 ** 15 // n ** 2)
    blocks = -(-n // k)
    # the most centers whose cores reach one block: i3 within one plane
    per_plane = np.bincount(nodes[:, 2], minlength=n)
    m = max(per_plane[max(j * k - 1, 0):(j + 1) * k + 1].sum()
            for j in range(blocks))
    # a worker: its float buffer, keep mask and compacted reference block
    # (17 bytes a node), and a block's 27 m core nodes as int64 triples,
    # three times over while they are shifted and clipped into the block
    worker = 17 * n * n * k + 27 * m * 3 * 24
    # a node list: its int64 copy, sorted copy and Fortran copy, its
    # argsort and three bool range tests
    lists = (N + M) * (3 * 24 + 8 + 3 * 3)
    bound = W * worker + lists + 2 ** 16
    assert bound < n ** 3, bound  # below one n^3 bool
    assert peak <= bound, (peak, bound)


def test_report_text_and_files(tmp_path):
    g = rt.Grid3(9, 1.0)
    rng = np.random.default_rng(5)
    a = _field(g, rng.standard_normal((9, 9, 9)))
    b = _field(g, rng.standard_normal((9, 9, 9)))
    rep = rt.compare(a, b, config={"case": "unit"})
    txt = rep.text()
    assert "discrete L2" in txt and "case: unit" in txt
    p = tmp_path / "report.txt"
    rt.write_report(rep, p)
    assert "discrete L2" in p.read_text()
    kv = (tmp_path / "report.txt.kv").read_text()
    got = dict(line.split("=", 1) for line in kv.splitlines() if "=" in line)
    assert float(got["discrete_l2"]) == pytest.approx(rep.discrete_l2, rel=1e-15)
    assert float(got["max_abs"]) == pytest.approx(rep.max_abs, rel=1e-15)


@st.composite
def _gaussian_case(draw):
    n = draw(st.sampled_from([5, 8, 11]))
    g = rt.Grid3(n, draw(st.floats(1.0, 3.0)))
    R = draw(st.integers(1, 6))
    t = np.sort(np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=R,
                                       max_size=R, unique=True))))
    c = np.array(draw(st.lists(st.floats(0.01, 3.0), min_size=R, max_size=R)))
    q = rt.SincQuadrature(t, c, (g.h, 2 * SQRT3 * g.b), 0.0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    N = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["off_grid", "duplicated", "snapped"]))
    pos = rng.uniform(-g.b, g.b, (N, 3))
    if kind == "duplicated":
        pos = pos[rng.integers(0, max(1, N // 2), N)]
    elif kind == "snapped":
        pos = -g.b + rng.integers(0, n, (N, 3)) * g.h
    z = rng.uniform(-2.0, 2.0, N)
    return g, q, pos, z


@settings(max_examples=60, deadline=None)
@given(_gaussian_case())
def test_gaussian_field_matches_pointwise_sum(case):
    # pointwise sum_a z_a sum_k c_k exp(-t_k^2 |x - p_a|^2) at every node;
    # the bound is relative to the sum of the terms' magnitudes; up to
    # 6 * 12 groups on n <= 11 also cross the n-group chunk boundaries
    g, q, pos, z = case
    field = rt.gaussian_field(pos, z, g, q)
    assert field.flags.f_contiguous
    x = g.coords()
    X = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    r2 = np.sum((X[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
    terms = np.exp(-r2[:, :, None] * q.nodes ** 2) * q.weights
    ref = terms.sum(axis=2) @ z
    scale = terms.sum(axis=2) @ np.abs(z)
    assert np.all(np.abs(field.ravel() - ref) <= 1e-13 * scale)


def test_gaussian_oracle_memory():
    # on clusters the oracle, not the compose pass, sets the peak of
    # run_case, so it is bounded on its own: the output, _plane_sum's kab
    # blocks, no more than the unchunked one of min(n // R, Z) planes of R
    # n x n slices and at most 2^21 floats for each of the W shares (a
    # mode-2 row is G n = 8439 floats here), the three (R, distinct, n)
    # tables, the weighted copy of the first and the tile buffer of
    # min(2^20 // n, n^2 // 8) rows.  The unweighted first table is gone
    # before kab exists, which leaves room for the per-plane gathers;
    # 2^18 bytes cover the index arrays and the mode-3 block.  A
    # second n^3 array (7.3 MB here) breaks the bound.
    m = rt.synthetic_cluster(400, 12.0, seed=1)
    g = rt.Grid3(97, rt.resolve_box(rt.RunConfig(n=97), m))
    q = rt.build_quadrature(29, g.h, 2 * SQRT3 * g.b)
    snapped = rt.snapped_molecule(m, g)[0]
    rt.direct_sum_oracle(snapped, g, quad=q)  # caches filled outside
    tracemalloc.start()
    try:
        rt.direct_sum_oracle(snapped, g, quad=q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n, R = g.n, q.rank
    u = [np.unique(snapped.positions[:, l]).size for l in range(3)]
    W = min(n, rt.formats._slab_workers())
    kab = min(min(n // R, u[2]) * R * n * n, W * 2 ** 21)
    rows = min(2 ** 20 // n, n * n // 8)
    bound = 8 * (n ** 3 + kab + R * n * (sum(u) + u[0]) + rows * n) + 2 ** 18
    assert peak <= bound, (peak, bound)


# the molecule and config of each case, whose run oracle (the snapped
# charges on the run's grid and quadrature) the two tests below rebuild
_ORACLE_CASES = {
    "born-n33": ("born.pqr", dict(n=33, b=8.0)),
    "ligand18-n65": ("ligand18.pqr", dict(n=65)),
    "ligand18-n129": ("ligand18.pqr", dict(n=129)),
    "cluster60-n33": (60, dict(n=33, b=10.0)),
}


def _oracle_case(name):
    source, kw = _ORACLE_CASES[name]
    m = (rt.synthetic_cluster(source, 5.0, seed=7) if isinstance(source, int)
         else rt.parse_pqr(os.path.join(FIXTURES, source)))
    cfg = rt.RunConfig(**kw)
    g = rt.Grid3(cfg.n, rt.resolve_box(cfg, m))
    return rt.snapped_molecule(m, g)[0], g, _resolve_quadrature(cfg, g)


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_gaussian_field_floor_keeps_every_bit(name):
    # zeroing the table entries below the floor moves no bit of the oracle
    # against its raw tables, which hold subnormal entries in every case,
    # on one slab worker or two
    m, g, q = _oracle_case(name)
    for W in (1, 2):
        with slab_workers(W):
            got = rt.gaussian_field(m.positions, m.charges, g, q)
            want = raw_gaussian_field(m.positions, m.charges, g, q)
        assert same_bits(got, want), W


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_gaussian_field_tables_have_no_subnormal(name, monkeypatch):
    # every table entry _plane_sum gets is 0 or at least the floor F, and
    # F^3 min|w| min|z| is normal, so no operand of the oracle's GEMMs and
    # no product of one entry of each table, weight and charge is subnormal
    m, g, q = _oracle_case(name)
    real, seen = validation._plane_sum, []

    def spy(table, w, points, z):
        def record(l, u):
            seen.append(table(l, u))
            return seen[-1]
        seen.append((np.min(np.abs(w)), np.min(np.abs(z))))
        return real(record, w, points, z)

    monkeypatch.setattr(validation, "_plane_sum", spy)
    rt.gaussian_field(m.positions, m.charges, g, q)
    (w_min, z_min), tables = seen[0], seen[1:]
    F = validation._FLOOR
    assert len(tables) == 3
    for t in tables:
        assert np.all((t == 0.0) | (t >= F))
    assert F ** 3 * w_min * z_min >= np.finfo(float).tiny


# each case runs in a fresh interpreter after "import rstensor as rt" and
# "from rstensor.cli import RunConfig, _assemble_stage"
_SCIPY_CASES = {
    "import": "",
    "oracle": (
        "g = rt.Grid3(9, 2.0)\n"
        "q = rt.SincQuadrature(np.array([0.5, 1.0]), np.array([1.0, 0.5]),\n"
        "                      (g.h, 1.0), 0.0)\n"
        "f = rt.gaussian_field(np.zeros((1, 3)), np.ones(1), g, q)\n"
        "assert f[4, 4, 4] == 1.5\n"),
    # the default path: tabled quadrature, no solve, Gaussian-sum oracle
    "run_case": (
        "m = rt.parse_pqr(%r)\n"
        "out = rt.run_case(RunConfig(n=65), m)\n"
        "assert out['metrics']['oracle'] == 'gaussian_sum'\n"
        % os.path.join(_ROOT, "fixtures", "ligand18.pqr")),
    # a cluster whose long rank is reduced (1080 -> 795)
    "reduced_assembly": (
        "m = rt.synthetic_cluster(60, 5.0, seed=7)\n"
        "rs = _assemble_stage(RunConfig(n=33, b=10.0), m, {})[0]\n"
        "assert rs.long_image is not None, rs.long.rank\n"
        "assert rs.long.rank < rs.long_rank_pre, rs.long.rank\n"),
    # the DST solve of --bc analytic is the one user of scipy.fft
    "analytic": (
        "m = rt.parse_pqr(%r)\n"
        "bcs = []\n"
        "rt.run_case(RunConfig(n=33, b=8.0, bc='analytic'), m,\n"
        "            on_parts=lambda u_long, short: bcs.append(u_long.meta['bc']))\n"
        "assert bcs == ['trace']\n"
        % os.path.join(_ROOT, "fixtures", "born.pqr")),
}


@pytest.mark.parametrize("case", sorted(_SCIPY_CASES))
def test_scipy_loads_only_for_the_analytic_solve(case):
    # numpy alone serves import, the oracle, assembly with its reduction and
    # a homogeneous run; only the sine transforms of a solve load scipy
    code = ("import sys\n"
            "import numpy as np\n"
            "import rstensor as rt\n"
            "from rstensor.cli import RunConfig, _assemble_stage\n"
            + _SCIPY_CASES[case] +
            "print(' '.join(sorted(k for k in sys.modules\n"
            "                      if k.startswith('scipy'))))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(_ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    loaded = res.stdout.split()
    if case == "analytic":
        assert "scipy.fft" in loaded
    else:
        assert loaded == []
