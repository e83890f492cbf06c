import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rstensor as rt

SQRT3 = np.sqrt(3.0)


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
    assert (c, c, c) in f.meta["excluded_nodes"]
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


def _compare_reference(a, b, centers, listed, h):
    # plain numpy: the listed nodes leave every metric, the radius-1 cores
    # of the centers only the core-excluding max
    core = np.zeros(a.shape, dtype=bool)
    for c in centers:
        core[tuple(slice(max(ci - 1, 0), ci + 2) for ci in c)] = True
    keep = np.ones(a.shape, dtype=bool)
    for c in listed:
        keep[c] = False
    diff = a - b
    ss = np.sum(diff[keep] ** 2)
    ref_ss = np.sum(b[keep] ** 2)
    return {"discrete_l2": np.sqrt(h ** 3 * ss), "rss": np.sqrt(ss),
            "relative_l2": np.sqrt(ss / ref_ss) if ref_ss > 0 else 0.0,
            "max_abs": np.max(np.abs(diff[keep]), initial=0.0),
            "max_abs_excluding_cores": np.max(np.abs(diff[keep & ~core]),
                                              initial=0.0)}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 10), seed=st.integers(0, 2 ** 32 - 1),
       n_centers=st.integers(0, 4), n_listed=st.integers(0, 3),
       fortran=st.booleans())
def test_compare_matches_numpy_reference(n, seed, n_centers, n_listed,
                                         fortran):
    # all five metrics, cores given as centers and undefined nodes as the
    # reference's own list; a core at the middle of a 3-node grid covers
    # every node
    rng = np.random.default_rng(seed)
    g = rt.Grid3(n, rng.uniform(0.5, 5.0))
    a = rng.standard_normal((n, n, n))
    b = rng.standard_normal((n, n, n))
    if fortran:
        a, b = np.asfortranarray(a), np.asfortranarray(b)
    centers = [tuple(int(v) for v in rng.integers(0, n, 3))
               for _ in range(n_centers)]
    listed = [tuple(int(v) for v in rng.integers(0, n, 3))
              for _ in range(n_listed)]
    fb = rt.GridFunction3(g, b, {"excluded_nodes": listed})
    rep = rt.compare(_field(g, a), fb, exclude_centers=centers)
    ref = _compare_reference(a, b, centers, listed, g.h)
    for k, v in ref.items():
        assert getattr(rep, k) == pytest.approx(v, rel=1e-12, abs=0.0), k
    assert np.array_equal(fb.values, b)


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


def test_oracle_alone_imports_scipy_linalg():
    # import rstensor stays without scipy.linalg; gaussian_field loads it
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import rstensor as rt\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "g = rt.Grid3(9, 2.0)\n"
        "q = rt.SincQuadrature(np.array([0.5, 1.0]), np.array([1.0, 0.5]),\n"
        "                      (g.h, 1.0), 0.0)\n"
        "f = rt.gaussian_field(np.zeros((1, 3)), np.ones(1), g, q)\n"
        "assert f[4, 4, 4] == 1.5\n"
        "assert 'scipy.linalg' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
