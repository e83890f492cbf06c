import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rstensor as rt
from conftest import rand_canonical, same_bits, slab_workers
from helpers import (eval_entries, scatter_short_serial, shift_and_window,
                     split_by_count)
from rstensor import formats
from rstensor.assembly import _columns, _template_radius
from rstensor.formats import (c2t_shift_sum, shift_sum, t2c_with_image,
                              zero_canonical)

SQRT3 = np.sqrt(3.0)


def _kernel(g, R=10, gamma=8, eps=1e-8):
    q = rt.build_quadrature(R, g.h, 2 * SQRT3 * g.b)
    return rt.split_reference(rt.assemble_reference_tensor(q, g), gamma, eps)


def test_snap_exact_node():
    g = rt.Grid3(33, 4.0)
    m = rt.Molecule([(0.25, -0.5, 0.0)], [1.0])
    nodes, offsets = rt.snap_to_grid(m, g)
    assert nodes.tolist() == [[17, 14, 16]]
    assert np.max(np.abs(offsets)) == 0.0


def test_snap_tie_rounds_away_from_center():
    g = rt.Grid3(5, 1.0)  # h = 0.5, nodes at -1,-0.5,0,0.5,1
    m = rt.Molecule([(0.25, -0.25, 0.0)], [1.0])
    nodes, offsets = rt.snap_to_grid(m, g)
    assert nodes.tolist() == [[3, 1, 2]]
    assert abs(offsets[0, 0]) == pytest.approx(g.h / 2)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 64), b=st.floats(min_value=0.5, max_value=50.0),
       data=st.data())
def test_snap_ties_round_away_from_center_property(n, b, data):
    # per axis: an exact node, or the exact midpoint of nodes k and k+1
    g = rt.Grid3(n, b)
    c = 0.5 * (n - 1)
    ks = [data.draw(st.integers(0, n - 2)) for _ in range(3)]
    ties = [data.draw(st.booleans()) for _ in range(3)]
    pos = [-b + (k + 0.5 * t) * g.h for k, t in zip(ks, ties)]
    nodes, offsets = rt.snap_to_grid(rt.Molecule([pos], [1.0]), g)
    idx, off = nodes[0], offsets[0]
    for l in range(3):
        k = ks[l]
        if not ties[l]:
            assert idx[l] == k
        elif k + 0.5 > c:
            assert idx[l] == k + 1
        elif k + 0.5 < c:
            assert idx[l] == k
        else:
            # a tie at the centre: both nodes are equally far from it
            assert idx[l] in (k, k + 1)
        assert abs(off[l]) <= 0.5 * g.h * (1 + 1e-9)


def test_snap_matches_brute_force():
    g = rt.Grid3(129, 16.0)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-15.0, 15.0, (18, 3))
    m = rt.Molecule(pts, np.ones(len(pts)))
    x = g.coords()
    for idx, off, p in zip(*rt.snap_to_grid(m, g), pts):
        assert np.max(np.abs(off)) <= g.h / 2 + 1e-12
        for l in range(3):
            assert idx[l] == int(np.argmin(np.abs(x - p[l])))


def test_snap_rejects_outside_box():
    g = rt.Grid3(33, 4.0)
    with pytest.raises(rt.ConfigError):
        rt.snap_to_grid(rt.Molecule([(5.0, 0, 0)], [1.0]), g)


_TWO_ATOMS = dict(positions=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
                  charges=[1.0, -1.0])


@pytest.mark.parametrize("change,message", [
    (dict(charges=[1.0]), "N charges"),
    (dict(radii=[1.0]), "N charges and radii"),
    (dict(positions=[0.0, 0.0, 0.0]), "(N, 3) positions"),
    (dict(positions=np.zeros((0, 3)), charges=[]), "no atoms"),
    (dict(positions=[(0, 0, 0), (np.nan, 0, 0)]), "positions must be finite"),
    (dict(positions=[(0, 0, 0), (0, np.inf, 0)]), "positions must be finite"),
    (dict(charges=[1.0, np.nan]), "charges must be finite"),
    (dict(charges=[-np.inf, 1.0]), "charges must be finite"),
    (dict(radii=[1.0, -0.5]), "radii must be nonnegative")],
    ids=["charges-length", "radii-length", "flat-positions", "empty",
         "nan-position", "inf-position", "nan-charge", "inf-charge",
         "negative-radius"])
def test_molecule_rejects_bad_input(change, message):
    with pytest.raises(rt.DataError) as e:
        rt.Molecule(**dict(_TWO_ATOMS, **change))
    assert message in str(e.value)


def test_molecule_copies_its_arrays():
    pos, z = np.zeros((2, 3)), np.array([1.0, -1.0])
    m = rt.Molecule(pos, z)
    pos[0, 0], z[0] = 5.0, 3.0
    assert m.positions[0, 0] == 0.0 and m.charges[0] == 1.0
    assert m.radii.tolist() == [0.0, 0.0] and m.n_atoms == 2


def test_window_zero_shift_center_value():
    g = rt.Grid3(33, 4.0)
    k = _kernel(g)
    c = (g.n - 1) // 2
    win = shift_and_window(k, (c, c, c), part="both")
    v = rt.eval_entry(win, (c, c, c))
    assert v == pytest.approx(float(np.sum(k.quadrature.weights)), rel=1e-13)


def test_window_unit_shift_advances_one_axis():
    g = rt.Grid3(33, 4.0)
    k = _kernel(g)
    c = (g.n - 1) // 2
    w0 = shift_and_window(k, (c, c, c), part="both")
    w1 = shift_and_window(k, (c + 1, c, c), part="both")
    assert np.array_equal(w1.factors[0][1:], w0.factors[0][:-1])
    assert np.array_equal(w1.factors[1], w0.factors[1])
    assert np.array_equal(w1.factors[2], w0.factors[2])


def test_window_matches_pointwise_gaussian_sum():
    g = rt.Grid3(65, 8.0)
    k = _kernel(g, R=12)
    q = k.quadrature
    rng = np.random.default_rng(1)
    c = tuple(rng.integers(10, 55, 3))
    win = shift_and_window(k, c, part="both")
    x = g.coords()
    xc = np.array([x[c[0]], x[c[1]], x[c[2]]])
    idx = rng.integers(0, 65, (20, 3))
    for i in idx:
        p = np.array([x[i[0]], x[i[1]], x[i[2]]])
        ref = float(np.sum(q.weights * np.exp(-q.nodes ** 2 * np.sum((p - xc) ** 2))))
        assert rt.eval_entry(win, tuple(int(v) for v in i)) == pytest.approx(ref, abs=1e-12)


def test_assemble_rejects_margin_violation():
    g = rt.Grid3(33, 4.0)
    k = _kernel(g, gamma=8)  # needs margin >= gamma*h/2 = 0.5
    m = rt.Molecule([(3.9, 0.0, 0.0)], [1.0])
    with pytest.raises(rt.ConfigError):
        rt.assemble_collective(m, k, None)


def test_assemble_requires_split_kernel():
    g = rt.Grid3(33, 4.0)
    q = rt.build_quadrature(10, g.h, 2 * SQRT3 * g.b)
    k0 = rt.assemble_reference_tensor(q, g)
    m = rt.Molecule([(0.0, 0.0, 0.0)], [1.0])
    with pytest.raises(rt.ConfigError):
        rt.assemble_collective(m, k0, None)


def test_single_charge_equals_reference_window():
    g = rt.Grid3(33, 4.0)
    k = _kernel(g)
    m = rt.Molecule([(0.0, 0.0, 0.0)], [1.0])
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, k, None)
    c = (g.n - 1) // 2
    win = shift_and_window(k, (c, c, c), part="both")
    rng = np.random.default_rng(2)
    idx = rng.integers(0, 33, (50, 3))
    scale = float(np.sum(k.quadrature.weights))
    tail = k.n_short * k.eps_support * float(np.max(k.quadrature.weights))
    for i in idx:
        i = tuple(int(v) for v in i)
        assert abs(rt.rs_eval_entry(rs, i) - rt.eval_entry(win, i)) \
            <= 2 * tail + 1e-12 * scale


def test_collective_matches_gaussian_oracle(ligand_mol):
    # independent code path: chunked dense oracle vs windowed assembly
    g = rt.Grid3(129, 16.0)
    q = rt.build_quadrature(29, g.h, 2 * SQRT3 * g.b)
    k = rt.split_reference(rt.assemble_reference_tensor(q, g), 28, 1e-8)
    sm, _ = rt.snapped_molecule(ligand_mol, g)
    rs = rt.assemble_collective(sm, k, None)
    assert rs.long_rank_pre == 18 * k.split_index
    oracle = rt.direct_sum_oracle(sm, g, kernel="gaussian_sum", quad=q)
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 129, (100, 3))
    ref = oracle.values[idx[:, 0], idx[:, 1], idx[:, 2]]
    vals = np.array([rt.rs_eval_entry(rs, tuple(int(v) for v in i)) for i in idx])
    assert np.max(np.abs(vals - ref)) <= 1e-11


@pytest.mark.parametrize("case", ["born-n33", "ligand18-n129"])
def test_template_dense_drops_subnormal_factors(born_mol, ligand_mol,
                                                monkeypatch, case):
    # the short template's factors hold subnormal entries (6 on born, 12
    # on ligand18 at n = 129); the cached dense template is densified with
    # them zeroed in a copy, so no GEMM operand is subnormal, keeps every
    # bit of dense(short_reference) and leaves the factors as they were
    m, cfg = {"born-n33": (born_mol, rt.RunConfig(n=33, b=8.0)),
              "ligand18-n129": (ligand_mol, rt.RunConfig(n=129))}[case]
    rs = rt.cli._assemble_stage(cfg, m, {})[0]
    tiny = np.finfo(float).tiny
    subnormal = lambda A: np.sum((A != 0) & (np.abs(A) < tiny))
    before = [A.copy() for A in rs.short_reference.factors]
    assert sum(subnormal(A) for A in before) > 0
    seen = []

    def spy(t):
        seen.append(sum(subnormal(A) for A in t.factors))
        return formats.dense(t)

    monkeypatch.setattr(rt.assembly, "dense", spy)
    T = rs.template_dense()
    assert seen == [0]
    assert same_bits(T, formats.dense(rs.short_reference))
    assert all(same_bits(A, B) for A, B in zip(rs.short_reference.factors,
                                               before))
    assert rs.template_dense() is T


def test_rs_additivity_dense():
    g = rt.Grid3(17, 2.0)
    k = _kernel(g, R=8, gamma=4)
    m = rt.Molecule([(0.5, 0.0, -0.25), (-0.5, 0.25, 0.0), (0.0, -0.5, 0.5)],
                    [1.0, -0.7, 0.3])
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, k, None)
    ref = rt.dense(rs.long)
    rt.scatter_short(rs, ref)
    for i in np.ndindex(17, 17, 17):
        assert abs(rt.rs_eval_entry(rs, i) - ref[i]) <= 1e-10
    # a weight factor of 1.0 is the default bit for bit; another scales each
    # window's weight, so where windows overlap the sum rounds in another
    # order than the scaled field
    short = rt.scatter_short(rs, np.zeros((17, 17, 17)))
    assert same_bits(rt.scatter_short(rs, np.zeros((17, 17, 17)), 1.0), short)
    scaled = rt.scatter_short(rs, np.zeros((17, 17, 17)), -0.37)
    assert np.max(np.abs(scaled + 0.37 * short)) \
        <= 4 * np.spacing(0.37 * np.max(np.abs(short)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 12), r=st.integers(0, 4), n_atoms=st.integers(0, 12),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.one_of(st.floats(-1e6, 1e6), st.sampled_from(
           [-0.0, 5e-324, -1.5e-310])), order=st.sampled_from("FC"))
def test_scatter_short_slabs_match_serial(n, r, n_atoms, seed, scale, order):
    # windows up to 9 nodes wide on grids of 3 to 12, centred anywhere, so
    # the faces clip them, and so do the slab edges of 2 and 3 workers:
    # each node gets its adds in atom order at any worker count
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, n, (n_atoms, 3))
    weights = rng.standard_normal(n_atoms)
    rs = rt.RSTensor(rt.Grid3(n, 1.0), rt.zero_canonical((n,) * 3),
                     rand_canonical(rng, 2 * r + 1, 3), nodes, weights,
                     gamma=2 * r + 2, quad_rank=1)
    base = np.asarray(rng.standard_normal((n, n, n)), order=order)
    want = scatter_short_serial(rs, base.copy(order=order), scale)
    for W in (1, 2, 3):
        with slab_workers(W):
            assert same_bits(rt.scatter_short(rs, base.copy(order=order),
                                              scale), want), W


@pytest.fixture(scope="module")
def kernel33():
    k = _kernel(rt.Grid3(33, 8.0), R=12, gamma=6)
    assert k.n_short > 0
    return k


@settings(max_examples=30, deadline=None)
@given(n_atoms=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       reduce=st.booleans())
def test_rs_eval_entry_matches_dense_plus_short(kernel33, n_atoms, seed,
                                                 reduce):
    # entry evaluation against the densified long part plus the scattered
    # short part, at atom centres and at random nodes
    g = kernel33.grid
    rng = np.random.default_rng(seed)
    m = rt.synthetic_cluster(n_atoms, 4.0, min_sep=0.5, seed=seed)
    charges = rng.uniform(-2.0, 2.0, n_atoms)
    m = rt.Molecule(m.positions, charges)
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, kernel33,
                                1e-8 * g.h ** 2 if reduce else None)
    ref = rt.dense(rs.long)
    rt.scatter_short(rs, ref)
    nodes = [tuple(c) for c in rs.nodes.tolist()]
    nodes += [tuple(int(v) for v in i) for i in rng.integers(0, 33, (20, 3))]
    vals = np.array([rt.rs_eval_entry(rs, i) for i in nodes])
    assert np.max(np.abs(vals - np.array([ref[i] for i in nodes]))) \
        <= 1e-12 * np.max(np.abs(ref))


def test_far_node_sees_long_part_only():
    g = rt.Grid3(65, 8.0)
    k = _kernel(g, R=12, gamma=6)
    m = rt.Molecule([(0.0, 0.0, 0.0)], [1.0])
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, k, None)
    i = (5, 5, 5)  # far corner, beyond the template radius
    assert rt.rs_eval_entry(rs, i) == rt.eval_entry(rs.long, i)
    assert len(rs.nearby_atoms(i)) == 0


def _index_case(n, gamma, centres, weights):
    # RS tensor with a zero long part and a random template of the radius
    # assembly gives gamma, so the short part alone is queried
    L = 2 * _template_radius(gamma) + 1
    rng = np.random.default_rng(0)
    ref = rt.CanonicalTensor3(rng.uniform(0.5, 1.5, 2),
                              tuple(rng.standard_normal((L, 2))
                                    for _ in range(3)))
    return rt.RSTensor(rt.Grid3(n, 4.0), zero_canonical((n, n, n)), ref,
                       np.array(centres, dtype=int).reshape(-1, 3),
                       np.array(weights, dtype=float), gamma, 2)


def _scan_nearby(rs, i):
    # brute-force Chebyshev scan of the atoms' centre nodes
    r = rs.support_radius
    return [a for a, c in enumerate(rs.nodes.tolist())
            if max(abs(i[0] - c[0]), abs(i[1] - c[1]), abs(i[2] - c[2])) <= r]


def _scan_entry(rs, i):
    T = rs.template_dense()
    r = rs.support_radius
    near = _scan_nearby(rs, i)
    return sum(w * T[i[0] - c[0] + r, i[1] - c[1] + r, i[2] - c[2] + r]
               for c, w in zip(rs.nodes[near].tolist(),
                               rs.weights[near].tolist()))


@settings(max_examples=60, deadline=None)
@given(gamma=st.integers(1, 8), data=st.data())
def test_nearby_atoms_matches_scan(gamma, data):
    # centres anywhere on the grid, faces and corners included, some
    # atoms sharing a node; queries at random nodes and at Chebyshev
    # distance r and r + 1 from a centre
    n = data.draw(st.integers(3, 4 * gamma + 8))
    coord = st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1))
    node = st.tuples(coord, coord, coord)
    centres = data.draw(st.lists(node, min_size=1, max_size=25))
    centres += data.draw(st.lists(st.sampled_from(centres), max_size=3))
    weights = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(centres),
                                 max_size=len(centres)))
    rs = _index_case(n, gamma, centres, weights)
    r = rs.support_radius
    assert r == _template_radius(gamma)
    queries = data.draw(st.lists(node, min_size=1, max_size=20))
    for c in centres[:5]:
        for d in (r, r + 1):
            step = data.draw(st.tuples(*[st.sampled_from([-d, d])] * 3))
            q = tuple(min(max(v + s, 0), n - 1) for v, s in zip(c, step))
            queries.append(q)
    scale = np.max(np.abs(rs.template_dense())) * (1 + np.sum(np.abs(weights)))
    for i in queries:
        hits = rs.nearby_atoms(i)
        assert hits.dtype.kind == "i"
        assert sorted(hits.tolist()) == _scan_nearby(rs, i)
        assert abs(rt.rs_eval_entry(rs, i) - _scan_entry(rs, i)) \
            <= 1e-12 * scale


@pytest.mark.parametrize("gamma", range(1, 9))
def test_nearby_atoms_window_edge(gamma):
    # a node at Chebyshev distance exactly r is in the window, r + 1 is not,
    # on every axis and on the corner diagonals
    n = 4 * gamma + 9
    c = (n // 2,) * 3
    rs = _index_case(n, gamma, [c], [1.0])
    r = rs.support_radius
    steps = [s for s in np.ndindex(3, 3, 3) if s != (1, 1, 1)]
    for d, hit in ((r, True), (r + 1, False)):
        for s in steps:
            i = tuple(v + d * (k - 1) for v, k in zip(c, s))
            assert (len(rs.nearby_atoms(i)) == 1) == hit, (d, s)
            val = rt.rs_eval_entry(rs, i)
            assert (val == _scan_entry(rs, i)) if hit else val == 0.0


def test_charge_change_is_local_in_short_part():
    g = rt.Grid3(33, 4.0)
    k = _kernel(g, gamma=6)
    pts = [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0)]
    s1 = np.zeros((33, 33, 33))
    s2 = np.zeros((33, 33, 33))
    sm1, _ = rt.snapped_molecule(rt.Molecule(pts, [1.0, -1.0]), g)
    sm2, _ = rt.snapped_molecule(rt.Molecule(pts, [1.0, -0.5]), g)
    rs1 = rt.assemble_collective(sm1, k, None)
    rs2 = rt.assemble_collective(sm2, k, None)
    rt.scatter_short(rs1, s1)
    rt.scatter_short(rs2, s2)
    diff = np.abs(s1 - s2)
    r = rs1.support_radius
    c = rs1.nodes[1].tolist()
    mask = np.ones_like(diff, dtype=bool)
    mask[max(c[0] - r, 0):c[0] + r + 1,
         max(c[1] - r, 0):c[1] + r + 1,
         max(c[2] - r, 0):c[2] + r + 1] = False
    assert np.max(diff[mask]) == 0.0
    assert np.max(diff) > 0.0


def test_assembly_linear_in_charges():
    g = rt.Grid3(33, 4.0)
    k = _kernel(g)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2.0, 2.0, (4, 3))
    z = rng.uniform(-1, 1, 4)
    m1 = rt.Molecule(pts, z)
    m2 = rt.Molecule(pts, 2 * z)
    sm1, _ = rt.snapped_molecule(m1, g)
    sm2, _ = rt.snapped_molecule(m2, g)
    rs1 = rt.assemble_collective(sm1, k, None)
    rs2 = rt.assemble_collective(sm2, k, None)
    idx = rng.integers(0, 33, (40, 3))
    v1 = np.array([rt.rs_eval_entry(rs1, tuple(int(v) for v in i)) for i in idx])
    v2 = np.array([rt.rs_eval_entry(rs2, tuple(int(v) for v in i)) for i in idx])
    assert np.max(np.abs(v2 - 2 * v1)) <= 1e-12 * np.max(np.abs(v1))


def test_short_centers_away_from_boundary():
    g = rt.Grid3(65, 8.0)
    k = _kernel(g, R=12, gamma=6)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-6.0, 6.0, (10, 3))
    m = rt.Molecule(pts, np.ones(len(pts)))
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, k, None)
    for c in rs.nodes.tolist():
        assert min(min(c), g.n - 1 - max(c)) >= rs.gamma // 2


def test_compression_reduces_rank_keeps_entries():
    # compression pays off once the stacked rank clears the re-expansion
    # bound of the core transform; 100 atoms x 15 columns is well past it
    cl = rt.synthetic_cluster(100, 10.0, min_sep=1.0, seed=21)
    g = rt.Grid3(129, 15.0)
    q = rt.build_quadrature(29, g.h, 2 * SQRT3 * g.b)
    k = split_by_count(rt.assemble_reference_tensor(q, g), 15,
                          rt.gamma_for_separation(g, 3.5))
    sm, _ = rt.snapped_molecule(cl, g)
    rs0 = rt.assemble_collective(sm, k, None)
    rs1 = rt.assemble_collective(sm, k, 1e-8)
    assert rs1.long_rank_pre == rs0.long.rank == 100 * 15
    assert rs1.long.rank < 400
    rng = np.random.default_rng(6)
    idx = rng.integers(0, 129, (60, 3))
    v0 = eval_entries(rs0.long, idx)
    v1 = eval_entries(rs1.long, idx)
    assert np.max(np.abs(v1 - v0)) <= 1e-6 * np.max(np.abs(v0))


def _plane_cluster(seed, n_atoms, g, k):
    # atoms on a few shared coordinate planes, some on the same node, with
    # mixed-sign fractional charges
    rng = np.random.default_rng(seed)
    lo = k.separation_gamma // 2 + 1
    planes = [rng.choice(np.arange(lo, g.n - lo), 4, replace=False)
              for _ in range(3)]
    idx = np.stack([rng.choice(p, n_atoms) for p in planes], axis=1)
    idx[-3:] = idx[:3]
    z = rng.uniform(-2.0, 2.0, n_atoms)
    z[::5] = np.round(z[::5])
    return rt.Molecule(-g.b + idx * g.h, z)


def _equivalence_cases(ligand_mol):
    g = rt.Grid3(33, 4.0)
    k = _kernel(g, R=14, gamma=6)
    # 40 atoms: t2c returns 629 terms for the 520 stacked ones, so the
    # explicit tensor is kept; 90 atoms: 1170 terms reduce to 648
    for seed, n_atoms in ((7, 40), (8, 90)):
        yield _plane_cluster(seed, n_atoms, g, k), k, 1e-9
    # the ligand at n=33 with the default kernel: t2c returns 512 terms for
    # the 18 * 18 it started from, so reduction does not pay either
    g = rt.Grid3(33, rt.resolve_box(rt.RunConfig(n=33), ligand_mol))
    q = rt.build_quadrature(24, g.h, 2 * SQRT3 * g.b)
    k = rt.split_reference(rt.assemble_reference_tensor(q, g),
                           rt.gamma_for_separation(g, 3.5), 1e-8)
    sm, _ = rt.snapped_molecule(ligand_mol, g)
    yield sm, k, 1e-8 * g.h ** 2


def test_binned_reduction_matches_stacked_reduction(ligand_mol):
    reduced = []
    for m, k, eps in _equivalence_cases(ligand_mol):
        rs = rt.assemble_collective(m, k, eps)
        explicit = rt.assemble_collective(m, k, None).long
        ref = rt.reduce_rank(explicit, eps)
        assert rs.long_rank_pre == explicit.rank == m.n_atoms * k.split_index
        assert rs.long.rank == ref.rank
        d_ref = rt.dense(ref)
        assert np.max(np.abs(rt.dense(rs.long) - d_ref)) \
            <= 1e-12 * np.max(np.abs(d_ref))
        reduced.append(rs.long.rank < rs.long_rank_pre)
    assert reduced == [False, True, False]
    assert rs.long.rank == 18 * 18


@pytest.fixture(scope="module")
def cluster400():
    # a 400-atom cluster at n=65: Tucker ranks 65, R_L 22, 45 planes
    m = rt.synthetic_cluster(400, 12.0, seed=1)
    g = rt.Grid3(65, rt.resolve_box(rt.RunConfig(n=65), m))
    q = rt.build_quadrature(29, g.h, 2 * SQRT3 * g.b)
    k = rt.split_reference(rt.assemble_reference_tensor(q, g),
                           rt.gamma_for_separation(g, 3.5), 1e-8)
    nodes, _ = rt.snap_to_grid(rt.snapped_molecule(m, g)[0], g)
    ref = _columns(k.wide_tensor, slice(0, k.split_index))
    return g, ref, nodes, m.charges


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        out = f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_binned_core_memory_stays_within_old_buffer(cluster400):
    # the core contraction holds at most one r1 x r2 slice per plane plus
    # the core and one GEMM product of its size, on top of the tables every
    # route builds.  Copying the slices for a tensordot, or gathering
    # (R_L, r1, N) tables up front (9 MiB here), breaks the bound.
    g, ref, nodes, charges = cluster400
    tk, peak = _traced_peak(c2t_shift_sum, ref, nodes, charges,
                            1e-8 * g.h ** 2)
    (r1, r2, r3), R, n = tk.ranks, ref.rank, g.n
    occ = [np.unique(nodes[:, l]).size for l in range(3)]
    Z = occ[2]
    assert Z >= R
    # projected tables, one shift table, the weighted mode-3 table, bases
    tables = (sum(r * o for r, o in zip(tk.ranks, occ)) * R
              + n * max(occ) * R + Z * R * r3 + 3 * n * max(tk.ranks))
    bound = 8 * (tables + Z * r1 * r2 + 2 * r1 * r2 * r3) + 2 ** 19
    assert peak <= bound, (peak, bound)


def test_rhosvd_core_memory(cluster400):
    # the explicit sum has rank N R_L = 8,800 and full Tucker ranks 65, so
    # a Khatri-Rao block of (r1, r2, many terms) would break the bound many
    # times over.  The core is dense() of the projected tensor, which holds
    # the three projected side matrices and one r2 x R slab temporary:
    # (r1 + r2 + r3) R + r2 R floats, plus the core and the bases.  The
    # mode SVDs before it hold two n x R matrices, less than that here.
    g, ref, nodes, charges = cluster400
    t = shift_sum(ref, nodes, charges)
    tk, peak = _traced_peak(rt.c2t_rhosvd, t, 1e-8 * g.h ** 2)
    (r1, r2, r3), R, n = tk.ranks, t.rank, g.n
    assert tk.ranks == (n, n, n) and R == len(charges) * ref.rank
    bound = 8 * ((r1 + r2 + r3) * R + r2 * R + r1 * r2 * r3
                 + n * (r1 + r2 + r3)) + 2 ** 18
    assert peak <= bound, (peak, bound)


def test_t2c_image_same_bits_on_one_and_two_workers(cluster400,
                                                   set_blas_threads,
                                                   monkeypatch):
    # the second-level SVDs run one per matrix: spread over two workers
    # with the BLAS pinned to one thread, or all in the caller when the
    # thread-count setter is missing, they give the same bits
    g, ref, nodes, charges = cluster400
    eps = 1e-8 * g.h ** 2
    tk = c2t_shift_sum(ref, nodes, charges, eps)
    set_blas_threads(2)
    got = [t2c_with_image(tk, eps)]
    monkeypatch.setattr(formats, "_openblas", lambda: None)
    got.append(t2c_with_image(tk, eps))
    (c2, im2), (c1, im1) = got
    assert all(same_bits(a, b) for a, b in zip(
        (c2.weights, *c2.factors, im2.core), (c1.weights, *c1.factors, im1.core)))


def test_t2c_image_memory(cluster400):
    # t2c_with_image holds the K kept terms' n-row side matrices, their
    # r-row core coordinates in three modes plus one C-ordered copy of a
    # mode's coordinates while its side matrix is formed (4 r K), and two
    # core-sized arrays: the image core and the stacked Y_j.  The unfolding's
    # right singular vectors V and the second-level factors P and Q, each
    # up to r1 r2 r3 floats, are freed before the side matrices are built,
    # and 2^19 bytes cover the weights, sort permutations and LAPACK work.
    g, ref, nodes, charges = cluster400
    eps = 1e-8 * g.h ** 2
    tk = c2t_shift_sum(ref, nodes, charges, eps)
    (c, image), peak = _traced_peak(t2c_with_image, tk, eps)
    (r1, r2, r3), n, K = tk.ranks, g.n, c.rank
    assert image.ranks == tk.ranks and K < len(charges) * ref.rank
    bound = 8 * (3 * n * K + 4 * max(tk.ranks) * K + 2 * r1 * r2 * r3) + 2 ** 19
    assert peak <= bound, (peak, bound)
