import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rstensor as rt
from helpers import eval_entries, shift_and_window, split_by_count

SQRT3 = np.sqrt(3.0)


def _kernel(g, R=10, gamma=8, eps=1e-8):
    q = rt.build_quadrature(R, g.h, 2 * SQRT3 * g.b)
    return rt.split_reference(rt.assemble_reference_tensor(q, g), gamma, eps)


def test_snap_exact_node():
    g = rt.Grid3(33, 4.0)
    m = rt.Molecule([rt.Atom((0.25, -0.5, 0.0), 1.0)])
    (idx, off), = rt.snap_to_grid(m, g)
    assert idx == (17, 14, 16)
    assert np.max(np.abs(off)) == 0.0


def test_snap_tie_rounds_away_from_center():
    g = rt.Grid3(5, 1.0)  # h = 0.5, nodes at -1,-0.5,0,0.5,1
    m = rt.Molecule([rt.Atom((0.25, -0.25, 0.0), 1.0)])
    (idx, off), = rt.snap_to_grid(m, g)
    assert idx == (3, 1, 2)
    assert abs(off[0]) == pytest.approx(g.h / 2)


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
    (idx, off), = rt.snap_to_grid(rt.Molecule([rt.Atom(pos, 1.0)]), g)
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
    m = rt.Molecule([rt.Atom(p, 1.0) for p in pts])
    x = g.coords()
    for (idx, off), p in zip(rt.snap_to_grid(m, g), pts):
        assert np.max(np.abs(off)) <= g.h / 2 + 1e-12
        for l in range(3):
            assert idx[l] == int(np.argmin(np.abs(x - p[l])))


def test_snap_rejects_outside_box():
    g = rt.Grid3(33, 4.0)
    with pytest.raises(rt.ConfigError):
        rt.snap_to_grid(rt.Molecule([rt.Atom((5.0, 0, 0), 1.0)]), g)


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
    m = rt.Molecule([rt.Atom((3.9, 0.0, 0.0), 1.0)])
    with pytest.raises(rt.ConfigError):
        rt.assemble_collective(m, k, None)


def test_assemble_requires_split_kernel():
    g = rt.Grid3(33, 4.0)
    q = rt.build_quadrature(10, g.h, 2 * SQRT3 * g.b)
    k0 = rt.assemble_reference_tensor(q, g)
    m = rt.Molecule([rt.Atom((0.0, 0.0, 0.0), 1.0)])
    with pytest.raises(rt.ConfigError):
        rt.assemble_collective(m, k0, None)


def test_single_charge_equals_reference_window():
    g = rt.Grid3(33, 4.0)
    k = _kernel(g)
    m = rt.Molecule([rt.Atom((0.0, 0.0, 0.0), 1.0)])
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


def test_rs_additivity_dense():
    g = rt.Grid3(17, 2.0)
    k = _kernel(g, R=8, gamma=4)
    m = rt.Molecule([rt.Atom((0.5, 0.0, -0.25), 1.0),
                     rt.Atom((-0.5, 0.25, 0.0), -0.7),
                     rt.Atom((0.0, -0.5, 0.5), 0.3)])
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, k, None)
    ref = rt.dense(rs.long)
    rt.scatter_short(rs, ref)
    for i in np.ndindex(17, 17, 17):
        assert abs(rt.rs_eval_entry(rs, i) - ref[i]) <= 1e-10


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
    m = rt.Molecule([rt.Atom(p, z) for p, z in zip(m.positions, charges)])
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, kernel33,
                                1e-8 * g.h ** 2 if reduce else None)
    ref = rt.dense(rs.long)
    rt.scatter_short(rs, ref)
    nodes = [c for c, _ in rs.short_list]
    nodes += [tuple(int(v) for v in i) for i in rng.integers(0, 33, (20, 3))]
    vals = np.array([rt.rs_eval_entry(rs, i) for i in nodes])
    assert np.max(np.abs(vals - np.array([ref[i] for i in nodes]))) \
        <= 1e-12 * np.max(np.abs(ref))


def test_far_node_sees_long_part_only():
    g = rt.Grid3(65, 8.0)
    k = _kernel(g, R=12, gamma=6)
    m = rt.Molecule([rt.Atom((0.0, 0.0, 0.0), 1.0)])
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, k, None)
    i = (5, 5, 5)  # far corner, beyond the template radius
    assert rt.rs_eval_entry(rs, i) == rt.eval_entry(rs.long, i)
    assert rs.nearby_atoms(i) == []


def test_charge_change_is_local_in_short_part():
    g = rt.Grid3(33, 4.0)
    k = _kernel(g, gamma=6)
    base = [rt.Atom((0.0, 0.0, 0.0), 1.0), rt.Atom((2.0, 0.0, 0.0), -1.0)]
    bumped = [rt.Atom((0.0, 0.0, 0.0), 1.0), rt.Atom((2.0, 0.0, 0.0), -0.5)]
    s1 = np.zeros((33, 33, 33))
    s2 = np.zeros((33, 33, 33))
    sm1, _ = rt.snapped_molecule(rt.Molecule(base), g)
    sm2, _ = rt.snapped_molecule(rt.Molecule(bumped), g)
    rs1 = rt.assemble_collective(sm1, k, None)
    rs2 = rt.assemble_collective(sm2, k, None)
    rt.scatter_short(rs1, s1)
    rt.scatter_short(rs2, s2)
    diff = np.abs(s1 - s2)
    r = rs1.support_radius
    c = rs1.short_list[1][0]
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
    m1 = rt.Molecule([rt.Atom(p, c) for p, c in zip(pts, z)])
    m2 = rt.Molecule([rt.Atom(p, 2 * c) for p, c in zip(pts, z)])
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
    m = rt.Molecule([rt.Atom(p, 1.0) for p in pts])
    sm, _ = rt.snapped_molecule(m, g)
    rs = rt.assemble_collective(sm, k, None)
    for c, _ in rs.short_list:
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
    return rt.Molecule([rt.Atom(-g.b + i * g.h, c) for i, c in zip(idx, z)])


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
