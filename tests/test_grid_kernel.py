import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad as quad1d

import rstensor as rt
from rstensor import grid_kernel
from helpers import gaussian_sum, shift_and_window, split_by_count

SQRT3 = np.sqrt(3.0)


def test_grid_spacing_and_coords():
    g = rt.Grid3(129, 16.0)
    assert g.h == pytest.approx(0.25, rel=1e-15)
    x = g.coords()
    assert x[0] == -16.0 and x[-1] == 16.0
    d = g.doubled_coords()
    assert d.shape == (258,)
    assert d[129] == 0.0 and d[0] == -129 * g.h


def test_quadrature_rank29_reference_box():
    g = rt.Grid3(257, 16.0)
    q = rt.build_quadrature(29, g.h, 2 * SQRT3 * g.b)
    assert q.rank == 29
    assert q.achieved_relative_error <= 1e-6


def test_quadrature_rank1_degenerate_interval():
    q = rt.build_quadrature(1, 1.0, 1.0)
    assert q.rank == 1
    v = gaussian_sum(q, 1.0)
    assert abs(v - 1.0) <= q.achieved_relative_error + 1e-12


def test_quadrature_rank40_vs_laplace_integral():
    q = rt.build_quadrature(40, 0.1, 60.0)
    assert q.achieved_relative_error <= 1e-7
    rng = np.random.default_rng(0)
    rhos = np.exp(rng.uniform(np.log(0.1), np.log(60.0), 50))
    for rho in rhos:
        ref, _ = quad1d(lambda t: np.exp(-(rho * t) ** 2), 0.0, np.inf,
                        epsabs=1e-13, epsrel=1e-13)
        ref *= 2.0 / np.sqrt(np.pi)
        assert abs(gaussian_sum(q, rho) - ref) <= 2e-7 * ref


def test_quadrature_rejects_bad_interval():
    with pytest.raises(rt.ConfigError):
        rt.build_quadrature(5, 0.0, 1.0)
    with pytest.raises(rt.ConfigError):
        rt.build_quadrature(5, 2.0, 1.0)
    with pytest.raises(rt.ConfigError):
        rt.build_quadrature(0, 0.1, 1.0)


@pytest.mark.parametrize("R,n", [(8, 33), (29, 129), (17, 257)])
def test_quadrature_table_matches_tuner(R, n):
    # the shipped parameters are exactly what the tuner gives today
    B = grid_kernel.canonical_ratio(n)
    shipped = grid_kernel.QUAD_TABLE[(R, n)]
    tuned = grid_kernel._tune(R, B)
    t0, c0 = grid_kernel._de_nodes(*shipped, R)
    t1, c1 = grid_kernel._de_nodes(*tuned, R)
    assert np.array_equal(t0, t1) and np.array_equal(c0, c1)


def test_quadrature_table_keyed_by_ratio():
    B = grid_kernel.canonical_ratio(129)
    assert B == pytest.approx(SQRT3 * 128, rel=1e-15)
    assert grid_kernel._table_params(29, B * (1 + 1e-13)) is not None
    assert grid_kernel._table_params(29, B * (1 + 1e-9)) is None
    assert grid_kernel._table_params(25, B) is None
    # every box of a 129-point grid has the shipped ratio
    g = rt.Grid3(129, 20.0)
    q = rt.build_quadrature(29, g.h, 2 * SQRT3 * g.b)
    t, c = grid_kernel._de_nodes(*grid_kernel.QUAD_TABLE[(29, 129)], 29)
    assert np.array_equal(q.nodes, t / g.h)
    assert np.array_equal(q.weights, c / g.h)


def test_table_hit_does_not_import_tuner():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "import rstensor\n"
        "from rstensor.cli import RunConfig, _resolve_quadrature\n"
        "q = _resolve_quadrature(RunConfig(), rstensor.Grid3(129, 20.0))\n"
        "assert q.achieved_relative_error <= 1e-6, q\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "rstensor.build_quadrature(40, 0.1, 60.0)\n"
        "assert 'scipy.optimize' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_quadrature_accuracy_on_shell():
    # relative error holds across [h, b], inside the tuned interval
    g = rt.Grid3(65, 8.0)
    q = rt.build_quadrature(20, g.h, 2 * SQRT3 * g.b)
    rng = np.random.default_rng(1)
    r = np.exp(rng.uniform(np.log(g.h), np.log(g.b), 200))
    err = np.max(np.abs(r * gaussian_sum(q, r) - 1.0))
    assert err <= q.achieved_relative_error + 1e-14


def _windowed_center(kernel):
    g = kernel.grid
    c = (g.n - 1) // 2
    return shift_and_window(kernel, (c, c, c), part="both"), c


def test_reference_entry_at_two_angstrom():
    g = rt.Grid3(257, 16.0)
    q = rt.build_quadrature(29, g.h, 2 * SQRT3 * g.b)
    k = rt.assemble_reference_tensor(q, g)
    win, c = _windowed_center(k)
    i = int(round((2.0 + g.b) / g.h))
    assert g.coords()[i] == pytest.approx(2.0, abs=1e-12)
    v = rt.eval_entry(win, (i, c, c))
    assert abs(v - 0.5) <= 1e-6 * 0.5


def test_reference_entry_at_unit_radius():
    g = rt.Grid3(257, 16.0)
    q = rt.build_quadrature(29, g.h, 2 * SQRT3 * g.b)
    k = rt.assemble_reference_tensor(q, g)
    win, c = _windowed_center(k)
    i = int(round((1.0 + g.b) / g.h))
    v = rt.eval_entry(win, (i, c, c))
    assert abs(v - 1.0) <= q.achieved_relative_error + 1e-12


def test_reference_center_value_is_weight_sum():
    g = rt.Grid3(65, 8.0)
    q = rt.build_quadrature(20, g.h, 2 * SQRT3 * g.b)
    k = rt.assemble_reference_tensor(q, g)
    win, c = _windowed_center(k)
    v = rt.eval_entry(win, (c, c, c))
    assert v == pytest.approx(float(np.sum(q.weights)), rel=1e-13)


def test_split_threshold_matches_direct_scan():
    g = rt.Grid3(129, 16.0)
    q = rt.build_quadrature(20, g.h, 2 * SQRT3 * g.b)
    k = rt.split_reference(rt.assemble_reference_tensor(q, g), 8, 1e-8)
    r = 0.5 * 8 * g.h
    expect = int(np.sum(q.nodes < np.sqrt(np.log(1e8)) / r))
    assert k.split_index == expect
    assert 0 < k.split_index < q.rank
    assert k.split_index + k.n_short == q.rank


def test_split_threshold_one_puts_all_columns_short():
    # no Gaussian exceeds 1 at a positive radius, so the long prefix is empty
    g = rt.Grid3(33, 4.0)
    q = rt.build_quadrature(10, g.h, 2 * SQRT3 * g.b)
    k = rt.split_reference(rt.assemble_reference_tensor(q, g), 4, 1.0)
    assert k.split_index == 0
    assert k.n_short == q.rank


def test_split_partition_is_exact():
    g = rt.Grid3(17, 2.0)
    q = rt.build_quadrature(8, g.h, 2 * SQRT3 * g.b)
    k = rt.split_reference(rt.assemble_reference_tensor(q, g), 4, 1e-8)
    c = (g.n - 1) // 2
    both = rt.dense(shift_and_window(k, (c, c, c), part="both"))
    lng = rt.dense(shift_and_window(k, (c, c, c), part="long"))
    sht = rt.dense(shift_and_window(k, (c, c, c), part="short"))
    assert np.max(np.abs(lng + sht - both)) <= 1e-13 * np.max(np.abs(both))


def test_split_monotone_in_gamma():
    g = rt.Grid3(65, 8.0)
    q = rt.build_quadrature(25, g.h, 2 * SQRT3 * g.b)
    k0 = rt.assemble_reference_tensor(q, g)
    counts = [rt.split_reference(k0, gm, 1e-8).split_index
              for gm in (2, 4, 8, 16, 32)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_split_rejects_oversized_gamma():
    g = rt.Grid3(33, 4.0)
    q = rt.build_quadrature(10, g.h, 2 * SQRT3 * g.b)
    k0 = rt.assemble_reference_tensor(q, g)
    with pytest.raises(rt.ConfigError):
        rt.split_reference(k0, 4 * g.n, 1e-8)


def test_split_by_count_records_threshold():
    g = rt.Grid3(65, 8.0)
    q = rt.build_quadrature(20, g.h, 2 * SQRT3 * g.b)
    k0 = rt.assemble_reference_tensor(q, g)
    k = split_by_count(k0, 7, 10)
    assert k.split_index == 7 and k.n_short == 13
    r = 0.5 * 10 * g.h
    assert k.eps_support == pytest.approx(np.exp(-(q.nodes[7] * r) ** 2), rel=1e-12)
    with pytest.raises(rt.ConfigError):
        split_by_count(k0, 21, 10)


def test_short_columns_bounded_past_support_radius():
    # short entry at the support radius is below the column count times the
    # threshold times the largest weight
    g = rt.Grid3(65, 8.0)
    q = rt.build_quadrature(20, g.h, 2 * SQRT3 * g.b)
    gm = 8
    k = rt.split_reference(rt.assemble_reference_tensor(q, g), gm, 1e-8)
    c = (g.n - 1) // 2
    win = shift_and_window(k, (c, c, c), part="short")
    i = c + (gm + 1) // 2
    v = rt.eval_entry(win, (i, c, c))
    bound = k.n_short * 1e-8 * float(np.max(q.weights))
    assert abs(v) <= bound


def test_gamma_for_separation():
    g = rt.Grid3(129, 16.0)
    assert rt.gamma_for_separation(g, 3.5) == 28
    assert rt.gamma_for_separation(g, 1e-6) == 2
    with pytest.raises(rt.ConfigError):
        rt.gamma_for_separation(g, 0.0)
