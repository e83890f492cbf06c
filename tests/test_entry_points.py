"""The names the benchmark and the quadrature tool reach in the package,
and the ``python -m`` entry points.

``perfbench/tracing.py`` wraps package functions by attribute name,
``perfbench/*.py`` call them through ``rt.<module>.<name>`` and
``tools/tune_quadrature.py`` imports ``cli._RANK_LADDER`` and the
``grid_kernel`` tuner.  A refactor that drops or renames one of them fails
here rather than in a benchmark run.  ``python -m rstensor`` and
``python -m rstensor.cli`` must run ``main`` and exit with its code.
"""

import glob
import importlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import rstensor as rt
from rstensor import cli, grid_kernel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
BORN = os.path.join(ROOT, "fixtures", "born.pqr")


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_targets_resolve(monkeypatch):
    # every span but numpy's SVD wraps a function the package defines, at
    # an attribute it holds once imported: an import moved into a function
    # or a rename fails here, not in a --trace 1 run
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    targets = tracing.targets(rt)
    assert len(targets) == len(tracing.TARGETS) >= 30
    for owner, attr, name, _ in targets:
        fn = getattr(owner, attr)
        assert callable(fn), name
        if owner is not np.linalg:
            assert fn.__module__.startswith("rstensor."), (name, fn.__module__)


def test_traced_run_compares_and_composes_once(monkeypatch):
    # a traced run reaches compare and compose_total through the names the
    # tracer wraps, once each, and the compare hook reads the figure that
    # metrics.txt reports
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    m = rt.parse_pqr(BORN)
    tracer = tracing.Tracer()
    tracer.install(tracing.targets(rt))
    try:
        out = rt.run_case(rt.RunConfig(n=33, b=8.0), m)
    finally:
        tracer.restore()
    spans = tracer.take()
    top = [i for i, s in enumerate(spans) if s[0] == "cli.run_case"]
    assert len(top) == 1
    for name in ("validation.compare", "solver.compose_total"):
        assert [s[3] for s in spans if s[0] == name] == top, name
    assert tracer.counts["validation.l2_relative"] == float(
        out["metrics"]["l2_relative"])


def test_traced_run_reaches_gaussian_field_by_chunks(monkeypatch):
    # the tracer's gaussian_field hook reads args[1] (the charges), args[3]
    # (the quadrature) and the size of the array returned: a traced run
    # reaches validation.gaussian_field once per chunk of mode-2 rows
    # (two at n = 161), each call returns an ndarray, and the sizes sum to
    # n^3, so the hook's flop count is that of one full-grid oracle
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    calls, real = [], rt.validation.gaussian_field

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(rt.validation, "gaussian_field", spy)
    m, n = rt.parse_pqr(BORN), 161
    tracer = tracing.Tracer()
    tracer.install(tracing.targets(rt))
    try:
        out = rt.run_case(rt.RunConfig(n=n, b=8.0), m)
    finally:
        tracer.restore()
    spans = tracer.take()
    assert len(calls) == len(rt.validation._chunks(n)) == 2
    assert len([s for s in spans if s[0] == "validation.gaussian_field"]) == 2
    assert all(isinstance(o, np.ndarray) for _, o in calls)
    assert sum(o.size for _, o in calls) == n ** 3
    for args, _ in calls:
        assert np.array_equal(args[1], out["molecule"].charges)
        assert args[3].rank == out["quadrature"].rank
    assert tracer.counts["validation.gaussian_field.gflop"] == pytest.approx(
        2.0 * n ** 3 * m.n_atoms * out["quadrature"].rank / 1e9)


def test_solver_dstn_takes_the_solve_transforms(monkeypatch):
    # the tracer wraps solver.dstn by name, so poisson_solve must reach
    # both of its sine transforms through that module attribute
    shapes, dstn = [], rt.solver.dstn

    def spy(x, **kwargs):
        shapes.append(x.shape)
        return dstn(x, **kwargs)

    monkeypatch.setattr(rt.solver, "dstn", spy)
    L = rt.DiscreteLaplacian(rt.Grid3(9, 2.0))
    rhs = np.random.default_rng(0).standard_normal((9, 9, 9))
    u = rt.poisson_solve(rhs, L)
    assert shapes == [(7, 7, 7)] * 2
    assert u.meta["residual"] <= 1e-12


def test_benchmark_names_resolve():
    used = set()
    for path in glob.glob(os.path.join(PERFBENCH, "*.py")):
        with open(path) as fh:
            used.update(re.findall(r"\brt\.((?:\w+\.)*\w+)", fh.read()))
    assert {"cli.resolve_box", "cli.run_pipeline", "RunConfig",
            "assembly.assemble_collective"} <= used
    for dotted in sorted(used):
        assert callable(_resolve(rt, dotted)), dotted
    cfg = rt.RunConfig(n=129, rank=29, outdir=".")
    for name in ("sep_radius", "eps_support", "eps_c2t", "eps_scaling"):
        assert hasattr(cfg, name)


def test_short_list_is_the_pairs_the_benchmark_reads(tmp_path):
    # perfbench/worker.py reads rs.short_list as (centre tuple, weight)
    # pairs, of an assembled tensor and of a bundle read back alike; the
    # bundle keeps the int64 nodes and float64 weights it was written from
    m = rt.synthetic_cluster(60, 5.0, seed=7)
    rs = cli._assemble_stage(rt.RunConfig(n=33, b=10.0), m, {})[0]
    cli._write_bundle(rs, lambda name: str(tmp_path / name))
    back = cli._load_bundle(str(tmp_path))[0]
    for t in (rs, back):
        assert t.nodes.dtype == np.int64 and t.nodes.shape == (60, 3)
        assert t.weights.dtype == np.float64 and t.weights.shape == (60,)
        assert t.short_list == list(zip(map(tuple, t.nodes.tolist()),
                                        t.weights.tolist()))
    assert np.array_equal(back.nodes, rs.nodes)
    assert np.array_equal(back.weights.view(np.uint64),
                          rs.weights.view(np.uint64))


def test_tool_names_resolve():
    assert cli._RANK_LADDER[0] == 8 and cli._RANK_LADDER[-1] == 60
    for name in ("_tune", "canonical_ratio", "build_quadrature",
                 "QUAD_TABLE"):
        assert hasattr(grid_kernel, name), name


def _python_m(module, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", module] + list(args),
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("module", ["rstensor", "rstensor.cli"])
def test_python_m_runs_main(tmp_path, module):
    res = _python_m(module, "run", "--pqr", BORN, "--n", "33", "--b", "8",
                    "-o", "out", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert os.path.getsize(tmp_path / "out" / "total.bin") == 8 * 33 ** 3


@pytest.mark.parametrize("module", ["rstensor", "rstensor.cli"])
def test_python_m_passes_exit_code(tmp_path, module):
    res = _python_m(module, "run", "--pqr", BORN, "--n", "5", "--b", "8",
                    "-o", "out", cwd=tmp_path)
    assert res.returncode == 2
    assert "config error: config: molecule runs need n >= 33" in res.stderr
    assert not (tmp_path / "out").exists()
