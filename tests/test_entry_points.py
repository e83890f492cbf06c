"""The names the benchmark and the quadrature tool reach in the package.

``perfbench/tracing.py`` wraps package functions by attribute name,
``perfbench/*.py`` call them through ``rt.<module>.<name>`` and
``tools/tune_quadrature.py`` imports ``cli._RANK_LADDER`` and the
``grid_kernel`` tuner.  A refactor that drops or renames one of them fails
here rather than in a benchmark run.
"""

import glob
import importlib
import os
import re

import rstensor as rt
from rstensor import cli, grid_kernel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    targets = tracing.targets(rt)
    assert len(targets) == len(tracing.TARGETS) >= 30
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr)), name


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


def test_tool_names_resolve():
    assert cli._RANK_LADDER[0] == 8 and cli._RANK_LADDER[-1] == 60
    for name in ("_tune", "canonical_ratio", "build_quadrature",
                 "QUAD_TABLE"):
        assert hasattr(grid_kernel, name), name
