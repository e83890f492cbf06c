"""Spans around the package's functions, recorded from outside the package.

``Tracer.install`` replaces each target function with a wrapper at every
module attribute that holds it, which are the names its callers look up
(``rstensor.cli.build_quadrature`` as well as
``rstensor.grid_kernel.build_quadrature``), and ``restore`` puts the
originals back.  A wrapper records one span (name, start, end, parent) per
call and may add counts derived from the call's arguments and result.
Spans stay in memory until ``take`` hands them over.

A span's name is ``<module>.<function>``; the module is its layer.  A span's
self time is its duration minus the durations of its direct children, which
never overlap because the package is single-threaded Python.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = defaultdict(float)
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result
        return traced

    def install(self, targets):
        """Wrap ``owner.attr`` for each (owner, attr, span name, hook)."""
        mods = [m for k, m in sys.modules.items()
                if k == "rstensor" or k.startswith("rstensor.")]
        for owner, attr, name, hook in targets:
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, hook)
            holders = {(id(owner), attr): (owner, attr)}
            for m in mods:
                for k, v in vars(m).items():
                    if v is orig:
                        holders[(id(m), k)] = (m, k)
            for holder, k in holders.values():
                self._patched.append((holder, k, orig))
                setattr(holder, k, wrapped)

    def restore(self):
        while self._patched:
            holder, k, orig = self._patched.pop()
            setattr(holder, k, orig)

    def call_cost(self, calls=20000, repeats=5):
        """Seconds a wrapper adds to one call, as the median of ``repeats``
        timings of ``calls`` wrapped against bare calls of a no-op."""
        def noop():
            return None
        wrapped = self.wrap("trace.calibrate", noop)
        diffs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            diffs.append((t2 - t1 - (t1 - t0)) / calls)
            self.take()
        diffs.sort()
        return diffs[repeats // 2]

    def take(self):
        """Hand over the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("cannot take spans while one is open")
        spans, self.spans = self.spans, []
        return spans


def summarize(spans):
    """Per span name: total seconds, self seconds and calls; per layer self."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent is not None:
            child[parent] += t1 - t0
    per_name = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    layers = defaultdict(float)
    for i, (name, t0, t1, parent) in enumerate(spans):
        d = per_name[name]
        d["s"] += t1 - t0
        d["self_s"] += t1 - t0 - child[i]
        d["calls"] += 1
        layers[name.split(".")[0]] += t1 - t0 - child[i]
    return dict(per_name), dict(layers)


# Counts derived from arguments and results, as (counts, args, result).

def _quad(c, args, q):
    c["grid_kernel.quad_rank"] = q.rank


def _split(c, args, k):
    c["grid_kernel.split_long"] = k.split_index
    c["grid_kernel.split_short"] = k.n_short


def _assemble(c, args, rs):
    m, kernel = args[0], args[1]
    c["assembly.long_rank_pre"] = rs.long_rank_pre
    c["assembly.side_matrix_mb"] = (3 * kernel.grid.n * m.n_atoms
                                    * kernel.split_index * 8 / 2 ** 20)
    c["formats.long_rank"] = rs.long.rank


def _reduce(c, args, out):
    c["formats.reduce_rank.kept"] += out is not args[0]


def _c2t(c, args, tucker):
    c["formats.tucker_r_max"] = max(c["formats.tucker_r_max"],
                                    max(tucker.core.shape))


def _dense(c, args, out):
    t = args[0]
    c["formats.dense.terms"] += t.rank
    c["formats.dense.gflop"] += 2.0 * out.size * t.rank / 1e9


def _solve(c, args, u):
    c["solver.residual"] = u.meta["residual"]


def _gauss(c, args, out):
    charges, q = np.asarray(args[1]), args[3]
    c["validation.gaussian_field.gflop"] += (2.0 * out.size * charges.size
                                             * q.rank / 1e9)


def _compare(c, args, report):
    c["validation.l2_relative"] = report.relative_l2


def _save(c, args, out):
    c["solver.save_field.mb"] += args[0].values.nbytes / 2 ** 20


def _nearby(c, args, hits):
    c["assembly.nearby_atoms.hits"] += len(hits)


# (owner inside the package, or numpy.linalg; attribute; span name; hook)
TARGETS = [
    ("cli", "run_pipeline", "cli.run_pipeline", None),
    ("cli", "run_case", "cli.run_case", None),
    ("cli", "parse_pqr", "cli.parse_pqr", None),
    ("grid_kernel", "build_quadrature", "grid_kernel.build_quadrature", _quad),
    ("grid_kernel", "assemble_reference_tensor",
     "grid_kernel.assemble_reference_tensor", None),
    ("grid_kernel", "split_reference", "grid_kernel.split_reference", _split),
    ("assembly", "snapped_molecule", "assembly.snapped_molecule", None),
    ("assembly", "snap_to_grid", "assembly.snap_to_grid", None),
    ("assembly", "assemble_collective", "assembly.assemble_collective",
     _assemble),
    ("assembly", "scatter_short", "assembly.scatter_short", None),
    ("assembly", "rs_eval_entry", "assembly.rs_eval_entry", None),
    ("assembly.RSTensor", "nearby_atoms", "assembly.nearby_atoms", _nearby),
    ("assembly.RSTensor", "template_dense", "assembly.template_dense", None),
    ("assembly.RSTensor", "cell_index", "assembly.cell_index", None),
    ("formats", "reduce_rank", "formats.reduce_rank", _reduce),
    ("formats", "c2t_rhosvd", "formats.c2t_rhosvd", _c2t),
    ("formats", "t2c", "formats.t2c", None),
    ("formats", "dense", "formats.dense", _dense),
    ("formats", "eval_entry", "formats.eval_entry", None),
    # formats is the only caller of numpy's SVD in the package
    ("numpy.linalg", "svd", "formats.svd", None),
    ("solver", "apply_kron_laplacian", "solver.apply_kron_laplacian", None),
    ("solver", "poisson_solve", "solver.poisson_solve", _solve),
    ("solver", "dstn", "solver.dstn", None),
    ("solver", "apply_stencil_dense", "solver.apply_stencil_dense", None),
    ("solver", "compose_total", "solver.compose_total", None),
    ("solver", "save_field", "solver.save_field", _save),
    ("validation", "direct_sum_oracle", "validation.direct_sum_oracle", None),
    ("validation", "gaussian_field", "validation.gaussian_field", _gauss),
    ("validation", "compare", "validation.compare", _compare),
    ("validation", "write_report", "validation.write_report", None),
]

SPANS = [t[2] for t in TARGETS]
LAYERS = ["cli", "grid_kernel", "assembly", "formats", "solver", "validation"]


def targets(rt):
    """TARGETS with each owner resolved in package ``rt``."""
    out = []
    for owner, attr, name, hook in TARGETS:
        obj = rt
        for part in owner.split("."):
            obj = np if part == "numpy" else getattr(obj, part)
        out.append((obj, attr, name, hook))
    return out


# Counts the hooks set, and per-layer names derived from spans or counts
COUNTS = ["grid_kernel.quad_rank", "grid_kernel.split_long",
          "grid_kernel.split_short", "assembly.long_rank_pre",
          "assembly.side_matrix_mb", "assembly.nearby_atoms.hits_mean",
          "formats.long_rank", "formats.tucker_r_max",
          "formats.reduce_rank.kept_ratio", "formats.dense.terms",
          "formats.dense.gflop", "solver.residual", "solver.save_field.mb",
          "validation.gaussian_field.gflop", "validation.l2_relative",
          "trace.run_s", "trace.overhead_s", "check.err_gauss",
          "check.err_coulomb_rel"]


def known(metric):
    """Whether ``metric`` is a per-layer name this module can produce."""
    base = metric[:-3] if metric.endswith(".1t") else metric
    span, _, kind = base.rpartition(".")
    if base.startswith("layer."):
        return span[len("layer."):] in LAYERS and kind == "self_s"
    return base in COUNTS or (span in SPANS
                              and kind in ("s", "self_s", "calls"))
