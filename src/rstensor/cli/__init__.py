"""Run configuration, molecule ingestion, pipeline orchestration, export.

The pipeline stages are: quadrature -> reference kernel -> long/short split
-> molecule snap -> collective assembly -> long part densified on the grid
(by three mode products of its Tucker image when its rank was reduced,
else plane by plane from its long reference columns, or term by term for
a loaded bundle) -> short part scattered once -> (``--bc analytic`` only)
delta, the stencil of the long field less kappa^2 times the short one,
and a Poisson solve with screened-Coulomb faces -> oracle field (kappa = 0
only: it is unscreened) -> total, long plus short in one add -> oracle
comparison.  With homogeneous faces the solve would return its input, so
it is not run.  Every n^3 field is Fortran-ordered (mode-1 fastest), the
layout of the ``.bin`` dumps, so they are written without a copy.
Metrics land in a deterministic key=value report; wall-clock stage times
go to a separate file.  Reruns of born, and of ligand18 and a 600-atom
cluster at n=65, are byte-identical (tested); not every input's are (the
open ``FOUND`` line on cluster2000 seed 4 in CHANGES.md).  ``python -m
rstensor`` and ``python -m rstensor.cli`` run ``main`` and exit with its
code.
"""

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from ..errors import ConfigError, DataError, NumericError
from ..grid_kernel import (Grid3, assemble_reference_tensor, build_quadrature,
                           gamma_for_separation, split_reference)
from ..assembly import (Molecule, RSTensor, assemble_collective, scatter_short,
                        snapped_molecule)
from ..formats import (CanonicalTensor3, TuckerTensor3, dense, load_canonical,
                       save_canonical, shift_sum_dense, tucker_dense,
                       tucker_image)
from ..solver import (DiscreteLaplacian, GridFunction3, apply_stencil_dense,
                      compose_total, load_field, poisson_solve, save_field)
from ..validation import compare, direct_sum_oracle, write_report

_SQRT3 = np.sqrt(3.0)
_RANK_LADDER = (8, 10, 12, 14, 17, 20, 24, 29, 34, 40, 46, 52, 60)
_ORACLE_ATOM_CAP = 2000


def parse_pqr(path):
    """Read ATOM/HETATM records of a PQR file.

    The last five whitespace-separated fields of each record are taken as
    x, y, z, charge, radius; other record types are ignored.  Atom count and
    net charge are available as ``Molecule.n_atoms`` / ``Molecule.net_charge``.

    Raises
    ------
    DataError on malformed fields, no atoms, or values ``Molecule``
    rejects (non-finite, negative radius); each names the file and the
    line of the first offending record.
    """
    vals, linenos = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            toks = line.split()
            if not toks or toks[0] not in ("ATOM", "HETATM"):
                continue
            if len(toks) < 8:
                raise DataError("%s:%d: too few fields in %s record"
                                % (path, lineno, toks[0]))
            try:
                vals.extend(float(v) for v in toks[-5:])
            except ValueError:
                raise DataError("%s:%d: malformed numeric field" % (path, lineno))
            linenos.append(lineno)
    if not vals:
        raise DataError("no atoms found in %s" % path)
    a = np.array(vals).reshape(-1, 5)
    name = os.path.splitext(os.path.basename(path))[0]
    try:
        return Molecule(a[:, :3], a[:, 3], a[:, 4], name)
    except DataError as e:
        # the first record failing the check Molecule reports, in its order
        bad = next(b for b in (~np.isfinite(a[:, :3]).all(axis=1),
                               ~np.isfinite(a[:, 3]), ~(a[:, 4] >= 0))
                   if b.any())
        raise DataError("%s (%s:%d)" % (e, path, linenos[np.argmax(bad)])) \
            from None


def synthetic_cluster(n_atoms, half_extent, min_sep=1.0, seed=0):
    """Reproducible random particle cloud with a minimum pairwise separation.

    Positions are drawn uniformly in [-half_extent, half_extent]^3 by
    rejection sampling; charges alternate +1/-1, radii are 1.5 Angstrom.
    """
    if n_atoms < 1:
        raise ConfigError("cluster needs at least one atom")
    rng = np.random.default_rng(seed)
    pts = np.empty((n_atoms, 3))
    count = 0
    guard = 0
    while count < n_atoms:
        guard += 1
        if guard > 1000 * n_atoms:
            raise ConfigError("cannot place %d atoms at min_sep %.2f in +-%.2f"
                              % (n_atoms, min_sep, half_extent))
        cand = rng.uniform(-half_extent, half_extent, 3)
        if count and np.min(np.sum((pts[:count] - cand) ** 2, axis=1)) < min_sep ** 2:
            continue
        pts[count] = cand
        count += 1
    charges = np.where(np.arange(n_atoms) % 2 == 0, 1.0, -1.0)
    return Molecule(pts, charges, np.full(n_atoms, 1.5), "cluster%d" % n_atoms)


@dataclass
class RunConfig:
    """Pipeline configuration; "auto" fields are resolved against the grid.

    ``b="auto"`` sizes the box so the atom margin rule (every atom at least
    gamma*h/2 + 2h from each face) holds with slack; ``rank="auto"`` picks
    the smallest ladder rank whose measured kernel error meets
    ``eps_kernel``.  The separation gamma is ``sep_radius`` (Angstrom) in
    grid units, round(2*sep_radius/h) and at least 2.  The rank-reduction
    tolerance is always ``eps_c2t * h^2``, so the compression error tracks
    the grid resolution; a fixed tolerance e is ``eps_c2t = e / h^2``.
    ``kappa`` (1/Angstrom) screens the ``bc="analytic"`` solve, and only
    that solve, so it needs that ``bc``.
    """

    n: int = 129
    b: object = "auto"
    rank: object = "auto"
    sep_radius: float = 3.5
    eps_kernel: float = 1e-6
    eps_support: float = 1e-8
    eps_c2t: float = 1e-8
    bc: str = "homogeneous"
    kappa: float = 0.0
    outdir: str = "."
    # not a field, so not settable: perfbench/worker.py reads it to compute
    # the reduction tolerance, and test_entry_points checks that it resolves
    eps_scaling = "mesh"

    def validate(self):
        if int(self.n) != self.n or self.n < 3:
            raise ConfigError("config: n must be an integer >= 3")
        if self.n < 33:
            raise ConfigError("config: molecule runs need n >= 33")
        if self.b != "auto" and not (isinstance(self.b, (int, float))
                                     and 0 < self.b < np.inf):
            raise ConfigError("config: b must be positive and finite or 'auto'")
        if self.rank != "auto" and (int(self.rank) != self.rank or self.rank < 1):
            raise ConfigError("config: rank must be a positive integer or 'auto'")
        if not (0 < self.sep_radius < np.inf):
            raise ConfigError("config: sep_radius must be positive and finite")
        for name in ("eps_kernel", "eps_support", "eps_c2t"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ConfigError("config: %s must lie in (0, 1)" % name)
        if self.bc not in ("homogeneous", "analytic"):
            raise ConfigError("config: bc must be 'homogeneous' or 'analytic'")
        if not (0 <= self.kappa and self.kappa * self.kappa < np.inf):
            raise ConfigError("config: kappa must be >= 0 with finite kappa^2")
        if self.kappa > 0 and self.bc != "analytic":
            raise ConfigError("config: kappa > 0 needs bc='analytic'")


def resolve_box(cfg, m):
    """Box half-width for a molecule.

    Explicit ``cfg.b`` is returned as is.  "auto" sizes the box as
    b = maxabs + sep_radius + 3h, solved in closed form for the
    self-consistent h; since the separation gamma rounds 2*sep_radius/h
    to grid units, the atom margin gamma*h/2 + 2h then holds with at
    least 0.75h slack.
    """
    if cfg.b != "auto":
        return float(cfg.b)
    n1 = cfg.n - 1
    if n1 <= 6:
        raise ConfigError("auto box needs n >= 8")
    maxabs = float(np.max(np.abs(m.positions)))
    return (maxabs + cfg.sep_radius) * n1 / (n1 - 6.0)


def _resolve_quadrature(cfg, grid):
    rho_min, rho_max = grid.h, 2.0 * _SQRT3 * grid.b
    if cfg.rank != "auto":
        return build_quadrature(int(cfg.rank), rho_min, rho_max)
    for R in _RANK_LADDER:
        q = build_quadrature(R, rho_min, rho_max)
        if q.achieved_relative_error <= cfg.eps_kernel:
            return q
    raise NumericError("no ladder rank reaches eps_kernel=%.1e on [%.3g, %.3g]"
                       % (cfg.eps_kernel, rho_min, rho_max))


def _boundary_field(m, grid, kappa):
    # screened-Coulomb boundary data on the six faces, zeros inside
    x = grid.coords()
    n = grid.n
    g = np.zeros((n, n, n), order="F")
    planes = [(0, 0), (0, n - 1), (1, 0), (1, n - 1), (2, 0), (2, n - 1)]
    for ax, idx in planes:
        axes = [x] * 3
        axes[ax] = np.array([x[idx]])
        X = axes[0][:, None, None]
        Y = axes[1][None, :, None]
        Z = axes[2][None, None, :]
        vals = np.zeros((len(axes[0]), len(axes[1]), len(axes[2])))
        for pos, z in zip(m.positions, m.charges):
            r = np.sqrt((X - pos[0]) ** 2 + (Y - pos[1]) ** 2 + (Z - pos[2]) ** 2)
            r = np.maximum(r, 1e-12)
            vals += z * np.exp(-kappa * r) / r
        sl = [slice(None)] * 3
        sl[ax] = idx
        g[tuple(sl)] = vals.squeeze(axis=ax)
    return g


@contextmanager
def _clock(timings, key):
    t0 = time.perf_counter()
    yield
    timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0


def _assemble_stage(cfg, m, timings):
    """Validate ``cfg``, resolve grid and kernel, and assemble ``m``.

    Resolves the box, gamma and the rank-reduction tolerance, enforces the
    atom margin rule (every atom at least gamma*h/2 + 2h from each face),
    builds the quadrature and the split reference kernel, snaps ``m`` to
    the grid and assembles its RS tensor.  Stage wall times go into
    ``timings``.  Returns (RSTensor, quadrature, kernel, snapped molecule,
    reduction tolerance).
    """
    cfg.validate()
    grid = Grid3(cfg.n, resolve_box(cfg, m))
    h = grid.h
    gamma = gamma_for_separation(grid, cfg.sep_radius)
    maxabs = float(np.max(np.abs(m.positions)))
    need = 0.5 * gamma * h + 2.0 * h
    if grid.b - maxabs < need - 1e-9:
        raise ConfigError("margin rule violated: atoms within %.3f A of a face, "
                          "need %.3f A" % (grid.b - maxabs, need))
    eps_eff = cfg.eps_c2t * h * h
    with _clock(timings, "quadrature"):
        q = _resolve_quadrature(cfg, grid)
    with _clock(timings, "kernel"):
        kernel = split_reference(assemble_reference_tensor(q, grid), gamma,
                                 cfg.eps_support)
    snapped, _ = snapped_molecule(m, grid)
    with _clock(timings, "assemble"):
        rs = assemble_collective(snapped, kernel, eps_eff)
    return rs, q, kernel, snapped, eps_eff


def _dense_mode1_fastest(rs):
    # the long part in the dump's layout, with no n^3 copy: written so by
    # shift_sum_dense, else densified axis-reversed in C order and transposed
    t = rs.long
    if rs.long_reference is not None:
        return shift_sum_dense(rs.long_reference, *zip(*rs.short_list))
    if rs.long_basis is None:
        return dense(CanonicalTensor3(t.weights, t.factors[::-1])).T
    t = tucker_image(t, rs.long_basis)
    return tucker_dense(TuckerTensor3(t.core.transpose(), t.factors[::-1])).T


def _solve_stage(rs, timings, kappa=0.0, bc_molecule=None):
    """Long-range potential and short-range field (``bc=none``) on the grid.

    The long part is densified from its Tucker image or its reference
    columns when ``rs`` carries them, else from its canonical terms, into a
    Fortran-ordered (mode-1 fastest) array; the short part is scattered
    once into another.  With homogeneous faces the long field is the
    result (it solves ``-lap u = -lap rs.long``).  With ``bc_molecule``
    the faces carry its screened-Coulomb values, and the regular part u_r
    of the total ``U_short + u_r`` solves
    ``(-lap + kappa^2) u_r = -lap U_long - kappa^2 U_short``.  Returns
    ``(u_long, short)``.
    """
    with _clock(timings, "dense"):
        values = _dense_mode1_fastest(rs)
    with _clock(timings, "compose"):
        short = GridFunction3(rs.grid, scatter_short(
            rs, np.zeros(values.shape, order="F")), {"bc": "none"})
    if bc_molecule is None:
        return GridFunction3(rs.grid, values, {"bc": "homogeneous"}), short
    with _clock(timings, "delta"):
        rhs = apply_stencil_dense(DiscreteLaplacian(rs.grid), values)
        del values  # read no more: the short field takes its place in the peak
        np.negative(rhs, out=rhs)
        if kappa > 0:
            rhs -= kappa * kappa * short.values
    with _clock(timings, "solve"):
        bc_field = _boundary_field(bc_molecule, rs.grid, kappa)
        return poisson_solve(rhs, DiscreteLaplacian(rs.grid, kappa),
                             bc="trace", bc_field=bc_field), short


def run_case(cfg, m):
    """Execute the pipeline in memory.

    Returns a dict with the fields ``total`` = ``u_long`` + ``short`` (the
    long-range solve and the run's one short-range scatter), the assembled
    tensor (``rs``), the reference kernel, the snapped molecule, the error
    report, deterministic ``metrics`` and wall-clock ``timings``.  The
    report is None when the Gaussian-sum oracle was skipped: above
    ``_ORACLE_ATOM_CAP`` atoms, and for ``kappa > 0``, where the oracle's
    unscreened field is no reference.
    """
    timings = {}
    t_all = time.perf_counter()
    rs, q, kernel, snapped, eps_eff = _assemble_stage(cfg, m, timings)
    grid = rs.grid

    u_long, short = _solve_stage(rs, timings, cfg.kappa,
                                 snapped if cfg.bc == "analytic" else None)
    u_long.meta["quad_rank"] = short.meta["quad_rank"] = q.rank

    # oracle after the densify's temporaries, before the total: lowest peak
    oracle = report = None
    if m.n_atoms <= _ORACLE_ATOM_CAP and cfg.kappa == 0:
        with _clock(timings, "oracle"):
            oracle = direct_sum_oracle(snapped, grid, kernel="gaussian_sum",
                                       quad=q)
    with _clock(timings, "compose"):
        total = compose_total(u_long, short)
    if oracle is not None:
        with _clock(timings, "oracle"):
            report = compare(total, oracle,
                             exclude_centers=[c for c, _ in rs.short_list],
                             config={"oracle": "gaussian_sum"})
    timings["total"] = time.perf_counter() - t_all

    metrics = {
        "molecule": m.name,
        "atoms": m.n_atoms,
        "net_charge": _fmt(m.net_charge),
        "n": grid.n,
        "b": _fmt(grid.b),
        "h": _fmt(grid.h),
        "rank": q.rank,
        "quad_error": _fmt(q.achieved_relative_error),
        "gamma": kernel.separation_gamma,
        "split_long": kernel.split_index,
        "split_short": kernel.n_short,
        "eps_reduce": _fmt(eps_eff),
        "rank_pre": rs.long_rank_pre,
        "rank_post": rs.long.rank,
        "bc": cfg.bc,
        "kappa": _fmt(cfg.kappa),
        "max_snap_offset": _fmt(np.max(np.abs(snapped.positions - m.positions))),
        "oracle": "gaussian_sum" if report else "skipped",
    }
    if "residual" in u_long.meta:
        metrics["solver_residual"] = _fmt(u_long.meta["residual"])
    if report is not None:
        metrics.update({
            "l2_weighted": _fmt(report.discrete_l2),
            "l2_relative": _fmt(report.relative_l2),
            "rss": _fmt(report.rss),
            "max_abs": _fmt(report.max_abs),
            "max_abs_excl": _fmt(report.max_abs_excluding_cores),
        })
    return {"total": total, "u_long": u_long, "short": short, "rs": rs,
            "kernel": kernel, "molecule": snapped, "report": report,
            "metrics": metrics, "timings": timings, "quadrature": q}


def _fmt(v):
    return "%.17g" % float(v)


def run_pipeline(cfg, m):
    """Run the pipeline and write the artifact bundle into ``cfg.outdir``.

    Writes total/long/short field dumps, a deterministic ``metrics.txt``
    (key=value, sorted) and the stage wall times in ``timings.txt``.
    Returns the in-memory bundle with a ``paths`` entry added.
    """
    out = run_case(cfg, m)
    os.makedirs(cfg.outdir, exist_ok=True)
    paths = {}

    def _p(name):
        paths[name] = os.path.join(cfg.outdir, name)
        return paths[name]

    save_field(out["total"], _p("total.bin"))
    save_field(out["u_long"], _p("ulong.bin"))
    save_field(out["short"], _p("short.bin"))
    with open(_p("metrics.txt"), "w") as fh:
        for k in sorted(out["metrics"]):
            fh.write("%s=%s\n" % (k, out["metrics"][k]))
    with open(_p("timings.txt"), "w") as fh:
        for k in sorted(out["timings"]):
            fh.write("%s=%.3f\n" % (k, out["timings"][k]))
    if out["report"] is not None:
        write_report(out["report"], _p("report.txt"))
    out["paths"] = paths
    return out


def export_slice(f, axis=None, index=None, fmt="csv", path="slice.csv"):
    """Export a field slice as CSV, or the full volume as legacy VTK.

    CSV: one ``# axis=.. index=..`` header line, then n rows of n
    comma-separated ``%.17e`` values (exact float64 round-trip).  VTK
    (``fmt="vtk"``): STRUCTURED_POINTS scalar volume, written only when
    ``axis`` is omitted.
    """
    n = f.grid.n
    if fmt == "csv":
        if axis not in (1, 2, 3):
            raise ConfigError("csv export needs axis in {1,2,3}")
        if index is None or not (0 <= index < n):
            raise ConfigError("slice index out of range")
        sl = [slice(None)] * 3
        sl[axis - 1] = index
        vals = f.values[tuple(sl)]
        with open(path, "w") as fh:
            fh.write("# axis=%d index=%d n=%d b=%.17g h=%.17g\n"
                     % (axis, index, n, f.grid.b, f.grid.h))
            for row in vals:
                fh.write(",".join("%.17e" % v for v in row) + "\n")
        return path
    if fmt == "vtk":
        if axis is not None:
            raise ConfigError("vtk export writes the full volume; omit axis")
        g = f.grid
        with open(path, "w") as fh:
            fh.write("# vtk DataFile Version 3.0\npotential field\nASCII\n")
            fh.write("DATASET STRUCTURED_POINTS\n")
            fh.write("DIMENSIONS %d %d %d\n" % (n, n, n))
            fh.write("ORIGIN %.17g %.17g %.17g\n" % (-g.b, -g.b, -g.b))
            fh.write("SPACING %.17g %.17g %.17g\n" % (g.h, g.h, g.h))
            fh.write("POINT_DATA %d\n" % n ** 3)
            fh.write("SCALARS potential double 1\nLOOKUP_TABLE default\n")
            flat = f.values.ravel(order="F")
            for beg in range(0, flat.size, 4096):
                fh.write("\n".join("%.17g" % v for v in flat[beg:beg + 4096]))
                fh.write("\n")
        return path
    raise ConfigError("unknown export format %r" % fmt)


def _molecule_from_args(args):
    if args.pqr:
        return parse_pqr(args.pqr)
    if args.synthetic:
        he = args.half_extent
        if he is None:
            raise ConfigError("--synthetic needs --half-extent")
        return synthetic_cluster(args.synthetic, he, args.min_sep, args.seed)
    raise ConfigError("give a molecule via --pqr or --synthetic")


def _config_from_args(args):
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)
                        if getattr(args, f.name, None) is not None})


def _num_or_auto(kind):
    def conv(s):
        if s == "auto":
            return "auto"
        return kind(s)
    return conv


def _add_common(sp):
    # molecule, grid and quadrature: the flags every molecule subcommand reads
    sp.add_argument("--n", type=int, help="grid points per axis")
    sp.add_argument("--b", type=_num_or_auto(float), help="box half-width in A, or 'auto'")
    sp.add_argument("--rank", type=_num_or_auto(int), help="quadrature rank, or 'auto'")
    sp.add_argument("--eps-kernel", dest="eps_kernel", type=float)
    sp.add_argument("--seed", type=int, default=0,
                    help="synthetic cluster seed (default 0)")
    sp.add_argument("-o", "--outdir", default=None)
    sp.add_argument("--pqr", help="PQR file with ATOM/HETATM records")
    sp.add_argument("--synthetic", type=int, metavar="N",
                    help="seeded synthetic cluster with N atoms")
    sp.add_argument("--half-extent", dest="half_extent", type=float,
                    help="synthetic cluster half-extent in A")
    sp.add_argument("--min-sep", dest="min_sep", type=float, default=1.0)


def _add_assembly(sp):
    sp.add_argument("--sep-radius", dest="sep_radius", type=float,
                    help="short-range support radius in A (default 3.5)")
    sp.add_argument("--eps-support", dest="eps_support", type=float)
    sp.add_argument("--eps-c2t", dest="eps_c2t", type=float,
                    help="rank-reduction tolerance in units of h^2")


def _cmd_assemble(args):
    cfg = _config_from_args(args)
    m = _molecule_from_args(args)
    rs = _assemble_stage(cfg, m, {})[0]
    d = cfg.outdir
    os.makedirs(d, exist_ok=True)
    save_canonical(rs.long, os.path.join(d, "long.ct3"))
    save_canonical(rs.short_reference, os.path.join(d, "short_template.ct3"))
    side = {"n": rs.grid.n, "b": rs.grid.b, "gamma": rs.gamma,
            "rank_pre": rs.long_rank_pre, "rank_post": rs.long.rank,
            "centers": [list(c) for c, _ in rs.short_list],
            "weights": [w for _, w in rs.short_list]}
    with open(os.path.join(d, "shortlist.json"), "w") as fh:
        json.dump(side, fh, sort_keys=True)
    print("assembled %s: long rank %d -> %d, %d short contributions"
          % (m.name, rs.long_rank_pre, rs.long.rank, len(rs.short_list)))
    return 0


def _load_bundle(d):
    path = os.path.join(d, "shortlist.json")
    try:
        with open(path) as fh:
            side = json.load(fh)
        grid = Grid3(side["n"], side["b"])
        nodes = np.array(side["centers"], dtype=float)
        weights = np.array(side["weights"], dtype=float)
        if (weights.ndim != 1 or nodes.shape != (weights.size, 3)
                or not np.all(np.isfinite(weights)) or np.any(
                    (nodes != np.round(nodes)) | (nodes < 0) | (nodes >= grid.n))):
            raise ValueError("centers must be N nodes in [0, %d)^3 with N "
                             "finite weights" % grid.n)
        gamma, rank_pre = int(side["gamma"]), int(side["rank_pre"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError("malformed %s: %s %s" % (path, type(e).__name__, e))
    long = load_canonical(os.path.join(d, "long.ct3"))
    if long.shape != (grid.n,) * 3:
        raise DataError("long.ct3 in %s has shape %s, not the n=%d of "
                        "shortlist.json" % (d, long.shape, grid.n))
    short_list = list(zip(map(tuple, nodes.astype(int).tolist()),
                          weights.tolist()))
    return RSTensor(grid, long,
                    load_canonical(os.path.join(d, "short_template.ct3")),
                    short_list, gamma, long_rank_pre=rank_pre)


def _cmd_solve(args):
    d = args.indir
    rs = _load_bundle(d)
    u, short = _solve_stage(rs, {})
    total = compose_total(u, short)
    out = args.outdir or d
    os.makedirs(out, exist_ok=True)
    save_field(u, os.path.join(out, "ulong.bin"))
    save_field(total, os.path.join(out, "total.bin"))
    print("wrote ulong.bin and total.bin in %s" % out)
    return 0


def _cmd_run(args):
    cfg = _config_from_args(args)
    m = _molecule_from_args(args)
    out = run_pipeline(cfg, m)
    for k in sorted(out["metrics"]):
        print("%s=%s" % (k, out["metrics"][k]))
    print("artifacts in %s" % cfg.outdir)
    return 0


def _cmd_validate(args):
    cfg = _config_from_args(args)
    m = _molecule_from_args(args)
    f = load_field(args.field)
    grid = f.grid
    if args.n is not None and args.n != grid.n:
        raise ConfigError("--n %d does not match n=%d of %s"
                          % (args.n, grid.n, args.field))
    if args.b not in (None, "auto") and abs(args.b - grid.b) > 1e-12 * grid.b:
        raise ConfigError("--b %.17g does not match b=%.17g of %s"
                          % (args.b, grid.b, args.field))
    quad_rank = f.meta.get("quad_rank")
    if quad_rank is not None:
        if args.rank not in (None, "auto") and args.rank != quad_rank:
            raise ConfigError("--rank %d does not match quad_rank=%d of %s"
                              % (args.rank, quad_rank, args.field))
        cfg.rank = quad_rank
    snapped, (nodes, _) = snapped_molecule(m, grid)
    if args.oracle_kernel == "gaussian_sum":
        q = _resolve_quadrature(cfg, grid)
        oracle = direct_sum_oracle(snapped, grid, kernel="gaussian_sum", quad=q)
    else:
        oracle = direct_sum_oracle(snapped, grid, kernel="exact_newton")
    rep = compare(f, oracle, exclude_centers=nodes.tolist(),
                  config={"oracle": args.oracle_kernel, "field": args.field})
    out = args.outdir or "."
    os.makedirs(out, exist_ok=True)
    write_report(rep, os.path.join(out, "report.txt"))
    print(rep.text())
    return 0


def _cmd_export(args):
    f = load_field(args.field)
    path = export_slice(f, axis=args.axis, index=args.index,
                        fmt=args.format, path=args.out)
    print("wrote %s" % path)
    return 0


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    p = argparse.ArgumentParser(
        prog="rstensor",
        description="Collective electrostatics of many-particle systems in "
                    "range-separated canonical tensor form.")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("assemble", help="assemble a molecule's potential")
    _add_common(sp)
    _add_assembly(sp)

    sp = sub.add_parser("solve", help="compose the fields of an assembled bundle")
    sp.add_argument("-i", "--indir", required=True)
    sp.add_argument("-o", "--outdir", default=None)

    sp = sub.add_parser("run", help="full pipeline with reports")
    _add_common(sp)
    _add_assembly(sp)
    sp.add_argument("--bc", choices=("homogeneous", "analytic"))
    sp.add_argument("--kappa", type=float,
                    help="screening in 1/A; needs --bc analytic")

    sp = sub.add_parser("validate", help="compare a field dump to an oracle")
    _add_common(sp)
    sp.add_argument("--field", required=True, help="field dump path")
    sp.add_argument("--oracle-kernel", dest="oracle_kernel",
                    choices=("gaussian_sum", "exact_newton"),
                    default="gaussian_sum")

    sp = sub.add_parser("export", help="export a slice or volume")
    sp.add_argument("--field", required=True)
    sp.add_argument("--axis", type=int, choices=(1, 2, 3), default=None)
    sp.add_argument("--index", type=int, default=None)
    sp.add_argument("--format", choices=("csv", "vtk"), default="csv")
    sp.add_argument("--out", default="slice.csv")

    args = p.parse_args(argv)
    handlers = {"assemble": _cmd_assemble, "solve": _cmd_solve, "run": _cmd_run,
                "validate": _cmd_validate, "export": _cmd_export}
    try:
        return handlers[args.cmd](args)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except NumericError as e:
        print("numeric failure: %s" % e, file=sys.stderr)
        return 3
    except (DataError, OSError) as e:
        print("i/o error: %s" % e, file=sys.stderr)
        return 4
